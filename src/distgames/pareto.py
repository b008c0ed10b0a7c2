"""Multi-objective view: segmentation, Pareto-minimality, scalarized
equilibria and weight sweeps.

Segmenting a distribution game turns each payoff distribution into a
vector of negated per-segment partial expectations (loss semantics, so
componentwise larger is better for the owning player).  Pareto-Nash
equilibria of the resulting vector game are found by scalarizing with
weight vectors and solving exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from . import errors
from ._numeric import all_exact, csv_cell, reject_non_finite
from .dist import as_partition, segment_expectations
from .game_core import (
    BimatrixGame,
    DistributionBimatrixGame,
    MixedProfile,
    VectorBimatrixGame,
    negates,
    new_vector_game,
    shape,
    some_deviation_beats,
)
from .solve_real import EquilibriumReport, SolveOutcome, support_enumeration


def new_weight_vector(w: Sequence) -> tuple:
    """Normalize a non-negative, not-all-zero weight vector to sum 1.

    Exact inputs normalize in exact arithmetic so unit weights stay
    exact, which keeps scalarization with a unit vector identical to a
    coordinate projection.  A NaN or infinite float raises ValueError.
    """
    if len(w) == 0:
        raise errors.WeightsNotSimplex("empty weight vector")
    reject_non_finite(w)
    if any(v < 0 for v in w):
        raise errors.WeightsNotSimplex("weights must be non-negative")
    total = sum(w)
    if total == 0:
        raise errors.WeightsNotSimplex("weights must not all be zero")
    if all_exact(w):
        return tuple(Fraction(v, 1) / total for v in w)
    return tuple(v / total for v in w)


def pareto_minimal(vs: Sequence[Sequence]) -> List[tuple]:
    """Vectors not strictly dominated by another one.

    y strictly dominates x when y <= x in every coordinate and y differs
    from x.  Ties and duplicates survive.  Input order is preserved.
    """
    vecs = [tuple(v) for v in vs]
    if not vecs:
        return []
    d = len(vecs[0])
    for v in vecs:
        if len(v) != d:
            raise errors.DimensionMismatch("mixed vector dimensions")
    out = []
    for x in vecs:
        dominated = any(
            y != x and all(yc <= xc for yc, xc in zip(y, x))
            for y in vecs
        )
        if not dominated:
            out.append(x)
    return out


def segment_game(G: DistributionBimatrixGame, I) -> VectorBimatrixGame:
    """Vector game of negated per-segment expectations.

    Atoms outside the partition range are skipped with a warning rather
    than an error.  For a zero-sum distribution game player 2 keeps the
    positive segment expectations: reversing preference over the shared
    loss distribution means wanting the loss high, which after the
    shared negation is exactly the sign flip.
    """
    part = as_partition(I)
    lo, hi = part.points[0], part.points[-1]
    stray = False
    for M in (G.A, G.B):
        for row in M:
            for cell in row:
                if cell.atoms[0] < lo or cell.atoms[-1] > hi:
                    stray = True
    if stray:
        warnings.warn(
            "some payoff atoms fall outside the partition and are skipped",
            stacklevel=2,
        )

    def expectations(M) -> tuple:
        return tuple(tuple(segment_expectations(P, part) for P in row)
                     for row in M)

    def negated(E) -> tuple:
        return tuple(tuple(tuple(-e for e in v) for v in row) for row in E)

    # a zero-sum B holds A's distributions: its vectors are A's, unnegated
    EA = expectations(G.A)
    B = EA if G.zero_sum else negated(expectations(G.B))
    return new_vector_game(negated(EA), B, part.num_segments)


def scalarize(G: VectorBimatrixGame, w1: Sequence, w2: Sequence) -> BimatrixGame:
    """Scalar game of weighted coordinate sums, one weight vector per
    player.  Weights are normalized on entry."""
    u1 = new_weight_vector(w1)
    u2 = new_weight_vector(w2)
    if len(u1) != G.dim or len(u2) != G.dim:
        raise errors.DimensionMismatch(
            f"weights of length {len(u1)}/{len(u2)} for a dim-{G.dim} game"
        )
    A, B = (tuple(tuple(sum(c * w for c, w in zip(cell, u)) for cell in row)
                  for row in M) for M, u in ((G.A, u1), (G.B, u2)))
    return BimatrixGame(A, B, negates(A, B))


def pareto_nash(G: VectorBimatrixGame, w1: Sequence, w2: Sequence) -> SolveOutcome:
    """Equilibria of the scalarized game; each is a Pareto-Nash
    equilibrium of G."""
    return support_enumeration(scalarize(G, w1, w2))


def verify_pareto_nash(G: VectorBimatrixGame, p: MixedProfile) -> bool:
    """Direct check: no pure deviation may be componentwise >= the
    profile payoff while differing somewhere."""
    def dominates(dev, u) -> bool:
        return tuple(dev) != tuple(u) and all(d >= c for d, c in zip(dev, u))
    return not some_deviation_beats(G, p, dominates)


@dataclass(frozen=True)
class SweepRecord:
    trial: int
    w1: tuple
    w2: tuple
    report: Optional[EquilibriumReport]


def _simplex_sample(rng, m: int) -> tuple:
    if m == 1:
        return (1.0,)
    cuts = sorted(float(c) for c in rng.random(m - 1))
    pts = [0.0] + cuts + [1.0]
    return tuple(pts[i + 1] - pts[i] for i in range(m))


def weight_sweep(G: VectorBimatrixGame, samples: int, seed: int) -> List[SweepRecord]:
    """Sample weight pairs from the simplex and solve each scalarized
    game, keeping the first equilibrium per draw.

    Each trial derives its own RNG stream from (seed, trial), so output
    is reproducible and independent of execution order.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    records = []
    for t in range(samples):
        rng = np.random.default_rng((seed, t))
        w1 = _simplex_sample(rng, G.dim)
        w2 = _simplex_sample(rng, G.dim)
        outcome = pareto_nash(G, w1, w2)
        rep = outcome.equilibria[0] if outcome.equilibria else None
        records.append(SweepRecord(t, w1, w2, rep))
    return records


def sweep_csv(G: VectorBimatrixGame, records: Sequence[SweepRecord]) -> str:
    """Render sweep records as CSV.

    Header: trial,w1_1..w1_m,w2_1..w2_m,x_1..x_n1,y_1..y_n2,u1,u2.
    Trials without an equilibrium leave the profile and payoff cells
    empty.
    """
    n1, n2 = shape(G)
    m = G.dim
    cols = (["trial"]
            + [f"w1_{k + 1}" for k in range(m)]
            + [f"w2_{k + 1}" for k in range(m)]
            + [f"x_{i + 1}" for i in range(n1)]
            + [f"y_{j + 1}" for j in range(n2)]
            + ["u1", "u2"])
    lines = [",".join(cols)]
    for rec in records:
        rep = rec.report
        tail = ((None,) * (n1 + n2 + 2) if rep is None
                else (*rep.profile.x, *rep.profile.y, *rep.payoffs))
        lines.append(",".join(map(csv_cell, (rec.trial, *rec.w1, *rec.w2,
                                             *tail))))
    return "\n".join(lines) + "\n"
