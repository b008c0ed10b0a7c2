"""Game data model and structural transformations.

Three game flavors share the bimatrix shape: scalar payoffs, fixed-length
vector payoffs, and distribution payoffs.  Matrices are tuples of row
tuples.  All indices are 0-based.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Sequence

from . import errors
from ._numeric import close_to, reject_non_finite, sums_to_one
from .dist import DiscreteDistribution, dirac, mass_vector, merge_weighted


@dataclass(frozen=True)
class BimatrixGame:
    A: tuple
    B: tuple
    zero_sum: bool = False


@dataclass(frozen=True)
class VectorBimatrixGame:
    A: tuple
    B: tuple
    dim: int


@dataclass(frozen=True)
class DistributionBimatrixGame:
    """Payoff cells are DiscreteDistribution values.

    zero_sum means both players receive the same distribution but rank
    outcomes in reverse, so A and B coincide cellwise.
    """

    A: tuple
    B: tuple
    zero_sum: bool = False


@dataclass(frozen=True)
class MixedProfile:
    x: tuple
    y: tuple


def _freeze_matrix(M) -> tuple:
    rows = tuple(tuple(row) for row in M)
    if not rows or not rows[0]:
        raise errors.DimensionMismatch("matrix must be non-empty")
    w = len(rows[0])
    for row in rows:
        if len(row) != w:
            raise errors.DimensionMismatch("matrix rows must have equal length")
    return rows


def _freeze_pair(A, B, zero_sum: bool, complement) -> tuple:
    """Frozen A and B of one shape; a missing B is complement(A), which
    only a zero-sum game may ask for."""
    Af = _freeze_matrix(A)
    if B is None and not zero_sum:
        raise errors.DimensionMismatch("B is required unless zero_sum")
    Bf = complement(Af) if B is None else _freeze_matrix(B)
    if len(Af) != len(Bf) or len(Af[0]) != len(Bf[0]):
        raise errors.DimensionMismatch("A and B must have the same shape")
    return Af, Bf


def _cell_pairs(A, B):
    """Matching entries of A and B; vector cells give one pair per
    coordinate."""
    for ra, rb in zip(A, B):
        for ca, cb in zip(ra, rb):
            if isinstance(ca, (tuple, list)):
                yield from zip(ca, cb)
            else:
                yield ca, cb


def negates(A, B) -> bool:
    """B = -A entry by entry under close_to; cells are numbers or vectors."""
    return all(close_to(a, -b) for a, b in _cell_pairs(A, B))


def new_bimatrix(A, B=None, zero_sum: bool = False) -> BimatrixGame:
    """Build a scalar bimatrix game. With zero_sum and no B, B = -A."""
    Af, Bf = _freeze_pair(A, B, zero_sum,
                          lambda M: tuple(tuple(-v for v in row) for row in M))
    reject_non_finite(v for M in (Af, Bf) for row in M for v in row)
    if zero_sum:
        for a, b in _cell_pairs(Af, Bf):
            if not close_to(a, -b):
                raise errors.NotZeroSum(f"cell {a} vs {b} violates B = -A")
    return BimatrixGame(Af, Bf, zero_sum)


def new_vector_game(A, B, dim: int | None = None) -> VectorBimatrixGame:
    """Build a vector-payoff game; every cell must have the same length."""
    Af, Bf = (tuple(tuple(tuple(cell) for cell in row) for row in M)
              for M in _freeze_pair(A, B, False, None))
    d = operator.index(dim) if dim is not None else len(Af[0][0])
    for M in (Af, Bf):
        for row in M:
            for cell in row:
                if len(cell) != d:
                    raise errors.DimensionMismatch(
                        f"cell has dimension {len(cell)}, expected {d}"
                    )
                reject_non_finite(cell)
    return VectorBimatrixGame(Af, Bf, d)


def new_distribution_game(A, B=None, zero_sum: bool = False) -> DistributionBimatrixGame:
    """Build a distribution-payoff game. zero_sum shares A cellwise; with
    zero_sum and no B, B = A."""
    Af, Bf = _freeze_pair(A, B, zero_sum, lambda M: M)
    for M in (Af, Bf):
        for row in M:
            for cell in row:
                if not isinstance(cell, DiscreteDistribution):
                    raise errors.DimensionMismatch("cells must be distributions")
    if zero_sum and Af != Bf:
        raise errors.NotZeroSum("zero_sum requires A = B cellwise")
    return DistributionBimatrixGame(Af, Bf, zero_sum)


def shape(G) -> tuple:
    return (len(G.A), len(G.A[0]))


def new_profile(x: Sequence, y: Sequence) -> MixedProfile:
    """Pair of probability vectors; entries >= 0, each summing to 1."""
    for v in (x, y):
        if len(v) == 0:
            raise errors.WeightsNotSimplex("empty strategy vector")
        if any(w < 0 for w in v):
            raise errors.WeightsNotSimplex("negative strategy weight")
        if not sums_to_one(v):
            raise errors.WeightsNotSimplex(f"weights sum to {sum(v)}")
    return MixedProfile(tuple(x), tuple(y))


def pure_profile(i: int, j: int, n1: int, n2: int) -> MixedProfile:
    """Profile playing row i and column j with certainty."""
    if not (0 <= i < n1 and 0 <= j < n2):
        raise errors.IndexOutOfRange(f"pure strategy ({i}, {j}) outside {n1}x{n2}")
    return MixedProfile(
        tuple(1 if t == i else 0 for t in range(n1)),
        tuple(1 if t == j else 0 for t in range(n2)),
    )


def projection(G: VectorBimatrixGame, i: int) -> BimatrixGame:
    """Scalar game of coordinate i of every payoff vector.

    The result is flagged zero_sum when the projected B happens to be
    the exact negation of the projected A.
    """
    if not (0 <= i < G.dim):
        raise errors.IndexOutOfRange(f"coordinate {i} outside 0..{G.dim - 1}")
    A = tuple(tuple(cell[i] for cell in row) for row in G.A)
    B = tuple(tuple(cell[i] for cell in row) for row in G.B)
    return BimatrixGame(A, B, negates(A, B))


def top_projection(G: VectorBimatrixGame) -> BimatrixGame:
    return projection(G, G.dim - 1)


def _clean_indices(idx: Sequence[int], n: int, what: str) -> tuple:
    if len(idx) == 0:
        raise errors.EmptyIndexSet(f"empty {what} index set")
    out = sorted(set(idx))
    if out[0] < 0 or out[-1] >= n:
        raise errors.IndexOutOfRange(f"{what} index outside 0..{n - 1}")
    return tuple(out)


def subgame(G, I: Sequence[int], J: Sequence[int]):
    """Restrict any game type to rows I and columns J (sorted, deduped)."""
    n1, n2 = shape(G)
    I = _clean_indices(I, n1, "row")
    J = _clean_indices(J, n2, "column")
    A = tuple(tuple(G.A[i][j] for j in J) for i in I)
    B = tuple(tuple(G.B[i][j] for j in J) for i in I)
    return replace(G, A=A, B=B)


def common_support(G: DistributionBimatrixGame) -> tuple:
    """Sorted union of every atom appearing in any payoff cell."""
    atoms = set()
    for M in (G.A, G.B):
        for row in M:
            for cell in row:
                atoms.update(cell.atoms)
    return tuple(sorted(atoms))


def to_probability_vector_game(G: DistributionBimatrixGame) -> VectorBimatrixGame:
    """Replace each cell by its mass vector over the common support.

    Requires the common support to sit inside [1, oo) so the vector
    game's RLEX order mirrors the tail order.  In the zero-sum case
    player 2's vectors are negated: both players then maximize RLEX.
    """
    supp = common_support(G)
    if supp[0] < 1:
        raise errors.SupportBelowOne(f"smallest payoff atom {supp[0]} is below 1")
    A = tuple(tuple(mass_vector(cell, supp) for cell in row) for row in G.A)
    if G.zero_sum:
        B = tuple(tuple(tuple(-c for c in v) for v in row) for row in A)
    else:
        B = tuple(tuple(mass_vector(cell, supp) for cell in row) for row in G.B)
    return VectorBimatrixGame(A, B, len(supp))


def _weighted_sum(weights: Sequence, items: Sequence, dim: int | None):
    """Sum of w * item over the nonzero weights; items are numbers
    (dim None) or dim-vectors, summed coordinatewise."""
    if dim is None:
        return sum(w * v for w, v in zip(weights, items) if w != 0)
    out = [0] * dim
    for w, v in zip(weights, items):
        if w != 0:
            for k in range(dim):
                out[k] = out[k] + w * v[k]
    return tuple(out)


def pure_payoffs(G, player: int, mix: Sequence) -> list:
    """Payoff of each pure strategy of `player` against the opponent's
    mix: numbers for a BimatrixGame, tuples for a VectorBimatrixGame.

    Zero weights are skipped: a 0.0 weight cannot make an exact payoff float.
    """
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    n1, n2 = shape(G)
    if len(mix) != (n2 if player == 1 else n1):
        raise errors.DimensionMismatch(
            f"mix of length {len(mix)} against a {n1}x{n2} game")
    dim = G.dim if isinstance(G, VectorBimatrixGame) else None
    lines = G.A if player == 1 else zip(*G.B)
    return [_weighted_sum(mix, line, dim) for line in lines]


def mixed_payoff(G, p: MixedProfile, player: int):
    """Expected payoff of a mixed profile for one player.

    Scalar and vector games weigh the pure payoffs (pure_payoffs) by the
    player's own mix, vector games coordinatewise; distribution games
    return the mixture weighted by x_i * y_j.
    """
    n1, n2 = shape(G)
    if len(p.x) != n1 or len(p.y) != n2:
        raise errors.DimensionMismatch(
            f"profile ({len(p.x)}, {len(p.y)}) does not fit {n1}x{n2} game"
        )
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    own, opp = (p.x, p.y) if player == 1 else (p.y, p.x)
    if not isinstance(G, DistributionBimatrixGame):
        dim = G.dim if isinstance(G, VectorBimatrixGame) else None
        return _weighted_sum(own, pure_payoffs(G, player, opp), dim)
    M = G.A if player == 1 else G.B
    components = [
        (p.x[i] * p.y[j], M[i][j])
        for i in range(n1) for j in range(n2)
        if p.x[i] != 0 and p.y[j] != 0
    ]
    return merge_weighted(components)


def some_deviation_beats(G, p: MixedProfile, beats) -> bool:
    """True when beats(d, u) holds for some pure deviation payoff d of
    either player, u being that player's payoff at p."""
    for player, opp in ((1, p.y), (2, p.x)):
        u = mixed_payoff(G, p, player)
        if any(beats(d, u) for d in pure_payoffs(G, player, opp)):
            return True
    return False


def from_real_game(G: BimatrixGame) -> DistributionBimatrixGame:
    """Embed a scalar game by replacing each value with a point mass.

    Emitted with zero_sum=False even for zero-sum input: the embedded
    payoffs delta_a and delta_{-a} differ, and the shared-payoff
    zero-sum notion for distribution games does not apply.
    """
    A = tuple(tuple(dirac(v) for v in row) for row in G.A)
    B = tuple(tuple(dirac(v) for v in row) for row in G.B)
    return DistributionBimatrixGame(A, B, False)
