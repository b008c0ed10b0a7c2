"""Finitely-supported discrete distributions and stochastic orders on them.

A distribution is a sorted tuple of atoms with positive masses summing to
one.  Comparisons come in several flavors: by expectation, by pointwise
cdf dominance, by the moment-tail order (decided through its
reflected-lexicographic reduction on a common support), and by the
partition-based cumulative-tail-expectation order.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from . import errors
from ._numeric import (
    Number,
    cmp,
    parse_number,
    reject_non_finite,
    sums_to_one,
    to_json,
)


class OrderResult(enum.Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability distribution with finite support on the reals.

    atoms are strictly increasing, masses are positive and sum to one.
    Instances are immutable; build them with new_distribution.
    """

    atoms: tuple
    masses: tuple


@dataclass(frozen=True)
class Partition:
    """Strictly increasing boundary points x_1 < ... < x_{m+1}, m >= 1."""

    points: tuple

    @property
    def num_segments(self) -> int:
        return len(self.points) - 1


def new_partition(points: Sequence[Number]) -> Partition:
    pts = tuple(points)
    if len(pts) < 2:
        raise errors.InvalidPartition("need at least two boundary points")
    for i in range(len(pts) - 1):
        if not pts[i] < pts[i + 1]:
            raise errors.InvalidPartition(
                f"boundary points must be strictly increasing, got {pts[i]} then {pts[i + 1]}"
            )
    return Partition(pts)


def as_partition(I) -> Partition:
    """I itself when it is a Partition, else new_partition(I)."""
    if isinstance(I, Partition):
        return I
    return new_partition(I)


def new_distribution(atoms: Sequence[Number], masses: Sequence[Number]) -> DiscreteDistribution:
    """Validate and canonicalize a finitely-supported distribution.

    Parameters
    ----------
    atoms : sequence of numbers
        Outcome values, in any order.
    masses : sequence of numbers
        Probability of each outcome, aligned with atoms.

    Returns
    -------
    DiscreteDistribution
        Atoms sorted increasing with masses carried along.

    Raises
    ------
    EmptySupport
        If the lists are empty or of different lengths.
    NonPositiveMass
        If any mass is <= 0.
    DuplicateAtom
        If two atoms coincide. Duplicates are rejected, not merged,
        since they almost always indicate a caller bug.
    MassSumNotOne
        If the masses do not sum to 1 (exactly for exact inputs,
        within 1e-12 otherwise).
    ValueError
        If an atom or mass is a NaN or infinite float.
    """
    if len(atoms) != len(masses):
        raise errors.EmptySupport(
            f"atoms and masses must have equal length, got {len(atoms)} and {len(masses)}"
        )
    if len(atoms) == 0:
        raise errors.EmptySupport("a distribution needs at least one atom")
    reject_non_finite((*atoms, *masses))
    pairs = sorted(zip(atoms, masses), key=lambda p: p[0])
    for (a1, _), (a2, _) in zip(pairs, pairs[1:]):
        if a1 == a2:
            raise errors.DuplicateAtom(f"atom {a1} appears more than once")
    for _, w in pairs:
        if not w > 0:
            raise errors.NonPositiveMass(f"mass {w} is not positive")
    ws = [w for _, w in pairs]
    if not sums_to_one(ws):
        raise errors.MassSumNotOne(f"masses sum to {sum(ws)}, expected 1")
    return DiscreteDistribution(tuple(a for a, _ in pairs), tuple(ws))


def dirac(x: Number) -> DiscreteDistribution:
    """Point mass at x."""
    return DiscreteDistribution((x,), (1,))


def moment(P: DiscreteDistribution, k: int) -> Number:
    """k-th raw moment, sum of mass * atom**k. moment(P, 0) is 1."""
    if k < 0:
        raise ValueError("moment order must be non-negative")
    return sum(w * a ** k for a, w in zip(P.atoms, P.masses))


def mixture(components: Sequence[tuple]) -> DiscreteDistribution:
    """Convex combination of distributions.

    components is a list of (weight, distribution) pairs. Weights must be
    non-negative and sum to one. Atoms appearing in several components
    merge; atoms whose combined mass is zero are dropped.
    """
    weights = [w for w, _ in components]
    if any(w < 0 for w in weights):
        raise errors.WeightsNotSimplex("mixture weights must be non-negative")
    if not sums_to_one(weights):
        raise errors.WeightsNotSimplex(
            f"mixture weights sum to {sum(weights)}, expected 1")
    return merge_weighted(components)


def merge_weighted(components: Sequence[tuple]) -> DiscreteDistribution:
    """Combine (weight, distribution) pairs without the simplex check.

    Used internally where weight validity is already established (e.g.
    products of checked probability vectors).
    """
    acc: dict = {}
    for w, P in components:
        if w == 0:
            continue
        for a, m in zip(P.atoms, P.masses):
            acc[a] = acc.get(a, 0) + w * m
    pairs = sorted((a, m) for a, m in acc.items() if m != 0)
    if not pairs:
        raise errors.EmptySupport("mixture has no mass anywhere")
    return DiscreteDistribution(tuple(a for a, _ in pairs), tuple(m for _, m in pairs))


def cdf(P: DiscreteDistribution, x: Number) -> Number:
    """Right-continuous distribution function: total mass of atoms <= x."""
    total = 0
    for a, w in zip(P.atoms, P.masses):
        if a > x:
            break
        total = total + w
    return total


def compare_expectation(P1: DiscreteDistribution,
                        P2: DiscreteDistribution) -> OrderResult:
    """Order by first moment. Total but not antisymmetric."""
    c = cmp(moment(P1, 1), moment(P2, 1))
    return (OrderResult.LESS, OrderResult.EQUAL, OrderResult.GREATER)[c + 1]


def compare_usual_stochastic(P1: DiscreteDistribution,
                             P2: DiscreteDistribution) -> OrderResult:
    """Usual stochastic order via pointwise cdf dominance.

    P1 is Less than P2 when F1 >= F2 everywhere with strict inequality
    somewhere (larger cdf means the mass sits lower). Checking at the
    union of the atoms suffices for step functions. Crossing cdfs give
    Incomparable.
    """
    grid = sorted(set(P1.atoms) | set(P2.atoms))
    signs = {cmp(cdf(P1, x), cdf(P2, x)) for x in grid}
    if {-1, 1} <= signs:
        return OrderResult.INCOMPARABLE
    if 1 in signs:
        return OrderResult.LESS
    if -1 in signs:
        return OrderResult.GREATER
    return OrderResult.EQUAL


def rlex_compare(v1: Sequence[Number], v2: Sequence[Number]) -> OrderResult:
    """Reflected lexicographic order: compare coordinates from the last
    index down, first difference decides. Total and antisymmetric.
    """
    if len(v1) != len(v2):
        raise errors.DimensionMismatch(
            f"vectors have lengths {len(v1)} and {len(v2)}"
        )
    for i in range(len(v1) - 1, -1, -1):
        c = cmp(v1[i], v2[i])
        if c < 0:
            return OrderResult.LESS
        if c > 0:
            return OrderResult.GREATER
    return OrderResult.EQUAL


def mass_vector(P: DiscreteDistribution, grid: Sequence[Number]) -> tuple:
    """Mass of P at each grid point, 0 off its support."""
    f = dict(zip(P.atoms, P.masses))
    return tuple(f.get(x, 0) for x in grid)


def common_support_mass_vectors(P1: DiscreteDistribution, P2: DiscreteDistribution):
    """Mass vectors of both distributions over the sorted union of atoms."""
    grid = sorted(set(P1.atoms) | set(P2.atoms))
    return grid, mass_vector(P1, grid), mass_vector(P2, grid)


def tail_compare(P1: DiscreteDistribution, P2: DiscreteDistribution) -> OrderResult:
    """Moment-tail order, decided on the common support.

    For finite supports contained in [1, oo) the tail order coincides
    with the reflected lexicographic order on the mass vectors over the
    union of atoms, so the decision is exact and total. Supports dipping
    below 1 are rejected because the reduction needs atoms >= 1.
    """
    lo = min(P1.atoms[0], P2.atoms[0])
    if lo < 1:
        raise errors.SupportBelowOne(f"smallest atom {lo} is below 1")
    _, v1, v2 = common_support_mass_vectors(P1, P2)
    return rlex_compare(v1, v2)


def segment_expectations(P: DiscreteDistribution, I) -> tuple:
    """Per-segment partial expectations over a partition.

    Segment i spans [x_i, x_{i+1}), except the last which is closed on
    the right. Atoms left of the first boundary or right of the last are
    skipped. Component i is the sum of mass * atom over atoms landing in
    segment i.
    """
    part = as_partition(I)
    pts = part.points
    m = part.num_segments
    out = [0] * m
    for a, w in zip(P.atoms, P.masses):
        if a < pts[0] or a > pts[-1]:
            continue
        j = bisect_right(pts, a) - 1
        if j == m:
            j = m - 1
        out[j] = out[j] + w * a
    return tuple(out)


def cumulative_tail_expectations(P: DiscreteDistribution, I) -> tuple:
    """Suffix sums of segment_expectations: component i is the partial
    expectation over [x_i, x_{m+1}]."""
    segs = segment_expectations(P, I)
    out = []
    running = 0
    for s in reversed(segs):
        running = running + s
        out.append(running)
    return tuple(reversed(out))


def tweakable_compare(P1: DiscreteDistribution, P2: DiscreteDistribution,
                      I) -> OrderResult:
    """Reflected lexicographic order on cumulative tail expectations.

    Both supports must lie inside the partition range; unlike
    segment_expectations this is strict, out-of-range atoms raise.
    """
    part = as_partition(I)
    lo, hi = part.points[0], part.points[-1]
    for P in (P1, P2):
        if P.atoms[0] < lo or P.atoms[-1] > hi:
            raise errors.SupportOutsidePartition(
                f"support [{P.atoms[0]}, {P.atoms[-1]}] not inside [{lo}, {hi}]"
            )
    e1 = cumulative_tail_expectations(P1, part)
    e2 = cumulative_tail_expectations(P2, part)
    return rlex_compare(e1, e2)


def partition_from_utility(u: Callable[[float], float], a: Number, b: Number,
                           m: int) -> Partition:
    """Quantile partition of [a, b] under a monotone utility.

    Interior boundary x_i solves u(x_i) = (i-1)/m by bisection, to
    within 1e-10 in utility space. u should be continuous and strictly
    increasing with u(a) = 0 and u(b) = 1; monotonicity is spot-checked
    on a sample grid.
    """
    if m < 1:
        raise ValueError("need at least one segment")
    a = float(a)
    b = float(b)
    if not a < b:
        raise errors.InvalidPartition("need a < b")
    samples = [a + (b - a) * j / 32 for j in range(33)]
    vals = [u(x) for x in samples]
    for x1, x2, y1, y2 in zip(samples, samples[1:], vals, vals[1:]):
        if y2 < y1:
            raise errors.NotMonotone(f"u({x2}) = {y2} < u({x1}) = {y1}")
    points = [a]
    for i in range(2, m + 1):
        target = (i - 1) / m
        lo, hi = a, b
        ulo, uhi = u(lo), u(hi)
        if not (ulo <= target <= uhi):
            raise errors.NoConvergence(
                f"target {target} outside [u(a), u(b)] = [{ulo}, {uhi}]"
            )
        ok = False
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            um = u(mid)
            if abs(um - target) <= 1e-10:
                points.append(mid)
                ok = True
                break
            if um < target:
                lo = mid
            else:
                hi = mid
        if not ok:
            raise errors.NoConvergence(
                f"bisection stalled solving u(x) = {target}"
            )
    points.append(b)
    return new_partition(points)


def distribution_to_json(P: DiscreteDistribution) -> dict:
    """JSON-ready dict with exact values as "p/q" strings."""
    return to_json({"atoms": P.atoms, "masses": P.masses})


def distribution_from_json(obj: dict) -> DiscreteDistribution:
    """Parse {"atoms": [...], "masses": [...]}, numbers or "p/q" strings."""
    if not isinstance(obj, dict) or "atoms" not in obj or "masses" not in obj:
        raise errors.EmptySupport('expected an object with "atoms" and "masses"')
    atoms = [parse_number(x) for x in obj["atoms"]]
    masses = [parse_number(x) for x in obj["masses"]]
    return new_distribution(atoms, masses)
