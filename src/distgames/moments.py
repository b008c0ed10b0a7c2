"""Moment-sequence analysis.

Difference operators on finite sequences, necessary conditions for a
sequence to be the moment sequence of a distribution on [0,1], [1,b] or
[0,b], and a heuristic moment-dominance oracle.  Sequences are plain
tuples indexed from 0; all arithmetic here is exact rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional, Sequence, Tuple

from . import errors
from .dist import DiscreteDistribution, moment

FiniteSequence = Tuple[Fraction, ...]


def _exactify(s: Sequence) -> FiniteSequence:
    if len(s) == 0:
        raise errors.TooShort("empty sequence")
    return tuple(x if type(x) is Fraction else Fraction(x) for x in s)


def delta(s: Sequence) -> FiniteSequence:
    """Successive differences (s_1 - s_0, s_2 - s_1, ...); length drops by 1."""
    return delta_b(s, 1)


def delta_b(s: Sequence, b) -> FiniteSequence:
    """Modified difference (s_{n+1} - b*s_n). b=1 recovers delta, b=0 shifts."""
    t = _exactify(s)
    if len(t) < 2:
        raise errors.TooShort("need at least two entries to difference")
    return _difference(t, Fraction(b))


def _difference(t: FiniteSequence, b: Fraction) -> FiniteSequence:
    """delta_b on an exact sequence, without the checks."""
    if b == 1:      # skip the products, which double the cost
        return tuple(u - v for v, u in zip(t, t[1:]))
    return tuple(u - b * v for v, u in zip(t, t[1:]))


def _triangle_violation(s: Sequence, b, signed: bool) -> Optional[Tuple[int, int]]:
    """First (n, k) in the finite difference triangle where the condition
    (-1)^k (D^k s)_n >= 0 (signed) or (D^k s)_n >= 0 (unsigned) breaks.

    D is delta_b (b = 1 gives delta).  Scans k outward, n inward,
    covering every n, k with n + k < len(s).  None means no violation.
    """
    row = _exactify(s)
    bf = Fraction(b)
    k = 0
    while True:
        sign = -1 if (signed and k % 2 == 1) else 1
        for n, v in enumerate(row):
            if sign * v < 0:
                return (n, k)
        if len(row) == 1:
            return None
        row = _difference(row, bf)
        k += 1


def check_completely_monotonic(s: Sequence) -> bool:
    """Necessary condition for a [0,1]-supported moment sequence:
    (-1)^k (delta^k s)_n >= 0 over the whole finite triangle."""
    return first_violation(s, "cm") is None


def check_nonneg_differences(s: Sequence) -> bool:
    """Necessary condition for a [1,b]-supported moment sequence:
    every iterated difference is non-negative."""
    return first_violation(s, "nonneg") is None


def check_interval_condition(s: Sequence, b) -> bool:
    """Necessary condition for a [0,b]-supported moment sequence:
    (-1)^k (delta_b^k s)_n >= 0 over the finite triangle."""
    return first_violation(s, "interval", b) is None


def first_violation(s: Sequence, condition: str, b=None) -> Optional[Tuple[int, int]]:
    """Locate the first failing (n, k) for one of the three checks.

    condition is "cm", "nonneg" or "interval" (the latter needs b >= 0).
    """
    if condition == "cm":
        return _triangle_violation(s, 1, signed=True)
    if condition == "nonneg":
        return _triangle_violation(s, 1, signed=False)
    if condition == "interval":
        if b is None:
            raise ValueError("interval condition needs b")
        if Fraction(b) < 0:
            raise ValueError("b must be non-negative")
        return _triangle_violation(s, b, signed=True)
    raise ValueError(f"unknown condition {condition!r}")


def dominance_index(P1: DiscreteDistribution, P2: DiscreteDistribution,
                    k_max: int = 200, window: int = 20) -> Optional[int]:
    """Smallest K with m_k(P1) <= m_k(P2) for every k in [K, K+window].

    Exact rational arithmetic throughout.  Returns None when no such K
    exists up to k_max - window.  A found K is evidence, not proof, of
    eventual moment dominance.
    """
    if not (k_max >= window >= 1):
        raise ValueError("need k_max >= window >= 1")
    m1 = [Fraction(moment(P1, k)) for k in range(k_max + 1)]
    m2 = [Fraction(moment(P2, k)) for k in range(k_max + 1)]
    ok = [m1[k] <= m2[k] for k in range(k_max + 1)]
    for K in range(0, k_max - window + 1):
        if all(ok[K:K + window + 1]):
            return K
    return None


def geometric_family_moment(c, n: int):
    """Closed-form n-th moment of the tail family with atoms 2 - c^{-k}
    and masses (c-1) c^{-k}, k >= 1.

    Evaluates (c-1) * sum_j C(n,j) 2^(n-j) (-1)^j / (c^(j+1) - 1).
    Exact when c is exact.
    """
    if n < 0:
        raise ValueError("moment order must be non-negative")
    cf = Fraction(c) if not isinstance(c, float) else c
    if not cf > 1:
        raise ValueError("need c > 1")
    total = 0
    for j in range(n + 1):
        term = comb(n, j) * (2 ** (n - j)) * ((-1) ** j)
        total = total + term / (cf ** (j + 1) - 1)
    return (cf - 1) * total
