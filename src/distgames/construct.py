"""Constructive counterexample generators.

Infinite-support objects appear here as truncations: the first N atoms
with explicit masses, plus the unassigned tail mass and an upper bound b
strictly above every atom.  Every claim certified by this module is an
interval statement that stays valid no matter where the tail sits, so
truncation never silently weakens a verified inequality.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from . import errors
from ._numeric import scale_to_integers

X_ABOVE_Y = "XaboveY"
Y_ABOVE_X = "YaboveX"
_K_CAP = 10 ** 5        # highest moment order _search_k tries


@dataclass(frozen=True)
class TruncatedAtomSequence:
    """First N atoms of a distribution plus its unassigned remainder.

    tail_mass sits at unknown positions strictly between the last atom
    and bound_b.
    """

    atoms: tuple
    masses: tuple
    tail_mass: Fraction
    bound_b: Fraction


def new_truncated_sequence(atoms: Sequence, masses: Sequence, tail_mass,
                           bound_b) -> TruncatedAtomSequence:
    at = tuple(Fraction(a) for a in atoms)
    ms = tuple(Fraction(m) for m in masses)
    tail = Fraction(tail_mass)
    b = Fraction(bound_b)
    if len(at) != len(ms) or not at:
        raise errors.EmptySupport("need equally many atoms and masses, at least one")
    for a1, a2 in zip(at, at[1:]):
        if not a1 < a2:
            raise errors.AtomsNotIncreasing(f"atoms {a1} then {a2}")
    for m in ms:
        if not m > 0:
            raise errors.NonPositiveMass(f"mass {m}")
    if tail < 0:
        raise errors.NonPositiveMass(f"tail mass {tail} is negative")
    if sum(ms) + tail != 1:
        raise errors.MassSumNotOne(f"masses plus tail sum to {sum(ms) + tail}")
    if at[-1] >= b:
        raise ValueError(f"atom {at[-1]} reaches the bound {b}")
    return TruncatedAtomSequence(at, ms, tail, b)


def geometric_tail_family(c, N: int) -> TruncatedAtomSequence:
    """First N atoms of the family with atoms 2 - c^{-k} and masses
    (c-1) c^{-k}, k = 1..N.  The remainder c^{-N} becomes tail mass."""
    cf = Fraction(c)
    if not cf > 1:
        raise ValueError("need c > 1")
    if N < 1:
        raise ValueError("need N >= 1")
    atoms = [2 - cf ** -k for k in range(1, N + 1)]
    masses = [(cf - 1) * cf ** -k for k in range(1, N + 1)]
    return new_truncated_sequence(atoms, masses, cf ** -N, 2)


def _cdf_interval(S: TruncatedAtomSequence, x) -> Tuple[Fraction, Fraction]:
    """Sharp bounds on the underlying cdf at x.

    Below the last listed atom the cdf is known exactly; past it the
    tail mass may or may not have accumulated yet.
    """
    p = Fraction(0)
    for a, m in zip(S.atoms, S.masses):
        if a <= x:
            p += m
    if x > S.atoms[-1]:
        return (p, p + S.tail_mass)
    return (p, p)


def verify_cdf_alternation(S1: TruncatedAtomSequence, S2: TruncatedAtomSequence,
                           upto: int) -> bool:
    """Check that the two cdfs strictly overtake each other at the first
    `upto` atoms of each sequence.

    At S1's atoms F1 must strictly exceed F2, at S2's atoms the other
    way round.  Comparisons use the conservative cdf intervals, so a
    True answer is rigorous; build sequences with comfortably more than
    `upto` atoms or honest False answers will appear near the
    truncation edge.
    """
    if upto < 1:
        raise ValueError("need upto >= 1")
    if upto > len(S1.atoms) or upto > len(S2.atoms):
        raise ValueError("upto exceeds a sequence's atom count")
    overlap = set(S1.atoms[:upto]) & set(S2.atoms[:upto])
    if overlap:
        raise errors.OverlappingAtoms(f"shared atoms {sorted(overlap)}")
    return all(_cdf_interval(S, t)[0] > _cdf_interval(T, t)[1]
               for S, T in ((S1, S2), (S2, S1)) for t in S.atoms[:upto])


@dataclass(frozen=True)
class ShiftTermCertificate:
    """Records the contraction factor of one shifted atom and the
    verified facts about it.

    term is the 1-based construction index i.  cdf_above_shifted is
    None for the last computed term: certifying it needs the next
    original mass, which the truncation does not carry.
    """

    term: int
    c: Fraction
    atom_ratio: Fraction
    mass_floor: Fraction
    mass_ratio: Fraction
    first_moment_ok: bool
    cdf_above_shifted: Optional[bool]
    cdf_below_original: bool


def shift_construction(atoms: Sequence, masses: Sequence, bound_b):
    """Shift every atom right while keeping all first moments dominated.

    Input is a truncation of a mass function with strictly decreasing
    masses on strictly increasing atoms inside (1, b).  Atom s_i moves
    to the midpoint t_i of s_i and s_{i+1} and keeps the fraction
    c_i = max(s_i/t_i, 1 - 2^{-i}, f(s_{i+1})/f(s_i)) of its mass; the
    shaved-off remainder collects at a fresh low atom t_0 below s_1.
    Per term the certificate pins the three lower bounds defining c_i,
    the product inequality g(t_i) t_i >= f(s_i) s_i, and the strict cdf
    alternation facts that survive truncation.

    Returns (shifted sequence, tuple of ShiftTermCertificate).
    """
    s = [Fraction(a) for a in atoms]
    f = [Fraction(m) for m in masses]
    b = Fraction(bound_b)
    if len(s) != len(f) or len(s) < 2:
        raise errors.EmptySupport("need at least two (atom, mass) pairs")
    for a1, a2 in zip(s, s[1:]):
        if not a1 < a2:
            raise errors.AtomsNotIncreasing(f"atoms {a1} then {a2}")
    for m1, m2 in zip(f, f[1:]):
        if not m1 > m2:
            raise errors.MassesNotDecreasing(f"masses {m1} then {m2}")
    if not f[-1] > 0:
        raise errors.NonPositiveMass(f"mass {f[-1]}")
    if not (1 < s[0] and s[-1] < b):
        raise ValueError("atoms must lie strictly between 1 and the bound")
    if sum(f) > 1:
        raise errors.MassSumNotOne("masses exceed total probability 1")

    # 0-based term m is the construction's term m + 1: s[m] moves to
    # the midpoint t[m] and keeps c[m] of its mass.
    N = len(s)
    t = [(s1 + s2) / 2 for s1, s2 in zip(s, s[1:])]
    bounds = [(s[m] / t[m], 1 - Fraction(1, 2 ** (m + 1)), f[m + 1] / f[m])
              for m in range(N - 1)]
    c = [max(lb) for lb in bounds]
    # R[m] = sum of (1 - c_j) f(s_j) over j >= m, one suffix sum; R[N-1] = 0
    R = list(accumulate(reversed([(1 - cm) * fm for cm, fm in zip(c, f)]),
                        initial=0))[::-1]

    out_atoms = [(1 + s[0]) / 2] + t
    out_masses = [R[0]] + [cm * fm for cm, fm in zip(c, f)]
    tail = 1 - sum(out_masses)
    shifted = new_truncated_sequence(out_atoms, out_masses, tail, b)

    # Rigorous cdf facts.  The shifted cdf G satisfies
    # G(t_k) - F(t_k) = R_{k+1} and G(s_k) - F(s_k) = R_k - f(s_k).
    # R_{k+1} > 0 is certified by any computed positive term; the
    # unknown part of R_k is bounded by the 2^{-i} mass floors.
    cap = Fraction(1, 2 ** (N - 1)) * f[N - 1]
    certs = [ShiftTermCertificate(
        m + 1, c[m], *bounds[m],
        first_moment_ok=c[m] * t[m] >= s[m],
        cdf_above_shifted=R[m + 1] > 0 if m < N - 2 else None,
        cdf_below_original=R[m] + cap < f[m],
    ) for m in range(N - 1)]
    return shifted, tuple(certs)


@dataclass(frozen=True)
class AlternationCertificate:
    """Moment orders at which the two constructed sequences provably
    swap dominance, with the interval bounds that establish each swap.

    bound_checks[i] = (lower bound on the winner's moment, upper bound
    on the loser's moment) at order k_indices[i]; validity requires
    strict separation."""

    k_indices: tuple
    directions: tuple
    bound_checks: tuple


def _positions_to_sequence(positions: List[Fraction], b) -> TruncatedAtomSequence:
    """Merge the position-indexed atoms (mass 2^{-l} at position l) into
    a strictly-increasing truncated sequence."""
    merged: List[list] = []
    for l, a in enumerate(positions, start=1):
        w = Fraction(1, 2 ** l)
        if merged and merged[-1][0] == a:
            merged[-1][1] += w
        else:
            merged.append([a, w])
    tail = Fraction(1, 2 ** len(positions))
    return new_truncated_sequence(
        [a for a, _ in merged], [w for _, w in merged], tail, b
    )


def _sequence_to_positions(S: TruncatedAtomSequence) -> Optional[List[Fraction]]:
    """Inverse of _positions_to_sequence.  None when the masses are not
    consecutive dyadic blocks."""
    out: List[Fraction] = []
    l = 1
    for a, m in zip(S.atoms, S.masses):
        if m >= Fraction(2, 2 ** l):
            return None     # positions l, l+1, ... hold 2^{1-l} in all
        rem = m
        while rem > 0:
            rem -= Fraction(1, 2 ** l)
            out.append(a)
            l += 1
        if rem != 0:
            return None
    if S.tail_mass != Fraction(1, 2 ** len(out)):
        return None
    return out


def _dyadic_sum(powers: List[int], tail: int) -> int:
    """sum of 2^{n-l} powers[l-1] over l = 1..n, plus tail, for
    n = len(powers): 2^n times a moment with mass 2^{-l} at position l
    and the remaining 2^{-n} behind tail."""
    acc = 0
    for p in powers:
        acc = 2 * acc + p
    return acc + tail


def _moment_bound(head: List[Fraction], tail_atom: Fraction, k: int) -> Fraction:
    """Exact k-th moment with mass 2^{-l} at head[l-1] and the remaining
    2^{-len(head)} at tail_atom.

    The winner's lower bound is _moment_bound(w, new_atom, k): its
    future atoms all sit at or above the newest one.  The loser's upper
    bound is _moment_bound(v + v[-1:], b, k): its next position repeats
    its last atom and everything later is pushed to b.
    """
    (H, (T,)), d = scale_to_integers([head, [tail_atom]])
    return Fraction(_dyadic_sum([h ** k for h in H], T ** k),
                    2 ** len(head) * d ** k)


def _search_k(w: List[Fraction], v: List[Fraction], b: Fraction,
              k_start: int) -> int:
    """Smallest k >= k_start where the winner's bound beats the loser's
    even if the winner's new atom were pushed all the way to b.

    Both bounds are scaled to integers on a common denominator, so the
    scan is pure int arithmetic with incrementally updated powers.
    """
    (W, V, (Bi,)), _ = scale_to_integers([w, v, [b]])
    k = k_start
    pw = [x ** k for x in W]
    pv = [x ** k for x in V]
    pb = Bi ** k
    while k <= _K_CAP:
        # the loser's head is one position longer: double the winner's
        if _dyadic_sum(pv + pv[-1:], pb) < 2 * _dyadic_sum(pw, pb):
            return k
        k += 1
        pw = [p * x for p, x in zip(pw, W)]
        pv = [p * x for p, x in zip(pv, V)]
        pb *= Bi
    raise errors.SearchBudgetExceeded(
        f"no moment order up to {_K_CAP} separates the bounds"
    )


def _new_atom(w: List[Fraction], upper: Fraction, b: Fraction,
              k: int) -> Optional[Fraction]:
    """Smallest point c = lo + (b - lo) j / 2^60, 0 < j < 2^60, of the
    grid above the winner's last atom lo at which the winner's lower
    bound at order k strictly beats upper, the loser's upper bound.

    With n = len(w) the lower bound is the winner's prefix plus
    2^{-n} c^k, so c must satisfy c^k > gap = 2^n (upper - prefix).
    None when no grid point below b does, which means the order k was
    too tight a fit.
    """
    gap = (upper - _moment_bound(w, 0, k)) * 2 ** len(w)
    ((lo, hi),), d = scale_to_integers([[w[-1], b]])
    den = d << 60
    rhs = gap.numerator * den ** k
    j = bisect_left(range(1 << 60), True, 1, key=lambda j: (
        ((lo << 60) + (hi - lo) * j) ** k * gap.denominator > rhs))
    return None if j == 1 << 60 else Fraction((lo << 60) + (hi - lo) * j, den)


def alternating_moment_pair(a, b, N: int, x1=None, y1=None):
    """Build two sequences whose moment orders alternate in dominance.

    Starting from single atoms x1, y1 in [a, b), each step duplicates
    the loser's last atom and moves the winner's next atom upward just
    enough that the winner's k-th moment provably exceeds the loser's
    at a fresh order k, with every future continuation covered by the
    interval bounds.  Even steps push x above y, odd steps the reverse.

    Returns (x sequence, y sequence, certificate).
    """
    af = Fraction(a)
    bf = Fraction(b)
    if not (0 <= af < bf):
        raise ValueError("need 0 <= a < b")
    x0 = af if x1 is None else Fraction(x1)
    y0 = af if y1 is None else Fraction(y1)
    for v in (x0, y0):
        if not (af <= v < bf):
            raise ValueError(f"initial atom {v} outside [{af}, {bf})")
    if N < 1:
        raise ValueError("need N >= 1")

    xs, ys = [x0], [y0]
    k_prev = 0
    k_list, dirs, checks = [], [], []
    for step in range(2, N + 1):
        if step % 2 == 0:
            w, v, dname = xs, ys, X_ABOVE_Y
        else:
            w, v, dname = ys, xs, Y_ABOVE_X
        k_min = _search_k(w, v, bf, k_prev + 1)
        # At the minimal order the whole valid atom range hugs b, which
        # makes the next step's order explode.  Doubling the order puts
        # the bound term firmly in charge, so the new atom can sit a
        # healthy distance below b and later orders grow geometrically
        # instead.
        k = _search_k(w, v, bf, 2 * k_min)
        while True:
            upper = _moment_bound(v + v[-1:], bf, k)
            c = _new_atom(w, upper, bf, k)
            if c is not None:
                break
            # threshold hugged the bound; a larger order widens the gap
            k = _search_k(w, v, bf, k + 1)
        checks.append((_moment_bound(w, c, k), upper))
        v.append(v[-1])
        w.append(c)
        k_list.append(k)
        dirs.append(dname)
        k_prev = k
    cert = AlternationCertificate(tuple(k_list), tuple(dirs), tuple(checks))
    return (_positions_to_sequence(xs, bf), _positions_to_sequence(ys, bf), cert)


def verify_alternation_certificate(x: TruncatedAtomSequence,
                                   y: TruncatedAtomSequence,
                                   cert: AlternationCertificate) -> bool:
    """Recompute every certified bound from the sequences themselves.

    Expands both sequences back to position form, rebuilds each step's
    winner-lower and loser-upper bound at the certified order, and
    demands that they equal the certificate's bound_checks and are
    strictly separated, plus the structural facts the bounds rely on
    (duplicated loser atom, nondecreasing positions, strictly increasing
    integer orders from 1 up).  False on any failure.
    """
    X = _sequence_to_positions(x)
    Y = _sequence_to_positions(y)
    if X is None or Y is None or len(X) != len(Y) or x.bound_b != y.bound_b:
        return False
    b = x.bound_b
    if any(p >= b for p in X + Y) or \
       any(p2 < p1 for P in (X, Y) for p1, p2 in zip(P, P[1:])):
        return False
    ks, dirs = cert.k_indices, cert.directions
    if not len(ks) == len(dirs) == len(cert.bound_checks) == len(X) - 1:
        return False
    if any(type(k) is not int or k < 1 for k in ks) or \
       any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        return False
    for n, (k, d, pair) in enumerate(zip(ks, dirs, cert.bound_checks), 1):
        if d not in (X_ABOVE_Y, Y_ABOVE_X) or (n > 1 and dirs[n - 2] == d):
            return False
        W, V = (X, Y) if d == X_ABOVE_Y else (Y, X)
        if V[n] != V[n - 1]:
            return False
        lower = _moment_bound(W[:n], W[n], k)
        upper = _moment_bound(V[:n + 1], b, k)
        if not (lower > upper and pair == (lower, upper)):
            return False
    return True
