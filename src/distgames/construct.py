"""Constructive counterexample generators.

Infinite-support objects appear here as truncations: the first N atoms
with explicit masses, plus the unassigned tail mass and an upper bound b
strictly above every atom.  Every claim certified by this module is an
interval statement that stays valid no matter where the tail sits, so
truncation never silently weakens a verified inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    N = len(s)
    terms = list(range(1, N))          # construction indices with a known successor
    t = {i: (s[i - 1] + s[i]) / 2 for i in terms}
    c = {}
    for i in terms:
        c[i] = max(s[i - 1] / t[i], 1 - Fraction(1, 2 ** i), f[i] / f[i - 1])
    g = {i: c[i] * f[i - 1] for i in terms}
    t0 = (1 + s[0]) / 2
    g0 = sum((1 - c[i]) * f[i - 1] for i in terms)

    out_atoms = [t0] + [t[i] for i in terms]
    out_masses = [g0] + [g[i] for i in terms]
    tail = 1 - sum(out_masses)
    shifted = new_truncated_sequence(out_atoms, out_masses, tail, b)

    # Rigorous cdf facts.  Writing R_k for the residual sum of
    # (1 - c_i) f(s_i) over i >= k, the shifted cdf G satisfies
    # G(t_k) - F(t_k) = R_{k+1} and G(s_k) - F(s_k) = R_k - f(s_k).
    # R_{k+1} > 0 is certified by any computed positive term; the
    # unknown part of R_k is bounded by the 2^{-i} mass floors.
    certs = []
    for i in terms:
        residual_known = sum((1 - c[j]) * f[j - 1] for j in terms if j >= i)
        residual_cap = residual_known + Fraction(1, 2 ** (N - 1)) * f[N - 1]
        above = None
        if i < N - 1:
            above = sum((1 - c[j]) * f[j - 1] for j in terms if j > i) > 0
        certs.append(ShiftTermCertificate(
            term=i,
            c=c[i],
            atom_ratio=s[i - 1] / t[i],
            mass_floor=1 - Fraction(1, 2 ** i),
            mass_ratio=f[i] / f[i - 1],
            first_moment_ok=c[i] * t[i] >= s[i - 1],
            cdf_above_shifted=above,
            cdf_below_original=residual_cap < f[i - 1],
        ))
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


def _winner_lower(w: List[Fraction], n: int, new_atom: Fraction, k: int) -> Fraction:
    """Lower bound on the winner's k-th moment: known prefix plus the
    whole remaining mass at the newest atom."""
    total = sum(Fraction(1, 2 ** l) * w[l - 1] ** k for l in range(1, n + 1))
    return total + Fraction(1, 2 ** n) * new_atom ** k


def _loser_upper(v: List[Fraction], n: int, b: Fraction, k: int) -> Fraction:
    """Upper bound on the loser's k-th moment: known prefix, the
    duplicated atom at position n+1, everything later pushed to b."""
    total = sum(Fraction(1, 2 ** l) * v[l - 1] ** k for l in range(1, n + 1))
    return total + Fraction(1, 2 ** (n + 1)) * v[n - 1] ** k \
        + Fraction(1, 2 ** (n + 1)) * b ** k


def _search_k(w: List[Fraction], v: List[Fraction], n: int, b: Fraction,
              k_start: int) -> int:
    """Smallest k >= k_start where the winner's bound beats the loser's
    even if the winner's new atom were pushed all the way to b.

    Scaled to integers on a common denominator so the scan is pure int
    arithmetic with incrementally updated powers.
    """
    (W, V, (Bi,)), _ = scale_to_integers([w, v, [b]])
    k = k_start
    pw = [x ** k for x in W]
    pv = [x ** k for x in V]
    pb = Bi ** k
    while k <= _K_CAP:
        lhs = sum(2 ** (n + 1 - l) * pv[l - 1] for l in range(1, n + 1)) \
            + pv[n - 1] + pb
        rhs = sum(2 ** (n + 1 - l) * pw[l - 1] for l in range(1, n + 1)) \
            + 2 * pb
        if lhs < rhs:
            return k
        k += 1
        for idx in range(n):
            pw[idx] *= W[idx]
            pv[idx] *= V[idx]
        pb *= Bi
    raise errors.SearchBudgetExceeded(
        f"no moment order up to {_K_CAP} separates the bounds"
    )


def _bisect_new_atom(w: List[Fraction], v: List[Fraction], n: int,
                     b: Fraction, k: int) -> Optional[Fraction]:
    """Shrink the winner's new atom down from b while its lower bound
    still strictly beats the loser's upper bound at order k.

    60 bisection steps, keeping the smallest atom seen to work; any
    valid choice strictly inside (last winner atom, b) is acceptable.
    None when even 60 steps never left the bound itself, which means
    the order k was too tight a fit.
    """
    upper = _loser_upper(v, n, b, k)
    prefix = sum(Fraction(1, 2 ** l) * w[l - 1] ** k for l in range(1, n + 1))
    gap = (upper - prefix) * 2 ** n
    lo, hi = w[-1], b
    if gap <= 0:
        # any atom above the winner's last works; take the bisection floor
        return lo + (b - lo) / 2 ** 60
    # valid(c) means c^k > gap, compared in integers to avoid
    # normalizing giant intermediate fractions
    gn, gd = gap.numerator, gap.denominator
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid.numerator ** k * gd > gn * mid.denominator ** k:
            hi = mid
        else:
            lo = mid
    return hi if hi < b else None


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

    xs = [x0]
    ys = [y0]
    k_prev = 0
    k_list: List[int] = []
    dirs: List[str] = []
    checks: List[tuple] = []
    for step in range(2, N + 1):
        n = step - 1
        if step % 2 == 0:
            w, v, dname = xs, ys, X_ABOVE_Y
        else:
            w, v, dname = ys, xs, Y_ABOVE_X
        k_min = _search_k(w, v, n, bf, k_prev + 1)
        # At the minimal order the whole valid atom range hugs b, which
        # makes the next step's order explode.  Doubling the order puts
        # the bound term firmly in charge, so the new atom can sit a
        # healthy distance below b and later orders grow geometrically
        # instead.
        k = _search_k(w, v, n, bf, 2 * k_min)
        while True:
            c = _bisect_new_atom(w, v, n, bf, k)
            if c is not None:
                break
            # threshold hugged the bound; a larger order widens the gap
            k = _search_k(w, v, n, bf, k + 1)
        v.append(v[-1])
        w.append(c)
        k_list.append(k)
        dirs.append(dname)
        checks.append((_winner_lower(w[:-1], n, c, k),
                       _loser_upper(v[:-1], n, bf, k)))
        k_prev = k
    cert = AlternationCertificate(tuple(k_list), tuple(dirs), tuple(checks))
    return (_positions_to_sequence(xs, bf), _positions_to_sequence(ys, bf), cert)


def verify_alternation_certificate(x: TruncatedAtomSequence,
                                   y: TruncatedAtomSequence,
                                   cert: AlternationCertificate) -> bool:
    """Recompute every certified bound from the sequences themselves.

    Expands both sequences back to position form, rebuilds each step's
    winner-lower and loser-upper bound at the certified order, and
    demands strict separation plus the structural facts the bounds rely
    on (duplicated loser atom, nondecreasing positions, strictly
    increasing orders).  False on any failure.
    """
    X = _sequence_to_positions(x)
    Y = _sequence_to_positions(y)
    if X is None or Y is None or len(X) != len(Y):
        return False
    if x.bound_b != y.bound_b:
        return False
    b = x.bound_b
    N = len(X)
    if any(p >= b for p in X + Y):
        return False
    if any(p2 < p1 for p1, p2 in zip(X, X[1:])) or \
       any(p2 < p1 for p1, p2 in zip(Y, Y[1:])):
        return False
    ks = cert.k_indices
    if len(ks) != N - 1 or len(cert.directions) != N - 1:
        return False
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        return False
    for idx in range(N - 1):
        n = idx + 1
        d = cert.directions[idx]
        if d == X_ABOVE_Y:
            W, V = X, Y
        elif d == Y_ABOVE_X:
            W, V = Y, X
        else:
            return False
        if idx > 0 and cert.directions[idx - 1] == d:
            return False
        if V[n] != V[n - 1]:
            return False
        k = ks[idx]
        lower = _winner_lower(W[:n], n, W[n], k)
        upper = _loser_upper(V[:n], n, b, k)
        if not lower > upper:
            return False
    return True
