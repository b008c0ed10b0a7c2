"""The counterexample constructions against reference copies of their
earlier forms.

The alternating-moment reference writes the winner's lower bound, the
loser's upper bound, the order search and the 60-step bisection of the
new atom out separately, one Fraction sum each; the shift reference
sums every residual per term.  The tests require equal (x, y,
certificate) triples, and for the shift construction equal results or
the same error type and message, on seeded non-dyadic inputs.
"""

import random
from dataclasses import is_dataclass
from fractions import Fraction as F

import pytest

from distgames import errors
from distgames._numeric import scale_to_integers
from distgames.construct import (X_ABOVE_Y, Y_ABOVE_X, AlternationCertificate,
                                 ShiftTermCertificate, _positions_to_sequence,
                                 alternating_moment_pair,
                                 new_truncated_sequence, shift_construction)


# ------------------------------------------------------- reference copies

REF_K_CAP = 10 ** 5


def ref_winner_lower(w, n, new_atom, k):
    total = sum(F(1, 2 ** l) * w[l - 1] ** k for l in range(1, n + 1))
    return total + F(1, 2 ** n) * new_atom ** k


def ref_loser_upper(v, n, b, k):
    total = sum(F(1, 2 ** l) * v[l - 1] ** k for l in range(1, n + 1))
    return total + F(1, 2 ** (n + 1)) * v[n - 1] ** k \
        + F(1, 2 ** (n + 1)) * b ** k


def ref_search_k(w, v, n, b, k_start):
    (W, V, (Bi,)), _ = scale_to_integers([w, v, [b]])
    k = k_start
    pw = [x ** k for x in W]
    pv = [x ** k for x in V]
    pb = Bi ** k
    while k <= REF_K_CAP:
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
        f"no moment order up to {REF_K_CAP} separates the bounds"
    )


def ref_bisect_new_atom(w, v, n, b, k):
    upper = ref_loser_upper(v, n, b, k)
    prefix = sum(F(1, 2 ** l) * w[l - 1] ** k for l in range(1, n + 1))
    gap = (upper - prefix) * 2 ** n
    lo, hi = w[-1], b
    if gap <= 0:
        return lo + (b - lo) / 2 ** 60
    gn, gd = gap.numerator, gap.denominator
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid.numerator ** k * gd > gn * mid.denominator ** k:
            hi = mid
        else:
            lo = mid
    return hi if hi < b else None


def ref_alternating_moment_pair(a, b, N, x1=None, y1=None):
    af = F(a)
    bf = F(b)
    if not (0 <= af < bf):
        raise ValueError("need 0 <= a < b")
    x0 = af if x1 is None else F(x1)
    y0 = af if y1 is None else F(y1)
    for v in (x0, y0):
        if not (af <= v < bf):
            raise ValueError(f"initial atom {v} outside [{af}, {bf})")
    if N < 1:
        raise ValueError("need N >= 1")
    xs, ys = [x0], [y0]
    k_prev = 0
    k_list, dirs, checks = [], [], []
    for step in range(2, N + 1):
        n = step - 1
        if step % 2 == 0:
            w, v, dname = xs, ys, X_ABOVE_Y
        else:
            w, v, dname = ys, xs, Y_ABOVE_X
        k_min = ref_search_k(w, v, n, bf, k_prev + 1)
        k = ref_search_k(w, v, n, bf, 2 * k_min)
        while True:
            c = ref_bisect_new_atom(w, v, n, bf, k)
            if c is not None:
                break
            k = ref_search_k(w, v, n, bf, k + 1)
        v.append(v[-1])
        w.append(c)
        k_list.append(k)
        dirs.append(dname)
        checks.append((ref_winner_lower(w[:-1], n, c, k),
                       ref_loser_upper(v[:-1], n, bf, k)))
        k_prev = k
    cert = AlternationCertificate(tuple(k_list), tuple(dirs), tuple(checks))
    return (_positions_to_sequence(xs, bf), _positions_to_sequence(ys, bf), cert)


def ref_shift_construction(atoms, masses, bound_b):
    s = [F(a) for a in atoms]
    f = [F(m) for m in masses]
    b = F(bound_b)
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
    terms = list(range(1, N))
    t = {i: (s[i - 1] + s[i]) / 2 for i in terms}
    c = {}
    for i in terms:
        c[i] = max(s[i - 1] / t[i], 1 - F(1, 2 ** i), f[i] / f[i - 1])
    g = {i: c[i] * f[i - 1] for i in terms}
    t0 = (1 + s[0]) / 2
    g0 = sum((1 - c[i]) * f[i - 1] for i in terms)
    out_atoms = [t0] + [t[i] for i in terms]
    out_masses = [g0] + [g[i] for i in terms]
    tail = 1 - sum(out_masses)
    shifted = new_truncated_sequence(out_atoms, out_masses, tail, b)
    certs = []
    for i in terms:
        residual_known = sum((1 - c[j]) * f[j - 1] for j in terms if j >= i)
        residual_cap = residual_known + F(1, 2 ** (N - 1)) * f[N - 1]
        above = None
        if i < N - 1:
            above = sum((1 - c[j]) * f[j - 1] for j in terms if j > i) > 0
        certs.append(ShiftTermCertificate(
            term=i,
            c=c[i],
            atom_ratio=s[i - 1] / t[i],
            mass_floor=1 - F(1, 2 ** i),
            mass_ratio=f[i] / f[i - 1],
            first_moment_ok=c[i] * t[i] >= s[i - 1],
            cdf_above_shifted=above,
            cdf_below_original=residual_cap < f[i - 1],
        ))
    return shifted, tuple(certs)


# ------------------------------------------------------------- inputs

def typed(x):
    """x flattened to (type, value) leaves, so that 1 and Fraction(1) differ
    (repr would do, but the five-term bounds pass the int-str digit limit)."""
    if is_dataclass(x):
        x = tuple(vars(x).values())
    if isinstance(x, (tuple, list)):
        return [type(x)] + [typed(v) for v in x]
    return type(x), x


def odd_fraction(rng, lo, hi):
    """A fraction in [lo, hi) whose denominator has an odd factor."""
    q = rng.choice([3, 5, 7, 9, 15])
    return lo + (hi - lo) * F(rng.randrange(q), q)


def alternating_args(seed):
    rng = random.Random(seed)
    a = F(rng.randrange(3), rng.choice([1, 3, 5]))
    b = a + F(rng.randrange(2, 9), rng.choice([3, 5, 7]))
    x1 = None if rng.random() < 0.25 else odd_fraction(rng, a, b)
    y1 = None if rng.random() < 0.25 else odd_fraction(rng, a, b)
    return a, b, rng.randrange(1, 6), x1, y1


ALTERNATING_CASES = [
    (1, 2, 4, None, None),
    (0, 1, 5, None, None),
    (F(1, 3), F(7, 3), 4, F(1, 2), F(2, 3)),
    (F(2, 5), F(7, 3), 4, None, F(5, 3)),
] + [alternating_args(seed) for seed in range(12)]


@pytest.mark.parametrize("a, b, N, x1, y1", ALTERNATING_CASES)
def test_alternating_pair_equals_reference(a, b, N, x1, y1):
    got = alternating_moment_pair(a, b, N, x1=x1, y1=y1)
    want = ref_alternating_moment_pair(a, b, N, x1=x1, y1=y1)
    assert typed(got) == typed(want)


def shift_args(rng):
    """Mostly valid shift inputs, each kind of invalid input now and then."""
    n = rng.randrange(2, 9)
    b = 1 + F(rng.randrange(1, 9), rng.choice([1, 3]))
    cuts = sorted(rng.sample(range(1, 1000), n))
    atoms = [1 + (b - 1) * F(c, 1000) for c in cuts]
    top = F(2, rng.choice([n, 2 * n, 3 * n]))
    masses = sorted((top * F(rng.randrange(1, 97), 97)
                     for _ in range(n)), reverse=True)
    fault = rng.randrange(10)
    if fault == 0 and n >= 2:
        atoms[0], atoms[1] = atoms[1], atoms[0]
    elif fault == 1 and n >= 2:
        masses[1] = masses[0]
    elif fault == 2:
        masses[0] += 1
    elif fault == 3:
        atoms[-1] = b
    elif fault == 4:
        masses[-1] = F(0)
    elif fault == 5:
        atoms = atoms[:rng.randrange(2)]
    return atoms, masses, b


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (errors.DistGamesError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_shift_construction_equals_reference(seed):
    rng = random.Random(seed)
    for _ in range(50):
        args = shift_args(rng)
        assert typed(outcome(shift_construction, *args)) == \
            typed(outcome(ref_shift_construction, *args))
