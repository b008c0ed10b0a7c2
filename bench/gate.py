"""The benchmark's correctness gate.

Every check here is the benchmark's own exact arithmetic on plain data
(nested lists of Fractions and the JSON-shaped dicts the CLI prints); none
of it calls the library.  Library results are first turned into the same
JSON shape the CLI uses, so one checker serves both the direct calls of
solve-exact and the stdout of cli-mix.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from fractions import Fraction

ORDER_NAMES = ("Less", "Equal", "Greater")


class Tally:
    """Attempted and failed ops of one run.

    A failure whose op is marked as a known defect of the library is
    counted as failed like any other, and also counted under `known`; any
    other failure makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.failures: list = []

    def record(self, ok: bool, kind: str = "", known_defect: bool = False):
        self.attempted += 1
        if not ok:
            self.fail(kind, known_defect)

    def fail(self, kind: str, known_defect: bool = False, count: int = 1):
        self.failed += count
        if known_defect:
            self.known += count
        elif kind not in self.failures:
            self.failures.append(kind)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return not self.failures


# ------------------------------------------------------------ canonical form

def num(v) -> Fraction:
    """Exact value of a JSON number or "p/q" string (floats exactly)."""
    if isinstance(v, bool):
        raise TypeError("boolean is not a number")
    return Fraction(v)


def fmt(v):
    """JSON form of an exact number: an int, or a "p/q" string."""
    if isinstance(v, float):
        return v
    v = Fraction(v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _payoff(p):
    return [fmt(c) for c in p] if isinstance(p, tuple) else fmt(p)


def report_doc(rep) -> dict:
    return {
        "x": [fmt(v) for v in rep.profile.x],
        "y": [fmt(v) for v in rep.profile.y],
        "supports": [list(rep.supports[0]), list(rep.supports[1])],
        "payoffs": [_payoff(p) for p in rep.payoffs],
        "pure": rep.pure,
    }


def outcome_doc(out) -> dict:
    """A support-enumeration outcome in the CLI's JSON shape."""
    return {"equilibria": [report_doc(r) for r in out.equilibria],
            "degenerate": out.degenerate_flag}


def decision_doc(dec) -> dict:
    """An RLEX decision in the CLI's JSON shape."""
    return {
        "status": dec.status,
        "equilibria": [report_doc(r) for r in dec.equilibria],
        "candidates_checked": [
            {"x": [fmt(v) for v in p.x], "y": [fmt(v) for v in p.y],
             "verified": ok}
            for p, ok in dec.candidates_checked
        ],
        "degenerate": dec.degenerate,
    }


def vector_game_doc_from(VA, VB) -> dict:
    return {"A": [[[fmt(c) for c in cell] for cell in row] for row in VA],
            "B": [[[fmt(c) for c in cell] for cell in row] for row in VB],
            "dim": len(VA[0][0])}


def vector_game_doc(V) -> dict:
    return vector_game_doc_from(V.A, V.B)


def digest(obj) -> str:
    """Short hash of a text, or of the canonical JSON of a document."""
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------------ scalar games

def _mat(M) -> list:
    return [[num(v) for v in row] for row in M]


def nash_ok(A, B, x, y, v1, v2) -> bool:
    """(x, y) is a mixed equilibrium of (A, B) with payoffs (v1, v2)."""
    n1, n2 = len(A), len(A[0])
    if len(x) != n1 or len(y) != n2:
        return False
    if any(w < 0 for w in x + y) or sum(x) != 1 or sum(y) != 1:
        return False
    Ay = [sum(A[i][j] * y[j] for j in range(n2)) for i in range(n1)]
    xB = [sum(x[i] * B[i][j] for i in range(n1)) for j in range(n2)]
    u1 = sum(x[i] * Ay[i] for i in range(n1))
    u2 = sum(xB[j] * y[j] for j in range(n2))
    return u1 == v1 and u2 == v2 and max(Ay) == u1 and max(xB) == u2


def check_outcome(A, B, doc) -> bool:
    """Every reported equilibrium passes the exact best-response check,
    its supports and pure flag match its weights, none repeats, and a
    non-degenerate game reports at least one."""
    A, B = _mat(A), _mat(B)
    eqs = doc["equilibria"]
    if not eqs and not doc["degenerate"]:
        return False
    seen = set()
    for e in eqs:
        x = [num(v) for v in e["x"]]
        y = [num(v) for v in e["y"]]
        v1, v2 = (num(p) for p in e["payoffs"])
        if not nash_ok(A, B, x, y, v1, v2):
            return False
        sx = [i for i, w in enumerate(x) if w > 0]
        sy = [j for j, w in enumerate(y) if w > 0]
        if [sx, sy] != e["supports"] or e["pure"] != (len(sx) == len(sy) == 1):
            return False
        key = (tuple(x), tuple(y))
        if key in seen:
            return False
        seen.add(key)
    return True


def pure_cells(A, B) -> list:
    """Pure equilibria in row-major order."""
    A, B = _mat(A), _mat(B)
    n1, n2 = len(A), len(A[0])
    return [(i, j) for i in range(n1) for j in range(n2)
            if A[i][j] == max(A[r][j] for r in range(n1))
            and B[i][j] == max(B[i][c] for c in range(n2))]


def dominant_cell(A, B):
    """Lowest-index weakly dominant row and column, or None."""
    A, B = _mat(A), _mat(B)
    n1, n2 = len(A), len(A[0])
    row = next((i for i in range(n1) if all(
        A[i][j] >= A[r][j] for r in range(n1) for j in range(n2))), None)
    col = next((j for j in range(n2) if all(
        B[i][j] >= B[i][c] for c in range(n2) for i in range(n1))), None)
    return None if row is None or col is None else (row, col)


def check_pure_listing(A, B, doc, cells) -> bool:
    """The listing names exactly `cells`, in order, as pure reports."""
    Af, Bf = _mat(A), _mat(B)
    got = []
    for e in doc["equilibria"]:
        (i,), (j,) = e["supports"]
        got.append((i, j))
        if [num(p) for p in e["payoffs"]] != [Af[i][j], Bf[i][j]]:
            return False
    return got == list(cells) and doc["degenerate"] is False


# ------------------------------------------------------------ vector games

def rlex_greater(u, v) -> bool:
    """u above v in the reflected lexicographic order."""
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return a > b
    return False


def _vec_payoff(M, x, y) -> tuple:
    d = len(M[0][0])
    return tuple(sum(x[i] * y[j] * M[i][j][k]
                     for i in range(len(x)) for j in range(len(y)))
                 for k in range(d))


def rlex_equilibrium(VA, VB, x, y) -> bool:
    """No pure deviation of either player is RLEX-above its payoff."""
    n1, n2 = len(x), len(y)
    e1 = [[1 if t == i else 0 for t in range(n1)] for i in range(n1)]
    e2 = [[1 if t == j else 0 for t in range(n2)] for j in range(n2)]
    u1 = _vec_payoff(VA, x, y)
    u2 = _vec_payoff(VB, x, y)
    return not (any(rlex_greater(_vec_payoff(VA, d, y), u1) for d in e1)
                or any(rlex_greater(_vec_payoff(VB, x, d), u2) for d in e2))


def check_decision(VA, VB, doc) -> bool:
    """Candidates are equilibria of the top projection, each verdict
    agrees with the exact RLEX check, reported equilibria carry their
    exact vector payoffs, and the status follows from the verdicts."""
    VA = [[[num(c) for c in cell] for cell in row] for row in VA]
    VB = [[[num(c) for c in cell] for cell in row] for row in VB]
    TA = [[cell[-1] for cell in row] for row in VA]
    TB = [[cell[-1] for cell in row] for row in VB]
    verified = []
    for c in doc["candidates_checked"]:
        x = [num(v) for v in c["x"]]
        y = [num(v) for v in c["y"]]
        u1 = _vec_payoff(VA, x, y)[-1]
        u2 = _vec_payoff(VB, x, y)[-1]
        if not nash_ok(TA, TB, x, y, u1, u2):
            return False
        if rlex_equilibrium(VA, VB, x, y) != c["verified"]:
            return False
        if c["verified"]:
            verified.append((x, y))
    if not doc["candidates_checked"] and not doc["degenerate"]:
        return False
    for e in doc["equilibria"]:
        x = [num(v) for v in e["x"]]
        y = [num(v) for v in e["y"]]
        if (x, y) not in verified:
            return False
        want = [list(_vec_payoff(VA, x, y)), list(_vec_payoff(VB, x, y))]
        if [[num(c) for c in p] for p in e["payoffs"]] != want:
            return False
    if len(doc["equilibria"]) != len(verified):
        return False
    if doc["degenerate"]:
        status = "Indeterminate"
    else:
        status = "Equilibria" if verified else "NoEquilibrium"
    return doc["status"] == status


# ------------------------------------------------------ distribution games

def mass_vector_game(DA, DB, zero_sum: bool):
    """Mass vectors over the common support; player 2 negated when the
    game is zero-sum.  Cells are (atoms, masses) pairs."""
    supp = sorted({a for M in (DA, DB) for row in M for atoms, _ in row
                   for a in atoms})

    def vec(cell):
        f = dict(zip(cell[0], cell[1]))
        return [f.get(a, 0) for a in supp]

    VA = [[vec(c) for c in row] for row in DA]
    if zero_sum:
        VB = [[[-m for m in v] for v in row] for row in VA]
    else:
        VB = [[vec(c) for c in row] for row in DB]
    return VA, VB


def segment_vector(cell, points) -> list:
    m = len(points) - 1
    out = [Fraction(0)] * m
    for a, w in zip(*cell):
        if points[0] <= a <= points[-1]:
            out[min(bisect_right(points, a) - 1, m - 1)] += w * a
    return out


def segment_game(DA, DB, zero_sum: bool, points):
    """Negated per-segment expectations; player 2 keeps the positive
    ones in the zero-sum (shared loss) case."""
    VA = [[[-e for e in segment_vector(c, points)] for c in row]
          for row in DA]
    sign = 1 if zero_sum else -1
    VB = [[[sign * e for e in segment_vector(c, points)] for c in row]
          for row in DB]
    return VA, VB


def scalarize(VA, VB, w1, w2):
    u1 = [Fraction(w) / sum(w1) for w in w1]
    u2 = [Fraction(w) / sum(w2) for w in w2]
    A = [[sum(c * w for c, w in zip(cell, u1)) for cell in row] for row in VA]
    B = [[sum(c * w for c, w in zip(cell, u2)) for cell in row] for row in VB]
    return A, B


# ------------------------------------------------------------ orders

def _cdf(cell, x):
    return sum((w for a, w in zip(*cell) if a <= x), Fraction(0))


def _rlex_order(u, v) -> str:
    if rlex_greater(u, v):
        return "Greater"
    return "Less" if rlex_greater(v, u) else "Equal"


def compare(order: str, P1, P2, points=None) -> str:
    """Expected verdict of `compare`; distributions are (atoms, masses)."""
    if order == "exp":
        e1 = sum(a * w for a, w in zip(*P1))
        e2 = sum(a * w for a, w in zip(*P2))
        return ORDER_NAMES[(e1 > e2) - (e1 < e2) + 1]
    grid = sorted(set(P1[0]) | set(P2[0]))
    if order == "st":
        diffs = [_cdf(P1, x) - _cdf(P2, x) for x in grid]
        above, below = any(d > 0 for d in diffs), any(d < 0 for d in diffs)
        if above and below:
            return "Incomparable"
        return "Less" if above else ("Greater" if below else "Equal")
    if order == "tail":
        f1, f2 = dict(zip(*P1)), dict(zip(*P2))
        return _rlex_order([f1.get(x, 0) for x in grid],
                           [f2.get(x, 0) for x in grid])

    def cumulative(P):
        segs = segment_vector(P, points)
        return [sum(segs[i:]) for i in range(len(segs))]

    return _rlex_order(cumulative(P1), cumulative(P2))


# ------------------------------------------------------------ constructions

def check_shift(atoms, masses, doc) -> bool:
    """`construct shift` JSON against its input truncation (s_i, f_i).

    Recomputed from the printed numbers, not read from the certificate's
    flags: the fresh low atom lies below s_1, every shifted atom t_i lies
    strictly between s_i and s_{i+1}, its mass-times-atom dominates
    f_i s_i (the first-moment fact), and the shifted cdf lies strictly
    below the original one at every original atom s_i, i < N.
    """
    s, f = [num(a) for a in atoms], [num(m) for m in masses]
    shifted = doc["shifted"]
    t = [num(a) for a in shifted["atoms"]]
    g = [num(m) for m in shifted["masses"]]
    n = len(s)
    if len(t) != n or len(g) != n or len(doc["certificate"]) != n - 1:
        return False
    if sum(g) + num(shifted["tail_mass"]) != 1 or not t[0] < s[0]:
        return False
    return all(s[i - 1] < t[i] < s[i] and g[i] * t[i] >= f[i - 1] * s[i - 1]
               and _cdf((t, g), s[i - 1]) < _cdf((s, f), s[i - 1])
               for i in range(1, n))


def _moment_interval(seq, k: int):
    """Bounds on the k-th moment of a printed truncation: the tail mass
    sits somewhere from the last atom up to the bound."""
    atoms = [num(a) for a in seq["atoms"]]
    known = sum(a ** k * num(m) for a, m in zip(atoms, seq["masses"]))
    tail = num(seq["tail_mass"])
    return (known + tail * atoms[-1] ** k,
            known + tail * num(seq["bound"]) ** k)


def check_alternation(doc, terms: int) -> bool:
    """`construct alt-moments` JSON: at each certified order the winner's
    k-th moment exceeds the loser's for every placement of both tails,
    recomputed from the printed x and y; winners alternate, starting with
    x, and each printed lower bound exceeds its upper bound."""
    cert = doc["certificate"]
    ks, dirs = cert["k_indices"], cert["directions"]
    if len(ks) != terms - 1 or len(dirs) != terms - 1 or \
            any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        return False
    for i, (k, d) in enumerate(zip(ks, dirs)):
        if d != ("XaboveY", "YaboveX")[i % 2]:
            return False
        win, lose = (doc["x"], doc["y"]) if i % 2 == 0 else (doc["y"], doc["x"])
        if not _moment_interval(win, k)[0] > _moment_interval(lose, k)[1]:
            return False
    return all(num(lo) > num(up) for lo, up in cert["bound_checks"])


# ------------------------------------------------------------ moments

def first_violation(seq, condition: str, b=None):
    """First (n, k) where the difference-triangle condition breaks."""
    row = [num(v) for v in seq]
    signed = condition != "nonneg"
    bb = num(b) if condition == "interval" else Fraction(1)
    k = 0
    while row:
        sign = -1 if signed and k % 2 else 1
        for n, v in enumerate(row):
            if sign * v < 0:
                return [n, k]
        if len(row) == 1:
            return None
        row = [row[i + 1] - bb * row[i] for i in range(len(row) - 1)]
        k += 1
    return None


# ------------------------------------------------------------ Monte Carlo

def pure_probability(m: int, n: int, zero_sum: bool) -> Fraction:
    """Closed-form chance that a random m x n game has a pure equilibrium."""
    from math import comb, factorial
    if zero_sum:
        return Fraction(factorial(m) * factorial(n), factorial(m + n - 1))
    tail = sum(Fraction((-1) ** k * factorial(k) * comb(m, k) * comb(n, k),
                        (m * n) ** k) for k in range(min(m, n) + 1))
    return 1 - tail


def within_ci(hits: int, trials: int, ref: float, z: float) -> bool:
    """Pooled estimate within z standard errors of the reference."""
    se = (ref * (1 - ref) / trials) ** 0.5
    return abs(hits / trials - ref) <= z * se
