"""Two-sided rules against the nested scans they replaced.

Each rule here applies one test to the row player on A and to the
column player on B (or to two sequences in both directions, or one
cell reader to both payoff arrays of a game document).  The reference
copies below spell both sides out, one comparison at a time, as the
library did before the rule was written once.  The tests require the
same answers (for documents, the same error type and message), and for
the game builders equal games with equal cell types, on ties, all-equal
matrices, single rows and columns, mixed int/Fraction/float cells
including -0.0, and weakly dominant rows and columns at every index.
"""

import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import distgames as dg
from distgames import errors
from distgames._numeric import cmp, parse_number
from distgames.cli import parse_game_document
from distgames.construct import (geometric_tail_family, new_truncated_sequence,
                                 verify_cdf_alternation)
from distgames.dist import (OrderResult, as_partition, cdf,
                            compare_usual_stochastic, new_distribution,
                            segment_expectations)
from distgames.game_core import BimatrixGame, negates, new_vector_game, shape
from distgames.pareto import new_weight_vector, scalarize, segment_game
from distgames.solve_real import dominant_solution, pure_equilibria


# ------------------------------------------------------- reference copies

def ref_pure_equilibria(G):
    n1, n2 = shape(G)
    A, B = G.A, G.B
    out = []
    for i in range(n1):
        for j in range(n2):
            if all(A[i][j] >= A[r][j] for r in range(n1)) and \
               all(B[i][j] >= B[i][c] for c in range(n2)):
                out.append((i, j))
    return out


def ref_dominant_solution(G):
    n1, n2 = shape(G)
    A, B = G.A, G.B
    row = next(
        (i for i in range(n1)
         if all(A[i][j] >= A[r][j] for r in range(n1) for j in range(n2))),
        None,
    )
    col = next(
        (j for j in range(n2)
         if all(B[i][j] >= B[i][c] for c in range(n2) for i in range(n1))),
        None,
    )
    if row is None or col is None:
        return None
    return (row, col)


def ref_compare_usual_stochastic(P1, P2):
    grid = sorted(set(P1.atoms) | set(P2.atoms))
    saw_f1_above = False
    saw_f2_above = False
    for x in grid:
        c = cmp(cdf(P1, x), cdf(P2, x))
        if c > 0:
            saw_f1_above = True
        elif c < 0:
            saw_f2_above = True
    if saw_f1_above and saw_f2_above:
        return OrderResult.INCOMPARABLE
    if saw_f1_above:
        return OrderResult.LESS
    if saw_f2_above:
        return OrderResult.GREATER
    return OrderResult.EQUAL


def _ref_cdf_interval(S, x):
    p = F(0)
    for a, m in zip(S.atoms, S.masses):
        if a <= x:
            p += m
    if x > S.atoms[-1]:
        return (p, p + S.tail_mass)
    return (p, p)


def ref_verify_cdf_alternation(S1, S2, upto):
    for t in S1.atoms[:upto]:
        lo1, _ = _ref_cdf_interval(S1, t)
        _, hi2 = _ref_cdf_interval(S2, t)
        if not lo1 > hi2:
            return False
    for t in S2.atoms[:upto]:
        lo2, _ = _ref_cdf_interval(S2, t)
        _, hi1 = _ref_cdf_interval(S1, t)
        if not lo2 > hi1:
            return False
    return True


def ref_segment_matrices(G, I):
    part = as_partition(I)

    def neg_vec(P):
        return tuple(-e for e in segment_expectations(P, part))

    def pos_vec(P):
        return tuple(segment_expectations(P, part))

    A = tuple(tuple(neg_vec(cell) for cell in row) for row in G.A)
    if G.zero_sum:
        B = tuple(tuple(pos_vec(cell) for cell in row) for row in G.B)
    else:
        B = tuple(tuple(neg_vec(cell) for cell in row) for row in G.B)
    return new_vector_game(A, B, part.num_segments)


def ref_scalarize(G, w1, w2):
    u1 = new_weight_vector(w1)
    u2 = new_weight_vector(w2)
    A = tuple(
        tuple(sum(c * w for c, w in zip(cell, u1)) for cell in row)
        for row in G.A
    )
    B = tuple(
        tuple(sum(c * w for c, w in zip(cell, u2)) for cell in row)
        for row in G.B
    )
    return BimatrixGame(A, B, negates(A, B))


def ref_parse_game_document(doc):
    if not isinstance(doc, dict):
        raise ValueError("game document must be a JSON object")
    gtype = doc.get("type")
    zero_sum = doc.get("zero_sum", False)
    if not isinstance(zero_sum, bool):
        raise ValueError(f"zero_sum must be true or false, not {zero_sum!r}")
    for key in ("rows", "cols", "dim"):
        if doc.get(key) is not None and type(doc[key]) is not int:
            raise ValueError(f"{key} must be an integer, not {doc[key]!r}")
    if "A" not in doc:
        raise ValueError("game document lacks payoff array A")
    A = doc["A"]
    B = doc.get("B")

    if gtype == "bimatrix":
        Am = [[parse_number(v) for v in row] for row in A]
        Bm = None if B is None else [[parse_number(v) for v in row] for row in B]
        G = dg.new_bimatrix(Am, Bm, zero_sum=zero_sum)
    elif gtype == "vector":
        Am = [[tuple(parse_number(v) for v in cell) for cell in row] for row in A]
        if B is None:
            if not zero_sum:
                raise ValueError("vector document needs B unless zero_sum")
            Bm = [[tuple(-e for e in cell) for cell in row] for row in Am]
        else:
            Bm = [[tuple(parse_number(v) for v in cell) for cell in row]
                  for row in B]
            if zero_sum and not negates(Am, Bm):
                raise errors.NotZeroSum("B is not the negation of A")
        G = new_vector_game(Am, Bm, doc.get("dim"))
    elif gtype == "distribution":
        Am = [[dg.distribution_from_json(cell) for cell in row] for row in A]
        Bm = None if B is None else \
            [[dg.distribution_from_json(cell) for cell in row] for row in B]
        G = dg.new_distribution_game(Am, Bm, zero_sum=zero_sum)
    else:
        raise ValueError(f"unknown game type {gtype!r}")

    n1, n2 = shape(G)
    if "rows" in doc and doc["rows"] != n1:
        raise ValueError(f"rows field says {doc['rows']}, A has {n1}")
    if "cols" in doc and doc["cols"] != n2:
        raise ValueError(f"cols field says {doc['cols']}, A has {n2}")
    return G


def typed(M):
    """M with every number replaced by (type, value), so == also checks
    cell types; -0.0 keeps its sign through repr."""
    if isinstance(M, (tuple, list)):
        return tuple(typed(v) for v in M)
    return (type(M).__name__, repr(M) if isinstance(M, float) else M)


# ------------------------------------------------------------ scalar games

# Few distinct values, one per type where it can be, so ties across
# int, Fraction and float cells (1, F(1), 1.0; 0, -0.0) are common.
CELLS = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([F(1, 2), F(-1, 2), F(1), F(0), F(3, 2)]),
    st.sampled_from([0.5, -0.5, 1.0, 0.0, -0.0, 1.5, -2.0]),
)


@st.composite
def scalar_games(draw):
    n1 = draw(st.integers(1, 4))
    n2 = draw(st.integers(1, 4))
    mat = st.lists(st.lists(CELLS, min_size=n2, max_size=n2),
                   min_size=n1, max_size=n1)
    if draw(st.booleans()):             # all-equal payoffs for a player
        v = draw(CELLS)
        A = [[v] * n2 for _ in range(n1)]
    else:
        A = draw(mat)
    return dg.new_bimatrix(A, draw(mat))


def _tie(v):
    """A value equal to v, in another type where one holds it exactly."""
    if isinstance(v, float):
        return F(v)
    return float(v) if F(float(v)) == v else F(v)


class TestBestResponseTable:
    @seed(20)
    @settings(max_examples=400, deadline=None)
    @given(scalar_games())
    def test_pure_equilibria(self, G):
        assert pure_equilibria(G) == ref_pure_equilibria(G)

    @seed(21)
    @settings(max_examples=400, deadline=None)
    @given(scalar_games())
    def test_dominant_solution(self, G):
        assert dominant_solution(G) == ref_dominant_solution(G)

    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 4), (4, 1), (3, 3), (2, 5)])
    def test_dominant_row_and_column_at_every_index(self, n1, n2):
        rng = random.Random(n1 * 10 + n2)
        pool = [-1, 0, 1, F(1, 2), F(-1, 3), 0.5, -0.0, 0.0, 1.0]
        for r in range(n1):
            for c in range(n2):
                for _ in range(5):
                    A = [[rng.choice(pool) for _ in range(n2)]
                         for _ in range(n1)]
                    B = [[rng.choice(pool) for _ in range(n2)]
                         for _ in range(n1)]
                    # weakly dominant: ties the column (row) maximum
                    for j in range(n2):
                        A[r][j] = _tie(max(A[i][j] for i in range(n1)))
                    for i in range(n1):
                        B[i][c] = _tie(max(B[i]))
                    G = dg.new_bimatrix(A, B)
                    got = dominant_solution(G)
                    assert got == ref_dominant_solution(G)
                    assert got is not None and got[0] <= r and got[1] <= c
                    assert pure_equilibria(G) == ref_pure_equilibria(G)

    def test_all_equal_game_has_every_cell(self):
        G = dg.new_bimatrix([[0, -0.0, F(0)], [0.0, 0, 0]],
                            [[F(0), 0, -0.0], [0, 0.0, 0]])
        assert pure_equilibria(G) == ref_pure_equilibria(G) == [
            (i, j) for i in range(2) for j in range(3)]
        assert dominant_solution(G) == ref_dominant_solution(G) == (0, 0)


# ------------------------------------------------------ stochastic order

ATOMS = st.sampled_from([0, 1, 2, 3, F(1, 2), F(5, 2), 1.0, 1.5, 2.0])


@st.composite
def distributions(draw):
    atoms = draw(st.lists(ATOMS, min_size=1, max_size=4,
                          unique_by=lambda a: F(a)))
    k = len(atoms)
    weights = [draw(st.integers(1, 4)) for _ in range(k)]
    total = sum(weights)
    if draw(st.booleans()) and total in (1, 2, 4, 8, 16):
        masses = [w / total for w in weights]       # exact dyadic floats
    else:
        masses = [F(w, total) for w in weights]
    return new_distribution(atoms, masses)


@seed(22)
@settings(max_examples=400, deadline=None)
@given(distributions(), distributions())
def test_compare_usual_stochastic(P1, P2):
    assert compare_usual_stochastic(P1, P2) == \
        ref_compare_usual_stochastic(P1, P2)
    assert compare_usual_stochastic(P1, P1) == OrderResult.EQUAL


# ---------------------------------------------------------- cdf alternation

def _random_sequence(rng, n, pool):
    atoms = sorted(rng.sample(pool, n))
    weights = [rng.randint(1, 5) for _ in range(n + 1)]
    total = sum(weights)
    return new_truncated_sequence(atoms, [F(w, total) for w in weights[:-1]],
                                  F(weights[-1], total), 2)


def test_verify_cdf_alternation():
    rng = random.Random(23)
    checked = {True: 0, False: 0}
    families = [geometric_tail_family(c, 8)
                for c in (F(3, 2), 2, F(5, 2), 3, 4)]
    for S1 in families:
        for S2 in families:
            if S1 is S2:
                continue
            for upto in (1, 3, 6):
                if set(S1.atoms[:upto]) & set(S2.atoms[:upto]):
                    continue            # rejected before either pass
                want = ref_verify_cdf_alternation(S1, S2, upto)
                assert verify_cdf_alternation(S1, S2, upto) == want
                checked[want] += 1
    even = [F(k, 8) + 1 for k in range(0, 8, 2)]
    odd = [F(k, 8) + 1 for k in range(1, 8, 2)]
    for _ in range(300):
        n = rng.randint(1, 4)
        S1 = _random_sequence(rng, n, even)
        S2 = _random_sequence(rng, n, odd)
        upto = rng.randint(1, n)
        want = ref_verify_cdf_alternation(S1, S2, upto)
        assert verify_cdf_alternation(S1, S2, upto) == want
        checked[want] += 1
    assert checked[True] and checked[False]


# ----------------------------------------------------- segment and scalarize

def _mixed_distribution(rng, exact):
    atoms = rng.sample([-1, 0, 1, 2, 3, F(1, 2), F(7, 4), 2.5, 0.25, -0.0], 3)
    if len({F(a) for a in atoms}) < 3:
        atoms = atoms[:1]
    if exact:
        weights = [rng.randint(1, 3) for _ in atoms]
        masses = [F(w, sum(weights)) for w in weights]
    else:
        masses = [[1.0], [0.5, 0.5], [0.25, 0.25, 0.5]][len(atoms) - 1]
    return new_distribution(atoms, masses)


def _distribution_game(rng, n1, n2, zero_sum):
    def matrix():
        return [[_mixed_distribution(rng, rng.random() < 0.5)
                 for _ in range(n2)] for _ in range(n1)]
    A = matrix()
    return dg.new_distribution_game(A, None if zero_sum else matrix(),
                                    zero_sum=zero_sum)


@pytest.mark.parametrize("zero_sum", [False, True])
def test_segment_game_and_scalarize(zero_sum):
    rng = random.Random(24 + zero_sum)
    partitions = ([-1, 1, 3], [0, F(1, 2), 2, 3], (-1.0, 3.0))
    for n1, n2 in ((1, 1), (1, 3), (3, 1), (2, 2), (3, 2)):
        G = _distribution_game(rng, n1, n2, zero_sum)
        for I in partitions:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                V = segment_game(G, I)
                W = ref_segment_matrices(G, I)
            assert V == W
            assert (typed(V.A), typed(V.B)) == (typed(W.A), typed(W.B))
            m = V.dim
            for w1, w2 in (([1] + [0] * (m - 1), [0] * (m - 1) + [1]),
                           ([F(1, 3)] * m, [2] * m),
                           ([0.25] * m, [1.0] + [0] * (m - 1))):
                S = scalarize(V, w1, w2)
                T = ref_scalarize(V, w1, w2)
                assert S == T
                assert (typed(S.A), typed(S.B)) == (typed(T.A), typed(T.B))


# --------------------------------------------------------- game documents

DIST = {"atoms": [1, 2], "masses": ["1/4", 0.75]}
DOCUMENTS = [
    [], "bimatrix", None,
    {"type": "bimatrix", "A": [[1, "1/2"], [0.5, -0.0]], "B": [[0, 1], [1, 0]]},
    {"type": "bimatrix", "zero_sum": True, "A": [[1, -2]], "rows": 1},
    {"type": "bimatrix", "A": [[1, 2]]},
    {"type": "bimatrix", "A": [[1, "x"]], "B": [[0, 0]]},
    {"type": "bimatrix", "A": [[1, 2]], "B": [[0, float("nan")]]},
    {"type": "bimatrix", "A": [[1, 2]], "B": [[0, True]]},
    {"type": "bimatrix", "A": [[1, 2]], "B": [[0]]},
    {"type": "bimatrix", "A": [[1, 2]], "B": [[0, 1]], "cols": 3},
    {"type": "bimatrix", "A": [[1, 2]], "B": [[0, 1]], "rows": 1.0},
    {"type": "bimatrix", "A": 3, "B": [[0, 1]]},
    {"type": "bimatrix", "A": [[1, 2]], "B": 3},
    {"type": "bimatrix", "A": [[1, 2]], "B": [[0, 1]], "zero_sum": "no"},
    {"type": "bimatrix", "B": [[0, 1]]},
    {"type": "vector", "A": [[[1, 2], ["1/3", 0.5]]],
     "B": [[[0, 1], [1, 0]]], "dim": 2},
    {"type": "vector", "zero_sum": True, "A": [[[1, 2], [3, 4]]]},
    {"type": "vector", "A": [[[1, 2], [3, 4]]]},
    {"type": "vector", "zero_sum": True, "A": [[[1, 2]]], "B": [[[-1, -3]]]},
    {"type": "vector", "A": [[[1, 2]]], "B": [[[1]]]},
    {"type": "vector", "A": [[[1, 2]]], "B": [[[1, 2]]], "dim": 3},
    {"type": "vector", "A": [[1]], "B": [[[1]]]},
    {"type": "vector", "A": [[["p"]]], "B": [[[1]]]},
    {"type": "distribution", "A": [[DIST, DIST]], "B": [[DIST, DIST]]},
    {"type": "distribution", "zero_sum": True, "A": [[DIST]]},
    {"type": "distribution", "A": [[DIST]]},
    {"type": "distribution", "A": [[DIST]], "B": [[{"atoms": [1]}]]},
    {"type": "distribution", "A": [[{"atoms": [1], "masses": [2]}]],
     "B": [[DIST]]},
    {"type": "tree", "A": [[1]]},
    {"type": ["bimatrix"], "A": [[1]]},
    {"type": {"kind": "bimatrix"}, "A": [[1]]},
    {"A": [[1]], "B": [[1]]},
]


def _outcome(parse, doc):
    try:
        return parse(doc)
    except Exception as e:
        return (type(e), str(e))


@pytest.mark.parametrize("k", range(len(DOCUMENTS)))
def test_parse_game_document(k):
    doc = DOCUMENTS[k]
    got = _outcome(parse_game_document, doc)
    assert got == _outcome(ref_parse_game_document, doc)
    if not isinstance(got, tuple):
        assert (typed(got.A), typed(got.B)) == \
            (typed(ref_parse_game_document(doc).A),
             typed(ref_parse_game_document(doc).B))
