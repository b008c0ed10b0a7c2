"""Real-valued solvers: pure equilibria, dominant strategies, exact
support enumeration, fictitious play, epsilon checks."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

import distgames as dg
from distgames import errors

import oracles

FP_TOL = 1e-2

# classic two-strategy games (payoffs are negated prison years for the
# dilemma; rows and columns ordered stay-silent first, confess second)
DILEMMA = dg.new_bimatrix([[-1, -5], [0, -4]], [[-1, 0], [-5, -4]])
NO_DOMINANT = dg.new_bimatrix([[1, 0], [0, 1]], [[1, 0], [3, 2]])
TWO_PURE = dg.new_bimatrix([[1, 0], [0, 5]], [[-1, -2], [-2, 3]])


class TestPureEquilibria:
    def test_dilemma_has_unique_mutual_confession(self):
        assert dg.pure_equilibria(DILEMMA) == [(1, 1)]

    def test_two_equilibria_on_diagonal(self):
        assert dg.pure_equilibria(TWO_PURE) == [(0, 0), (1, 1)]

    def test_cyclic_game_has_none(self, rps):
        assert dg.pure_equilibria(rps) == []


class TestDominantSolution:
    def test_dilemma(self):
        assert dg.dominant_solution(DILEMMA) == (1, 1)

    def test_missing_row_dominance(self):
        assert dg.dominant_solution(NO_DOMINANT) is None

    def test_trivial_game(self):
        G = dg.new_bimatrix([[2]], [[3]])
        assert dg.dominant_solution(G) == (0, 0)


class TestSupportEnumeration:
    def test_cyclic_game_unique_uniform(self, rps):
        out = dg.support_enumeration(rps)
        assert len(out.equilibria) == 1
        rep = out.equilibria[0]
        assert rep.profile.x == oracles.RPS_MIX
        assert rep.profile.y == oracles.RPS_MIX
        assert rep.payoffs == (0, 0)
        assert not rep.pure

    def test_reference_two_by_two(self, vector_game_2x2):
        top = dg.top_projection(vector_game_2x2)
        out = dg.support_enumeration(top)
        assert not out.degenerate_flag
        assert len(out.equilibria) == 1
        rep = out.equilibria[0]
        assert rep.profile.x == oracles.TWO_BY_TWO_TOP_X
        assert rep.profile.y == oracles.TWO_BY_TWO_TOP_Y
        assert rep.payoffs[0] == oracles.TWO_BY_TWO_TOP_VALUE

    def test_pure_equilibria_show_up_with_singleton_supports(self):
        out = dg.support_enumeration(TWO_PURE)
        singletons = {
            (rep.supports[0][0], rep.supports[1][0])
            for rep in out.equilibria
            if rep.pure
        }
        assert singletons >= set(dg.pure_equilibria(TWO_PURE))

    def test_supports_match_positive_mass(self, rps):
        out = dg.support_enumeration(rps)
        rep = out.equilibria[0]
        I, J = rep.supports
        assert list(I) == [i for i, v in enumerate(rep.profile.x) if v > 0]
        assert list(J) == [j for j, v in enumerate(rep.profile.y) if v > 0]

    def test_every_report_is_exact_equilibrium(self):
        for G in (DILEMMA, NO_DOMINANT, TWO_PURE):
            for rep in dg.support_enumeration(G).equilibria:
                assert dg.is_epsilon_equilibrium(G, rep.profile, 0)


    def test_flag_from_singular_x_side_behind_a_failing_y_side(self):
        # the full-support pair is the only singular system: its y side
        # has a negative weight, and its x side (B's columns differ by a
        # constant) has no solution
        G = dg.new_bimatrix([[0, 2], [-1, 0]], [[0, 1], [0, 1]])
        assert dg.support_enumeration(G).degenerate_flag is True


# The Fraction Gauss-Jordan support enumeration that the integer kernel
# replaced, kept here as an independent reference.
def _gauss_jordan(aug):
    n = len(aug)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n] for row in aug]


def _reference_mix(M, rows, cols, n):
    """Weights over cols (as a full mix of length n) and the common
    payoff that make the rows of M indifferent, or None if singular."""
    k = len(rows)
    aug = [[M[i][j] for j in cols] + [F(-1), F(0)] for i in rows]
    aug.append([F(1)] * k + [F(0), F(1)])
    sol = _gauss_jordan(aug)
    if sol is None:
        return None
    mix = [F(0)] * n
    for j, w in zip(cols, sol[:k]):
        mix[j] = w
    return mix, sol[k]


def reference_support_enumeration(G):
    A = [[F(v) for v in row] for row in G.A]
    Bt = [[F(v) for v in col] for col in zip(*G.B)]
    n1, n2 = len(A), len(Bt)
    degenerate = False
    seen = {}
    for k in range(1, min(n1, n2) + 1):
        for I in combinations(range(n1), k):
            for J in combinations(range(n2), k):
                ry = _reference_mix(A, I, J, n2)
                rx = _reference_mix(Bt, J, I, n1)
                if ry is None or rx is None:
                    degenerate = True
                    continue
                (y, v1), (x, v2) = ry, rx
                if min(y) < 0 or min(x) < 0:
                    continue
                u1 = [sum(a * w for a, w in zip(row, y)) for row in A]
                u2 = [sum(b * w for b, w in zip(row, x)) for row in Bt]
                if max(u1) > v1 or max(u2) > v2:
                    continue
                if u1.count(v1) > sum(w > 0 for w in y) or \
                        u2.count(v2) > sum(w > 0 for w in x):
                    degenerate = True
                seen[(tuple(x), tuple(y))] = (v1, v2)
    reports = []
    for (x, y), payoffs in seen.items():
        supp_x = tuple(i for i, w in enumerate(x) if w > 0)
        supp_y = tuple(j for j, w in enumerate(y) if w > 0)
        reports.append(dg.EquilibriumReport(
            dg.MixedProfile(x, y), (supp_x, supp_y), payoffs,
            len(supp_x) == 1 and len(supp_y) == 1))
    reports.sort(key=lambda r: (len(r.supports[0]), r.supports[0],
                                r.supports[1], r.profile.x, r.profile.y))
    return dg.SolveOutcome(tuple(reports), degenerate)


ENTRIES = {
    "fraction": lambda rng: F(rng.randint(-9, 9), rng.randint(1, 4)),
    # ties and singular systems everywhere
    "small-int": lambda rng: rng.randint(-1, 1),
    # binary rationals with denominators near 2**52 and beyond
    "float": lambda rng: rng.uniform(-1, 1),
}
SHAPES = [(2, 2), (3, 3), (4, 4), (5, 5), (1, 4), (2, 3), (3, 2), (2, 5),
          (4, 3)]


def _random_matrix(rng, kind, n1, n2):
    return [[ENTRIES[kind](rng) for _ in range(n2)] for _ in range(n1)]


class TestKernelAgainstReference:
    @pytest.mark.parametrize("kind", sorted(ENTRIES))
    @pytest.mark.parametrize("n1,n2", SHAPES)
    def test_same_outcome(self, kind, n1, n2):
        rng = random.Random(f"{kind}-{n1}x{n2}")
        for _ in range(2 if n1 * n2 >= 16 else 6):
            G = dg.new_bimatrix(_random_matrix(rng, kind, n1, n2),
                                _random_matrix(rng, kind, n1, n2))
            assert dg.support_enumeration(G) == \
                reference_support_enumeration(G)

    @pytest.mark.parametrize("kind", sorted(ENTRIES))
    def test_same_outcome_zero_sum(self, kind):
        rng = random.Random(f"zero-sum-{kind}")
        for n in (2, 3, 4):
            G = dg.new_bimatrix(_random_matrix(rng, kind, n, n),
                                zero_sum=True)
            assert dg.support_enumeration(G) == \
                reference_support_enumeration(G)

    def test_zero_sum_value_of_float_games(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            G = dg.new_bimatrix(_random_matrix(rng, "float", n, n),
                                zero_sum=True)
            ref = reference_support_enumeration(G)
            value = dg.zero_sum_value(G)
            assert type(value) is F
            assert value == ref.equilibria[0].payoffs[0]

    def test_tiny_and_huge_floats(self):
        G = dg.new_bimatrix([[1e-300, 2.0 ** -1074], [3.5e300, -1.0]],
                            [[0.1, -0.3], [2.0 ** -60, 1e200]])
        assert dg.support_enumeration(G) == reference_support_enumeration(G)


class TestZeroSumValue:
    def test_cyclic_game(self, rps):
        assert dg.zero_sum_value(rps) == 0

    def test_reference_game_value(self, vector_game_2x2):
        top = dg.top_projection(vector_game_2x2)
        assert dg.zero_sum_value(top) == oracles.TWO_BY_TWO_TOP_VALUE

    def test_constant_game(self):
        G = dg.new_bimatrix([[F(3, 7)]], zero_sum=True)
        assert dg.zero_sum_value(G) == F(3, 7)

    def test_requires_zero_sum(self):
        with pytest.raises(errors.NotZeroSum):
            dg.zero_sum_value(NO_DOMINANT)


class TestBestResponse:
    def test_beating_a_pure_strategy(self, rps):
        # second strategy beats the first outright
        assert dg.best_response_set(rps, 1, [1, 0, 0]) == {1}
        assert dg.best_response_set(rps, 2, [1, 0, 0]) == {1}

    def test_degenerate_top_game_has_three_best_rows(self, degenerate_game):
        top = dg.top_projection(degenerate_game)
        h = F(1, 2)
        assert dg.best_response_set(top, 1, [h, h, 0]) == {0, 1, 2}

    def test_constant_payoffs_everything_best(self):
        G = dg.new_bimatrix([[1, 1], [1, 1]], [[0, 0], [0, 0]])
        assert dg.best_response_set(G, 1, [F(1, 2), F(1, 2)]) == {0, 1}

    def test_dimension_checked(self, rps):
        with pytest.raises(errors.DimensionMismatch):
            dg.best_response_set(rps, 1, [1, 0])


class TestFictitiousPlay:
    def test_single_cell_trace_constant(self):
        G = dg.new_bimatrix([[F(2, 3)]], [[1]])
        trace = dg.fictitious_play(G, 5)
        assert len(trace) == 5
        for rec in trace:
            assert rec.x == (1.0,)
            assert rec.y == (1.0,)
            assert rec.payoff1 == pytest.approx(2 / 3)

    def test_dominant_strategy_absorbs(self):
        trace = dg.fictitious_play(DILEMMA, 200)
        last = trace[-1]
        assert last.x[1] >= 0.99
        assert last.y[1] >= 0.99

    def test_cyclic_game_value(self, rps):
        trace = dg.fictitious_play(rps, 2000)
        assert abs(trace[-1].payoff1) < FP_TOL

    def test_record_every_keeps_final(self, rps):
        trace = dg.fictitious_play(rps, 12, record_every=5)
        assert [rec.round for rec in trace] == [5, 10, 12]

    def test_seeded_start_reproducible(self, rps):
        t1 = dg.fictitious_play(rps, 50, seed=9)
        t2 = dg.fictitious_play(rps, 50, seed=9)
        assert t1 == t2

    def test_payoff_is_average_play_payoff(self):
        A = [[F(1, 3), 2, F(-5, 7)], [1, F(1, 2), 0]]
        G = dg.new_bimatrix(A, [[1, 0, F(2, 9)], [0, 3, 1]])
        for rec in dg.fictitious_play(G, 60, seed=4, record_every=7):
            k = rec.round
            cx = [round(v * k) for v in rec.x]
            cy = [round(v * k) for v in rec.y]
            u = sum(cx[i] * A[i][j] * cy[j] for i in range(2) for j in range(3))
            assert rec.payoff1 == pytest.approx(float(u / (k * k)), rel=1e-12)


class TestEpsilonEquilibrium:
    def test_exact_equilibrium_at_zero(self, rps):
        u = F(1, 3)
        p = dg.new_profile([u, u, u], [u, u, u])
        assert dg.is_epsilon_equilibrium(rps, p, 0)

    def test_pure_rock_is_half_off(self, rps):
        p = dg.pure_profile(0, 0, 3, 3)
        assert not dg.is_epsilon_equilibrium(rps, p, F(1, 2))
        assert dg.is_epsilon_equilibrium(rps, p, 1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        G = dg.new_bimatrix([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]])
        p = dg.pure_profile(0, 0, 2, 2)
        assert not dg.is_epsilon_equilibrium(G, p, 0)
        with pytest.raises(ValueError, match="non-finite"):
            dg.is_epsilon_equilibrium(G, p, eps)

    def test_support_payoffs_equal_at_equilibria(self, rps):
        # every pure strategy inside the support earns the mixed payoff
        for G in (rps, TWO_PURE):
            for rep in dg.support_enumeration(G).equilibria:
                u1 = rep.payoffs[0]
                for i in rep.supports[0]:
                    dev = dg.new_profile(
                        [1 if r == i else 0 for r in range(len(rep.profile.x))],
                        rep.profile.y,
                    )
                    assert dg.mixed_payoff(G, dev, 1) == u1


class TestFloatFictitiousPlay:
    """The float path of fictitious play, against the exact path on
    dyadic games, where float sums carry no rounding error."""

    @staticmethod
    def _twins(rng, n1, n2):
        ks = [[[rng.randint(-40, 40) for _ in range(n2)] for _ in range(n1)]
              for _ in range(2)]
        exact = dg.new_bimatrix(*[[[F(k, 8) for k in row] for row in M]
                                  for M in ks])
        floats = dg.new_bimatrix(*[[[k / 8 for k in row] for row in M]
                                   for M in ks])
        return exact, floats

    def test_dyadic_float_game_matches_its_fraction_twin(self):
        rng = random.Random(20)
        for trial in range(60):
            exact, floats = self._twins(rng, rng.randint(1, 4),
                                        rng.randint(1, 4))
            seed = None if trial % 2 else trial
            assert dg.fictitious_play(floats, 300, seed=seed) == \
                dg.fictitious_play(exact, 300, seed=seed)
