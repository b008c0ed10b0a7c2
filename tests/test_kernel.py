"""The shared payoff kernel, the closeness rule and game validation.

pure_payoffs answers "what does each pure strategy earn against the
opponent's mix" for every solver; negates and sums_to_one apply the one
closeness rule of _numeric.  The property test at the bottom runs the
float branches on dyadic games, whose sums are exact in binary floating
point, against their Fraction twins.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import distgames as dg
from distgames import errors
from distgames._numeric import (DEFAULT_TOL, MASS_SUM_TOL, close_to, cmp,
                                csv_cell, format_float, scale_to_integers,
                                sums_to_one, to_json)
from distgames.dist import OrderResult

import oracles


class TestPurePayoffs:
    def test_rps_against_uniform_mix(self, rps):
        assert dg.pure_payoffs(rps, 1, oracles.RPS_MIX) == [0, 0, 0]
        assert dg.pure_payoffs(rps, 2, oracles.RPS_MIX) == [0, 0, 0]

    def test_rows_and_columns(self):
        G = dg.new_bimatrix([[1, 2], [3, 4]], [[5, 6], [7, 8]])
        assert dg.pure_payoffs(G, 1, (F(1, 2), F(1, 2))) == [F(3, 2), F(7, 2)]
        assert dg.pure_payoffs(G, 2, (1, 0)) == [5, 6]

    def test_vector_game_gives_tuples(self, vector_game_2x2):
        y = oracles.TWO_BY_TWO_TOP_Y
        devs = dg.pure_payoffs(vector_game_2x2, 1, y)
        assert all(isinstance(d, tuple) and len(d) == 3 for d in devs)
        p = dg.new_profile((1, 0), y)
        assert devs[0] == dg.mixed_payoff(vector_game_2x2, p, 1)

    def test_mixed_payoff_weighs_pure_payoffs(self, vector_game_2x2):
        x, y = oracles.TWO_BY_TWO_TOP_X, oracles.TWO_BY_TWO_TOP_Y
        p = dg.new_profile(x, y)
        devs = dg.pure_payoffs(vector_game_2x2, 2, x)
        want = tuple(sum(w * d[k] for w, d in zip(y, devs)) for k in range(3))
        assert dg.mixed_payoff(vector_game_2x2, p, 2) == want

    def test_mix_length_and_player_checked(self, rps):
        with pytest.raises(errors.DimensionMismatch):
            dg.pure_payoffs(rps, 1, (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            dg.pure_payoffs(rps, 3, oracles.RPS_MIX)

    def test_some_deviation_beats_sees_both_players(self):
        # (0, 0) of a prisoner's dilemma: each player gains by switching
        G = dg.new_bimatrix([[3, 0], [5, 1]], [[3, 5], [0, 1]])
        p = dg.pure_profile(0, 0, 2, 2)
        seen = []
        assert dg.some_deviation_beats(
            G, p, lambda d, u: seen.append((d, u)) or False) is False
        assert seen == [(3, 3), (5, 3), (3, 3), (5, 3)]
        assert dg.some_deviation_beats(G, p, lambda d, u: d > u)
        assert not dg.some_deviation_beats(
            G, dg.pure_profile(1, 1, 2, 2), lambda d, u: d > u)

    def test_deviation_checks_reject_a_profile_of_the_wrong_size(
            self, rps, vector_game_2x2):
        short = dg.new_profile((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        with pytest.raises(errors.DimensionMismatch):
            dg.is_epsilon_equilibrium(rps, short, 0)
        wide = dg.new_profile(oracles.RPS_MIX, oracles.RPS_MIX)
        with pytest.raises(errors.DimensionMismatch):
            dg.verify_rlex_equilibrium(vector_game_2x2, wide)
        with pytest.raises(errors.DimensionMismatch):
            dg.verify_pareto_nash(vector_game_2x2, wide)

    def test_best_response_set_validation_comes_from_the_kernel(self, rps):
        with pytest.raises(ValueError, match="player must be 1 or 2"):
            dg.best_response_set(rps, 3, oracles.RPS_MIX)
        with pytest.raises(errors.DimensionMismatch):
            dg.best_response_set(rps, 2, (1, 0))


class TestClosenessRule:
    def test_exact_values_compare_exactly(self):
        assert close_to(F(1, 3), F(1, 3))
        assert not close_to(F(1, 3), F(1, 3) + F(1, 10 ** 30))

    def test_floats_use_mass_sum_tolerance(self):
        assert close_to(1.0, 1.0 + MASS_SUM_TOL / 2)
        assert not close_to(1.0, 1.0 + 10 * MASS_SUM_TOL)

    def test_sums_to_one(self):
        assert sums_to_one([F(1, 3), F(2, 3)])
        assert not sums_to_one([F(1, 3), F(1, 3)])
        assert sums_to_one([0.1] * 10)
        assert not sums_to_one([0.5, 0.5 + 1e-9])

    def test_negates_scalar_and_vector_cells(self):
        assert dg.negates([[1, F(1, 2)]], [[-1, F(-1, 2)]])
        assert not dg.negates([[1, 2]], [[-1, 2]])
        assert dg.negates([[(1, 2)]], [[(-1, -2)]])
        assert not dg.negates([[(1, 2)]], [[(-1, 2)]])
        assert dg.negates([[0.1]], [[-0.1 - MASS_SUM_TOL / 2]])
        assert dg.negates([[[1, 2]]], [[[-1, -2]]])
        assert not dg.negates([[[1, 2]]], [[[-1, 2]]])

    def test_weight_checks_keep_their_exception_types(self):
        with pytest.raises(errors.MassSumNotOne):
            dg.new_distribution([1, 2], [0.5, 0.6])
        with pytest.raises(errors.WeightsNotSimplex):
            dg.mixture([(F(1, 2), dg.dirac(1)), (F(1, 3), dg.dirac(2))])
        with pytest.raises(errors.WeightsNotSimplex):
            dg.new_profile([0.5, 0.6], [1])

    def test_format_float_round_trips(self):
        for v in (0.1, 1 / 3, -2.5e-300, 1e16 + 2):
            assert float(format_float(v)) == v
        assert format_float(F(1, 4)) == "0.25"


class TestOrderTolerance:
    """Order comparisons treat floats within DEFAULT_TOL (1e-9) as equal
    and compare exact values exactly."""

    def test_default_tolerance(self):
        assert DEFAULT_TOL == 1e-9

    def test_floats_equal_within_tolerance_ordered_beyond(self):
        assert cmp(1.0, 1.0 + 5e-10) == 0
        assert cmp(1.0 + 5e-10, 1.0) == 0
        assert cmp(1, 1.0 + 5e-10) == 0
        assert cmp(1.0, 1.0 + 2e-9) == -1
        assert cmp(1.0 + 2e-9, 1.0) == 1

    def test_exact_inputs_stay_exact(self):
        assert cmp(0, F(1, 10 ** 12)) == -1
        assert cmp(F(1, 10 ** 12), 0) == 1
        assert cmp(F(1, 3), F(2, 6)) == 0

    def test_rlex_falls_through_a_top_difference_within_tolerance(self):
        assert dg.rlex_compare((1, 0.5), (2, 0.5 + 5e-10)) is OrderResult.LESS
        assert dg.rlex_compare((2, 0.5 + 5e-10), (1, 0.5)) \
            is OrderResult.GREATER
        assert dg.rlex_compare((1, F(1, 2)), (2, F(1, 2) - F(1, 10 ** 12))) \
            is OrderResult.GREATER

    def test_float_distributions_within_tolerance_compare_equal(self):
        P1 = dg.new_distribution([1.0, 2.0], [0.5, 0.5])
        P2 = dg.new_distribution([1.0, 2.0], [0.5 - 1e-10, 0.5 + 1e-10])
        assert dg.compare_expectation(P1, P2) is OrderResult.EQUAL
        assert dg.tail_compare(P1, P2) is OrderResult.EQUAL
        P3 = dg.new_distribution([1.0, 2.0], [0.5 - 1e-6, 0.5 + 1e-6])
        assert dg.compare_expectation(P1, P3) is OrderResult.LESS
        assert dg.tail_compare(P1, P3) is OrderResult.LESS


class TestIntegerScaling:
    def test_least_common_denominator(self):
        assert scale_to_integers([[F(1, 2), F(-2, 3)], [4]]) == \
            ([[3, -4], [24]], 6)
        assert scale_to_integers([(2, -7, 0)]) == ([[2, -7, 0]], 1)
        assert scale_to_integers([]) == ([], 1)

    def test_floats_are_their_binary_rationals(self):
        ints, d = scale_to_integers([[0.1, 0.75], [-3]])
        assert d == 2 ** 55
        assert [[F(n, d) for n in row] for row in ints] == \
            [[F(0.1), F(3, 4)], [-3]]


class TestDistributionHelpers:
    def test_mass_vector_fills_zeros(self):
        P = dg.new_distribution([1, 3], [F(1, 4), F(3, 4)])
        assert dg.mass_vector(P, [1, 2, 3, 4]) == (F(1, 4), 0, F(3, 4), 0)

    def test_as_partition_passes_partitions_through(self):
        part = dg.new_partition([0, 1, 2])
        assert dg.as_partition(part) is part
        assert dg.as_partition([0, 1, 2]) == part


class TestValidation:
    def test_distribution_game_requires_b_unless_zero_sum(self):
        A = [[dg.dirac(1), dg.dirac(2)]]
        with pytest.raises(errors.DimensionMismatch,
                           match="B is required unless zero_sum"):
            dg.new_distribution_game(A)
        G = dg.new_distribution_game(A, zero_sum=True)
        assert G.B == G.A

    def test_distribution_game_cells_checked(self):
        with pytest.raises(errors.DimensionMismatch):
            dg.new_distribution_game([[dg.dirac(1)]], [[1]])

    def test_vector_game_ragged_rows(self):
        ragged = [[(1,), (2,)], [(3,)]]
        full = [[(1,), (2,)], [(3,), (4,)]]
        for A, B in ((ragged, full), (full, ragged)):
            with pytest.raises(errors.DimensionMismatch, match="equal length"):
                dg.new_vector_game(A, B)

    def test_vector_game_wrong_cell_dimension(self):
        with pytest.raises(errors.DimensionMismatch,
                           match="dimension 1, expected 2"):
            dg.new_vector_game([[(1, 2), (3,)]], [[(1, 2), (3, 4)]])

    def test_vector_game_shapes_must_match(self):
        with pytest.raises(errors.DimensionMismatch, match="same shape"):
            dg.new_vector_game([[(1,)]], [[(1,), (2,)]])
        with pytest.raises(errors.DimensionMismatch, match="same shape"):
            dg.new_vector_game([[(1,)]], [[(1,)], [(2,)]])

    def test_bimatrix_not_zero_sum_names_the_cell(self):
        with pytest.raises(errors.NotZeroSum, match="cell 2 vs 2"):
            dg.new_bimatrix([[1, 2]], [[-1, 2]], zero_sum=True)

    def test_bimatrix_zero_sum_within_tolerance(self):
        G = dg.new_bimatrix([[0.1]], [[-0.1 + MASS_SUM_TOL / 2]], zero_sum=True)
        assert G.zero_sum
        with pytest.raises(errors.NotZeroSum):
            dg.new_bimatrix([[0.1]], [[-0.1 + 10 * MASS_SUM_TOL]], zero_sum=True)


# ------------------------------------------------------ dyadic float twins

DENOM = 16


def _mix(draw, n):
    cuts = sorted(draw(st.lists(st.integers(0, DENOM), min_size=n - 1,
                                max_size=n - 1)))
    return [b - a for a, b in zip([0] + cuts, cuts + [DENOM])]


@st.composite
def dyadic_games(draw):
    """Integer numerators: payoffs k/8 in [-4, 4], mix weights c/16."""
    n1, n2, dim = (draw(st.integers(1, 3)) for _ in range(3))
    cell = st.lists(st.integers(-32, 32), min_size=dim, max_size=dim)
    A, B = ([[draw(cell) for _ in range(n2)] for _ in range(n1)]
            for _ in range(2))
    return A, B, _mix(draw, n1), _mix(draw, n2)


def _twin(case, num):
    """Fraction (num=F) or float (num=float) version of a dyadic case."""
    A, B, cx, cy = case
    V = dg.new_vector_game(
        [[tuple(num(k) / 8 for k in cell) for cell in row] for row in A],
        [[tuple(num(k) / 8 for k in cell) for cell in row] for row in B])
    G = dg.new_bimatrix([[num(c[0]) / 8 for c in row] for row in A],
                        [[num(c[0]) / 8 for c in row] for row in B])
    p = dg.new_profile([num(c) / DENOM for c in cx], [num(c) / DENOM for c in cy])
    return G, V, p


@seed(11)
@settings(max_examples=300, deadline=None)
@given(dyadic_games())
def test_dyadic_float_game_matches_fraction_twin(case):
    Gf, Vf, pf = _twin(case, float)
    Gq, Vq, pq = _twin(case, F)
    assert isinstance(Gf.A[0][0], float) and isinstance(Gq.A[0][0], F)
    for player, (of, oq) in ((1, (pf.y, pq.y)), (2, (pf.x, pq.x))):
        for f, q in ((Gf, Gq), (Vf, Vq)):
            assert dg.pure_payoffs(f, player, of) == dg.pure_payoffs(q, player, oq)
            assert dg.mixed_payoff(f, pf, player) == dg.mixed_payoff(q, pq, player)
        assert dg.best_response_set(Gf, player, of) == \
            dg.best_response_set(Gq, player, oq)
    # the largest gain from a pure deviation is the smallest eps that works
    gain = max(max(dg.pure_payoffs(Gq, player, o)) - dg.mixed_payoff(Gq, pq, player)
               for player, o in ((1, pq.y), (2, pq.x)))
    for eps, want in ((gain, True), (gain - F(1, 2 ** 20), False), (0, gain == 0)):
        assert dg.is_epsilon_equilibrium(Gq, pq, eps) is want
        assert dg.is_epsilon_equilibrium(Gf, pf, float(eps)) is want
    assert dg.verify_rlex_equilibrium(Vf, pf) == dg.verify_rlex_equilibrium(Vq, pq)
    n1, n2 = dg.shape(Gq)
    for i, j in dg.pure_equilibria(Gq):
        for G in (Gf, Gq):
            assert dg.is_epsilon_equilibrium(G, dg.pure_profile(i, j, n1, n2), 0)


class TestOutputEncoders:
    """to_json and csv_cell, the one number rule of every writer."""

    def test_whole_fraction_becomes_an_int(self):
        out = to_json(F(6, 3))
        assert out == 2 and type(out) is int
        assert to_json(F(-3, 4)) == "-3/4"

    def test_nested_tuples_become_lists(self):
        assert to_json(((F(1, 2), 1), [(F(4, 2),)], ())) == \
            [["1/2", 1], [[2]], []]

    def test_dicts_are_copied(self):
        doc = {"x": (F(1, 3),), "n": {"k": F(5)}}
        out = to_json(doc)
        assert out == {"x": ["1/3"], "n": {"k": 5}}
        assert out is not doc and doc["x"] == (F(1, 3),)

    @pytest.mark.parametrize("v", [True, False, None, "1/2", 7, 0.1, -0.0,
                                   1e300, 5e-324, -2.5e-300])
    def test_scalars_pass_through(self, v):
        assert to_json(v) is v

    def test_csv_cells(self):
        assert csv_cell(True) == "true"
        assert csv_cell(False) == "false"
        assert csv_cell(None) == ""
        assert csv_cell(12345678901234567890) == "12345678901234567890"
        assert csv_cell(F(1, 4)) == "0.25"
        for v in (0.1, -0.0, 1e300, 5e-324, 1 / 3):
            assert csv_cell(v) == format_float(v)
            assert float(csv_cell(v)) == v
