"""Game data model: constructors, projections, subgames, the
distribution-to-vector conversion, and mixed payoffs."""

from fractions import Fraction as F

import pytest

import distgames as dg
from distgames import errors
from distgames.dist import OrderResult

import oracles


def test_bimatrix_zero_sum_fills_b(rps):
    assert rps.zero_sum
    assert rps.B[0][1] == 1
    assert dg.shape(rps) == (3, 3)


def test_bimatrix_zero_sum_inconsistent_b_rejected():
    with pytest.raises(errors.NotZeroSum):
        dg.new_bimatrix([[1]], [[1]], zero_sum=True)


def test_bimatrix_shape_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        dg.new_bimatrix([[1, 2]], [[1], [2]])


def test_vector_game_cell_dimension_checked():
    with pytest.raises(errors.DimensionMismatch):
        dg.new_vector_game([[(1, 2)]], [[(1,)]], 2)


def test_distribution_game_zero_sum_shares_cells():
    G = oracles.small_distribution_game()
    assert G.zero_sum
    assert G.A == G.B


def test_profile_validation():
    with pytest.raises(errors.WeightsNotSimplex):
        dg.new_profile([F(1, 2), F(1, 4)], [1])
    with pytest.raises(errors.WeightsNotSimplex):
        dg.new_profile([F(3, 2), F(-1, 2)], [1])


def test_pure_profile_places_unit_mass():
    p = dg.pure_profile(1, 0, 2, 3)
    assert p.x == (0, 1)
    assert p.y == (1, 0, 0)
    with pytest.raises(errors.IndexOutOfRange):
        dg.pure_profile(2, 0, 2, 3)


class TestProjection:
    def test_top_coordinate_of_reference_game(self, vector_game_2x2):
        top = dg.top_projection(vector_game_2x2)
        assert top.A == ((F(1, 10), F(2, 10)), (F(3, 10), F(1, 10)))
        assert top.zero_sum

    def test_middle_coordinate_of_coordination_game(self, coordination_game):
        # second coordinate is the zero-sum part
        mid = dg.projection(coordination_game, 1)
        assert mid.A == ((1, 2, 3), (2, 1, 3), (0, 0, 3))
        assert mid.zero_sum

    def test_bottom_coordinate_not_zero_sum(self, coordination_game):
        bot = dg.projection(coordination_game, 0)
        assert bot.A == bot.B
        assert not bot.zero_sum

    def test_out_of_range(self, vector_game_2x2):
        with pytest.raises(errors.IndexOutOfRange):
            dg.projection(vector_game_2x2, 3)


class TestSubgame:
    def test_identity(self, rps):
        H = dg.subgame(rps, [0, 1, 2], [0, 1, 2])
        assert H.A == rps.A

    def test_top_left_block(self, rps):
        H = dg.subgame(rps, [0, 1], [0, 1])
        assert H.A == ((0, -1), (1, 0))

    def test_single_cell(self, rps):
        H = dg.subgame(rps, [1], [2])
        assert H.A == ((-1,),)

    def test_empty_index_set(self, rps):
        with pytest.raises(errors.EmptyIndexSet):
            dg.subgame(rps, [], [0])

    def test_index_out_of_range(self, rps):
        with pytest.raises(errors.IndexOutOfRange):
            dg.subgame(rps, [0, 3], [0])

    def test_commutes_with_projection(self, coordination_game):
        I, J = [0, 2], [1, 2]
        left = dg.projection(dg.subgame(coordination_game, I, J), 1)
        right = dg.subgame(dg.projection(coordination_game, 1), I, J)
        assert left.A == right.A
        assert left.B == right.B


def test_common_support_union():
    G = oracles.small_distribution_game()
    assert dg.common_support(G) == (1, 2, 3)


class TestProbabilityVectorConversion:
    def test_mass_vectors_zero_filled(self):
        G = oracles.small_distribution_game()
        V = dg.to_probability_vector_game(G)
        assert V.dim == 3
        # cell (0,0) has atoms 1 and 3 with equal mass
        assert V.A[0][0] == (F(1, 2), 0, F(1, 2))
        assert V.A[0][1] == (0, 1, 0)

    def test_zero_sum_negates_player_two(self):
        G = oracles.small_distribution_game()
        V = dg.to_probability_vector_game(G)
        for i in range(2):
            for j in range(2):
                assert V.B[i][j] == tuple(-e for e in V.A[i][j])

    def test_support_below_one_rejected(self):
        A = [[dg.dirac(F(1, 2)), dg.dirac(2)], [dg.dirac(2), dg.dirac(3)]]
        G = dg.new_distribution_game(A, zero_sum=True)
        with pytest.raises(errors.SupportBelowOne):
            dg.to_probability_vector_game(G)

    def test_cellwise_order_preserved(self):
        G = oracles.small_distribution_game()
        V = dg.to_probability_vector_game(G)
        cells = [(i, j) for i in range(2) for j in range(2)]
        for i1, j1 in cells:
            for i2, j2 in cells:
                want = dg.tail_compare(G.A[i1][j1], G.A[i2][j2])
                got = dg.rlex_compare(V.A[i1][j1], V.A[i2][j2])
                assert got is want


class TestMixedPayoff:
    def test_uniform_rps_is_zero(self, rps):
        u = F(1, 3)
        p = dg.new_profile([u, u, u], [u, u, u])
        assert dg.mixed_payoff(rps, p, 1) == 0

    def test_reference_vector_payoff(self, vector_game_2x2):
        p = dg.new_profile(oracles.TWO_BY_TWO_TOP_X, oracles.TWO_BY_TWO_TOP_Y)
        assert dg.mixed_payoff(vector_game_2x2, p, 1) == oracles.TWO_BY_TWO_PAYOFF

    def test_pure_profile_returns_cell(self, vector_game_2x2):
        p = dg.pure_profile(1, 0, 2, 2)
        assert dg.mixed_payoff(vector_game_2x2, p, 1) == oracles.TWO_BY_TWO_VECTOR_A[1][0]

    def test_distribution_payoff_is_mixture(self):
        G = oracles.small_distribution_game()
        h = F(1, 2)
        p = dg.new_profile([h, h], [h, h])
        out = dg.mixed_payoff(G, p, 1)
        assert out.atoms == (1, 2, 3)
        assert out.masses == (F(3, 8), F(7, 16), F(3, 16))
        # zero-sum distribution games share the payoff object
        assert dg.mixed_payoff(G, p, 2) == out

    def test_dimension_mismatch(self, rps):
        p = dg.new_profile([1], [1])
        with pytest.raises(errors.DimensionMismatch):
            dg.mixed_payoff(rps, p, 1)

    def test_affine_in_own_strategy(self, rps):
        a = F(1, 4)
        p1 = dg.new_profile([1, 0, 0], [F(1, 3)] * 3)
        p2 = dg.new_profile([0, F(1, 2), F(1, 2)], [F(1, 3)] * 3)
        blend = dg.new_profile(
            [a * x1 + (1 - a) * x2 for x1, x2 in zip(p1.x, p2.x)], p1.y
        )
        lhs = dg.mixed_payoff(rps, blend, 1)
        rhs = a * dg.mixed_payoff(rps, p1, 1) + (1 - a) * dg.mixed_payoff(rps, p2, 1)
        assert lhs == rhs


class TestDiracEmbedding:
    def test_cells_become_point_masses(self, rps):
        E = dg.from_real_game(rps)
        assert E.A[0][1] == dg.dirac(-1)
        assert E.B[0][1] == dg.dirac(1)

    def test_embedding_drops_zero_sum_flag(self, rps):
        # point masses at a and -a differ, so the shared-payoff notion
        # of zero-sum does not apply to the embedded game
        E = dg.from_real_game(rps)
        assert not E.zero_sum

    def test_expectation_at_equilibrium_matches_real_game(self, rps):
        E = dg.from_real_game(rps)
        u = F(1, 3)
        p = dg.new_profile([u, u, u], [u, u, u])
        eq_payoff = dg.mixed_payoff(E, p, 1)
        assert dg.moment(eq_payoff, 1) == dg.mixed_payoff(rps, p, 1)
        # no pure deviation improves the embedded payoff by expectation
        for i in range(3):
            dev = dg.new_profile([1 if r == i else 0 for r in range(3)], p.y)
            d = dg.mixed_payoff(E, dev, 1)
            assert dg.compare_expectation(d, eq_payoff) is not OrderResult.GREATER


class TestNonFiniteEntries:
    """Constructors reject NaN and infinite floats; huge and subnormal
    finite floats stay accepted."""

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"),
                                     float("nan")])
    def test_bimatrix(self, bad):
        with pytest.raises(ValueError):
            dg.new_bimatrix([[bad, 0]], [[0, 1]])
        with pytest.raises(ValueError):
            dg.new_bimatrix([[1, 0]], [[0, bad]])

    def test_zero_sum_bimatrix(self):
        with pytest.raises(ValueError):
            dg.new_bimatrix([[0, float("-inf")]], zero_sum=True)

    def test_distribution(self):
        with pytest.raises(ValueError):
            dg.new_distribution([float("nan")], [1])
        with pytest.raises(ValueError):
            dg.new_distribution([0, float("inf")], [F(1, 2), F(1, 2)])

    def test_nan_payoff_game_never_reaches_fictitious_play(self):
        with pytest.raises(ValueError):
            dg.fictitious_play(
                dg.new_bimatrix([[float("nan"), 1], [0, 2]],
                                [[1, 0], [0, 1]]), 10)

    def test_vector_game_coordinate(self):
        with pytest.raises(ValueError):
            dg.new_vector_game([[(1, float("nan"))]], [[(0, 0)]])
        with pytest.raises(ValueError):
            dg.new_vector_game([[(1, 2)]], [[(float("inf"), 0)]])

    def test_extreme_finite_floats_accepted(self):
        G = dg.new_bimatrix([[1e308, 5e-324]], [[-1e308, -5e-324]])
        assert G.A == ((1e308, 5e-324),)
        V = dg.new_vector_game([[(1e308, 5e-324)]], [[(0, 0)]])
        assert V.A == (((1e308, 5e-324),),)
        P = dg.new_distribution([5e-324, 1e308], [0.5, 0.5])
        assert P.atoms == (5e-324, 1e308)


class TestSubgameKeepsTheGameKind:
    def test_vector_game_keeps_its_dimension(self, coordination_game):
        H = dg.subgame(coordination_game, [2, 0], [1])
        assert type(H) is dg.VectorBimatrixGame
        assert H.dim == coordination_game.dim
        assert H.A == ((coordination_game.A[0][1],), (coordination_game.A[2][1],))

    def test_distribution_game_keeps_zero_sum(self):
        P, Q = dg.dirac(1), dg.new_distribution([1, 2], [F(1, 2), F(1, 2)])
        G = dg.new_distribution_game([[P, Q], [Q, P]], zero_sum=True)
        H = dg.subgame(G, [1], [0, 1])
        assert type(H) is dg.DistributionBimatrixGame
        assert H.zero_sum and H.A == H.B == ((Q, P),)

    def test_bimatrix_keeps_zero_sum(self, rps):
        H = dg.subgame(rps, [0], [1, 2])
        assert type(H) is dg.BimatrixGame
        assert H.zero_sum and H.B == ((1, -1),)


class TestVectorDimension:
    def test_dimension_must_be_an_integer(self):
        with pytest.raises(TypeError):
            dg.new_vector_game([[(1, 0)]], [[(0, 1)]], 2.0)
