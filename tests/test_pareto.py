"""Pareto minimality, segmentation of distribution games, scalarized
equilibria, and weight sweeps."""

from fractions import Fraction as F

import pytest

import distgames as dg
from distgames import errors

import oracles


class TestParetoMinimal:
    def test_reference_vectors(self):
        got = dg.pareto_minimal(oracles.PARETO_VECTORS)
        assert got == oracles.PARETO_MINIMAL

    def test_empty(self):
        assert dg.pareto_minimal([]) == []

    def test_duplicates_survive(self):
        got = dg.pareto_minimal([(1, 1), (1, 1), (2, 2)])
        assert got == [(1, 1), (1, 1)]

    def test_incomparable_set_unchanged(self):
        vs = [(0, 2), (1, 1), (2, 0)]
        assert dg.pareto_minimal(vs) == vs

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            dg.pareto_minimal([(1, 2), (1,)])


def test_weight_vector_normalized():
    assert dg.new_weight_vector([2, 2]) == (F(1, 2), F(1, 2))


def test_weight_vector_rejects_bad_input():
    with pytest.raises(errors.WeightsNotSimplex):
        dg.new_weight_vector([])
    with pytest.raises(errors.WeightsNotSimplex):
        dg.new_weight_vector([1, -1])
    with pytest.raises(errors.WeightsNotSimplex):
        dg.new_weight_vector([0, 0])


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_weight_vector_rejects_non_finite_floats(bad):
    with pytest.raises(ValueError, match="non-finite"):
        dg.new_weight_vector([bad, 1.0])


class TestSegmentGame:
    def test_negated_segment_expectations(self):
        G = oracles.saddle_distribution_game()
        S = dg.segment_game(G, (0, 2, 4))
        assert S.dim == 2
        # cell (0,0) holds mass 1/2 at 1 and 1/2 at 3
        assert S.A[0][0] == (F(-1, 2), F(-3, 2))

    def test_zero_sum_gives_player_two_positive_expectations(self):
        G = oracles.saddle_distribution_game()
        S = dg.segment_game(G, (0, 2, 4))
        assert S.B[0][0] == (F(1, 2), F(3, 2))
        assert S.B[0][0] == tuple(-v for v in S.A[0][0])

    def test_stray_atoms_warn(self):
        G = oracles.saddle_distribution_game()
        with pytest.warns(UserWarning):
            dg.segment_game(G, (0, 2))

    @pytest.mark.parametrize("zero_sum, per_cell", [(True, 1), (False, 2)])
    def test_segment_expectations_once_per_cell(self, monkeypatch, zero_sum,
                                                per_cell):
        # a zero-sum B holds A's distributions, so only A's are segmented
        from distgames import pareto

        calls = []

        def counted(P, I):
            calls.append(P)
            return dg.segment_expectations(P, I)

        monkeypatch.setattr(pareto, "segment_expectations", counted)
        A = oracles.saddle_distribution_game().A
        A = [list(row) + [dg.dirac(3)] for row in A]    # 2x3: n1 != n2
        B = None if zero_sum else [list(reversed(row)) for row in A]
        G = dg.new_distribution_game(A, B, zero_sum=zero_sum)
        S = dg.segment_game(G, (0, 2, 4))
        assert len(calls) == per_cell * 2 * 3
        assert (S.B == tuple(tuple(tuple(-e for e in v) for v in row)
                             for row in S.A)) == zero_sum


class TestScalarize:
    def test_unit_top_weight_equals_projection(self):
        G = oracles.saddle_distribution_game()
        S = dg.segment_game(G, (0, 2, 4))
        flat = dg.scalarize(S, (0, 1), (0, 1))
        top = dg.top_projection(S)
        assert flat.A == top.A
        assert flat.B == top.B
        assert flat.zero_sum

    def test_weights_blend_coordinates(self):
        A = [[(4, 0)]]
        B = [[(0, 8)]]
        G = dg.new_vector_game(A, B, 2)
        flat = dg.scalarize(G, (F(1, 2), F(1, 2)), (F(3, 4), F(1, 4)))
        assert flat.A == ((2,),)
        assert flat.B == ((2,),)


class TestParetoNash:
    def test_top_weight_matches_top_projection_equilibria(self):
        G = oracles.saddle_distribution_game()
        S = dg.segment_game(G, (0, 2, 4))
        via_weights = dg.pareto_nash(S, (0, 1), (0, 1))
        via_projection = dg.support_enumeration(dg.top_projection(S))
        got = [(r.profile.x, r.profile.y) for r in via_weights.equilibria]
        want = [(r.profile.x, r.profile.y) for r in via_projection.equilibria]
        assert got == want
        assert got == [((0, 1), (0, 1))]

    def test_found_profile_passes_direct_check(self):
        G = oracles.saddle_distribution_game()
        S = dg.segment_game(G, (0, 2, 4))
        out = dg.pareto_nash(S, (0, 1), (0, 1))
        rep = out.equilibria[0]
        assert dg.verify_pareto_nash(S, rep.profile)

    def test_componentwise_dominating_deviation_fails_check(self):
        # the second row dominates in both coordinates, so sitting on
        # the first row cannot be Pareto stable
        A = [[(0, 0), (0, 0)], [(1, 1), (1, 1)]]
        B = [[(0, 0), (0, 0)], [(0, 0), (0, 0)]]
        G = dg.new_vector_game(A, B, 2)
        p = dg.pure_profile(0, 0, 2, 2)
        assert not dg.verify_pareto_nash(G, p)


class TestWeightSweep:
    def test_deterministic_per_seed(self):
        G = oracles.saddle_distribution_game()
        S = dg.segment_game(G, (0, 2, 4))
        r1 = dg.weight_sweep(S, 8, seed=3)
        r2 = dg.weight_sweep(S, 8, seed=3)
        assert r1 == r2
        assert dg.sweep_csv(S, r1) == dg.sweep_csv(S, r2)

    def test_csv_shape(self):
        G = oracles.saddle_distribution_game()
        S = dg.segment_game(G, (0, 2, 4))
        records = dg.weight_sweep(S, 3, seed=0)
        text = dg.sweep_csv(S, records)
        lines = text.strip().split("\n")
        assert lines[0] == "trial,w1_1,w1_2,w2_1,w2_2,x_1,x_2,y_1,y_2,u1,u2"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 11 for line in lines)

    def test_weights_lie_on_simplex(self):
        G = oracles.saddle_distribution_game()
        S = dg.segment_game(G, (0, 2, 4))
        for rec in dg.weight_sweep(S, 5, seed=1):
            assert abs(sum(rec.w1) - 1) < 1e-12
            assert abs(sum(rec.w2) - 1) < 1e-12
            assert all(w >= 0 for w in rec.w1 + rec.w2)
