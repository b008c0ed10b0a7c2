"""Difference operators and necessary moment-sequence conditions.

The regression sequence used throughout is 4^n plus the alternating
perturbation (0, -1/2, 1/4, -1/8, ...): plain differences stay
nonnegative but the b=5 interval operator detects the perturbation.
"""

from fractions import Fraction as F

import pytest

import distgames as dg
from distgames import errors

import oracles

SERIES_TOL = 1e-10


def perturbed_sequence(length):
    out = [F(1)]
    for n in range(1, length):
        out.append(F(4) ** n + F(-1, 2) ** n)
    return tuple(out)


def test_perturbed_prefix_matches_oracle():
    assert perturbed_sequence(4) == oracles.PERTURBED_GEOMETRIC


class TestDelta:
    def test_powers_of_two(self):
        assert dg.delta((1, 2, 4, 8)) == (1, 2, 4)

    def test_constant_gives_zeros(self):
        assert dg.delta((F(3), F(3), F(3))) == (0, 0)

    def test_geometric_rate(self):
        s = tuple(F(4) ** n for n in range(5))
        assert dg.delta(s) == tuple(3 * F(4) ** n for n in range(4))

    def test_too_short(self):
        with pytest.raises(errors.TooShort):
            dg.delta((1,))


class TestDeltaB:
    def test_b_one_on_constant(self):
        assert dg.delta_b((1, 1, 1), 1) == (0, 0)

    def test_regression_entries(self):
        d = dg.delta_b(oracles.PERTURBED_GEOMETRIC, 5)
        assert d[1] == oracles.PERTURBED_DELTA5_AT_1
        assert d[2] == F(-139, 8)

    def test_second_order_regression_entry(self):
        d2 = dg.delta_b(dg.delta_b(oracles.PERTURBED_GEOMETRIC, 5), 5)
        assert d2[1] == oracles.PERTURBED_DELTA5_SQ_AT_1

    def test_annihilates_own_geometric(self):
        s = tuple(F(4) ** n for n in range(5))
        assert dg.delta_b(s, 4) == (0, 0, 0, 0)

    def test_b_zero_shifts(self):
        assert dg.delta_b((5, 6, 7), 0) == (6, 7)

    def test_b_one_equals_delta(self):
        s = (F(1), F(3), F(4), F(9))
        assert dg.delta_b(s, 1) == dg.delta(s)


def test_delta_linear():
    s = (F(1), F(2), F(5), F(7))
    t = (F(0), F(4), F(1), F(3))
    a, b = F(2, 3), F(5)
    lhs = dg.delta(tuple(a * x + b * y for x, y in zip(s, t)))
    rhs = tuple(a * x + b * y for x, y in zip(dg.delta(s), dg.delta(t)))
    assert lhs == rhs


class TestConditions:
    def test_point_mass_moments_completely_monotonic(self):
        s = tuple(F(1, 2) ** n for n in range(6))
        assert dg.check_completely_monotonic(s)

    def test_growing_sequence_not_completely_monotonic(self):
        assert not dg.check_completely_monotonic((1, 2, 4))

    def test_constant_completely_monotonic(self):
        assert dg.check_completely_monotonic((1, 1, 1, 1))

    def test_doubling_moments_have_nonneg_differences(self):
        assert dg.check_nonneg_differences((1, 2, 4, 8, 16))

    def test_decaying_sequence_fails_nonneg(self):
        assert not dg.check_nonneg_differences((1, F(1, 2), F(1, 4)))

    def test_perturbed_passes_nonneg(self):
        assert dg.check_nonneg_differences(perturbed_sequence(8))

    def test_perturbed_fails_interval(self):
        assert not dg.check_interval_condition(perturbed_sequence(8), 5)

    def test_point_mass_four_passes_interval_five(self):
        s = tuple(F(4) ** n for n in range(6))
        assert dg.check_interval_condition(s, 5)

    def test_constant_passes_interval_one(self):
        assert dg.check_interval_condition((1, 1, 1), 1)


def test_necessity_on_random_supports():
    # moments of an actual distribution always pass the matching check
    import random

    rnd = random.Random(11)
    for _ in range(100):
        n = rnd.randint(1, 4)
        atoms01 = sorted(rnd.sample([F(i, 16) for i in range(17)], n))
        raw = [F(rnd.randint(1, 9)) for _ in range(n)]
        tot = sum(raw)
        masses = [r / tot for r in raw]
        P = dg.new_distribution(atoms01, masses)
        s = tuple(dg.moment(P, k) for k in range(7))
        assert dg.check_completely_monotonic(s)

        atoms1b = sorted(rnd.sample([1 + F(i, 8) for i in range(25)], n))
        Q = dg.new_distribution(atoms1b, masses)
        t = tuple(dg.moment(Q, k) for k in range(7))
        assert dg.check_nonneg_differences(t)
        assert dg.check_interval_condition(t, 4)


class TestFirstViolation:
    def test_interval_regression_location(self):
        loc = dg.first_violation(perturbed_sequence(8), "interval", b=5)
        assert loc == oracles.PERTURBED_FIRST_VIOLATION

    def test_nonneg_immediate(self):
        assert dg.first_violation((1, F(1, 2), F(1, 4)), "nonneg") == (0, 1)

    def test_none_when_condition_holds(self):
        assert dg.first_violation((1, 2, 4, 8), "nonneg") is None

    def test_cm_on_growing(self):
        assert dg.first_violation((1, 2, 4), "cm") == (0, 1)

    def test_negative_bound_is_rejected_by_both_entry_points(self):
        s = perturbed_sequence(4)
        with pytest.raises(ValueError, match="b must be non-negative"):
            dg.first_violation(s, "interval", b=-1)
        with pytest.raises(ValueError, match="b must be non-negative"):
            dg.check_interval_condition(s, F(-1, 2))


class TestDominanceIndex:
    def test_immediate_dominance(self):
        assert dg.dominance_index(dg.dirac(1), dg.dirac(2), 50, 10) == 0

    def test_reversed_gives_none(self):
        assert dg.dominance_index(dg.dirac(2), dg.dirac(1), 50, 10) is None

    def test_alternating_signs_never_dominate(self):
        assert dg.dominance_index(dg.dirac(-1), dg.dirac(0), 200, 10) is None

    def test_agrees_with_tail_order_on_simple_pair(self):
        P1 = dg.new_distribution([1, 2], [F(1, 2), F(1, 2)])
        P2 = dg.new_distribution([1, 2], [F(2, 5), F(3, 5)])
        assert dg.dominance_index(P1, P2) is not None


class TestGeometricFamilyMoment:
    def test_zeroth_is_one(self):
        assert dg.geometric_family_moment(F(3), 0) == 1

    def test_first_moment_ratio_two(self):
        assert dg.geometric_family_moment(F(2), 1) == F(5, 3)

    def test_matches_direct_series(self):
        c = 3.0
        n = 4
        direct = sum(
            (c - 1) * c ** (-k) * (2 - c ** (-k)) ** n for k in range(1, 200)
        )
        assert abs(float(dg.geometric_family_moment(F(3), 4)) - direct) < SERIES_TOL
