"""Constructive counterexample generators and their certificates.

Infinite objects appear as truncations carrying an explicit tail mass
and bound, so each assertion here is an interval statement that holds
no matter where the unassigned tail sits.
"""

from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import distgames as dg
from distgames import errors
from distgames.construct import X_ABOVE_Y, Y_ABOVE_X, AlternationCertificate


def canonical_shift_input():
    atoms = [2 - F(1, k + 1) for k in range(1, 7)]
    masses = [F(1, 2 ** k) for k in range(1, 7)]
    return atoms, masses


class TestTruncatedSequence:
    def test_mass_accounting_enforced(self):
        with pytest.raises(errors.MassSumNotOne):
            dg.new_truncated_sequence([1], [F(1, 2)], F(1, 4), 2)

    def test_atoms_must_increase(self):
        with pytest.raises(errors.AtomsNotIncreasing):
            dg.new_truncated_sequence([1, 1], [F(1, 2), F(1, 4)], F(1, 4), 2)

    def test_masses_positive(self):
        with pytest.raises(errors.NonPositiveMass):
            dg.new_truncated_sequence([1, 2], [F(3, 2), F(-1, 2)], 0, 3)

    def test_empty_rejected(self):
        with pytest.raises(errors.EmptySupport):
            dg.new_truncated_sequence([], [], 1, 2)

    def test_atoms_must_stay_below_bound(self):
        with pytest.raises(ValueError):
            dg.new_truncated_sequence([2], [1], 0, 2)


class TestGeometricFamily:
    def test_small_case_exact(self):
        S = dg.geometric_tail_family(2, 3)
        assert S.atoms == (F(3, 2), F(7, 4), F(15, 8))
        assert S.masses == (F(1, 2), F(1, 4), F(1, 8))
        assert S.tail_mass == F(1, 8)
        assert S.bound_b == 2

    def test_mass_sum_with_tail(self):
        S = dg.geometric_tail_family(F(7, 2), 12)
        assert sum(S.masses) + S.tail_mass == 1

    def test_cdf_touches_diagonal(self):
        # partial mass up to the k-th atom equals 1 - c^(-k), the value
        # of the diagonal at that atom's offset
        c = F(3)
        S = dg.geometric_tail_family(c, 6)
        running = F(0)
        for k, m in enumerate(S.masses, start=1):
            running += m
            assert running == 1 - c ** -k

    def test_truncated_moments_track_closed_form(self):
        S = dg.geometric_tail_family(F(2), 30)
        for n in range(11):
            truncated = sum(m * a ** n for a, m in zip(S.atoms, S.masses))
            closed = dg.geometric_family_moment(F(2), n)
            diff = closed - truncated
            assert 0 <= diff <= S.tail_mass * F(2) ** n


class TestCdfAlternation:
    def test_interleaved_families(self):
        S1 = dg.geometric_tail_family(2, 20)
        S2 = dg.geometric_tail_family(3, 20)
        assert dg.verify_cdf_alternation(S1, S2, 5)

    def test_truncation_too_short_fails_honestly(self):
        # with only five listed atoms the tail interval is too wide to
        # certify the final comparisons, so the answer must be False
        S1 = dg.geometric_tail_family(2, 5)
        S2 = dg.geometric_tail_family(3, 5)
        assert not dg.verify_cdf_alternation(S1, S2, 5)

    def test_identical_atoms_rejected(self):
        S = dg.geometric_tail_family(2, 6)
        with pytest.raises(errors.OverlappingAtoms):
            dg.verify_cdf_alternation(S, S, 3)

    def test_colliding_families_rejected(self):
        # powers collide: the second atom of ratio 2 equals the first
        # atom of ratio 4
        S1 = dg.geometric_tail_family(2, 8)
        S2 = dg.geometric_tail_family(4, 8)
        with pytest.raises(errors.OverlappingAtoms):
            dg.verify_cdf_alternation(S1, S2, 5)


class TestShiftConstruction:
    def test_canonical_input_fully_certified(self):
        atoms, masses = canonical_shift_input()
        out, certs = dg.shift_construction(atoms, masses, 2)
        # one certificate per shifted term; the inserted low atom has none
        assert len(certs) == len(out.atoms) - 1
        for i, cert in enumerate(certs):
            assert cert.term == i + 1
            # the retention factor is the max of its three lower bounds
            assert cert.c == max(cert.atom_ratio, cert.mass_floor, cert.mass_ratio)
            assert cert.c < 1
            assert cert.first_moment_ok
            assert cert.cdf_below_original
            if i < len(certs) - 1:
                assert cert.cdf_above_shifted
            else:
                assert cert.cdf_above_shifted is None

    def test_inserted_atom_sits_between_one_and_first(self):
        atoms, masses = canonical_shift_input()
        out, _ = dg.shift_construction(atoms, masses, 2)
        assert out.atoms[0] == (1 + atoms[0]) / 2
        assert out.atoms[1] == (atoms[0] + atoms[1]) / 2

    def test_first_moment_bound_recomputed(self):
        atoms, masses = canonical_shift_input()
        out, _ = dg.shift_construction(atoms, masses, 2)
        # shifted mass times shifted atom covers the original product
        assert out.masses[1] * out.atoms[1] >= masses[0] * atoms[0]

    def test_masses_strictly_decreasing_past_inserted_atom(self):
        atoms, masses = canonical_shift_input()
        out, _ = dg.shift_construction(atoms, masses, 2)
        tail = out.masses[1:]
        assert all(m1 > m2 for m1, m2 in zip(tail, tail[1:]))

    def test_iterates(self):
        atoms, masses = canonical_shift_input()
        out, _ = dg.shift_construction(atoms, masses, 2)
        again, certs = dg.shift_construction(out.atoms[1:], out.masses[1:], 2)
        assert len(again.atoms) == len(out.atoms) - 1
        assert all(c.first_moment_ok for c in certs)

    def test_masses_must_strictly_decrease(self):
        with pytest.raises(errors.MassesNotDecreasing):
            dg.shift_construction([F(3, 2), F(7, 4)], [F(1, 4), F(1, 4)], 2)

    def test_atoms_must_increase(self):
        with pytest.raises(errors.AtomsNotIncreasing):
            dg.shift_construction([F(7, 4), F(3, 2)], [F(1, 2), F(1, 4)], 2)


class TestAlternatingMomentPair:
    def test_single_term_is_vacuous(self):
        x, y, cert = dg.alternating_moment_pair(1, 2, 1)
        assert x.atoms == (1,)
        assert y.atoms == (1,)
        assert cert.k_indices == ()
        assert dg.verify_alternation_certificate(x, y, cert)

    def test_small_run_verified(self):
        x, y, cert = dg.alternating_moment_pair(1, 2, 4)
        assert dg.verify_alternation_certificate(x, y, cert)

    def test_orders_strictly_increase(self):
        _, _, cert = dg.alternating_moment_pair(1, 2, 4)
        ks = cert.k_indices
        assert all(k1 < k2 for k1, k2 in zip(ks, ks[1:]))

    def test_directions_alternate_starting_with_x(self):
        _, _, cert = dg.alternating_moment_pair(1, 2, 4)
        want = tuple(
            X_ABOVE_Y if i % 2 == 0 else Y_ABOVE_X
            for i in range(len(cert.directions))
        )
        assert cert.directions == want

    def test_atoms_stay_below_bound(self):
        x, y, _ = dg.alternating_moment_pair(1, 2, 5)
        assert all(a < 2 for a in x.atoms)
        assert all(a < 2 for a in y.atoms)

    def test_bounds_strictly_separated(self):
        _, _, cert = dg.alternating_moment_pair(1, 2, 4)
        for lower, upper in cert.bound_checks:
            assert lower > upper

    def test_tampered_certificate_rejected(self):
        from distgames.construct import AlternationCertificate

        x, y, cert = dg.alternating_moment_pair(1, 2, 4)
        ks = list(cert.k_indices)
        ks[-1] -= 1
        bad = AlternationCertificate(
            k_indices=tuple(ks),
            directions=cert.directions,
            bound_checks=cert.bound_checks,
        )
        assert not dg.verify_alternation_certificate(x, y, bad)

    def test_swapped_sequences_rejected(self):
        x, y, cert = dg.alternating_moment_pair(1, 2, 4)
        assert not dg.verify_alternation_certificate(y, x, cert)

    def test_explicit_initial_atoms(self):
        x, y, cert = dg.alternating_moment_pair(1, 2, 3, x1=F(5, 4), y1=F(9, 8))
        assert x.atoms[0] == F(5, 4)
        assert y.atoms[0] == F(9, 8)
        assert dg.verify_alternation_certificate(x, y, cert)

    def test_initial_atom_outside_range_rejected(self):
        with pytest.raises(ValueError):
            dg.alternating_moment_pair(1, 2, 2, x1=2)


class TestVerifierReadsTheCertificate:
    """verify_alternation_certificate checks the printed bounds and the
    orders themselves, not only the sequences."""

    @pytest.fixture(scope="class")
    def built(self):
        return dg.alternating_moment_pair(1, 2, 4)

    def test_swapped_bound_pairs_rejected(self, built):
        x, y, cert = built
        swapped = tuple((up, lo) for lo, up in cert.bound_checks)
        bad = replace(cert, bound_checks=swapped)
        assert not dg.verify_alternation_certificate(x, y, bad)

    def test_one_garbage_pair_for_three_orders_rejected(self, built):
        x, y, cert = built
        bad = replace(cert, bound_checks=((0, 1),))
        assert not dg.verify_alternation_certificate(x, y, bad)

    def test_pair_off_by_a_little_rejected(self, built):
        x, y, cert = built
        (lo, up), *rest = cert.bound_checks
        bad = replace(cert, bound_checks=((lo + F(1, 10 ** 9), up), *rest))
        assert not dg.verify_alternation_certificate(x, y, bad)

    def test_float_order_rejected(self, built):
        x, y, cert = built
        ks = (float(cert.k_indices[0]),) + cert.k_indices[1:]
        bad = replace(cert, k_indices=ks)
        assert not dg.verify_alternation_certificate(x, y, bad)

    def test_negative_order_rejected(self, built):
        x, y, cert = built
        ks = (-cert.k_indices[0],) + cert.k_indices[1:]
        bad = replace(cert, k_indices=ks)
        assert not dg.verify_alternation_certificate(x, y, bad)


class TestVerifierOnArbitrarySequences:
    """A sequence whose masses are not consecutive dyadic blocks is no
    alternation pair: the answer is False, at once."""

    EMPTY = AlternationCertificate((), (), ())

    def test_whole_mass_on_one_atom(self):
        S = dg.new_truncated_sequence([1], [1], 0, 2)
        y = dg.alternating_moment_pair(1, 2, 1)[1]
        assert dg.verify_alternation_certificate(S, y, self.EMPTY) is False

    def test_first_mass_above_one_half(self):
        S = dg.new_truncated_sequence([1, F(3, 2)], [F(3, 4), F(1, 4)], 0, 2)
        assert dg.verify_alternation_certificate(S, S, self.EMPTY) is False


@st.composite
def truncated_sequence(draw, b):
    """Atoms in [0, b), masses either consecutive dyadic blocks (as the
    alternating construction writes them) or arbitrary positive weights."""
    n = draw(st.integers(1, 4))
    atoms = sorted(draw(st.sets(st.fractions(0, b, max_denominator=6),
                                min_size=n, max_size=n).filter(
                                    lambda a: b not in a)))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        ends = [sum(sizes[:i + 1]) for i in range(n)]
        masses = [F(1, 2 ** (e - s)) - F(1, 2 ** e) for s, e in zip(sizes, ends)]
        tail = F(1, 2 ** ends[-1])
    else:
        w = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        rest = draw(st.integers(0, 9))
        masses = [F(v, sum(w) + rest) for v in w]
        tail = F(rest, sum(w) + rest)
    return dg.new_truncated_sequence(atoms, masses, tail, b)


BUILT = [dg.alternating_moment_pair(1, 2, 3),
         dg.alternating_moment_pair(0, F(3, 2), 3, x1=F(1, 3))]


@st.composite
def sequences_and_certificate(draw):
    """Arbitrary sequences with an arbitrary certificate, or a built pair
    whose certificate fields are each kept or redrawn."""
    if draw(st.booleans()):
        x, y, cert = draw(st.sampled_from(BUILT))
        m = len(cert.k_indices)
    else:
        b = draw(st.sampled_from([F(3, 2), 2, F(7, 3)]))
        x = draw(truncated_sequence(b))
        y = draw(truncated_sequence(b))
        m = draw(st.integers(0, 4))
        cert = None
    fields = [
        st.lists(st.integers(-2, 40), min_size=m, max_size=m),
        st.lists(st.sampled_from([X_ABOVE_Y, Y_ABOVE_X, "sideways"]),
                 min_size=m, max_size=m),
        st.lists(st.tuples(st.fractions(0, 9), st.fractions(0, 9)),
                 min_size=m, max_size=m),
    ]
    if cert is not None:
        kept = (cert.k_indices, cert.directions, cert.bound_checks)
        fields = [st.one_of(st.just(v), f) for v, f in zip(kept, fields)]
    return x, y, AlternationCertificate(*(tuple(draw(f)) for f in fields))


@given(sequences_and_certificate())
def test_verifier_answers_a_bool_on_any_sequences(case):
    assert type(dg.verify_alternation_certificate(*case)) is bool
