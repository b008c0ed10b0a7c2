"""Monte Carlo estimators against their closed-form references."""

from fractions import Fraction as F

import numpy as np
import pytest

import distgames as dg
from distgames import errors, mc
from distgames.cli import main


class TestClosedForms:
    def test_zero_sum_small_values(self):
        assert dg.formula_pure_zero_sum(2, 2) == F(2, 3)
        assert dg.formula_pure_zero_sum(3, 3) == F(3, 10)
        assert dg.formula_pure_zero_sum(1, 1) == 1

    def test_bimatrix_small_values(self):
        assert dg.formula_pure_bimatrix(2, 2) == F(7, 8)
        assert dg.formula_pure_bimatrix(1, 1) == 1
        assert abs(float(dg.formula_pure_bimatrix(3, 3)) - 0.786) <= 5e-4


class TestRandomGames:
    def test_deterministic_for_seeded_rng(self):
        g1 = dg.random_bimatrix(3, 3, True, np.random.default_rng(5))
        g2 = dg.random_bimatrix(3, 3, True, np.random.default_rng(5))
        assert g1.A == g2.A

    def test_entries_distinct(self):
        G = dg.random_bimatrix(100, 100, False, np.random.default_rng(0))
        entries = [v for row in G.A for v in row]
        assert len(set(entries)) == len(entries)

    def test_zero_sum_negation_exact(self):
        G = dg.random_bimatrix(4, 4, True, np.random.default_rng(1))
        for ra, rb in zip(G.A, G.B):
            for a, b in zip(ra, rb):
                assert b == -a


class TestPureProbability:
    def test_single_cell_always_hits(self):
        s = dg.estimate_pure_probability(1, 1, False, 100, seed=0)
        assert s.hits == 100
        assert s.estimate == 1.0
        assert s.reference == 1.0

    def test_deterministic(self):
        s1 = dg.estimate_pure_probability(2, 2, True, 500, seed=7)
        s2 = dg.estimate_pure_probability(2, 2, True, 500, seed=7)
        assert s1 == s2

    def test_zero_sum_estimate_near_reference(self):
        s = dg.estimate_pure_probability(2, 2, True, 2000, seed=0)
        assert s.reference == pytest.approx(2 / 3)
        assert abs(s.estimate - s.reference) <= 2 * s.ci95_halfwidth

    def test_bimatrix_estimate_near_reference(self):
        s = dg.estimate_pure_probability(2, 2, False, 2000, seed=0)
        assert s.reference == pytest.approx(7 / 8)
        assert abs(s.estimate - s.reference) <= 2 * s.ci95_halfwidth

    def test_ci_formula(self):
        s = dg.estimate_pure_probability(3, 3, True, 400, seed=2)
        want = 1.96 * (s.estimate * (1 - s.estimate) / s.trials) ** 0.5
        assert s.ci95_halfwidth == pytest.approx(want)


def per_trial_hits(m, n, zero_sum, trials, seed):
    """The estimator's definition, one generator and one game per trial."""
    return sum(
        bool(dg.pure_equilibria(dg.random_bimatrix(
            m, n, zero_sum, np.random.default_rng((seed, t)))))
        for t in range(trials)
    )


class TestBatchedStreams:
    # 2**100 + 17 gives five entropy words, more than the 4-word pool
    @pytest.mark.parametrize("seed", [0, 11, 2**32 + 5, 2**100 + 17])
    @pytest.mark.parametrize("start,stop,k", [
        (0, 37, 1), (5, 64, 18), (2**32 - 3, 2**32 + 2, 4),
    ])
    def test_draws_equal_default_rng(self, seed, start, stop, k):
        # the last range crosses 2**32, where a trial index needs a
        # second entropy word
        got = mc._trial_uniforms(seed, start, stop, k)
        want = np.array([np.random.default_rng((seed, t)).random(k)
                         for t in range(start, stop)])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 4), (4, 3)])
    @pytest.mark.parametrize("zero_sum", [False, True])
    @pytest.mark.parametrize("batch_draws", [None, 50])
    def test_estimate_equals_per_trial_path(self, m, n, zero_sum,
                                            batch_draws, monkeypatch):
        # 50 draws leave a short last batch, and one trial per batch
        # once a game needs more than 50 draws
        if batch_draws is not None:
            monkeypatch.setattr(mc, "_BATCH_DRAWS", batch_draws)
        trials = 203
        for seed in (0, 3, 2**40 + 1):
            got = dg.estimate_pure_probability(m, n, zero_sum, trials, seed)
            hits = per_trial_hits(m, n, zero_sum, trials, seed)
            ref = (dg.formula_pure_zero_sum(m, n) if zero_sum
                   else dg.formula_pure_bimatrix(m, n))
            assert got == mc._summarize(hits, trials, float(ref))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            dg.estimate_pure_probability(2, 2, False, 10, -1)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            dg.estimate_pure_probability(2, 2, False, 10, 1.5)

    def test_empty_shape_rejected(self):
        with pytest.raises(errors.DimensionMismatch):
            dg.estimate_pure_probability(0, 2, False, 10, 0)

    def test_cli_negative_seed_exits_one(self, capsys):
        rc = main(["mc", "pure", "--m", "2", "--n", "2", "--trials", "10",
                   "--seed", "-1"])
        assert rc == 1
        assert "expected non-negative integer" in capsys.readouterr().err


class TestRlexProbability:
    def test_single_cell_always_equilibrium(self):
        rlex, pure_top, nonpure, indet = dg.estimate_rlex_probability(
            1, 1, 2, False, 100, seed=0
        )
        assert rlex.estimate == 1.0
        assert pure_top.estimate == 1.0
        assert nonpure == 0
        assert indet == 0

    def test_existence_tracks_top_game_pure_rate(self):
        rlex, pure_top, nonpure, indet = dg.estimate_rlex_probability(
            2, 2, 3, False, 400, seed=1
        )
        assert nonpure == 0
        assert indet == 0
        assert rlex.trials == pure_top.trials == 400
        joint = rlex.ci95_halfwidth + pure_top.ci95_halfwidth
        assert abs(rlex.estimate - pure_top.estimate) <= joint
        assert rlex.reference == pure_top.reference
        assert rlex.reference == pytest.approx(7 / 8)

    def test_zero_sum_uses_zero_sum_reference(self):
        rlex, pure_top, _, _ = dg.estimate_rlex_probability(
            2, 2, 2, True, 300, seed=4
        )
        assert rlex.reference == pytest.approx(2 / 3)
        assert abs(rlex.estimate - rlex.reference) <= 3 * rlex.ci95_halfwidth

    def test_dim_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            dg.estimate_rlex_probability(2, 2, 1, False, 10, seed=0)


class TestCsv:
    def test_pure_row_leaves_vector_columns_empty(self):
        s = dg.estimate_pure_probability(2, 2, True, 200, seed=3)
        text = dg.mc_csv(2, 2, None, True, 3, s)
        header, row = text.strip().split("\n")
        assert header == (
            "m,n,dim,zero_sum,trials,seed,hits,estimate,ci95,"
            "reference,nonpure_found,indeterminate"
        )
        cells = row.split(",")
        assert cells[0] == "2"
        assert cells[2] == ""
        assert cells[3] == "true"
        assert cells[10] == "" and cells[11] == ""

    def test_rlex_row_fills_everything(self):
        rlex, _, nonpure, indet = dg.estimate_rlex_probability(
            2, 2, 2, False, 100, seed=5
        )
        text = dg.mc_csv(2, 2, 2, False, 5, rlex, nonpure, indet)
        row = text.strip().split("\n")[1].split(",")
        assert row[2] == "2"
        assert row[3] == "false"
        assert row[10] == "0"
        assert "" not in row

    def test_round_trip_stable(self):
        s = dg.estimate_pure_probability(2, 2, True, 200, seed=3)
        assert dg.mc_csv(2, 2, None, True, 3, s) == dg.mc_csv(2, 2, None, True, 3, s)


def exact_decision(G):
    """(Indeterminate, equilibrium found, non-pure equilibrium verified,
    pure equilibrium of the top game) from the exact decision, as the
    per-trial RLEX estimator counts a trial."""
    decision = dg.decide_rlex_equilibria(G)
    if decision.status == "Indeterminate":
        return (True, False, False, False)
    return (False, decision.status == "Equilibria",
            any(not rep.pure for rep in decision.equilibria),
            bool(dg.pure_equilibria(dg.projection(G, G.dim - 1))))


def game_of_row(row, m, n, dim, zero_sum):
    """The vector game whose draws are row: A first, then B or -A."""
    A = row[:m * n * dim].reshape(m, n, dim).tolist()
    B = ([[[-e for e in cell] for cell in r] for r in A] if zero_sum
         else row[m * n * dim:].reshape(m, n, dim).tolist())
    return dg.new_vector_game(A, B, dim)


def per_trial_rlex(m, n, dim, zero_sum, trials, seed):
    """The RLEX estimator with one generator and one exact decision per
    trial."""
    counts = [0, 0, 0, 0]
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        A = [[tuple(float(v) for v in cell) for cell in row]
             for row in rng.random((m, n, dim))]
        if zero_sum:
            B = [[tuple(-e for e in cell) for cell in row] for row in A]
        else:
            B = [[tuple(float(v) for v in cell) for cell in row]
                 for row in rng.random((m, n, dim))]
        decided = exact_decision(dg.new_vector_game(A, B, dim))
        counts = [c + d for c, d in zip(counts, decided)]
    indet, hits, nonpure, top = counts
    ref = float(dg.formula_pure_zero_sum(m, n) if zero_sum
                else dg.formula_pure_bimatrix(m, n))
    return (mc._summarize(hits, trials - indet, ref),
            mc._summarize(top, trials - indet, ref), nonpure, indet)


def crafted_rows(rng, count, dim, zero_sum):
    """2x2 draw rows built to hit the filter's edges.  Half the top games
    take values k/8 (ties, singular systems, zero weights), some moved by
    a few 2**-50 (apart, but equal within cmp's tolerance); the rest are
    uniform draws.  Lower coordinates sit on one base per player (0 for
    some rows, so differences of exactly 1e-9 occur), moved by 0, +-1e-9
    (cmp's tolerance) or +-(1e-9 +- 2**-40), or are drawn."""
    players = 1 if zero_sum else 2
    shape = (count, players, 2, 2)
    rows = np.empty(shape + (dim,))
    dyadic = (rng.integers(0, 8, size=shape) / 8
              + rng.choice([0, 0, 0, 1, 2], size=shape) * 2.0 ** -50)
    rows[..., -1] = np.where(rng.random((count, 1, 1, 1)) < 0.5, dyadic,
                             rng.random(shape))
    t, e = 1e-9, 2.0 ** -40
    moves = np.array([0, t, -t, t + e, t - e, -t - e, -t + e])
    base = np.where(rng.random((count, 1, 1, 1, 1)) < 0.3, 0.0,
                    rng.random((count, players, 1, 1, dim - 1)))
    lower = base + rng.choice(moves, size=shape + (dim - 1,))
    drawn = rng.random(shape + (dim - 1,))
    rows[..., :-1] = np.where(rng.random(shape + (1,)) < 0.25, drawn, lower)
    return rows.reshape(count, -1)


class TestRlexFilter:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("zero_sum", [False, True])
    def test_certified_rows_equal_exact_path(self, dim, zero_sum):
        U = crafted_rows(np.random.default_rng(dim), 400, dim, zero_sum)
        want = np.array([exact_decision(game_of_row(r, 2, 2, dim, zero_sum))
                         for r in U])
        certified, decided = mc._rlex_2x2_filter(U, dim, zero_sum)
        assert (decided[certified] == want[certified]).all()
        # both paths are exercised, and every row ends up exact
        assert 0 < certified.sum() < len(U)
        assert want[~certified, 0].any()
        assert (mc._decide_rlex_rows(U, 2, 2, dim, zero_sum) == want).all()

    def test_tie_row_counts_as_indeterminate(self):
        # a00 == a10 in the top game, and (0, 0) is an equilibrium there:
        # row 1 is a second best response, so the decision is Indeterminate
        A = [[(0.3, 0.5), (0.1, 0.25)], [(0.2, 0.5), (0.4, 0.75)]]
        B = [[(0.1, 0.75), (0.2, 0.25)], [(0.3, 0.5), (0.4, 0.625)]]
        row = np.array([A, B]).reshape(1, -1)
        assert exact_decision(dg.new_vector_game(A, B, 2))[0]
        certified, _ = mc._rlex_2x2_filter(row, 2, False)
        assert not certified[0]
        assert mc._decide_rlex_rows(row, 2, 2, 2, False).tolist() == [
            [True, False, False, False]]

    @pytest.mark.parametrize("zero_sum", [False, True])
    def test_singular_top_games_go_to_exact_path(self, zero_sum):
        # no ties, but a00 - a01 - a10 + a11 == 0 (and likewise for B)
        top = [[0.5, 0.25], [0.75, 0.5]]
        A = [[(0.1, v) for v in r] for r in top]
        B = [[(0.2, v) for v in r] for r in zip(*top)]
        row = np.array([A] if zero_sum else [A, B]).reshape(1, -1)
        certified, _ = mc._rlex_2x2_filter(row, 2, zero_sum)
        assert not certified[0]
        want = exact_decision(game_of_row(row[0], 2, 2, 2, zero_sum))
        assert want[0]
        assert tuple(mc._decide_rlex_rows(row, 2, 2, 2, zero_sum)[0]) == want

    @pytest.mark.parametrize("y0", [0.5, 1 / 3])
    def test_mixed_check_near_tolerance(self, y0):
        # the top game's equilibrium is fully mixed, x = (1/2, 1/2) and
        # y = (y0, 1 - y0); one lower payoff of player 1 moves so that
        # the mixed check's differences are about +-delta
        top_a = ([[0.375, 0.125], [0.125, 0.375]] if y0 == 0.5
                 else [[0.5, 0.25], [0.25, 0.375]])
        top_b = [[0.125, 0.375], [0.375, 0.125]]
        t = 1e-9
        deltas = [t, -t, t + 2.0 ** -38, t - 2.0 ** -38, 2 * t, 0.0]
        rows = []
        for delta in deltas:
            lower = [[0.5, 0.5], [0.5, 0.5]]
            lower[0][0] += delta / (0.5 * y0)
            A = [[(lower[i][j], top_a[i][j]) for j in range(2)]
                 for i in range(2)]
            B = [[(0.5, top_b[i][j]) for j in range(2)] for i in range(2)]
            rows.append(np.array([A, B]).reshape(-1))
        U = np.array(rows)
        want = np.array([exact_decision(game_of_row(r, 2, 2, 2, False))
                         for r in U])
        certified, decided = mc._rlex_2x2_filter(U, 2, False)
        # at +-t the sign is not trusted; 2**-38 away from t it is
        assert certified.tolist() == [False, False, True, True, True, True]
        assert (decided[certified] == want[certified]).all()
        assert (mc._decide_rlex_rows(U, 2, 2, 2, False) == want).all()
        # the mixed profile passes while |delta| stays within t
        assert want[2:, 2].tolist() == [False, True, False, True]


class TestRlexBatches:
    @pytest.mark.parametrize("m,n,dim,trials", [
        (1, 1, 2, 50), (2, 3, 2, 40), (3, 3, 3, 12), (2, 2, 2, 150)])
    @pytest.mark.parametrize("zero_sum", [False, True])
    def test_estimate_equals_per_trial_path(self, m, n, dim, trials,
                                            zero_sum):
        for seed in (0, 5, 2**40 + 3):
            got = dg.estimate_rlex_probability(m, n, dim, zero_sum, trials,
                                               seed)
            want = per_trial_rlex(m, n, dim, zero_sum, trials, seed)
            assert got == want and repr(got) == repr(want)

    def test_random_2x2_trials_stay_in_the_filter(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mc, "_rlex_trial",
                            lambda *args: calls.append(args) or (True,) * 4)
        for zero_sum in (False, True):
            dg.estimate_rlex_probability(2, 2, 3, zero_sum, 300, 0)
        assert calls == []

    def test_crosses_batch_boundary(self):
        # 682 trials per batch at 2x2x3
        assert mc._BATCH_DRAWS // (2 * 2 * 2 * 3) == 682
        got = dg.estimate_rlex_probability(2, 2, 3, False, 700, 5)
        assert got == per_trial_rlex(2, 2, 3, False, 700, 5)

    def test_small_batches(self, monkeypatch):
        monkeypatch.setattr(mc, "_BATCH_DRAWS", 100)
        for zero_sum in (False, True):
            got = dg.estimate_rlex_probability(2, 2, 3, zero_sum, 61, 2)
            assert got == per_trial_rlex(2, 2, 3, zero_sum, 61, 2)


class TestRlexSizes:
    @pytest.mark.parametrize("m,n", [(0, 2), (2, 0), (-1, 2), (2, -3)])
    def test_empty_shape_rejected_before_drawing(self, m, n, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before checking the shape")
        monkeypatch.setattr(mc, "_trial_uniforms", no_draws)
        with pytest.raises(errors.DimensionMismatch,
                           match="matrix must be non-empty"):
            dg.estimate_rlex_probability(m, n, 2, False, 10, 0)

    def test_sizes_read_as_integers(self):
        got = dg.estimate_rlex_probability(np.int64(2), np.int32(2),
                                           np.int64(2), False, 20, 1)
        assert got == dg.estimate_rlex_probability(2, 2, 2, False, 20, 1)
        for bad in ((2.0, 2, 2), (2, 2.5, 2), (2, 2, 2.0)):
            with pytest.raises(TypeError):
                dg.estimate_rlex_probability(*bad, False, 10, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            dg.estimate_rlex_probability(2, 2, 2, False, 10, -1)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            dg.estimate_rlex_probability(2, 2, 2, False, 10, 1.5)

    def test_cli_empty_shape_exits_one(self, capsys):
        rc = main(["mc", "rlex", "--m", "0", "--n", "2", "--dim", "2",
                   "--trials", "10", "--seed", "0"])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.splitlines() == [
            "error: DimensionMismatch: matrix must be non-empty"]
