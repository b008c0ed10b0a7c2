"""End-to-end checks for the command line interface.

Every test drives ``distgames.cli.main`` in process and inspects the exit
code plus whatever landed on stdout/stderr.  One smoke test at the bottom
goes through the installed console script to make sure the entry point is
wired up.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import oracles
from distgames import cli
from distgames._numeric import format_float
from distgames.cli import game_to_document, main, parse_game_document
from distgames.game_core import new_bimatrix, new_vector_game, shape
from distgames.solve_real import fictitious_play


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def docs(tmp_path):
    """Write the game and distribution documents the tests read back."""
    paths = {}

    def dump(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
        return paths[name]

    dump("rps.json", {"type": "bimatrix", "zero_sum": True,
                      "A": oracles.RPS_MATRIX})
    dump("twopure.json", {"type": "bimatrix",
                          "A": [[1, 0], [0, 5]],
                          "B": [[-1, -2], [-2, 3]]})
    dump("const.json", {"type": "bimatrix", "zero_sum": True,
                        "A": [[3, 3], [3, 3]]})
    dump("half13.json", {"atoms": [1, 3], "masses": ["1/2", "1/2"]})
    dump("dirac2.json", {"atoms": [2], "masses": [1]})
    dump("seq.json", [1, "7/2", "65/4", "511/8"])
    dump("powers.json", [1, 2, 4, 8])

    ref = oracles.two_by_two_vector_game()
    dump("ref.json", game_to_document(ref))
    deg = new_vector_game(oracles.DEGENERATE_VECTOR_A,
                          oracles.DEGENERATE_VECTOR_B)
    dump("deg.json", game_to_document(deg))
    coord = new_vector_game(oracles.COORDINATION_VECTOR_A,
                            oracles.COORDINATION_VECTOR_B)
    dump("coord.json", game_to_document(coord))
    dump("saddle.json", game_to_document(oracles.saddle_distribution_game()))
    return paths


class TestSolve:
    def test_rps_support_enumeration(self, docs, capsys):
        rc, out, _ = run_cli(["solve", "--input", docs["rps.json"]], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["degenerate"] is True
        (eq,) = doc["equilibria"]
        assert eq["x"] == ["1/3", "1/3", "1/3"]
        assert eq["y"] == ["1/3", "1/3", "1/3"]
        assert eq["payoffs"] == [0, 0]
        assert eq["pure"] is False

    def test_output_is_sorted_json(self, docs, capsys):
        rc, out, _ = run_cli(["solve", "--input", docs["rps.json"]], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert out.strip() == json.dumps(doc, sort_keys=True)

    def test_pure_method_lists_both_equilibria(self, docs, capsys):
        rc, out, _ = run_cli(
            ["solve", "--input", docs["twopure.json"], "--method", "pure"],
            capsys)
        assert rc == 0
        doc = json.loads(out)
        cells = [(eq["x"], eq["y"]) for eq in doc["equilibria"]]
        assert ([1, 0], [1, 0]) in cells
        assert ([0, 1], [0, 1]) in cells

    def test_dominant_method(self, docs, capsys):
        rc, out, _ = run_cli(
            ["solve", "--input", docs["const.json"], "--method", "dominant"],
            capsys)
        assert rc == 0
        (eq,) = json.loads(out)["equilibria"]
        assert eq["x"] == [1, 0] and eq["y"] == [1, 0]

    def test_dominant_method_can_come_up_empty(self, docs, capsys):
        rc, out, _ = run_cli(
            ["solve", "--input", docs["twopure.json"], "--method", "dominant"],
            capsys)
        assert rc == 0
        assert json.loads(out)["equilibria"] == []


class TestDecide:
    def test_reference_game_has_no_lexicographic_equilibrium(self, docs,
                                                             capsys):
        rc, out, _ = run_cli(["rlex-decide", "--input", docs["ref.json"]],
                             capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "NoEquilibrium"
        assert doc["degenerate"] is False
        assert doc["equilibria"] == []
        (cand,) = doc["candidates_checked"]
        assert cand["verified"] is False
        assert cand["x"] == ["2/3", "1/3"]

    def test_degenerate_game_exits_with_code_two(self, docs, capsys):
        rc, out, _ = run_cli(["rlex-decide", "--input", docs["deg.json"]],
                             capsys)
        assert rc == 2
        doc = json.loads(out)
        assert doc["status"] == "Indeterminate"
        assert doc["degenerate"] is True
        assert len(doc["candidates_checked"]) == 2
        assert all(not c["verified"] for c in doc["candidates_checked"])

    def test_tail_decide_on_distribution_game(self, docs, capsys):
        rc, out, _ = run_cli(["tail-decide", "--input", docs["saddle.json"]],
                             capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "Equilibria"
        (eq,) = doc["equilibria"]
        assert eq["pure"] is True
        assert eq["x"] == [1, 0]
        assert eq["y"] == [0, 1]
        assert eq["payoffs"][0] == [0, "3/5", "2/5"]


class TestCompare:
    def test_expectation_order(self, docs, capsys):
        rc, out, _ = run_cli(
            ["compare", "--order", "exp",
             "--p1", docs["half13.json"], "--p2", docs["dirac2.json"]],
            capsys)
        assert rc == 0
        assert out.strip() == "Equal"

    def test_tail_order(self, docs, capsys):
        rc, out, _ = run_cli(
            ["compare", "--order", "tail",
             "--p1", docs["half13.json"], "--p2", docs["dirac2.json"]],
            capsys)
        assert rc == 0
        assert out.strip() == "Greater"

    def test_tweakable_order_with_partition(self, docs, capsys):
        rc, out, _ = run_cli(
            ["compare", "--order", "tweak", "--partition", "0,2,4",
             "--p1", docs["half13.json"], "--p2", docs["dirac2.json"]],
            capsys)
        assert rc == 0
        assert out.strip() == "Less"

    def test_stochastic_order_can_be_incomparable(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"atoms": [1, 4], "masses": ["1/2", "1/2"]}))
        b.write_text(json.dumps({"atoms": [2, 3], "masses": ["1/2", "1/2"]}))
        rc, out, _ = run_cli(
            ["compare", "--order", "st", "--p1", str(a), "--p2", str(b)],
            capsys)
        assert rc == 0
        assert out.strip() == "Incomparable"

    def test_tweakable_order_requires_partition(self, docs, capsys):
        rc, out, err = run_cli(
            ["compare", "--order", "tweak",
             "--p1", docs["half13.json"], "--p2", docs["dirac2.json"]],
            capsys)
        assert rc == 1
        assert err.strip().startswith("error:")
        assert err.count("\n") == 1


class TestFictitiousPlayCli:
    def test_recorded_rounds_and_symmetry(self, docs, capsys):
        rc, out, _ = run_cli(
            ["fp", "--input", docs["rps.json"], "--rounds", "6",
             "--seed", "1", "--record-every", "2"], capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "round,x_1,x_2,x_3,y_1,y_2,y_3,payoff1"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["2", "4", "6"]
        for r in rows:
            assert float(r[7]) == 0.0

    def test_same_seed_same_trace(self, docs, capsys):
        rc1, out1, _ = run_cli(
            ["fp", "--input", docs["rps.json"], "--rounds", "40",
             "--seed", "5"], capsys)
        rc2, out2, _ = run_cli(
            ["fp", "--input", docs["rps.json"], "--rounds", "40",
             "--seed", "5"], capsys)
        assert rc1 == rc2 == 0
        assert out1 == out2


class TestSegmentCli:
    def test_saddle_game_projects_to_vector_document(self, docs, capsys):
        rc, out, _ = run_cli(
            ["segment", "--input", docs["saddle.json"],
             "--partition", "0,2,4"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["type"] == "vector"
        assert doc["dim"] == 2
        assert doc["zero_sum"] is True
        assert doc["A"][0][0] == ["-1/2", "-3/2"]
        G = parse_game_document(doc)
        assert len(G.A) == 2 and len(G.A[0]) == 2


class TestParetoCli:
    def test_unit_weight_recovers_projection_equilibrium(self, docs, capsys):
        rc, out, _ = run_cli(
            ["pareto", "--input", docs["coord.json"],
             "--weights", "0,1;0,1"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["degenerate"] is False
        (eq,) = doc["equilibria"]
        assert eq["x"] == ["1/2", "1/2", 0]
        assert eq["y"] == ["1/2", "1/2", 0]

    def test_weight_length_is_checked(self, docs, capsys):
        rc, _, err = run_cli(
            ["pareto", "--input", docs["coord.json"],
             "--weights", "0,0,1;0,0,1"], capsys)
        assert rc == 1
        assert "DimensionMismatch" in err


class TestSweepCli:
    def test_header_and_row_count(self, docs, capsys):
        rc, out, _ = run_cli(
            ["sweep", "--input", docs["coord.json"], "--samples", "3",
             "--seed", "9"], capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("trial,w1_1,w1_2,w2_1,w2_2,"
                            "x_1,x_2,x_3,y_1,y_2,y_3,u1,u2")
        assert len(lines) == 4

    def test_seed_determinism(self, docs, capsys):
        _, out1, _ = run_cli(
            ["sweep", "--input", docs["coord.json"], "--samples", "5",
             "--seed", "2"], capsys)
        _, out2, _ = run_cli(
            ["sweep", "--input", docs["coord.json"], "--samples", "5",
             "--seed", "2"], capsys)
        assert out1 == out2


class TestMcCli:
    def test_pure_mode_row(self, docs, capsys):
        rc, out, _ = run_cli(
            ["mc", "pure", "--m", "2", "--n", "2", "--zero-sum",
             "--trials", "200", "--seed", "0"], capsys)
        assert rc == 0
        header, row = out.strip().splitlines()
        assert header == ("m,n,dim,zero_sum,trials,seed,hits,estimate,"
                          "ci95,reference,nonpure_found,indeterminate")
        cells = row.split(",")
        assert cells[0] == "2" and cells[1] == "2"
        assert cells[2] == ""
        assert cells[3] == "true"
        assert cells[4] == "200" and cells[5] == "0"
        assert cells[10] == "" and cells[11] == ""

    def test_rlex_mode_row(self, capsys):
        rc, out, _ = run_cli(
            ["mc", "rlex", "--m", "1", "--n", "1", "--dim", "2",
             "--trials", "50", "--seed", "3"], capsys)
        assert rc == 0
        _, row = out.strip().splitlines()
        cells = row.split(",")
        assert cells[2] == "2"
        assert cells[3] == "false"
        assert float(cells[7]) == 1.0
        assert cells[10] == "0" and cells[11] == "0"


class TestConstructCli:
    def test_geometric_sequence(self, capsys):
        rc, out, _ = run_cli(
            ["construct", "geom", "--c", "2", "--terms", "4"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["sequence"]["atoms"] == ["3/2", "7/4", "15/8", "31/16"]
        assert doc["sequence"]["masses"] == ["1/2", "1/4", "1/8", "1/16"]
        assert doc["sequence"]["tail_mass"] == "1/16"

    def test_geometric_versus_alternation(self, capsys):
        rc, out, _ = run_cli(
            ["construct", "geom", "--c", "2", "--terms", "8",
             "--versus", "3", "--upto", "5"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["alternation"] is True
        assert doc["versus"]["masses"][0] == "2/3"

    def test_shift_certificate(self, capsys):
        rc, out, _ = run_cli(
            ["construct", "shift", "--atoms", "3/2,7/4,15/8",
             "--masses", "1/2,1/4,1/8", "--bound", "2"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["shifted"]["atoms"]) == 3
        assert len(doc["certificate"]) == 2
        first, last = doc["certificate"]
        assert first["term"] == 1 and last["term"] == 2
        assert first["cdf_above_shifted"] is True
        assert last["cdf_above_shifted"] is None
        assert all(c["first_moment_ok"] for c in doc["certificate"])

    def test_shift_rejects_slack_masses(self, capsys):
        rc, _, err = run_cli(
            ["construct", "shift", "--atoms", "1,2,3",
             "--masses", "1/2,1/4,1/4", "--bound", "4"], capsys)
        assert rc == 1
        assert "MassesNotDecreasing" in err

    def test_alternating_moments_json(self, capsys):
        rc, out, _ = run_cli(
            ["construct", "alt-moments", "--a", "1", "--b", "2",
             "--terms", "3"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["verified"] is True
        assert doc["certificate"]["k_indices"] == [2, 10]
        assert doc["certificate"]["directions"] == ["XaboveY", "YaboveX"]
        assert doc["x"]["atoms"][0] == 1

    def test_alternating_moments_csv(self, capsys):
        rc, out, _ = run_cli(
            ["construct", "alt-moments", "--a", "1", "--b", "2",
             "--terms", "4", "--csv"], capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,lower,upper"
        assert len(lines) == 4
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "10", "50"]

    def test_alternating_moments_has_no_order_cap_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "alt-moments", "--a", "1", "--b", "2",
                  "--terms", "2", "--k-cap", "10"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (1, "")
        assert captured.err == "error: unrecognized arguments: --k-cap 10\n"


class TestMomcheckCli:
    def test_interval_violation_is_reported(self, docs, capsys):
        rc, out, _ = run_cli(
            ["momcheck", "--seq", docs["seq.json"],
             "--condition", "interval", "--b", "5"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["holds"] is False
        assert doc["first_violation"] == [1, 2]

    def test_nonnegative_differences_hold(self, docs, capsys):
        rc, out, _ = run_cli(
            ["momcheck", "--seq", docs["powers.json"],
             "--condition", "nonneg"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["holds"] is True
        assert doc["first_violation"] is None

    def test_interval_condition_needs_bound(self, docs, capsys):
        rc, _, err = run_cli(
            ["momcheck", "--seq", docs["seq.json"],
             "--condition", "interval"], capsys)
        assert rc == 1
        assert err.strip().startswith("error:")

    def test_negative_bound_is_rejected(self, docs, capsys):
        assert_rejected(["momcheck", "--seq", docs["seq.json"],
                         "--condition", "interval", "--b", "-1"], capsys)


class TestErrorHandling:
    def test_missing_file_is_one_stderr_line(self, capsys):
        rc, out, err = run_cli(["solve", "--input", "no-such-file.json"],
                               capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc, _, err = run_cli(["solve", "--input", str(bad)], capsys)
        assert rc == 1
        assert err.startswith("error:")


def test_console_script_smoke(tmp_path):
    doc = tmp_path / "rps.json"
    doc.write_text(json.dumps({"type": "bimatrix", "zero_sum": True,
                               "A": oracles.RPS_MATRIX}))
    proc = subprocess.run(["distgames", "solve", "--input", str(doc)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["equilibria"][0]["x"] == ["1/3", "1/3", "1/3"]


class TestNonFiniteAndMistypedInput:
    """Non-finite numbers and a non-boolean zero_sum are rejected with
    exit 1 and one stderr line, before any solver runs."""

    def _rejected(self, argv, capsys):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_pure_method_on_an_infinite_cell(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"type": "bimatrix",
                                    "A": [[1, float("inf")], [0, 2]],
                                    "B": [[0, 1], [1, 0]]}))
        self._rejected(["solve", "--input", str(path), "--method", "pure"],
                       capsys)

    def test_stochastic_order_with_a_nan_atom(self, docs, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"atoms": [float("nan")], "masses": [1]}))
        self._rejected(["compare", "--order", "st", "--p1", str(path),
                        "--p2", docs["half13.json"]], capsys)

    def test_zero_sum_given_as_a_string(self, tmp_path, capsys):
        path = tmp_path / "zs.json"
        path.write_text(json.dumps({"type": "bimatrix", "zero_sum": "false",
                                    "A": [[1, 0], [0, 1]]}))
        self._rejected(["solve", "--input", str(path)], capsys)


def assert_rejected(argv, capsys):
    """Exit 1, nothing on stdout, exactly one stderr line, no traceback."""
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error")
    assert err.count("\n") == 1


class TestZeroDenominatorAndOverflow:
    """A "p/0" number wherever one is read, and a cell too large for a
    float in fictitious play, end in exit 1 rather than a traceback."""

    def test_game_cell(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"type": "bimatrix",
                                    "A": [["1/0", 0], [0, 1]],
                                    "B": [[0, 1], [1, 0]]}))
        assert_rejected(["solve", "--input", str(path)], capsys)

    def test_distribution_atom(self, docs, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"atoms": ["1/0"], "masses": [1]}))
        assert_rejected(["compare", "--order", "st", "--p1", str(path),
                         "--p2", docs["half13.json"]], capsys)

    def test_geometric_ratio(self, capsys):
        assert_rejected(["construct", "geom", "--c", "1/0", "--terms", "3"],
                        capsys)

    def test_partition(self, docs, capsys):
        assert_rejected(["segment", "--input", docs["saddle.json"],
                         "--partition", "0,1/0"], capsys)

    def test_weights(self, docs, capsys):
        assert_rejected(["pareto", "--input", docs["ref.json"],
                         "--weights", "1/0,0;0,1"], capsys)

    def test_moment_term(self, tmp_path, capsys):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps([1, "1/0", 2]))
        assert_rejected(["momcheck", "--seq", str(path), "--condition", "cm"],
                        capsys)

    def test_fictitious_play_on_a_cell_beyond_float_range(self, tmp_path,
                                                          capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"type": "bimatrix",
                                    "A": [["1e400", 0], [0, 1]],
                                    "B": [[0, 1], [1, 0]]}))
        assert_rejected(["fp", "--input", str(path), "--rounds", "5"], capsys)


class TestParserReuse:
    """The parser is built once per process; reusing it must not let one
    request change the answer to another."""

    @staticmethod
    def _call(argv, capsys):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_mixed_requests_match_fresh_parsers(self, docs, capsys):
        solve = ["solve", "--input", docs["rps.json"]]
        requests = [
            ["mc", "pure", "--m", "3", "--trials", "10"],
            ["solve", "--help"],
            solve,
            ["fp", "--input", docs["twopure.json"], "--rounds", "9",
             "--record-every", "2", "--seed", "5"],
            ["compare", "--order", "tail", "--p1", docs["half13.json"],
             "--p2", docs["dirac2.json"]],
            ["fp", "--input", docs["twopure.json"], "--rounds", "many"],
            solve,
        ]
        fresh = []
        for argv in requests:
            cli._build_parser.cache_clear()
            fresh.append(self._call(argv, capsys))
        cli._build_parser.cache_clear()
        reused = [self._call(argv, capsys) for argv in requests]
        assert reused == fresh
        assert [rc for rc, _, _ in fresh] == [1, 0, 0, 0, 0, 1, 0]
        assert fresh[1][1].startswith("usage: distgames solve")
        for rc, out, err in (fresh[0], fresh[5]):
            assert out == "" and err.startswith("error:")
            assert err.count("\n") == 1


def cell_by_cell_fp_csv(G, records) -> str:
    """The fp writer as it was before the row template: one format_float
    call per cell."""
    n1, n2 = shape(G)
    cols = ["round"] + [f"x_{i+1}" for i in range(n1)] \
        + [f"y_{j+1}" for j in range(n2)] + ["payoff1"]
    out = [",".join(cols)]
    for rec in records:
        vals = [str(rec.round)] \
            + [format_float(v) for v in rec.x] \
            + [format_float(v) for v in rec.y] \
            + [format_float(rec.payoff1)]
        out.append(",".join(vals))
    return "\n".join(out) + "\n"


class TestFpCsvAgainstCellWriter:
    ROUNDS = 60

    @staticmethod
    def _entry(rng, kind):
        if kind == "exact":
            return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        return rng.choice([rng.uniform(-5, 5), rng.uniform(-5, 5), -0.0,
                           1e-300, -3e250, 0.1])

    @pytest.mark.parametrize("kind", ["exact", "float"])
    @pytest.mark.parametrize("seed", [None, 11])
    def test_byte_equal(self, kind, seed, tmp_path, capsys):
        rng = random.Random(f"{kind}-{seed}")
        for n1 in range(1, 5):
            for n2 in range(1, 4):
                A, B = ([[self._entry(rng, kind) for _ in range(n2)]
                         for _ in range(n1)] for _ in range(2))
                G = new_bimatrix(A, B)
                path = tmp_path / f"g{n1}{n2}.json"
                path.write_text(json.dumps(game_to_document(G)))
                for every in (1, 7, self.ROUNDS):
                    argv = ["fp", "--input", str(path),
                            "--rounds", str(self.ROUNDS),
                            "--record-every", str(every)]
                    if seed is not None:
                        argv += ["--seed", str(seed)]
                    rc, out, err = run_cli(argv, capsys)
                    records = fictitious_play(G, self.ROUNDS, seed=seed,
                                              record_every=every)
                    assert (rc, err) == (0, "")
                    assert out == cell_by_cell_fp_csv(G, records)


class TestNestingAndFieldTypes:
    """A JSON document nested past the parser's depth, and a non-integer
    rows, cols or dim field, end in exit 1 with one error line."""

    @pytest.fixture()
    def deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000 + "]" * 5000)
        return str(path)

    def test_deep_game_document(self, deep, capsys):
        assert_rejected(["solve", "--input", deep], capsys)

    def test_deep_distribution(self, deep, docs, capsys):
        assert_rejected(["compare", "--order", "exp", "--p1", deep,
                         "--p2", docs["half13.json"]], capsys)

    def test_deep_moment_sequence(self, deep, capsys):
        assert_rejected(["momcheck", "--seq", deep, "--condition", "cm"],
                        capsys)

    @staticmethod
    def _vector_doc(tmp_path, **fields):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"type": "vector",
                                    "A": [[[1, 0], [0, 1]]],
                                    "B": [[[0, 1], [1, 0]]], **fields}))
        return str(path)

    @staticmethod
    def _names_the_field(argv, key, value, capsys):
        rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (1, "")
        assert err == f"error: {key} must be an integer, not {value!r}\n"

    def test_float_dim_in_rlex_decide(self, tmp_path, capsys):
        self._names_the_field(["rlex-decide", "--input",
                               self._vector_doc(tmp_path, dim=2.0)],
                              "dim", 2.0, capsys)

    def test_float_dim_in_sweep(self, tmp_path, capsys):
        self._names_the_field(["sweep", "--input",
                               self._vector_doc(tmp_path, dim=2.0),
                               "--samples", "2", "--seed", "1"],
                              "dim", 2.0, capsys)

    def test_boolean_dim(self, tmp_path, capsys):
        self._names_the_field(["rlex-decide", "--input",
                               self._vector_doc(tmp_path, dim=True)],
                              "dim", True, capsys)

    @pytest.mark.parametrize("key, value", [("rows", "2"), ("cols", 2.0),
                                            ("rows", True)])
    def test_mistyped_shape_field(self, key, value, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"type": "bimatrix", "A": [[1, 0], [0, 1]],
                                    "B": [[0, 1], [1, 0]], key: value}))
        self._names_the_field(["solve", "--input", str(path)], key, value,
                              capsys)


def test_alt_moments_past_the_digit_limit_fails_before_verifying(monkeypatch,
                                                                 capsys):
    """The certificate is encoded before it is verified, so a request whose
    numbers pass Python's int->str digit limit fails without paying for
    the verification."""
    calls = []
    monkeypatch.setattr(cli, "verify_alternation_certificate",
                        lambda *args: calls.append(args) or True)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert_rejected(["construct", "alt-moments", "--a", "1", "--b", "2",
                         "--terms", "5"], capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    assert calls == []
