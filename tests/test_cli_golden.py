"""Every printing subcommand writes exactly its recorded stdout
(tests/golden/cli/<case>.txt) on fixed documents.

The documents mix Fraction, int and float cells, including -0.0, 1e300
and the smallest subnormal 5e-324, so every number writer of the CLI is
pinned byte for byte.
"""

import json
from pathlib import Path

import pytest

from distgames.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

BIMATRIX_EXACT = {"type": "bimatrix",
                  "A": [["1/2", 3, 0], [2, "7/3", "-1/4"], [0, 1, 2]],
                  "B": [[1, "2/3", 0], [0, 1, "5/2"], [3, 0, "1/3"]]}
BIMATRIX_FLOAT = {"type": "bimatrix",
                  "A": [[0.1, -0.0], [-0.0, 0.3]],
                  "B": [[2.5, -0.0], [-0.0, 1.25]]}
BIMATRIX_EXTREME = {"type": "bimatrix",
                    "A": [[1e300, "1/3", -0.0], [5e-324, 2, 7], [-1e300, 0, 1]],
                    "B": [[5e-324, -0.0, "-2/7"], [0, -0.0, 1], [0, 4, 0.5]]}
BIMATRIX_DOMINANT = {"type": "bimatrix",
                     "A": [[1e300, 5e-324], [-0.0, -0.0]],
                     "B": [["1/3", -0.0], [2, 1]]}
VECTOR = {"type": "vector", "dim": 2,
          "A": [[["1/2", 1], [0, 0.25]], [[1, -0.0], ["2/3", 1e300]]],
          "B": [[[0, 5e-324], [1, "1/3"]], [["3/4", 0], [0.5, 2]]]}
VECTOR_DEGENERATE = {"type": "vector", "dim": 2,
                     "A": [[[0, 1], [0, 2], [0, -1]],
                           [[0, 2], [0, 1], [0, -2]],
                           [[1, 2], [1, 1], [1, -3]]],
                     "B": [[[0, 2], [0, 1], [0, 0]],
                           [[0, 1], [0, 2], [0, 0]],
                           [[-1, -1], [-1, -1], [-1, 0]]]}
DISTRIBUTION = {"type": "distribution",
                "A": [[{"atoms": [1, 3], "masses": ["1/2", "1/2"]},
                       {"atoms": [2], "masses": [1]}],
                      [{"atoms": [1.25, 2.5], "masses": [0.25, 0.75]},
                       {"atoms": ["3/2"], "masses": [1]}]],
                "B": [[{"atoms": [2], "masses": [1]},
                       {"atoms": [1.0, 4], "masses": ["1/3", "2/3"]}],
                      [{"atoms": [1], "masses": [1]},
                       {"atoms": [1, 2, 3], "masses": ["1/6", "1/3", "1/2"]}]]}
DIST_P1 = {"atoms": [1, "5/2", 4], "masses": ["1/4", "1/4", "1/2"]}
DIST_P2 = {"atoms": [0.5, 3], "masses": [0.5, 0.5]}
SEQ_CM = [1, "1/2", "1/3", "1/4", "1/5"]
SEQ_INTERVAL = [1, "7/2", "65/4", "511/8"]
SEQ_FLOAT = [1, 1.5, 2.25, 3.375, -0.0]

DOCUMENTS = {"bimatrix-exact": BIMATRIX_EXACT, "bimatrix-float": BIMATRIX_FLOAT,
             "bimatrix-extreme": BIMATRIX_EXTREME,
             "bimatrix-dominant": BIMATRIX_DOMINANT, "vector": VECTOR,
             "vector-degenerate": VECTOR_DEGENERATE,
             "distribution": DISTRIBUTION, "p1": DIST_P1, "p2": DIST_P2,
             "seq-cm": SEQ_CM, "seq-interval": SEQ_INTERVAL,
             "seq-float": SEQ_FLOAT}

# case name -> (argv with "@doc" standing for a document path, exit code)
CASES = {
    "solve-support-enum-exact": (["solve", "--input", "@bimatrix-exact"], 0),
    "solve-support-enum-float": (["solve", "--input", "@bimatrix-float"], 0),
    "solve-support-enum-extreme": (["solve", "--input", "@bimatrix-extreme"], 0),
    "solve-pure-extreme": (["solve", "--method", "pure", "--input",
                            "@bimatrix-extreme"], 0),
    "solve-pure-float": (["solve", "--method", "pure", "--input",
                          "@bimatrix-float"], 0),
    "solve-dominant-extreme": (["solve", "--method", "dominant", "--input",
                                "@bimatrix-dominant"], 0),
    "solve-dominant-exact": (["solve", "--method", "dominant", "--input",
                              "@bimatrix-exact"], 0),
    "fp-float": (["fp", "--input", "@bimatrix-float", "--rounds", "12",
                  "--seed", "3", "--record-every", "5"], 0),
    "fp-extreme": (["fp", "--input", "@bimatrix-extreme", "--rounds", "6"], 0),
    "rlex-decide": (["rlex-decide", "--input", "@vector"], 0),
    "rlex-decide-degenerate": (["rlex-decide", "--input",
                                "@vector-degenerate"], 2),
    "tail-decide": (["tail-decide", "--input", "@distribution"], 2),
    "compare-exp": (["compare", "--order", "exp", "--p1", "@p1",
                     "--p2", "@p2"], 0),
    "compare-tweak": (["compare", "--order", "tweak", "--p1", "@p1",
                       "--p2", "@p2", "--partition", "0,1/2,2,5"], 0),
    "segment": (["segment", "--input", "@distribution",
                 "--partition", "0,3/2,2.5,5"], 0),
    "pareto-exact": (["pareto", "--input", "@vector",
                      "--weights", "1,0;1/3,2/3"], 0),
    "pareto-float": (["pareto", "--input", "@vector",
                      "--weights", "0.25,0.75;0.5,0.5"], 0),
    "sweep": (["sweep", "--input", "@vector", "--samples", "6",
               "--seed", "11"], 0),
    "mc-pure": (["mc", "pure", "--m", "2", "--n", "3", "--trials", "40",
                 "--seed", "5"], 0),
    "mc-pure-zero-sum": (["mc", "pure", "--m", "3", "--n", "3", "--zero-sum",
                          "--trials", "25", "--seed", "1"], 0),
    "mc-rlex": (["mc", "rlex", "--m", "2", "--n", "2", "--dim", "2",
                 "--trials", "30", "--seed", "2"], 0),
    "construct-geom": (["construct", "geom", "--c", "3/2", "--terms", "4"], 0),
    "construct-geom-versus": (["construct", "geom", "--c", "2", "--terms", "4",
                               "--versus", "3", "--upto", "4"], 0),
    "construct-shift": (["construct", "shift", "--atoms", "5/4,3/2,7/4,15/8",
                         "--masses", "2/5,1/5,1/10,1/20", "--bound", "2"], 0),
    "construct-alt-moments": (["construct", "alt-moments", "--a", "1",
                               "--b", "2", "--terms", "3"], 0),
    "construct-alt-moments-csv": (["construct", "alt-moments", "--a", "1",
                                   "--b", "2", "--terms", "3", "--csv"], 0),
    "construct-alt-moments-initial-atoms": (
        ["construct", "alt-moments", "--a", "1/3", "--b", "7/3", "--terms",
         "4", "--x1", "1/2", "--y1", "2/3"], 0),
    "construct-alt-moments-from-zero-csv": (
        ["construct", "alt-moments", "--a", "0", "--b", "3/2", "--terms", "4",
         "--csv"], 0),
    "momcheck-cm": (["momcheck", "--seq", "@seq-cm", "--condition", "cm"], 0),
    "momcheck-interval": (["momcheck", "--seq", "@seq-interval",
                           "--condition", "interval", "--b", "2"], 0),
    "momcheck-nonneg-float": (["momcheck", "--seq", "@seq-float",
                               "--condition", "nonneg"], 0),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-docs")
    out = {}
    for name, doc in DOCUMENTS.items():
        p = root / f"{name}.json"
        p.write_text(json.dumps(doc))
        out[name] = str(p)
    return out


def run_case(name, paths, capsys):
    argv, _ = CASES[name]
    rc = main([paths[a[1:]] if a.startswith("@") else a for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_every_case_has_a_golden_output():
    assert sorted(CASES) == sorted(g.stem for g in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_unchanged(name, paths, capsys):
    rc, out, err = run_case(name, paths, capsys)
    assert (rc, err) == (CASES[name][1], "")
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
