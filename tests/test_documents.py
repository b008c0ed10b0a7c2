"""Game documents: round trips, the zero-sum check and document types.

game_to_document writes "zero_sum" from the negation check and
parse_game_document re-checks it, so a round trip exercises the same
closeness rule from both sides.
"""

import json
from fractions import Fraction as F

import pytest

import distgames as dg
from distgames._numeric import parse_number
from distgames.cli import game_to_document, main, parse_game_document

import oracles

GAMES = {
    "bimatrix-zero-sum": lambda: dg.new_bimatrix(oracles.RPS_MATRIX,
                                                  zero_sum=True),
    "bimatrix": lambda: dg.new_bimatrix([[1, F(1, 3)], [0.25, -2]],
                                        [[F(-5, 7), 0], [3, 0.1]]),
    "bimatrix-negated-unflagged": lambda: dg.new_bimatrix([[1, 2]], [[-1, -2]]),
    "projection": lambda: dg.projection(oracles.two_by_two_vector_game(), 2),
    "vector-negated": oracles.two_by_two_vector_game,
    "vector-negated-mixed-types": lambda: dg.new_vector_game(
        [[(1, F(1, 2)), (0.5, 2)]], [[(-1, F(-1, 2)), (-0.5, -2)]]),
    "vector": oracles.coordination_vector_game,
    "distribution-zero-sum": oracles.small_distribution_game,
    "distribution-zero-sum-saddle": oracles.saddle_distribution_game,
    "distribution": lambda: dg.new_distribution_game(
        [[dg.dirac(1), dg.new_distribution([2, 3], [0.25, 0.75])]],
        [[dg.dirac(F(5, 2)), dg.dirac(1)]]),
}


@pytest.mark.parametrize("name", sorted(GAMES))
def test_round_trip(name):
    G = GAMES[name]()
    doc = json.loads(json.dumps(game_to_document(G)))
    assert parse_game_document(doc) == G


def test_vector_zero_sum_flag_written_from_negation():
    assert game_to_document(GAMES["vector-negated"]())["zero_sum"] is True
    assert game_to_document(
        GAMES["vector-negated-mixed-types"]())["zero_sum"] is True
    assert game_to_document(GAMES["vector"]())["zero_sum"] is False


def _run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_vector_document_not_zero_sum_rejected(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"type": "vector", "zero_sum": True,
                                "A": [[[1, 2]]], "B": [[[-1, -3]]]}))
    rc, out, err = _run(["rlex-decide", "--input", str(path)], capsys)
    assert rc == 1
    assert out == ""
    assert err == "error: NotZeroSum: B is not the negation of A\n"


DOCUMENTS = {
    "bimatrix": lambda: dg.new_bimatrix([[1, 0], [0, 1]], zero_sum=True),
    "vector": oracles.two_by_two_vector_game,
    "distribution": oracles.small_distribution_game,
}

# subcommand -> (expected document type, extra arguments)
SUBCOMMANDS = {
    "solve": ("bimatrix", []),
    "fp": ("bimatrix", ["--rounds", "3"]),
    "rlex-decide": ("vector", []),
    "tail-decide": ("distribution", []),
    "segment": ("distribution", ["--partition", "1,2,3"]),
    "pareto": ("vector", ["--weights", "1,0,0;1,0,0"]),
    "sweep": ("vector", ["--samples", "2", "--seed", "0"]),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_wrong_document_type(command, tmp_path, capsys):
    want, extra = SUBCOMMANDS[command]
    for kind, build in DOCUMENTS.items():
        if kind == want:
            continue
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(game_to_document(build())))
        rc, out, err = _run([command, "--input", str(path)] + extra, capsys)
        assert rc == 1
        assert out == ""
        assert err == f"error: {command} expects a {want} document\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_rejected(value):
    with pytest.raises(ValueError):
        parse_number(value)
    with pytest.raises(ValueError):
        parse_game_document({"type": "bimatrix", "A": [[1, value]],
                             "B": [[0, 0]]})
    with pytest.raises(ValueError):
        dg.distribution_from_json({"atoms": [value], "masses": [1]})


def test_finite_float_kept():
    assert parse_number(2.5) == 2.5
    assert type(parse_number(2.5)) is float


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [True]])
def test_zero_sum_must_be_a_boolean(flag):
    doc = {"type": "bimatrix", "zero_sum": flag, "A": [[1, 0], [0, 1]]}
    with pytest.raises(ValueError, match="zero_sum must be true or false"):
        parse_game_document(doc)


@pytest.mark.parametrize("flag", [True, False])
def test_zero_sum_boolean_accepted(flag):
    doc = {"type": "bimatrix", "zero_sum": flag, "A": [[1, 0], [0, 1]],
           "B": [[-1, 0], [0, -1]]}
    assert parse_game_document(doc).zero_sum is flag
