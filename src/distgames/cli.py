"""Command-line interface and the JSON game-document format.

Documents carry a "type" of bimatrix, vector or distribution plus
nested payoff arrays; exact rationals travel as "p/q" strings so a
document round-trips without precision loss.  All JSON output has
sorted keys, all listings are deterministically ordered.

Exit codes: 0 for a normal answer (a NoEquilibrium status is an
answer), 1 for parse or validation failures with a one-line diagnostic
on stderr, 2 for an Indeterminate decision.

The argument parser is built once per process, on the first main()
call, and reused after that.  Handlers are bound then, so replacing a
_cmd_* function later does not change what main() runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import errors
from ._numeric import parse_number, to_json
from .construct import (alternating_moment_pair, geometric_tail_family,
                        shift_construction, verify_alternation_certificate,
                        verify_cdf_alternation)
from .dist import (compare_expectation, compare_usual_stochastic,
                   distribution_from_json, distribution_to_json, tail_compare,
                   tweakable_compare)
from .game_core import (BimatrixGame, DistributionBimatrixGame,
                        VectorBimatrixGame, mixed_payoff, negates,
                        new_bimatrix, new_distribution_game, new_vector_game,
                        pure_profile, shape)
from .mc import (estimate_pure_probability, estimate_rlex_probability, mc_csv)
from .moments import first_violation
from .pareto import pareto_nash, segment_game, sweep_csv, weight_sweep
from .rlex_solve import (INDETERMINATE, decide_rlex_equilibria,
                         decide_tail_equilibria)
from .solve_real import (EquilibriumReport, SolveOutcome, dominant_solution,
                         fictitious_play, pure_equilibria, support_enumeration)


class _Parser(argparse.ArgumentParser):
    # argparse normally exits 2 on bad usage; 2 is reserved for
    # Indeterminate here, so usage errors must come back as 1
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def _print_json(obj) -> None:
    print(json.dumps(to_json(obj), sort_keys=True))


# ---------------------------------------------------------------- documents

def parse_game_document(doc):
    """Turn a parsed JSON document into the matching game object."""
    if not isinstance(doc, dict):
        raise ValueError("game document must be a JSON object")
    gtype = doc.get("type")
    zero_sum = doc.get("zero_sum", False)
    if not isinstance(zero_sum, bool):
        raise ValueError(f"zero_sum must be true or false, not {zero_sum!r}")
    for key in ("rows", "cols", "dim"):
        if doc.get(key) is not None and type(doc[key]) is not int:
            raise ValueError(f"{key} must be an integer, not {doc[key]!r}")
    if "A" not in doc:
        raise ValueError("game document lacks payoff array A")

    def payoffs(read):
        return (None if M is None else [[read(c) for c in row] for row in M]
                for M in (doc["A"], doc.get("B")))

    if gtype == "bimatrix":
        G = new_bimatrix(*payoffs(parse_number), zero_sum=zero_sum)
    elif gtype == "vector":
        A, B = payoffs(lambda cell: tuple(parse_number(v) for v in cell))
        if B is None:
            if not zero_sum:
                raise ValueError("vector document needs B unless zero_sum")
            B = [[tuple(-e for e in cell) for cell in row] for row in A]
        elif zero_sum and not negates(A, B):
            raise errors.NotZeroSum("B is not the negation of A")
        G = new_vector_game(A, B, doc.get("dim"))
    elif gtype == "distribution":
        G = new_distribution_game(*payoffs(distribution_from_json),
                                  zero_sum=zero_sum)
    else:
        raise ValueError(f"unknown game type {gtype!r}")

    n1, n2 = shape(G)
    if "rows" in doc and doc["rows"] != n1:
        raise ValueError(f"rows field says {doc['rows']}, A has {n1}")
    if "cols" in doc and doc["cols"] != n2:
        raise ValueError(f"cols field says {doc['cols']}, A has {n2}")
    return G


def game_to_document(G) -> dict:
    """Inverse of parse_game_document, exact for rational payoffs."""
    return to_json(_game_document(G))


def _game_document(G) -> dict:
    A, B = G.A, G.B
    if isinstance(G, BimatrixGame):
        doc = {"type": "bimatrix", "zero_sum": G.zero_sum}
    elif isinstance(G, VectorBimatrixGame):
        doc = {"type": "vector", "dim": G.dim, "zero_sum": negates(A, B)}
    elif isinstance(G, DistributionBimatrixGame):
        doc = {"type": "distribution", "zero_sum": G.zero_sum}
        A, B = ([[distribution_to_json(cell) for cell in row] for row in M]
                for M in (A, B))
    else:
        raise TypeError(f"not a game: {G!r}")
    doc["rows"], doc["cols"] = shape(G)
    doc["A"], doc["B"] = A, B
    return doc


def _report_json(rep: EquilibriumReport) -> dict:
    return {
        "x": rep.profile.x,
        "y": rep.profile.y,
        "supports": rep.supports,
        "payoffs": rep.payoffs,
        "pure": rep.pure,
    }


def _outcome_json(outcome: SolveOutcome) -> dict:
    return {
        "equilibria": [_report_json(r) for r in outcome.equilibria],
        "degenerate": outcome.degenerate_flag,
    }


def _pure_report(G, i: int, j: int) -> EquilibriumReport:
    n1, n2 = shape(G)
    p = pure_profile(i, j, n1, n2)
    return EquilibriumReport(
        profile=p,
        supports=((i,), (j,)),
        payoffs=(mixed_payoff(G, p, 1), mixed_payoff(G, p, 2)),
        pure=True,
    )


def _sequence_json(S) -> dict:
    return {"atoms": S.atoms, "masses": S.masses, "tail_mass": S.tail_mass,
            "bound": S.bound_b}


def _parse_numbers(text: str) -> list:
    return [parse_number(tok.strip()) for tok in text.split(",") if tok.strip()]


def _load_game(args, cls, what: str):
    """The game in the --input document, which must be of type cls."""
    G = parse_game_document(_load_json(args.input))
    if not isinstance(G, cls):
        raise ValueError(f"{args.command} expects a {what} document")
    return G


# ------------------------------------------------------------- subcommands

def _cmd_solve(args) -> int:
    G = _load_game(args, BimatrixGame, "bimatrix")
    if args.method == "support-enum":
        outcome = support_enumeration(G)
    elif args.method == "pure":
        reports = tuple(_pure_report(G, i, j) for i, j in pure_equilibria(G))
        outcome = SolveOutcome(reports, False)
    else:
        cell = dominant_solution(G)
        reports = () if cell is None else (_pure_report(G, *cell),)
        outcome = SolveOutcome(reports, False)
    _print_json(_outcome_json(outcome))
    return 0


def _cmd_fp(args) -> int:
    G = _load_game(args, BimatrixGame, "bimatrix")
    records = fictitious_play(G, args.rounds, seed=args.seed,
                              record_every=args.record_every)
    n1, n2 = shape(G)
    cols = ["round"] + [f"x_{i+1}" for i in range(n1)] \
        + [f"y_{j+1}" for j in range(n2)] + ["payoff1"]
    # one %-template per row; "%.17g" % v equals format_float(v) for floats
    row = ",".join(["%d"] + ["%.17g"] * (n1 + n2 + 1))
    out = [",".join(cols)]
    out += [row % (rec.round, *rec.x, *rec.y, rec.payoff1) for rec in records]
    print("\n".join(out))
    return 0


def _decision_json(decision) -> dict:
    return {
        "status": decision.status,
        "equilibria": [_report_json(r) for r in decision.equilibria],
        "candidates_checked": [{"x": prof.x, "y": prof.y, "verified": ok}
                               for prof, ok in decision.candidates_checked],
        "degenerate": decision.degenerate,
    }


def _print_decision(decision) -> int:
    """Print a decision; exit code 2 when it is indeterminate."""
    _print_json(_decision_json(decision))
    return 2 if decision.status == INDETERMINATE else 0


def _cmd_rlex_decide(args) -> int:
    G = _load_game(args, VectorBimatrixGame, "vector")
    return _print_decision(decide_rlex_equilibria(G))


def _cmd_tail_decide(args) -> int:
    G = _load_game(args, DistributionBimatrixGame, "distribution")
    return _print_decision(decide_tail_equilibria(G))


def _cmd_compare(args) -> int:
    P1 = distribution_from_json(_load_json(args.p1))
    P2 = distribution_from_json(_load_json(args.p2))
    if args.order == "exp":
        res = compare_expectation(P1, P2)
    elif args.order == "st":
        res = compare_usual_stochastic(P1, P2)
    elif args.order == "tail":
        res = tail_compare(P1, P2)
    else:
        if args.partition is None:
            raise ValueError("--order tweak needs --partition")
        res = tweakable_compare(P1, P2, _parse_numbers(args.partition))
    print(res.value)
    return 0


def _cmd_segment(args) -> int:
    G = _load_game(args, DistributionBimatrixGame, "distribution")
    V = segment_game(G, _parse_numbers(args.partition))
    _print_json(_game_document(V))
    return 0


def _cmd_pareto(args) -> int:
    G = _load_game(args, VectorBimatrixGame, "vector")
    parts = args.weights.split(";")
    if len(parts) != 2:
        raise ValueError("--weights must be two ;-separated lists")
    outcome = pareto_nash(G, *map(_parse_numbers, parts))
    _print_json(_outcome_json(outcome))
    return 0


def _cmd_sweep(args) -> int:
    G = _load_game(args, VectorBimatrixGame, "vector")
    records = weight_sweep(G, args.samples, args.seed)
    sys.stdout.write(sweep_csv(G, records))
    return 0


def _cmd_mc(args) -> int:
    if args.mode == "pure":
        summary = estimate_pure_probability(args.m, args.n, args.zero_sum,
                                            args.trials, args.seed)
        sys.stdout.write(mc_csv(args.m, args.n, None, args.zero_sum,
                                args.seed, summary))
    else:
        rlex, _pure_top, nonpure, indet = estimate_rlex_probability(
            args.m, args.n, args.dim, args.zero_sum, args.trials, args.seed
        )
        sys.stdout.write(mc_csv(args.m, args.n, args.dim, args.zero_sum,
                                args.seed, rlex, nonpure, indet))
    return 0


def _cmd_construct_geom(args) -> int:
    S = geometric_tail_family(parse_number(args.c), args.terms)
    out = {"sequence": _sequence_json(S)}
    if args.versus is not None:
        S2 = geometric_tail_family(parse_number(args.versus), args.terms)
        out["versus"] = _sequence_json(S2)
        out["alternation"] = verify_cdf_alternation(S, S2, args.upto)
    _print_json(out)
    return 0


def _cmd_construct_shift(args) -> int:
    shifted, certs = shift_construction(
        _parse_numbers(args.atoms), _parse_numbers(args.masses),
        parse_number(args.bound)
    )
    # certificate field names are the JSON keys; to_json copies the dicts
    _print_json({"shifted": _sequence_json(shifted),
                 "certificate": [vars(c) for c in certs]})
    return 0


def _cmd_construct_alt(args) -> int:
    x, y, cert = alternating_moment_pair(
        parse_number(args.a), parse_number(args.b), args.terms,
        x1=None if args.x1 is None else parse_number(args.x1),
        y1=None if args.y1 is None else parse_number(args.y1),
    )
    if args.csv:
        lines = ["k,lower,upper"]
        for k, (lo, up) in zip(cert.k_indices, cert.bound_checks):
            lines.append(f"{k},{to_json(lo)},{to_json(up)}")
        print("\n".join(lines))
        return 0
    # Encode before verifying: numbers past Python's int->str digit limit
    # then fail here at once instead of after the whole verification.
    out = to_json({"x": _sequence_json(x), "y": _sequence_json(y),
                   "certificate": vars(cert)})
    out["verified"] = verify_alternation_certificate(x, y, cert)
    _print_json(out)
    return 0


def _cmd_momcheck(args) -> int:
    seq = _load_json(args.seq)
    if not isinstance(seq, list):
        raise ValueError("sequence file must hold a JSON array")
    s = [parse_number(v) for v in seq]
    if args.condition == "interval" and args.b is None:
        raise ValueError("--condition interval needs --b")
    b = None if args.b is None else parse_number(args.b)
    violation = first_violation(s, args.condition, b)
    _print_json({
        "holds": violation is None,
        "first_violation": violation,
    })
    return 0


# ------------------------------------------------------------------ parser

@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="distgames",
                description="distribution-valued game calculations")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="equilibria of a scalar game")
    sp.add_argument("--input", required=True)
    sp.add_argument("--method", choices=["support-enum", "pure", "dominant"],
                    default="support-enum")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("fp", help="fictitious play trace")
    sp.add_argument("--input", required=True)
    sp.add_argument("--rounds", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--record-every", type=int, default=1)
    sp.set_defaults(func=_cmd_fp)

    sp = sub.add_parser("rlex-decide",
                        help="lexicographic equilibria of a vector game")
    sp.add_argument("--input", required=True)
    sp.set_defaults(func=_cmd_rlex_decide)

    sp = sub.add_parser("tail-decide",
                        help="tail-order equilibria of a distribution game")
    sp.add_argument("--input", required=True)
    sp.set_defaults(func=_cmd_tail_decide)

    sp = sub.add_parser("compare", help="order two distributions")
    sp.add_argument("--order", choices=["exp", "st", "tail", "tweak"],
                    required=True)
    sp.add_argument("--p1", required=True)
    sp.add_argument("--p2", required=True)
    sp.add_argument("--partition", default=None)
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("segment",
                        help="segment-expectation vector game of a "
                             "distribution game")
    sp.add_argument("--input", required=True)
    sp.add_argument("--partition", required=True)
    sp.set_defaults(func=_cmd_segment)

    sp = sub.add_parser("pareto", help="scalarized equilibria of a vector game")
    sp.add_argument("--input", required=True)
    sp.add_argument("--weights", required=True,
                    help="per-player weight lists, e.g. '1,0;0,1'")
    sp.set_defaults(func=_cmd_pareto)

    sp = sub.add_parser("sweep", help="random scalarization weight sweep")
    sp.add_argument("--input", required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("mc", help="Monte Carlo existence estimates")
    mcsub = sp.add_subparsers(dest="mode", required=True)
    for mode in ("pure", "rlex"):
        mp = mcsub.add_parser(mode)
        mp.add_argument("--m", type=int, required=True)
        mp.add_argument("--n", type=int, required=True)
        if mode == "rlex":
            mp.add_argument("--dim", type=int, required=True)
        mp.add_argument("--zero-sum", action="store_true", dest="zero_sum")
        mp.add_argument("--trials", type=int, required=True)
        mp.add_argument("--seed", type=int, required=True)
        mp.set_defaults(func=_cmd_mc)

    sp = sub.add_parser("construct", help="counterexample generators")
    csub = sp.add_subparsers(dest="generator", required=True)

    cp = csub.add_parser("geom")
    cp.add_argument("--c", required=True)
    cp.add_argument("--terms", type=int, required=True)
    cp.add_argument("--versus", default=None)
    cp.add_argument("--upto", type=int, default=5)
    cp.set_defaults(func=_cmd_construct_geom)

    cp = csub.add_parser("shift")
    cp.add_argument("--atoms", required=True)
    cp.add_argument("--masses", required=True)
    cp.add_argument("--bound", required=True)
    cp.set_defaults(func=_cmd_construct_shift)

    cp = csub.add_parser("alt-moments")
    cp.add_argument("--a", required=True)
    cp.add_argument("--b", required=True)
    cp.add_argument("--terms", type=int, required=True)
    cp.add_argument("--x1", default=None)
    cp.add_argument("--y1", default=None)
    cp.add_argument("--csv", action="store_true")
    cp.set_defaults(func=_cmd_construct_alt)

    sp = sub.add_parser("momcheck", help="moment-sequence shape conditions")
    sp.add_argument("--seq", required=True)
    sp.add_argument("--condition", choices=["cm", "nonneg", "interval"],
                    required=True)
    sp.add_argument("--b", default=None)
    sp.set_defaults(func=_cmd_momcheck)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except errors.DistGamesError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
