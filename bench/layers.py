"""Per-layer metrics of the traced run.

`install` wraps the public functions of each library module in spans
(see spans.Recorder); `derive` turns the recorded spans and boundary
counters into the per-layer metrics named in BENCHMARK.json.  A metric
whose layer the workload never calls reads 0.
"""

from __future__ import annotations

from math import comb

import numpy as np

# module -> functions timed with a span
SPANNED = {
    "cli": ("main", "parse_game_document"),
    "dist": ("new_distribution", "distribution_from_json",
             "compare_expectation", "compare_usual_stochastic",
             "tail_compare", "tweakable_compare"),
    "game_core": ("new_bimatrix", "new_vector_game", "new_distribution_game",
                  "new_profile", "projection", "mixed_payoff",
                  "to_probability_vector_game"),
    "solve_real": ("support_enumeration", "best_response_set",
                   "pure_equilibria", "dominant_solution", "fictitious_play",
                   "zero_sum_value"),
    "rlex_solve": ("decide_rlex_equilibria", "decide_tail_equilibria",
                   "verify_rlex_equilibrium"),
    "mc": ("estimate_pure_probability", "estimate_rlex_probability",
           "random_bimatrix"),
    "pareto": ("segment_game", "scalarize", "pareto_nash", "weight_sweep"),
    "construct": ("alternating_moment_pair", "shift_construction",
                  "geometric_tail_family"),
    "moments": ("first_violation",),
}
# functions only counted: a span would cost more than the call
COUNTED = {"dist": ("rlex_compare",)}

BUILDERS = ("game_core.new_bimatrix", "game_core.new_vector_game",
            "game_core.new_distribution_game", "game_core.new_profile")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _cells(doc):
    """Payoff cells of a game document, counted outside the library."""
    if not isinstance(doc, dict):
        return 0
    return sum(len(row) for key in ("A", "B") if isinstance(doc.get(key), list)
               for row in doc[key] if isinstance(row, list))


def _support_pairs(n1, n2):
    return sum(comb(n1, k) * comb(n2, k) for k in range(1, min(n1, n2) + 1))


TAGS = {
    # game shape, as n1 * 1000 + n2
    "solve_real.support_enumeration":
        lambda a, k: len(a[0].A) * 1000 + len(a[0].A[0]),
    # rounds * 2 + 1 when every round is recorded
    "solve_real.fictitious_play":
        lambda a, k: _arg(a, k, 1, "rounds") * 2
        + (_arg(a, k, 3, "record_every", 1) == 1),
    "mc.estimate_pure_probability": lambda a, k: _arg(a, k, 3, "trials"),
    "mc.estimate_rlex_probability": lambda a, k: _arg(a, k, 4, "trials"),
    "pareto.weight_sweep": lambda a, k: _arg(a, k, 1, "samples"),
    "cli.parse_game_document": lambda a, k: _cells(a[0]),
}


def _observe_solve(c, args, kwargs, out, exc):
    if exc is None:
        c["solve_real.solves"] += 1
        c["solve_real.degenerate"] += out.degenerate_flag
        c["solve_real.equilibria"] += len(out.equilibria)


def _observe_decide(c, args, kwargs, dec, exc):
    if exc is None:
        c["rlex_solve.decisions"] += 1
        c["rlex_solve.indeterminate"] += dec.status == "Indeterminate"
        c["rlex_solve.checked"] += len(dec.candidates_checked)
        c["rlex_solve.verified"] += sum(ok for _, ok in dec.candidates_checked)


def _observe_mc_rlex(c, args, kwargs, res, exc):
    if exc is None:
        c["mc.rlex_trials"] += _arg(args, kwargs, 4, "trials")
        c["mc.indeterminate"] += res[3]


def _observe_main(c, args, kwargs, rc, exc):
    code = exc.code if isinstance(exc, SystemExit) else rc
    c["cli.rejected"] += code == 1


OBSERVERS = {
    "solve_real.support_enumeration": _observe_solve,
    "rlex_solve.decide_rlex_equilibria": _observe_decide,
    "mc.estimate_rlex_probability": _observe_mc_rlex,
    "cli.main": _observe_main,
}


def install(recorder, lib):
    """Wrap every listed function of the loaded library."""
    for mod_name, funcs in SPANNED.items():
        module = getattr(lib, mod_name)
        for fn_name in funcs:
            name = f"{mod_name}.{fn_name}"
            recorder.install(module, fn_name, lambda fn, name=name: recorder.wrap(
                name, fn, TAGS.get(name), OBSERVERS.get(name)))
    for mod_name, funcs in COUNTED.items():
        module = getattr(lib, mod_name)
        for fn_name in funcs:
            name = f"{mod_name}.{fn_name}_calls"
            recorder.install(module, fn_name,
                             lambda fn, name=name: recorder.count(name, fn))


# name -> (unit, better)
METRICS = {
    "cli.self_ms": ("ms", "lower"),
    "cli.parse_us_per_cell": ("us", "lower"),
    "cli.calls": ("count", "higher"),
    "cli.rejected": ("count", "lower"),
    "game_core.build_us": ("us", "lower"),
    "game_core.projection_us": ("us", "lower"),
    "game_core.mixed_payoff_us": ("us", "lower"),
    "game_core.to_vector_game_us": ("us", "lower"),
    "solve_real.support_enum_ms.n3": ("ms", "lower"),
    "solve_real.support_enum_ms.n4": ("ms", "lower"),
    "solve_real.support_enum_ms.n5": ("ms", "lower"),
    "solve_real.support_enum_ms.n6": ("ms", "lower"),
    "solve_real.us_per_support_pair": ("us", "lower"),
    "solve_real.best_response_us": ("us", "lower"),
    "solve_real.pure_eq_us": ("us", "lower"),
    "solve_real.fp_us_per_round.final": ("us", "lower"),
    "solve_real.fp_us_per_round.dense": ("us", "lower"),
    "solve_real.fp_rounds_per_s": ("1/s", "higher"),
    "solve_real.degenerate_share": ("ratio", "lower"),
    "solve_real.equilibria_per_solve": ("count", "higher"),
    "rlex_solve.decide_self_ms": ("ms", "lower"),
    "rlex_solve.verify_us": ("us", "lower"),
    "rlex_solve.indeterminate_share": ("ratio", "lower"),
    "rlex_solve.verified_share": ("ratio", "higher"),
    "dist.compare_us.exp": ("us", "lower"),
    "dist.compare_us.st": ("us", "lower"),
    "dist.compare_us.tail": ("us", "lower"),
    "dist.compare_us.tweak": ("us", "lower"),
    "dist.new_distribution_us": ("us", "lower"),
    "dist.rlex_compare_calls": ("count", "lower"),
    "mc.self_us_per_trial.pure": ("us", "lower"),
    "mc.self_us_per_trial.rlex": ("us", "lower"),
    "mc.random_bimatrix_us": ("us", "lower"),
    "mc.indeterminate_share": ("ratio", "lower"),
    "mc.trials_per_s": ("1/s", "higher"),
    "pareto.segment_game_ms": ("ms", "lower"),
    "pareto.scalarize_us": ("us", "lower"),
    "pareto.sweep_ms_per_sample": ("ms", "lower"),
    "construct.alt_moments_ms": ("ms", "lower"),
    "construct.shift_ms": ("ms", "lower"),
    "construct.geom_ms": ("ms", "lower"),
    "moments.first_violation_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _ratio(a, b):
    return a / b if b else 0.0


def derive(view, counters, untraced: dict, overhead: float) -> dict:
    """Per-layer metric values from spans (a spans.SpanView), boundary
    counters, and the untraced phase's throughputs."""
    us, ms = 1e6, 1e3
    cols = view.cols
    out = {}

    main = view.mask("cli.main")
    out["cli.self_ms"] = view.mean("cli.main", "self") * ms
    out["cli.calls"] = int(main.sum())
    out["cli.rejected"] = counters["cli.rejected"]
    # top-level parses only: spans whose parent is a cli.main span
    parent = cols["parent"]
    under_main = np.zeros(len(parent), dtype=bool)
    has_parent = parent >= 0
    under_main[has_parent] = main[parent[has_parent]]
    parse_time = view.total("cli.parse_game_document", where=under_main) + \
        view.total("dist.distribution_from_json", where=under_main)
    cells = int(view.tags("cli.parse_game_document", where=under_main).sum()) \
        + int((view.mask("dist.distribution_from_json") & under_main).sum())
    out["cli.parse_us_per_cell"] = _ratio(parse_time, cells) * us

    builds = np.zeros(len(parent), dtype=bool)
    for name in BUILDERS:
        builds |= view.mask(name)
    out["game_core.build_us"] = (float(cols["dur"][builds].mean()) * us
                                 if builds.any() else 0.0)
    out["game_core.projection_us"] = view.mean("game_core.projection") * us
    out["game_core.mixed_payoff_us"] = view.mean("game_core.mixed_payoff") * us
    out["game_core.to_vector_game_us"] = \
        view.mean("game_core.to_probability_vector_game") * us

    name = "solve_real.support_enumeration"
    shapes = view.tags(name)
    durs = cols["dur"][view.mask(name)]
    for n in (3, 4, 5, 6):
        sel = shapes == n * 1000 + n
        out[f"solve_real.support_enum_ms.n{n}"] = \
            float(durs[sel].mean()) * ms if sel.any() else 0.0
    pairs = sum(_support_pairs(s // 1000, s % 1000) for s in shapes.tolist())
    out["solve_real.us_per_support_pair"] = _ratio(float(durs.sum()), pairs) * us
    out["solve_real.best_response_us"] = \
        view.mean("solve_real.best_response_set") * us
    out["solve_real.pure_eq_us"] = view.mean("solve_real.pure_equilibria") * us
    name = "solve_real.fictitious_play"
    tags = view.tags(name)
    durs = cols["dur"][view.mask(name)]
    for label, dense in (("final", 0), ("dense", 1)):
        sel = tags % 2 == dense
        out[f"solve_real.fp_us_per_round.{label}"] = \
            _ratio(float(durs[sel].sum()), int((tags[sel] // 2).sum())) * us
    out["solve_real.fp_rounds_per_s"] = untraced.get("fp_rounds_per_s", 0.0)
    out["solve_real.degenerate_share"] = _ratio(
        counters["solve_real.degenerate"], counters["solve_real.solves"])
    out["solve_real.equilibria_per_solve"] = _ratio(
        counters["solve_real.equilibria"], counters["solve_real.solves"])

    out["rlex_solve.decide_self_ms"] = \
        view.mean("rlex_solve.decide_rlex_equilibria", "self") * ms
    out["rlex_solve.verify_us"] = \
        view.mean("rlex_solve.verify_rlex_equilibrium") * us
    out["rlex_solve.indeterminate_share"] = _ratio(
        counters["rlex_solve.indeterminate"], counters["rlex_solve.decisions"])
    out["rlex_solve.verified_share"] = _ratio(
        counters["rlex_solve.verified"], counters["rlex_solve.checked"])

    for label, fn in (("exp", "compare_expectation"),
                      ("st", "compare_usual_stochastic"),
                      ("tail", "tail_compare"), ("tweak", "tweakable_compare")):
        out[f"dist.compare_us.{label}"] = view.mean(f"dist.{fn}") * us
    out["dist.new_distribution_us"] = view.mean("dist.new_distribution") * us
    out["dist.rlex_compare_calls"] = counters["dist.rlex_compare_calls"]

    for label, fn in (("pure", "estimate_pure_probability"),
                      ("rlex", "estimate_rlex_probability")):
        name = f"mc.{fn}"
        out[f"mc.self_us_per_trial.{label}"] = _ratio(
            view.total(name, "self"), int(view.tags(name).sum())) * us
    out["mc.random_bimatrix_us"] = view.mean("mc.random_bimatrix") * us
    out["mc.indeterminate_share"] = _ratio(counters["mc.indeterminate"],
                                           counters["mc.rlex_trials"])
    out["mc.trials_per_s"] = untraced.get("mc_trials_per_s", 0.0)

    out["pareto.segment_game_ms"] = view.mean("pareto.segment_game") * ms
    out["pareto.scalarize_us"] = view.mean("pareto.scalarize") * us
    out["pareto.sweep_ms_per_sample"] = _ratio(
        view.total("pareto.weight_sweep"),
        int(view.tags("pareto.weight_sweep").sum())) * ms
    out["construct.alt_moments_ms"] = \
        view.mean("construct.alternating_moment_pair") * ms
    out["construct.shift_ms"] = view.mean("construct.shift_construction") * ms
    out["construct.geom_ms"] = view.mean("construct.geometric_tail_family") * ms
    out["moments.first_violation_ms"] = view.mean("moments.first_violation") * ms
    out["trace.overhead_ratio"] = overhead
    return out
