"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py

Smoke runs of every workload at the smallest size (one block) check that
each metric named in BENCHMARK.json is reported with its unit; the gate
tests check that wrong outputs raise the failed ratio.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction as F

import pytest

import gate
import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace,
                                                     monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    res = run.run(workload, seed=3, seconds=0.01, trace=trace)
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    assert all(isinstance(m["value"], (int, float))
               for m in res["metrics"].values())
    assert res["attempted"] >= 1 and res["correct"]


@pytest.fixture
def probe():
    with run.Probe() as p:
        yield p


def _lib_and_loop(tmp_path, probe, cls=workloads.SolveExact):
    lib = run.import_library()
    tally = gate.Tally()
    return lib, run.Loop(cls(lib, 0, str(tmp_path)), tally, probe), tally


def test_perturbed_equilibrium_raises_failed_ratio(tmp_path, probe):
    lib, loop, tally = _lib_and_loop(tmp_path, probe)
    op = next(op for op in loop.wl.pool if op.kind == "frac3")
    loop.run_op(op)
    assert tally.failed_ratio == 0

    out = op.call()
    rep = out.equilibria[0]
    x = list(rep.profile.x)
    i = next(k for k, w in enumerate(x) if w > 0)
    x[i] -= F(1, 7)
    x[(i + 1) % len(x)] += F(1, 7)
    bad = type(out)((type(rep)(type(rep.profile)(tuple(x), rep.profile.y),
                               rep.supports, rep.payoffs, rep.pure),)
                    + out.equilibria[1:], out.degenerate_flag)
    loop.run_op(workloads.Op(op.kind, lambda: bad, op.check))
    assert tally.failed == 1 and tally.failed_ratio == 0.5
    assert not tally.correct


def test_wrong_exit_code_raises_failed_ratio(tmp_path, probe):
    lib, loop, tally = _lib_and_loop(tmp_path, probe, workloads.CliMix)
    op = next(op for op in loop.wl.pool if op.kind == "se3")
    loop.run_op(op)
    assert tally.failed_ratio == 0

    rc, out, err = op.call()
    assert rc == 0
    loop.run_op(workloads.Op(op.kind, lambda: (1, out, err), op.check))
    assert tally.failed_ratio == 0.5 and not tally.correct


def _shift_atom_left(doc):
    doc["shifted"]["atoms"][1] = doc["shifted"]["atoms"][0]


def _swap_sequences(doc):
    doc["x"], doc["y"] = doc["y"], doc["x"]


@pytest.mark.parametrize("kind, perturb", [("shift", _shift_atom_left),
                                           ("alt", _swap_sequences)])
def test_construct_output_is_rederived_not_trusted(tmp_path, probe, kind,
                                                    perturb):
    lib, loop, tally = _lib_and_loop(tmp_path, probe, workloads.CliMix)
    for op in (op for op in loop.wl.pool if op.kind == kind):
        rc, out, err = op.call()
        if out.startswith("{"):                    # JSON, not --csv
            break
    assert op.check((rc, out, err))
    doc = json.loads(out)
    perturb(doc)                  # the library's own flags stay as printed
    loop.run_op(workloads.Op(kind, lambda: (rc, json.dumps(doc), err),
                             op.check))
    assert tally.failed == 1 and not tally.correct


def test_known_defect_counts_as_failed_but_keeps_run_correct(tmp_path, probe):
    lib, loop, tally = _lib_and_loop(tmp_path, probe,
                                     workloads.CliMix)
    op = next(op for op in loop.wl.pool if op.known_defect)
    loop.run_op(workloads.Op(op.kind, lambda: (0, "", ""), op.check,
                             known_defect=True))
    assert tally.failed == tally.known == 1 and tally.correct


def test_self_time_subtracts_direct_children():
    rec = spans.Recorder()

    def inner():
        time.sleep(0.02)

    wrapped_inner = rec.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    rec.wrap("outer", outer)()
    view = spans.SpanView(rec)
    assert view.mean("outer") >= 0.03
    assert 0.01 <= view.mean("outer", "self") < 0.02
    assert view.mean("inner", "self") == view.mean("inner")
