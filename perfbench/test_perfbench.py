"""Self-tests of the solve benchmark: reduced-size runs of every workload,
the answer checker, and tracing that leaves answers unchanged."""

from __future__ import annotations

import importlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import partite_packing as pp  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_small(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_small_run_emits_every_metric(workload, trace, key):
    res = run_small(workload, trace)
    # with trace 1, correct also means the traced answers equal the untraced
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == want


def test_runs_refuse_without_package_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "workloads.py", "tracer.py"):
        (tmp_path / "perfbench" / f).write_text((HERE / f).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_quantile_is_harrell_davis():
    # reference values from scipy.stats.mstats.hdquantiles
    assert run.quantile([1, 2, 4, 8, 16], 0.5) == pytest.approx(5.04032, abs=1e-4)
    assert run.quantile([1, 2, 4, 8, 16], 2 / 3) == pytest.approx(8.57312, abs=1e-4)
    assert run.quantile([3.0] * 7, 0.5) == pytest.approx(3.0)
    assert run.quantile([5, 1, 3], 0.5) == pytest.approx(3.0)


def test_adjustment_divides_by_the_calibrations_around_each_time(monkeypatch):
    readings = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(run, "calibration_s",
                        lambda: next(readings) * run.CALIBRATION_REF_S)
    cal = run.Calibrated()                  # calibration before: 2x slower
    assert cal.adjust(3.0) == pytest.approx(1.0)      # mean of 2x and 4x
    assert cal.adjust(5.0) == pytest.approx(2.0)      # mean of 4x and 1x
    assert cal.factors == pytest.approx([3.0, 2.5])


def test_gamma_ground_truth_matches_the_construction():
    g = pp.build_gamma(6, 4, 3).graph
    adjacent = wl.gamma_adjacent(6, 3)
    vs = list(g.vertices())
    assert all(adjacent(u, v) == g.has_edge(u, v) for u in vs for v in vs if u != v)


def test_relabelled_gamma_keeps_its_ground_truth():
    inst = wl._gamma(pp, 6, 4, 3, random.Random(5))
    vs = list(inst.graph.vertices())
    assert all(inst.adjacent(u, v) == inst.graph.has_edge(u, v)
               for u in vs for v in vs if u != v)


def test_checker_rejects_a_tampered_packing():
    g = pp.build_gamma(6, 4, 3).graph
    inst = wl.Instance("gamma(6,4,3)", g, 3, wl.gamma_adjacent(6, 3))
    res = pp.solve(g, 3)
    assert res.status == "packed"
    cliques = [list(c) for c in res.packing.cliques]
    assert wl.check(inst, "packed", cliques) is None

    assert "covers" in wl.check(inst, "packed", cliques[1:])
    twice = [list(c) for c in cliques]
    twice[1][0] = twice[0][0]
    assert "twice" in wl.check(inst, "packed", twice)
    # (0,0) is in subpart 1 and (1,2) in subpart 2: never adjacent in Γ
    a = next(c for c in cliques if (0, 0) in c)
    b = next(c for c in cliques if (1, 2) in c)
    x = next(v for v in a if v != (0, 0))
    swapped = [c for c in cliques if c is not a and c is not b]
    swapped.append([(1, 2) if v == x else v for v in a])
    swapped.append([x if v == (1, 2) else v for v in b])
    assert "misses edge" in wl.check(inst, "packed", swapped)


def test_checker_rejects_a_wrong_status():
    odd = wl.Instance("gamma(3,5,3)", pp.build_gamma(3, 5, 3).graph, 3,
                      wl.gamma_adjacent(3, 3), gamma_odd=True)
    complete = wl.Instance("K3x3", pp.complete_multipartite([3] * 3), 3,
                           lambda u, v: u[0] != v[0])
    assert wl.check(odd, "extremal", None) is None
    assert wl.check(odd, "diagnosis", None) is None
    assert wl.check(odd, "packed", [[(0, 0), (1, 0), (2, 0)]]) is not None
    assert wl.check(complete, "extremal", None) is not None
    assert wl.check(complete, "solved", None) is not None
    assert wl.check(complete, "packed", [[(0, o), (1, o), (2, o)]
                                         for o in range(3)]) is None


def test_traced_solve_matches_untraced_and_restores_every_name():
    mods = {name: importlib.import_module(f"partite_packing.{name}")
            for name in ("pipeline", "structure", "matching", "oracle",
                         "graphs", "cli")}

    def current():
        out = []
        for mod, attr, _, _ in tr.TARGETS:
            owner = mods[mod]
            for part in attr.split("."):
                owner = getattr(owner, part)
            out.append(owner)
        return out

    before = current()
    g = pp.complete_multipartite([9] * 4)       # pipeline route, all stages
    plain = pp.solve(g, 3)
    tracer = tr.Tracer(mods["pipeline"].StageFailure)
    restore = tracer.install(mods)
    try:
        traced = tracer.root("solve", pp.solve, g, 3)
    finally:
        restore()
    assert current() == before
    assert (traced.status, traced.packing) == (plain.status, plain.packing)
    names = {s[0] for s in tracer.spans}
    assert {"solve", "structure.decompose", "pipeline.glue", "graphs.verify"} <= names
    assert all(s[4] == 0 for s in tracer.spans)
    metrics = tracer.layer_metrics(passes=1, solves=1)
    assert metrics["pipeline.route_ratio"] == 1.0
    assert set(metrics) <= set(tr.LAYER_UNITS)
