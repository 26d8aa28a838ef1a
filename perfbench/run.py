#!/usr/bin/env python3
"""Solve benchmark for partite-packing: one closed-loop client, one solve at
a time, on a seeded workload built from the package source in ../src.

    python3 perfbench/run.py --workload threshold-sweep --seed 1 --seconds 20 --trace 0

A run sets up (import, instance generation and relabelling, graph files for
the CLI) several times and keeps the median, then makes passes over the
workload's instance list until the next pass would end after --seconds, and
checks every answer with the benchmark's own checker.

Every timing is host-speed adjusted: a fixed pure-Python calibration task
runs before and after each solve (and each set-up), and the wall time is
scaled by CALIBRATION_REF_S over the mean of those two calibration times.
The host this was built on switches between two speeds about 1.7x apart,
for seconds to minutes at a time, and the calibration task slows with it.
Each instance's time is the median of its adjusted solves over the passes.
Quantiles are Harrell-Davis estimates, which move smoothly with the data
where a single order statistic jumps between clusters of unlike instances.

With --trace 0 the last line of standard output is a JSON object holding
every end-to-end metric.  With --trace 1 the same instances run untraced and
then traced (spans recorded around the calls into each module), and the JSON
holds the per-layer metrics.  Every solve of an instance, traced or not, must
give the same answer.
The lines before the JSON repeat every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from math import exp, lgamma, log, log1p
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 3             # set up at least this often, and for at least
SETUP_MIN_S = 1.0          # this many wall seconds in all
MIN_SOLVES = 28            # the tail is taken over the first passes that
                           # make at least this many solves
CALIBRATION_REF_S = 1.6e-3  # calibration_s() on a 2-vCPU Xeon VM at 2.1 GHz
                            # (Python 3.11) in its faster state
CLI_TIMEOUT_S = 60         # a CLI call normally takes under a second
EXIT_STATUS = {0: "packed", 2: "extremal", 3: "diagnosis"}
MODULES = ("pipeline", "structure", "matching", "oracle", "graphs", "cli")
# the `partite-packing` console script's body, plus a report of the process's
# own peak RSS (VmHWM, Linux).  RUSAGE_CHILDREN cannot give it: a spawned
# child's peak also counts the benchmark's own memory, which it shares until
# exec.
CLI_MAIN = """import atexit, sys
def report_peak():
    with open("/proc/self/status") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
atexit.register(report_peak)
from partite_packing.cli import main
sys.exit(main())
"""

sys.path.insert(0, str(HERE))
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


@dataclass
class Outcome:
    instance: str
    seconds: float
    status: str | None
    packing: tuple | None
    error: str | None = None       # raise, CLI exit 1, or a timeout
    wrong: str | None = None       # answer rejected by the checker
    adjusted: float = 0.0          # seconds, host-speed adjusted
    peak_mb: float = 0.0           # peak RSS of the CLI process

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None


def import_package() -> dict:
    """A fresh import of the package; returns its modules by short name."""
    for name in [m for m in sys.modules
                 if m == "partite_packing" or m.startswith("partite_packing.")]:
        del sys.modules[name]
    mods = {"pp": importlib.import_module("partite_packing")}
    for name in MODULES:
        mods[name] = importlib.import_module(f"partite_packing.{name}")
    return mods


def calibration_s() -> float:
    """Fastest of three runs of a fixed pure-Python task shaped like the
    solver's work (tuple keys, small frozensets, a sort); about 1.6 ms."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        table = {}
        for i in range(1500):
            table[(i % 61, i)] = frozenset((i, i >> 1, i >> 2))
        total = 0
        for (a, b), v in sorted(table.items()):
            total += a + len(v & {b, b >> 1})
        best = min(best, perf_counter() - t0)
    return best


class Calibrated:
    """Adjusts wall times by the calibration runs on either side of them."""

    def __init__(self):
        self.before = calibration_s()
        self.factors: list[float] = []     # host slowdown, 1.0 = reference

    def adjust(self, seconds: float) -> float:
        after = calibration_s()
        factor = (self.before + after) / (2 * CALIBRATION_REF_S)
        self.before = after
        self.factors.append(factor)
        return seconds / factor


def set_up(workload: str, seed: int, workdir: Path, small: bool, cal: Calibrated):
    times: list[float] = []
    wall = 0.0
    while len(times) < SETUP_REPS or wall < SETUP_MIN_S:
        mods = instances = None    # free the previous set-up first
        t0 = perf_counter()
        mods = import_package()
        instances = wl.build(workload, seed, mods["pp"], workdir, small)
        seconds = perf_counter() - t0
        wall += seconds
        times.append(cal.adjust(seconds))
    return mods, instances, median(times), len(times)


def judge(inst, seconds, status, cliques) -> Outcome:
    packing = None
    if cliques is not None:
        packing = tuple(sorted(tuple(sorted(tuple(v) for v in c)) for c in cliques))
    return Outcome(inst.name, seconds, status, packing,
                   wrong=wl.check(inst, status, cliques))


def solve_in_process(mods, inst, call) -> Outcome:
    t0 = perf_counter()
    try:
        res = call(mods["pp"].solve, inst.graph, inst.k)
    except Exception as e:
        return Outcome(inst.name, perf_counter() - t0, None, None,
                       error=f"{type(e).__name__}: {e}")
    seconds = perf_counter() - t0
    cliques = res.packing.cliques if res.packing is not None else None
    return judge(inst, seconds, res.status, cliques)


def solve_cli(mods, inst, out_path: Path, call=None) -> Outcome:
    """`partite-packing solve` as a subprocess, or in-process through
    cli.main when `call` is given."""
    argv = ["solve", "--input", inst.path, "--k", str(inst.k), "-o", str(out_path)]
    out_path.unlink(missing_ok=True)
    peak_mb = 0.0
    t0 = perf_counter()
    try:
        if call is None:
            env = dict(os.environ, PYTHONPATH=str(SRC))
            proc = subprocess.run(
                [sys.executable, "-c", CLI_MAIN, *argv], env=env,
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            rc = proc.returncode
            lines = proc.stderr.strip().splitlines()
            peaks = [line.split()[1] for line in lines if line.startswith("VmHWM:")]
            peak_mb = int(peaks[-1]) / 1024 if peaks else 0.0
            why = next((line for line in reversed(lines)
                        if not line.startswith("VmHWM:")), "")
        else:
            rc, why = call(mods["cli"].main, argv), ""
    except Exception as e:           # a raise in cli.main, or a timeout
        return Outcome(inst.name, perf_counter() - t0, None, None,
                       error=f"{type(e).__name__}: {e}")
    seconds = perf_counter() - t0
    out = _judge_cli(inst, seconds, rc, why, out_path)
    out.peak_mb = peak_mb
    return out


def _judge_cli(inst, seconds, rc, why, out_path: Path) -> Outcome:
    if rc not in EXIT_STATUS:
        return Outcome(inst.name, seconds, None, None, error=f"exit {rc}: {why}")
    try:
        doc = json.loads(out_path.read_text())
    except (OSError, ValueError) as e:
        return Outcome(inst.name, seconds, None, None,
                       error=f"exit {rc} without a readable answer: {e}")
    if doc.get("status") != EXIT_STATUS[rc]:
        return Outcome(inst.name, seconds, doc.get("status"), None,
                       wrong=f"exit {rc} with status {doc.get('status')}")
    return judge(inst, seconds, doc["status"], doc.get("packing", {}).get("cliques"))


def measure(instances, seconds: float, solve_one, cal: Calibrated,
            min_passes: int = 1):
    """Closed loop: passes over the instance list until the next pass would
    end after `seconds` of wall time, and at least `min_passes` passes."""
    passes: list[list[Outcome]] = []
    pass_times: list[float] = []
    t0 = perf_counter()
    while True:
        start = perf_counter()
        this = []
        for inst in instances:
            o = solve_one(inst)
            o.adjusted = cal.adjust(o.seconds)
            this.append(o)
        passes.append(this)
        pass_times.append(perf_counter() - start)
        if (len(passes) >= min_passes
                and perf_counter() - t0 + median(pass_times) > seconds):
            return passes


def instance_times(passes) -> list[float]:
    """Each instance's median adjusted solve time over the passes."""
    return [median(p[i].adjusted for p in passes) for i in range(len(passes[0]))]


def peak_rss_mb(outcomes: list[Outcome], via_cli: bool) -> float:
    """The largest CLI process's peak RSS, or this process's."""
    if via_cli:
        return max(o.peak_mb for o in outcomes)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by Beta((n+1)q, (n+1)(1-q)) over their share of
    [0, 1], integrated with the midpoint rule on 64 points per share."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    grid = 64
    steps = grid * n
    weights = [sum(exp(norm + (a - 1) * log(t) + (b - 1) * log1p(-t))
                   for t in ((i * grid + j + 0.5) / steps for j in range(grid)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def summary(outcomes: list[Outcome]) -> dict[str, float]:
    n = len(outcomes)
    decided = sum(o.status in ("packed", "extremal") and not o.failed
                  for o in outcomes)
    return {"decided_frac": decided / n,
            "failed_frac": sum(o.failed for o in outcomes) / n}


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(workload, seed, seconds, trace, small, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, small, workdir) -> dict:
    cal = Calibrated()
    mods, instances, setup_s, setups = set_up(workload, seed, workdir, small, cal)
    via_cli = all(inst.path for inst in instances)
    out_path = workdir / "answer.json"

    def plain(fn, *args):
        return fn(*args)

    def solve_one(inst, call=plain, subprocess_cli=True):
        if inst.path is None:
            return solve_in_process(mods, inst, call)
        return solve_cli(mods, inst, out_path, None if subprocess_cli else call)

    print(f"# workload {workload}, seed {seed}, trace {int(trace)}; closed loop, "
          "1 client; instances: " + ", ".join(inst.name for inst in instances))
    phase = seconds / (3 if trace and via_cli else 2 if trace else 1)
    if trace or workload == "known-defects":
        min_passes = 1
    else:
        min_passes = -(-MIN_SOLVES // len(instances))
    min_solves = min_passes * len(instances)
    passes = measure(instances, phase, solve_one, cal, min_passes)
    outcomes = [o for p in passes for o in p]
    rss = peak_rss_mb(outcomes, via_cli)
    if not trace:
        times = instance_times(passes)
        wall = [median(p[i].seconds for p in passes) for i in range(len(times))]
        metrics = {"solve_s.p50": (quantile(times, 0.5), "s"),
                   "batch_s": (sum(times), "s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (rss, "MB")}
        notes = {"solve_s.p50": f"of {len(times)} instances, median of "
                                f"{len(passes)} passes, Harrell-Davis; "
                                f"wall {quantile(wall, 0.5):.4g} s",
                 "batch_s": f"median of {len(passes)} passes per instance; "
                            f"wall {sum(wall):.4g} s",
                 "setup_s": f"median of {setups} set-ups"}
        if min_solves >= MIN_SOLVES:
            # the first min_solves solves: a sample of the same size every run
            first = [o.adjusted for p in passes[:min_passes] for o in p]
            level = 1 - 10 / len(first)        # ten solves beyond it
            metrics["solve_s.tail"] = (quantile(first, level), "s")
            notes["solve_s.tail"] = (f"p{100 * level:.1f} of the first {len(first)} "
                                     "solves, Harrell-Davis")
    else:
        ref = passes
        startup_s = 0.0
        if via_cli:
            # in-process cli.main, untraced: the reference for overhead and
            # for the interpreter start-up share of a CLI call
            ref = measure(instances, phase,
                          lambda inst: solve_one(inst, plain, False), cal)
            outcomes += [o for p in ref for o in p]
            startup_s = median(a - b for a, b in zip(instance_times(passes),
                                                     instance_times(ref)))
        tracer = tr.Tracer(mods["pipeline"].StageFailure)
        restore = tracer.install(mods)
        root = "cli.main" if via_cli else "solve"
        try:
            traced = measure(instances, phase, lambda inst: solve_one(
                inst, lambda fn, *a: tracer.root(root, fn, *a), False), cal)
        finally:
            restore()
        tracer.write(OUT / f"spans-{workload}-seed{seed}.json")
        traced_outcomes = [o for p in traced for o in p]
        outcomes += traced_outcomes
        traced_s, ref_s = sum(instance_times(traced)), sum(instance_times(ref))
        layer = tracer.layer_metrics(len(traced), len(traced_outcomes))
        layer.update({"cli.startup_s": startup_s, "trace.overhead_s": traced_s - ref_s})
        layer.update({f"solve.{k}": v for k, v in summary(outcomes).items()})
        metrics = {name: (layer[name], unit) for name, unit in tr.LAYER_UNITS.items()}
        notes = {"trace.overhead_s": f"traced {traced_s:.4f} s/pass minus "
                                     f"untraced {ref_s:.4f} s/pass",
                 "pipeline.route_ratio": f"of {len(traced_outcomes)} traced solves"}

    # every solve of an instance, traced or not, must give the same answer
    answers: dict[str, set] = {}
    for o in outcomes:
        answers.setdefault(o.instance, set()).add((o.status, o.packing))
        if o.failed:
            print(f"FAIL {o.instance}: {o.error or o.wrong}")
    mismatches = [name for name, seen in answers.items() if len(seen) > 1]
    for name in mismatches:
        print(f"FAIL {name}: answers differ between solves")
    for name, value in summary(outcomes).items():
        print(f"{name} = {value:.4f} ratio  (of {len(outcomes)} solves)")
    print(f"host_slowdown = {median(cal.factors):.4f} ratio  (median of "
          f"{len(cal.factors)} calibrations; 1 is the reference speed)")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    return {"correct": not mismatches and not any(o.wrong for o in outcomes),
            "attempted": len(outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny instances for quick checks, not for measuring")
    args = ap.parse_args(argv)
    if not (SRC / "partite_packing" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.small)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
