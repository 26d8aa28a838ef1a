"""Outside-in tracing: spans around the calls into each module's public
functions, recorded by wrapping the names the modules look up.

Nothing under src/ changes.  `Tracer.install` replaces the module attributes
listed in TARGETS with timing wrappers and returns a function that puts the
originals back.  Spans are kept in memory as
[name, start, end, parent index, solve id, info] and written once at the end.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter


def _hit(args, out):
    return {"hit": out is not None}


def _search(args, out):
    return {"nodes": out.nodes, "completed": out.completed}


def _verdict(args, out):
    return {"nodes": out.nodes_explored, "completed": out.completed}


def _glue(args, out):
    return {"work": args[1].unit > 0}


# (module, attribute, span name, info from (args, result))
TARGETS = [
    ("pipeline", "iterate_decomposition", "structure.decompose", None),
    ("pipeline", "is_pair_complete", "structure.pc", _hit),
    ("pipeline", "classify_bad_vertices", "pipeline.classify", None),
    ("pipeline", "balance_rows", "pipeline.rows", None),
    ("pipeline", "prepare_multirow", "pipeline.prepare", None),
    ("pipeline", "cover_and_divisibility", "pipeline.cover", None),
    ("pipeline", "balance_columns", "pipeline.columns", None),
    ("pipeline", "balance_blocks", "pipeline.blocks", None),
    ("pipeline", "fix_row_parity_and_matchability", "pipeline.rowpack", None),
    ("pipeline", "glue_rows", "pipeline.glue", _glue),
    ("pipeline", "brute_force_packing", "oracle.search", _verdict),
    ("pipeline", "is_isomorphic_to_gamma", "oracle.iso", None),
    ("pipeline", "exact_balanced_clique_packing", "matching.exact_balanced",
     _search),
    ("pipeline", "pair_complete_balanced_matching", "matching.pc_balanced", None),
    ("structure", "is_splittable", "structure.split", _hit),
    # pair_complete_balanced_matching reaches the exact search through here
    ("matching", "exact_balanced_clique_packing", "matching.exact_balanced",
     _search),
    ("oracle", "canonical_form", "oracle.canonical", None),
    ("graphs", "CliquePacking.verify", "graphs.verify", None),
    ("cli", "solve", "cli.solve", None),
    ("cli", "graph_from_json", "graphs.parse", None),
    ("cli", "packing_to_json", "graphs.emit", None),
]

# spans reported as ".s" (total seconds) and as ".calls"
TIMED = ("structure.split", "structure.pc", "pipeline.classify", "pipeline.rows",
         "pipeline.prepare", "pipeline.cover", "pipeline.columns",
         "pipeline.blocks", "pipeline.rowpack", "pipeline.glue",
         "matching.exact_balanced", "matching.pc_balanced", "oracle.search",
         "oracle.iso", "oracle.canonical", "graphs.verify", "cli.main")
COUNTED = ("structure.split", "structure.pc", "oracle.search", "oracle.iso",
           "oracle.canonical", "graphs.verify")
STAGES = ("pipeline.classify", "pipeline.rows", "pipeline.prepare",
          "pipeline.cover", "pipeline.columns", "pipeline.blocks",
          "pipeline.rowpack", "pipeline.glue")

# per-layer metric -> unit; times and counts are per traced pass
LAYER_UNITS = {
    "structure.split.s": "s/pass",
    "structure.split.calls": "calls/pass",
    "structure.split.hit_ratio": "ratio",
    "structure.decompose.self_s": "s/pass",
    "structure.pc.s": "s/pass",
    "structure.pc.calls": "calls/pass",
    "structure.pc.hit_ratio": "ratio",
    "pipeline.classify.s": "s/pass",
    "pipeline.rows.s": "s/pass",
    "pipeline.prepare.s": "s/pass",
    "pipeline.cover.s": "s/pass",
    "pipeline.columns.s": "s/pass",
    "pipeline.blocks.s": "s/pass",
    "pipeline.stage_failed": "count/pass",
    "pipeline.rowpack.s": "s/pass",
    "pipeline.glue.s": "s/pass",
    "pipeline.glue.work_ratio": "ratio",
    "pipeline.route_ratio": "ratio",
    "matching.exact_balanced.s": "s/pass",
    "matching.exact_balanced.nodes": "nodes/pass",
    "matching.exact_balanced.completed_ratio": "ratio",
    "matching.pc_balanced.s": "s/pass",
    "oracle.search.s": "s/pass",
    "oracle.search.calls": "calls/pass",
    "oracle.search.nodes": "nodes/pass",
    "oracle.search.completed_ratio": "ratio",
    "oracle.iso.s": "s/pass",
    "oracle.iso.calls": "calls/pass",
    "oracle.iso.raised": "count/pass",
    "oracle.canonical.s": "s/pass",
    "oracle.canonical.calls": "calls/pass",
    "graphs.verify.s": "s/pass",
    "graphs.verify.calls": "calls/pass",
    "graphs.parse_s": "s/pass",
    "graphs.emit_s": "s/pass",
    "cli.main.s": "s/pass",
    "cli.startup_s": "s/call",
    "solve.decided_frac": "ratio",
    "solve.failed_frac": "ratio",
    "trace.overhead_s": "s/pass",
}


class Tracer:
    def __init__(self, stage_failure: type):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._solve_id = -1
        self._stage_failure = stage_failure

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span that records its parent and solve id."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, self._solve_id, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            rec[5] = {"error": type(e).__name__,
                      "stage_failure": isinstance(e, self._stage_failure)}
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def root(self, name: str, fn, *args, **kwargs):
        """A span that starts a new solve: every span under it shares its id."""
        self._solve_id += 1
        return self.span(name, fn, *args, **kwargs)

    def install(self, modules: dict):
        """Wrap every TARGETS name; returns the function that restores them."""
        saved = []
        for mod_name, attr, name, info in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original, info))

        def restore():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
        return restore

    def _wrapper(self, name: str, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            out = self.span(name, fn, *args, **kwargs)
            if info is not None:
                self.spans[idx][5] = info(args, out)
            return out
        return wrapper

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "solve", "info")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))

    def layer_metrics(self, passes: int, solves: int) -> dict[str, float]:
        """Per-layer totals per traced pass, and ratios over their bases."""
        total: Counter = Counter()
        calls: Counter = Counter()
        flags: Counter = Counter()
        nodes: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _, info in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
            for key, val in (info or {}).items():
                if key == "nodes":
                    nodes[name] += val
                elif val:
                    flags[name, key] += 1

        def ratio(num, base):
            return num / base if base else 0.0

        decompose_self = sum(s[2] - s[1] - child[i]
                             for i, s in enumerate(self.spans)
                             if s[0] == "structure.decompose")
        routed = {s[4] for s in self.spans if s[0] == "structure.decompose"}
        m = {f"{name}.s": total[name] / passes for name in TIMED}
        m.update({f"{name}.calls": calls[name] / passes for name in COUNTED})
        m.update({
            "structure.decompose.self_s": decompose_self / passes,
            "structure.split.hit_ratio": ratio(flags["structure.split", "hit"],
                                               calls["structure.split"]),
            "structure.pc.hit_ratio": ratio(flags["structure.pc", "hit"],
                                            calls["structure.pc"]),
            "pipeline.stage_failed":
                sum(flags[name, "stage_failure"] for name in STAGES) / passes,
            "pipeline.glue.work_ratio": ratio(flags["pipeline.glue", "work"],
                                              calls["pipeline.glue"]),
            "pipeline.route_ratio": ratio(len(routed), solves),
            "matching.exact_balanced.nodes":
                nodes["matching.exact_balanced"] / passes,
            "matching.exact_balanced.completed_ratio": ratio(
                flags["matching.exact_balanced", "completed"],
                calls["matching.exact_balanced"]),
            "oracle.search.nodes": nodes["oracle.search"] / passes,
            "oracle.search.completed_ratio": ratio(
                flags["oracle.search", "completed"], calls["oracle.search"]),
            "oracle.iso.raised": flags["oracle.iso", "error"] / passes,
            "graphs.parse_s": total["graphs.parse"] / passes,
            "graphs.emit_s": total["graphs.emit"] / passes,
        })
        return m
