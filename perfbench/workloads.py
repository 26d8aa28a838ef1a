"""Seeded instance families for the solve benchmark, with their ground truth.

Every instance carries an adjacency predicate written here, from the family's
definition or from the generated edge list, so the benchmark can check a
packing without calling any checker of the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Vertex = tuple[int, int]

# A workload is a list of (family, parameters, copies).  Copies are seeded
# independently: fresh random graphs, or fresh shuffles of the classes and of
# the vertices within each class.  Parameters are (r, n, k) for "random" and
# "cli" (random graphs pinned to the partite minimum-degree threshold, the
# latter solved through the CLI), (n, r, k) for "gamma", ((n, r, k), factor)
# for "blow_up" of Gamma(n, r, k), and (class size, class count, k) for
# "complete" (one copy: every shuffle is an automorphism of it).
FULL = {
    # one pass fills a run, and its 28 graphs give the tail ten beyond it;
    # (4,12,3), the cheapest shape, is the majority, so that the median lies
    # inside one group of similar graphs
    "threshold-sweep": [("random", (4, 12, 3), 18), ("random", (5, 9, 3), 6),
                        ("random", (5, 12, 3), 2), ("random", (6, 12, 3), 1),
                        ("random", (5, 16, 4), 1)],
    # certified on the oracle route (V <= 16 or n < k^2) or, for
    # Gamma(9,5,3), after the pipeline's rows stage; Gamma(6,4,3) packs.
    # Gamma(4,5,4) is the largest group, and the median lies inside it.
    # Gamma(9,3,3) is left out: its oracle memo, and with it the peak RSS,
    # ranges from 29 to 45 MB with the shuffle.
    "extremal-certify": [("gamma", (6, 4, 3), 2), ("gamma", (3, 5, 3), 3),
                         ("gamma", (4, 5, 4), 8), ("gamma", (9, 5, 3), 2),
                         ("gamma", (5, 5, 5), 1)],
    # every instance reaches blocks and rowpack with unit > 0; class sizes
    # step evenly, so that solve times spread without gaps between clusters
    "pipeline-scale": [("blow_up", ((3, 4, 3), 24), 1)]
                      + [("complete", (n, 4, 3), 1)
                         for n in (72, 84, 96, 108, 120, 132, 144, 168, 192)]
                      + [("complete", (n, 4, 4), 1) for n in (96, 128, 160, 192)],
    # two graphs each of the shapes that are cheap to generate, so that the
    # median and the tail rest on more graphs
    "cli-batch": [("cli", (3, 66, 3), 2), ("cli", (2, 100, 2), 2),
                  ("cli", (3, 160, 2), 1), ("cli", (2, 200, 2), 2),
                  ("cli", (2, 300, 2), 1), ("cli", (3, 240, 3), 1),
                  ("cli", (2, 320, 2), 1)],
    # failures known at the seed commit, kept out of the timed workloads
    # (which must not fail) and run by report.py: Gamma(9,7,3) raises,
    # Gamma(12,4,4) stops at the oracle budget, and the CLI hits a
    # RecursionError on 800 vertices
    "known-defects": [("gamma", (9, 7, 3), 1), ("gamma", (12, 4, 4), 1),
                      ("cli", (2, 400, 2), 1)],
}
# tiny instances of the same families, for the self-tests
SMALL = {
    "threshold-sweep": [("random", (4, 9, 3), 2)],
    "extremal-certify": [("gamma", (3, 5, 3), 1), ("gamma", (6, 4, 3), 1)],
    "pipeline-scale": [("blow_up", ((3, 4, 3), 3), 1), ("complete", (9, 4, 3), 1)],
    "cli-batch": [("cli", (2, 10, 2), 1), ("cli", (3, 12, 3), 1)],
    "known-defects": [("gamma", (3, 3, 3), 1)],
}
WORKLOADS = tuple(FULL)


@dataclass
class Instance:
    name: str
    graph: object                       # partite_packing MultipartiteGraph
    k: int
    adjacent: Callable[[Vertex, Vertex], bool]
    gamma_odd: bool = False             # built as Gamma(n,r,k) with rn/k odd
    path: str | None = None             # graph file, when solved via the CLI


def gamma_adjacent(n: int, k: int, orig: dict | None = None, factor: int = 1):
    """Adjacency of Gamma(n, r, k), optionally through a relabelling map and
    a blow-up by `factor`.  Classes split into k subparts of size n/k; a
    vertex of subpart j >= 3 misses other-class subpart j, and subparts 1 and
    2 miss each other across classes."""
    m = n // k

    def subpart(v: Vertex) -> tuple[int, int]:
        c, o = orig[v] if orig is not None else v
        return c, (o // factor) // m + 1

    def adjacent(u: Vertex, v: Vertex) -> bool:
        (cu, ju), (cv, jv) = subpart(u), subpart(v)
        if cu == cv:
            return False
        return jv != (ju if ju >= 3 else 3 - ju)

    return adjacent


def edge_set_adjacent(g) -> Callable[[Vertex, Vertex], bool]:
    """Adjacency from the graph's edge list, read on first use."""
    pairs: set[tuple[Vertex, Vertex]] = set()

    def adjacent(u: Vertex, v: Vertex) -> bool:
        if not pairs:
            for a, b in g.edges():
                pairs.add((a, b))
                pairs.add((b, a))
        return (u, v) in pairs

    return adjacent


def relabel(pp, g, rng: random.Random):
    """Seeded shuffle of the classes and of the vertices within each class.
    Returns the new graph and the map from new vertices to old ones."""
    sizes = list(g.class_sizes)
    classes = list(range(g.r))
    rng.shuffle(classes)
    new_of: dict[Vertex, Vertex] = {}
    for c in range(g.r):
        offsets = list(range(sizes[c]))
        rng.shuffle(offsets)
        for o in range(sizes[c]):
            new_of[(c, o)] = (classes[c], offsets[o])
    new_sizes = [0] * g.r
    for c in range(g.r):
        new_sizes[classes[c]] = sizes[c]
    edges = [(new_of[u], new_of[v]) for u, v in g.edges()]
    orig = {new: old for old, new in new_of.items()}
    return pp.MultipartiteGraph(new_sizes, edges), orig


def _gamma(pp, n, r, k, rng, factor=1) -> Instance:
    base = pp.build_gamma(n, r, k).graph
    if factor > 1:
        base = pp.blow_up(base, factor)
    g, orig = relabel(pp, base, rng)
    name = f"gamma({n},{r},{k})" + (f"x{factor}" if factor > 1 else "")
    odd = factor == 1 and (r * n // k) % 2 == 1
    return Instance(name, g, k, gamma_adjacent(n, k, orig, factor), odd)


def _random(pp, r, n, k, seed) -> Instance:
    g = pp.random_min_degree_graph(r, n, k, seed)
    return Instance(f"random({r},{n},{k},seed={seed})", g, k, edge_set_adjacent(g))


def build(workload: str, seed: int, pp, workdir: Path,
          small: bool = False) -> list[Instance]:
    """The workload's instance list for `seed`; graph files for the CLI
    are written to `workdir`."""
    out = []
    for family, params, copies in (SMALL if small else FULL)[workload]:
        for copy in range(copies):
            rng = random.Random(f"perfbench:{workload}:{seed}:{family}{params}:{copy}")
            if family in ("random", "cli"):
                inst = _random(pp, *params, seed * 100 + copy)
            elif family == "gamma":
                inst = _gamma(pp, *params, rng)
                inst.name += f"#{copy}"
            elif family == "blow_up":
                (n, r, k), factor = params
                inst = _gamma(pp, n, r, k, rng, factor)
                inst.name += f"#{copy}"
            else:
                n, r, k = params
                inst = Instance(f"complete({n}x{r},k={k})",
                                pp.complete_multipartite([n] * r), k,
                                lambda u, v: u[0] != v[0])
            if family == "cli":
                inst.path = str(workdir / f"{inst.name}.json")
                Path(inst.path).write_text(pp.graph_to_json(inst.graph) + "\n")
            out.append(inst)
    return out


def check(inst: Instance, status: str | None, cliques) -> str | None:
    """The reason an answer is wrong, or None.  Plain loops only: a packed
    answer must be a spanning set of disjoint k-cliques of the instance, and
    `extremal` is accepted only for Gamma(n,r,k) with rn/k odd."""
    if status == "diagnosis":
        return None
    if status == "extremal":
        return None if inst.gamma_odd else "extremal on a non-extremal instance"
    if status != "packed":
        return f"unknown status {status!r}"
    if inst.gamma_odd:
        return "packed on Gamma(n,r,k) with rn/k odd, which has no packing"
    if cliques is None:
        return "packed without a packing"
    sizes = inst.graph.class_sizes
    seen = set()
    for clique in cliques:
        clique = [tuple(v) for v in clique]
        if len(clique) != inst.k:
            return f"clique {clique} does not have {inst.k} vertices"
        for v in clique:
            c, o = v
            if not (0 <= c < len(sizes) and 0 <= o < sizes[c]):
                return f"vertex {v} out of range"
            if v in seen:
                return f"vertex {v} covered twice"
            seen.add(v)
        for i in range(len(clique)):
            for j in range(i + 1, len(clique)):
                if not inst.adjacent(clique[i], clique[j]):
                    return f"clique {clique} misses edge {clique[i]}-{clique[j]}"
    if len(seen) != sum(sizes):
        return f"packing covers {len(seen)} of {sum(sizes)} vertices"
    return None
