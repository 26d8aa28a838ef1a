"""Test-only reference for the seeded threshold-graph generator and the graph
writer: `random_min_degree_graph` and `graph_to_json` as they were before
both moved to flat integer ids, kept verbatim but for their edge list, which
is the per-vertex walk that `MultipartiteGraph.edges()` used then (one
`vertex()` call per endpoint).  The differential tests assert that the
package's versions build the same graphs and write the same text.

Not collected by pytest (no test_ prefix).
"""

import json
import random
from math import ceil

from partite_packing.graphs import (MultipartiteGraph, PartitionLabeling,
                                    Vertex, complete_multipartite)


def edges(g: MultipartiteGraph) -> list[tuple[Vertex, Vertex]]:
    """All edges, each listed once, ordered by flattened ids."""
    out = []
    for fu in range(g.n_vertices):
        rest = g._adj[fu] >> (fu + 1) << (fu + 1)
        while rest:
            low = rest & -rest
            out.append((g.vertex(fu), g.vertex(low.bit_length() - 1)))
            rest ^= low
    return out


def random_min_degree_graph(r: int, n: int, k: int, seed,
                            delete_prob: float = 1.0) -> MultipartiteGraph:
    if k < 1:
        raise ValueError("k must be positive")
    rng = random.Random(f"mindeg:{seed}")
    threshold = ceil((k - 1) * n / k)
    g = complete_multipartite([n] * r)
    masks = list(g._adj)
    deg = [[n if c != g._class_of[f] else 0 for c in range(r)]
           for f in range(g.n_vertices)]
    all_edges = edges(g)
    rng.shuffle(all_edges)
    for u, v in all_edges:
        if delete_prob < 1.0 and rng.random() > delete_prob:
            continue
        fu, fv = g.flat(u), g.flat(v)
        cu, cv = u[0], v[0]
        if deg[fu][cv] - 1 >= threshold and deg[fv][cu] - 1 >= threshold:
            masks[fu] &= ~(1 << fv)
            masks[fv] &= ~(1 << fu)
            deg[fu][cv] -= 1
            deg[fv][cu] -= 1
    out = MultipartiteGraph([n] * r)
    out._adj = masks
    return out


def graph_to_json(g: MultipartiteGraph,
                  labeling: PartitionLabeling | None = None) -> str:
    doc: dict = {
        "r": g.r,
        "class_sizes": list(g.class_sizes),
        "edges": [[list(u), list(v)] for u, v in edges(g)],
    }
    if labeling is not None:
        doc["labels"] = {"d": labeling.d,
                         "part_of": [list(row) for row in labeling.part_of]}
    return json.dumps(doc, sort_keys=True)
