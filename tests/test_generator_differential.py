"""Differential tests: the seeded generator and the graph writer, which walk
flat integer ids, build the same graphs and write the same text as the
per-vertex versions they replaced (`generator_reference`), and `edges()`
lists exactly the pairs that a plain `has_edge` double loop finds."""

import random

import pytest

import generator_reference as ref
from partite_packing.graphs import MultipartiteGraph, graph_to_json
from partite_packing.oracle import random_min_degree_graph

# the graph shapes (r, n, k) of the benchmark's threshold-sweep and cli-batch
# workloads
SWEEP_SHAPES = [(4, 12, 3), (5, 9, 3), (5, 12, 3), (6, 12, 3), (5, 16, 4)]
CLI_SHAPES = [(3, 66, 3), (2, 100, 2), (3, 160, 2), (2, 200, 2), (2, 300, 2),
              (3, 240, 3), (2, 320, 2)]
SEEDS = (1, 7, 900100)
DELETE_PROBS = (1.0, 0.5, 0.0)


def assert_same_as_reference(shape, seed, delete_prob):
    got = random_min_degree_graph(*shape, seed, delete_prob)
    want = ref.random_min_degree_graph(*shape, seed, delete_prob)
    assert got.class_sizes == want.class_sizes
    assert got._adj == want._adj
    assert graph_to_json(got) == ref.graph_to_json(want)


@pytest.mark.parametrize("shape", SWEEP_SHAPES)
def test_sweep_graphs_match_reference(shape):
    for seed in SEEDS:
        for delete_prob in DELETE_PROBS:
            assert_same_as_reference(shape, seed, delete_prob)


# the full grid on the cli-batch shapes would take half a minute: each shape
# gets the benchmark's own seed with full deletion, and the other two seeds
# with the other two deletion probabilities
@pytest.mark.parametrize("shape", CLI_SHAPES)
@pytest.mark.parametrize("seed, delete_prob", [(900100, 1.0), (1, 0.5),
                                               (7, 0.0)])
def test_cli_graphs_match_reference(shape, seed, delete_prob):
    assert_same_as_reference(shape, seed, delete_prob)


def test_edges_match_has_edge_double_loop():
    rng = random.Random("edges-double-loop")
    nonempty = 0
    for _ in range(200):
        sizes = [rng.randint(0, 6) for _ in range(rng.randint(2, 5))]
        vs = [(c, o) for c, s in enumerate(sizes) for o in range(s)]
        p = rng.random()
        g = MultipartiteGraph(sizes, [(u, v) for u in vs for v in vs
                                      if u[0] < v[0] and rng.random() < p])
        want = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                if g.has_edge(u, v)]
        assert g.edges() == want
        nonempty += bool(want)
    assert nonempty >= 150   # 165 of the 200 have an edge
