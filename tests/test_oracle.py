"""Ground-truth search, canonical forms, and the boundary harness."""

import random

import pytest

from partite_packing.graphs import (MultipartiteGraph, build_gamma,
                                    complete_multipartite)
from partite_packing.oracle import (brute_force_packing, canonical_form,
                                    is_isomorphic_to_gamma,
                                    random_min_degree_graph,
                                    verify_theorem_boundary)


def relabeled_copy(g, seed):
    """Random class and in-class permutation of g."""
    rng = random.Random(f"perm:{seed}")
    classes = list(range(g.r))
    rng.shuffle(classes)
    offs = {c: rng.sample(range(g.class_sizes[c]), g.class_sizes[c])
            for c in range(g.r)}
    edges = [((classes[cu], offs[cu][ou]), (classes[cv], offs[cv][ov]))
             for (cu, ou), (cv, ov) in g.edges()]
    sizes = [0] * g.r
    for c in range(g.r):
        sizes[classes[c]] = g.class_sizes[c]
    return MultipartiteGraph(sizes, edges)


# -- brute force packing ------------------------------------------------------------


def test_oracle_examples():
    g = complete_multipartite([2, 2, 2])
    v = brute_force_packing(g, 3)
    assert v.exists and v.completed and len(v.witness.cliques) == 2

    gam = build_gamma(3, 3, 3)
    v = brute_force_packing(gam.graph, 3)
    assert not v.exists and v.completed

    single = MultipartiteGraph([1, 1, 1],
                               [((0, 0), (1, 0)), ((0, 0), (2, 0)),
                                ((1, 0), (2, 0))])
    v = brute_force_packing(single, 3)
    assert v.exists and v.witness.cliques == [((0, 0), (1, 0), (2, 0))]


def test_oracle_rejects_indivisible():
    with pytest.raises(ValueError):
        brute_force_packing(complete_multipartite([1, 1, 1]), 2)


def test_oracle_budget_flagged():
    g = complete_multipartite([4, 4, 4])
    v = brute_force_packing(g, 3, budget=1)
    assert not v.completed and v.witness is None


def test_oracle_invariant_under_relabeling():
    for seed in range(15):
        g = random_min_degree_graph(3, 3, 3, seed=seed, delete_prob=0.8)
        base = brute_force_packing(g, 3)
        other = brute_force_packing(relabeled_copy(g, seed), 3)
        assert base.exists == other.exists
        assert base.completed and other.completed


def test_oracle_witness_reverifies():
    for seed in range(10):
        g = random_min_degree_graph(4, 2, 2, seed=seed, delete_prob=0.5)
        v = brute_force_packing(g, 2)
        if v.exists:
            assert v.witness.verify(g, perfect=True) == []


# -- canonical forms -----------------------------------------------------------------


def test_canonical_form_detects_isomorphs():
    g = build_gamma(3, 3, 3).graph
    for seed in range(5):
        assert canonical_form(relabeled_copy(g, seed)) == canonical_form(g)
    minus = g.without_edges([g.edges()[0]])
    assert canonical_form(minus) != canonical_form(g)


def test_is_isomorphic_to_gamma():
    g = build_gamma(3, 3, 3).graph
    assert is_isomorphic_to_gamma(g, 3, 3, 3)
    assert not is_isomorphic_to_gamma(g.without_edges([g.edges()[0]]), 3, 3, 3)
    for seed in range(8):
        assert is_isomorphic_to_gamma(relabeled_copy(g, seed), 3, 3, 3)
    assert not is_isomorphic_to_gamma(complete_multipartite([3, 3, 3]), 3, 3, 3)
    assert not is_isomorphic_to_gamma(g, 3, 3, 2)  # wrong parameters


def test_canonical_form_class_sizes_guard():
    a = complete_multipartite([2, 3])
    b = complete_multipartite([3, 2])
    assert canonical_form(a) == canonical_form(b)


# -- instance generation and the harness ------------------------------------------------


def test_random_generator_respects_threshold_and_seeds():
    from partite_packing.graphs import partite_min_degree
    g1 = random_min_degree_graph(3, 3, 3, seed=7)
    g2 = random_min_degree_graph(3, 3, 3, seed=7)
    g3 = random_min_degree_graph(3, 3, 3, seed=8)
    assert g1 == g2
    assert g1 != g3 or g1.n_edges() == g3.n_edges()
    assert partite_min_degree(g1) >= 2


def test_harness_bipartite_exhaustive():
    rep = verify_theorem_boundary(2, 2, 2, ("exhaustive",))
    assert rep["instances"] > 0
    assert rep["without_packing"] == 0
    assert rep["exceptions"] == []


def test_harness_small_random_sweep():
    rep = verify_theorem_boundary(3, 3, 3, ("random", 200, 1))
    assert rep["instances"] == 200
    assert rep["without_packing"] == rep["gamma_isomorphic"] + len(rep["exceptions"])
    assert rep["incomplete_searches"] == 0


def test_harness_vacuous_empty_classes():
    rep = verify_theorem_boundary(3, 3, 0, ("exhaustive",))
    assert rep["instances"] == 0 and "note" in rep


def test_harness_rejects_bad_clique_size():
    # k > r would log every sampled graph as an exception to the theorem
    for r, k in ((2, 3), (2, 0), (2, -1), (3, 2)):
        with pytest.raises(ValueError):
            verify_theorem_boundary(r, k, 3, ("random", 2, 0))
