"""Ground-truth search, canonical forms, Γ's barrier certificate, and the
boundary harness."""

import random

import pytest

from partite_packing.graphs import (MultipartiteGraph, PartitionLabeling,
                                    build_gamma, complete_multipartite)
from partite_packing.oracle import (brute_force_packing, canonical_form,
                                    check_barrier, gamma_barrier,
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



# -- Γ's barrier certificate ---------------------------------------------------------


def gamma_weights(n, r, k):
    """The barrier written out by hand: y = 1/(k-2) on subparts 3..k, read
    over the scale k-2, and p = 1 on subpart 1, subpart j of class c being
    part c*k + j - 1."""
    return {"gamma": [n, r, k], "scale": k - 2,
            "y": [int(j >= 3) for c in range(r) for j in range(1, k + 1)],
            "p": [int(j == 1) for c in range(r) for j in range(1, k + 1)]}


@pytest.mark.parametrize("n,r,k", [(3, 3, 3), (3, 5, 3), (4, 5, 4), (5, 5, 5),
                                   (9, 3, 3), (9, 7, 3), (15, 5, 3), (12, 5, 4),
                                   (2, 3, 2), (6, 3, 2)])
def test_barrier_accepted_on_gamma(n, r, k):
    gam = build_gamma(n, r, k)
    assert gamma_barrier(n, r, k) == gamma_weights(n, r, k)
    assert check_barrier(gam.graph, gam.subparts, gamma_weights(n, r, k)) == []


def test_gamma_helpers_reject_k_zero():
    g = build_gamma(3, 3, 3).graph
    assert not is_isomorphic_to_gamma(g, 3, 3, 0)
    assert not is_isomorphic_to_gamma(g, 3, 3, 1)
    for n, r, k in [(3, 3, 0), (3, 3, 1), (3, 2, 3), (4, 3, 3)]:
        with pytest.raises(ValueError, match="needs k >= 2"):
            gamma_barrier(n, r, k)


def test_check_barrier_reports_malformed_barriers():
    gam = build_gamma(3, 5, 3)
    good = gamma_weights(3, 5, 3)
    for key in good:
        barrier = {other: v for other, v in good.items() if other != key}
        assert check_barrier(gam.graph, gam.subparts, barrier) == [
            f"the barrier lacks {key}"]
    assert check_barrier(gam.graph, gam.subparts, {}) == [
        "the barrier lacks gamma, scale, y, p"]
    assert check_barrier(gam.graph, gam.subparts,
                         dict(good, gamma=[3, 5, 0])) == [
        "k = 0 is not a clique size"]
    # fields of the wrong shape or type, as a JSON document may hold them
    for change, want in [
            ({"gamma": [3, 5]}, "gamma is not three integers"),
            ({"gamma": "x"}, "gamma is not three integers"),
            ({"gamma": [3, 5, "3"]}, "gamma is not three integers"),
            ({"gamma": [3, 5, True]}, "gamma is not three integers"),
            ({"scale": None}, "scale is not an integer"),
            ({"scale": False}, "scale is not an integer"),
            ({"p": None}, "p is not a list of integers"),
            ({"y": good["y"][:-1] + ["a"]}, "y is not a list of integers"),
            ({"y": good["y"][:-1] + [1.0]}, "y is not a list of integers"),
            ({"p": 7}, "p is not a list of integers")]:
        assert check_barrier(gam.graph, gam.subparts,
                             dict(good, **change)) == [want], change
    assert check_barrier(gam.graph, gam.subparts,
                         dict(good, scale="1", y=None)) == [
        "scale is not an integer", "y is not a list of integers"]


def moved(labels, v, part):
    rows = [list(row) for row in labels.part_of]
    rows[v[0]][v[1]] = part
    return PartitionLabeling(labels.d, tuple(map(tuple, rows)))


def test_barrier_mutants_rejected():
    gam = build_gamma(3, 5, 3)                # subparts of one vertex
    big = build_gamma(9, 3, 3)                # subparts of three vertices
    base = gamma_weights(3, 5, 3)

    def problems(barrier=None, g=gam.graph, labels=gam.subparts, **change):
        barrier = dict(barrier or base)
        for key, (part, value) in change.items():
            barrier[key] = list(barrier[key])
            barrier[key][part] = value
        return check_barrier(g, labels, barrier)

    # (0,0) of subpart 1 joins subpart 3 of its class: not all-or-nothing
    found = problems(gamma_weights(9, 3, 3), big.graph,
                     moved(big.subparts, (0, 0), 2))
    assert any("not all-or-nothing" in p for p in found)
    # y on a subpart 1: a type with it and a subpart 3 has y(T) = 2 > 1
    assert any("> 1" in p for p in problems(y=(0, 1)))
    # y off a subpart 3: every type stays within 1, but the total falls short
    assert problems(y=(2, 0)) == ["y.sizes is not the 5 cliques of a perfect "
                                  "packing"]
    # p on a subpart 2: the tight type {2, 2, 3} of three classes is odd
    assert any("tight type" in p for p in problems(p=(1, 1)))
    # rn/k = 8: p.sizes is even, and Gamma(6,4,3) packs
    even = build_gamma(6, 4, 3)
    assert problems(gamma_weights(6, 4, 3), even.graph,
                    even.subparts) == ["p.sizes is even"]
    with pytest.raises(ValueError):
        gamma_barrier(6, 4, 3)
    # one edge more: between subparts of three vertices it breaks
    # all-or-nothing; between single vertices it makes {1, 2, 3} a tight type
    plus = big.graph.with_edges([((0, 0), (1, 3))])
    assert any("not all-or-nothing" in p
               for p in problems(gamma_weights(9, 3, 3), plus, big.subparts))
    plus = gam.graph.with_edges([((0, 0), (1, 1))])
    assert any("tight type" in p for p in problems(g=plus))


def test_barrier_accepted_only_without_packing():
    """On Γ of at most 24 vertices (rn/k odd or even), and on Γ with every
    edge between two subparts toggled for a seeded sample of subpart pairs,
    no graph the checker accepts has a perfect packing."""
    accepted = 0
    for k in (2, 3, 4):
        for r in range(k, 24 // k + 1):
            for n in range(k, 24 // r + 1, k):
                gam = build_gamma(n, r, k)
                parts = gam.subparts.parts()
                pairs = [(a, b) for a in range(len(parts))
                         for b in range(a + 1, len(parts))
                         if parts[a][0][0] != parts[b][0][0]]
                rng = random.Random(f"barrier:{n},{r},{k}")
                graphs = [gam.graph]
                sample = min(len(pairs), 6) if r * n <= 20 else 0
                for a, b in rng.sample(pairs, sample):
                    cross = [(u, v) for u in parts[a] for v in parts[b]]
                    graphs.append(gam.graph.without_edges(cross)
                                  if gam.graph.has_edge(*cross[0])
                                  else gam.graph.with_edges(cross))
                for g in graphs:
                    if check_barrier(g, gam.subparts, gamma_weights(n, r, k)):
                        continue
                    accepted += 1
                    verdict = brute_force_packing(g, k)
                    assert verdict.completed and not verdict.exists
    assert accepted >= 30

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
