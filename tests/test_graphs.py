"""Core graph type, constructions, densities, and interchange format."""

import json
import random
import re
from collections import Counter
from itertools import combinations

import pytest
from fractions import Fraction

from partite_packing.graphs import (CliquePacking, MultipartiteGraph,
                                    PartitionLabeling, blow_up, build_gamma,
                                    clique_complex_edges, complete_multipartite,
                                    components, density, graph_from_json,
                                    graph_to_json, index_vector,
                                    packing_from_json, packing_to_json,
                                    partite_min_degree)
from partite_packing.oracle import canonical_form
from test_oracle import relabeled_copy


def test_rejects_same_class_edge():
    with pytest.raises(ValueError):
        MultipartiteGraph([2, 2], [((0, 0), (0, 1))])
    with pytest.raises(ValueError, match="loop at"):
        MultipartiteGraph([2, 2], [((0, 1), (1, 0)), ((1, 1), (1, 1))])


def test_rejects_out_of_range_vertex():
    # the second endpoint, checked against its own class size
    for bad in [(1, 2), (2, 0), (-1, 0), (1, -1)]:
        with pytest.raises(ValueError, match=re.escape(f"vertex {bad} out")):
            MultipartiteGraph([3, 2], [((0, 0), bad)])


def test_edges_listed_once_in_flat_order():
    g = MultipartiteGraph([2, 2], [((1, 1), (0, 0)), ((0, 1), (1, 0))])
    assert g.edges() == [((0, 0), (1, 1)), ((0, 1), (1, 0))]


# -- extremal construction -----------------------------------------------------


def test_gamma_min_degree_formula():
    for (n, r, k) in [(3, 3, 3), (3, 4, 3), (6, 3, 3), (2, 4, 2), (4, 4, 4)]:
        gam = build_gamma(n, r, k)
        assert partite_min_degree(gam.graph) == (k - 1) * n // k


def test_gamma_parity_flag():
    assert build_gamma(3, 3, 3).parity_blocked is True
    assert build_gamma(2, 4, 2).parity_blocked is False


def test_gamma_subpart_population():
    # subparts with superscript >= 3 hold (k-2) * rn/k vertices in total
    for (n, r, k) in [(3, 3, 3), (4, 4, 4), (6, 4, 3)]:
        gam = build_gamma(n, r, k)
        parts = gam.subparts.parts()
        high = sum(len(parts[c * k + j]) for c in range(r) for j in range(2, k))
        assert high == (k - 2) * r * n // k


def test_gamma_same_superscript_reading():
    # within the first two subparts, same-superscript cross-class pairs are
    # adjacent; for superscripts >= 3 they are not
    gam = build_gamma(3, 3, 3)
    g = gam.graph
    assert g.has_edge((0, 0), (1, 0))        # both superscript 1
    assert g.has_edge((0, 1), (1, 1))        # both superscript 2
    assert not g.has_edge((0, 0), (1, 1))    # superscripts 1 vs 2
    assert not g.has_edge((0, 2), (1, 2))    # both superscript 3


def test_gamma_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_gamma(4, 3, 3)
    with pytest.raises(ValueError):
        build_gamma(3, 2, 3)


# -- degrees and densities --------------------------------------------------------


def test_partite_min_degree_complete_and_isolated():
    assert partite_min_degree(complete_multipartite([4, 4, 4])) == 4
    g = complete_multipartite([3, 3]).without_edges(
        [((0, 0), (1, o)) for o in range(3)])
    assert partite_min_degree(g) == 0


def test_min_degree_at_most_min_class_size():
    for seed in range(25):
        rng = random.Random(seed)
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        g = complete_multipartite(sizes)
        drop = [e for e in g.edges() if rng.random() < 0.4]
        g = g.without_edges(drop)
        assert partite_min_degree(g) <= min(sizes)


def test_partite_min_degree_matches_a_plain_loop():
    # the plain definition: every vertex against every other class, through
    # degree_in_class; empty classes count as degree 0 for everyone else
    def plain(g):
        degrees = [g.degree_in_class(v, c) for v in g.vertices()
                   for c in range(g.r) if c != v[0]]
        return min(degrees, default=0)

    for seed in range(300):
        rng = random.Random(f"min-degree:{seed}")
        sizes = [rng.randint(0, 5) for _ in range(rng.randint(2, 5))]
        keep = rng.choice([0.3, 0.7, 0.95, 1.0])
        g = complete_multipartite(sizes)
        g = g.without_edges([e for e in g.edges() if rng.random() > keep])
        assert partite_min_degree(g) == plain(g), (seed, sizes)
    with pytest.raises(ValueError, match="at least two classes"):
        partite_min_degree(complete_multipartite([3]))


def test_density_examples():
    g = complete_multipartite([2, 3])
    a = [(0, 0), (0, 1)]
    b = [(1, 0), (1, 1), (1, 2)]
    assert density(g, a, b) == 1
    g2 = g.without_edges(g.edges())
    assert density(g2, a, b) == 0
    g3 = g.without_edges([((0, 0), (1, 0)), ((0, 1), (1, 2))])
    assert density(g3, a, b) == Fraction(4, 6)
    assert density(g3, b, a) == density(g3, a, b)


def test_density_matches_has_edge_loop():
    rng = random.Random("density")
    gamma = build_gamma(6, 3, 3).graph.without_edges([((0, 0), (1, 3))])
    cases = [gamma] * 50
    for copy in range(200):
        crng = random.Random(f"density-random:{copy}")
        sizes = [crng.randint(1, 40) for _ in range(crng.randint(2, 4))]
        keep = crng.random()
        cases.append(MultipartiteGraph(
            sizes, [e for e in complete_multipartite(sizes).edges()
                    if crng.random() < keep]))
    for g in cases:
        ca, cb = rng.sample(range(g.r), 2)
        na, nb = g.class_sizes[ca], g.class_sizes[cb]
        a = [(ca, o) for o in rng.sample(range(na), rng.randint(1, na))]
        b = [(cb, o) for o in rng.sample(range(nb), rng.randint(1, nb))]
        edges = sum(1 for u in a for v in b if g.has_edge(u, v))
        assert density(g, a, b) == Fraction(edges, len(a) * len(b))


def test_density_errors():
    g = complete_multipartite([2, 2])
    with pytest.raises(ValueError):
        density(g, [], [(1, 0)])
    with pytest.raises(ValueError):
        density(g, [(0, 0)], [(0, 1)])
    with pytest.raises(ValueError):
        density(g, [(0, 0)], [(1, 2)])
    # the sides are sets: counted against a mask, a repeated B vertex would
    # add its edges once while the denominator counted it twice
    with pytest.raises(ValueError):
        density(g, [(0, 0), (0, 1)], [(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        density(g, [(0, 0), (0, 0)], [(1, 0), (1, 1)])


# -- induced subgraphs ------------------------------------------------------------


def induced_by_pairs(g, keep):
    """Reference: the kept flat ids in order, and the induced subgraph's
    masks from a plain loop over every pair of kept vertices."""
    keep_flat = [f for f in range(g.n_vertices) if keep >> f & 1]
    masks = []
    for old_fu in keep_flat:
        mask = 0
        for new_fv, old_fv in enumerate(keep_flat):
            if g._adj[old_fu] >> old_fv & 1:
                mask |= 1 << new_fv
        masks.append(mask)
    return masks, keep_flat


def selection_mask(g, keep):
    """The flat-id mask of per-class offset selections (keep[c]: offsets of
    class c, repeats allowed)."""
    return g.mask_of((c, o) for c, sel in enumerate(keep) for o in sel)


def test_induced_matches_pair_loop():
    rng = random.Random("induced")
    g = build_gamma(12, 4, 3).graph
    g = g.without_edges(rng.sample(g.edges(), 200))
    selections = [[[]] * 4, [range(12)] * 4, [[5], [], range(12), [0, 11]]]
    for _ in range(200):
        # scattered offsets, or a few runs of consecutive ones
        if rng.random() < 0.5:
            keep = [rng.sample(range(12), rng.randint(0, 12)) for _ in range(4)]
        else:
            keep = []
            for _ in range(4):
                width, phase = rng.randint(1, 4), rng.randint(0, 1)
                keep.append([o for o in range(12) if (o // width + phase) % 2])
        selections.append(keep)
    for keep in selections:
        sub, from_sub = g.induced(selection_mask(g, keep))
        masks, ref_from = induced_by_pairs(g, selection_mask(g, keep))
        assert sub._adj == masks
        assert sub.class_sizes == tuple(len(set(sel)) for sel in keep)
        assert from_sub == ref_from
        assert [g.vertex(f) for f in from_sub] == [
            (c, o) for c, sel in enumerate(keep) for o in sorted(set(sel))]
    with pytest.raises(ValueError):     # id 48 lies past the last class
        g.induced(1 << 48)
    with pytest.raises(ValueError):
        g.induced(-1)


def test_induced_on_twins_matches_edge_list():
    """`induced` gathers each distinct adjacency row once; on graphs full of
    twins (equal rows) and on a random one it must equal the graph rebuilt
    from `g.edges()`, filtered to the selection and relabelled."""
    rng = random.Random("induced-twins")
    random_edges = [((a, o1), (b, o2)) for a in range(3) for b in range(a + 1, 3)
                    for o1 in range(12) for o2 in range(12) if rng.random() < 0.5]
    graphs = [relabeled_copy(blow_up(build_gamma(3, 4, 3).graph, 4), 5),
              complete_multipartite([12] * 4),
              MultipartiteGraph([12] * 3, random_edges)]
    twin_picks = 0
    for g in graphs:
        for _ in range(60):
            # scattered offsets, some picked twice
            keep = [[rng.randrange(size) for _ in range(rng.randint(0, size))]
                    for size in g.class_sizes]
            chosen = [sorted(set(sel)) for sel in keep]
            relabel = {(c, o): (c, new) for c, sel in enumerate(chosen)
                       for new, o in enumerate(sel)}
            want = MultipartiteGraph(
                [len(sel) for sel in chosen],
                [(relabel[u], relabel[v]) for u, v in g.edges()
                 if u in relabel and v in relabel])
            sub, from_sub = g.induced(selection_mask(g, keep))
            assert sub == want, keep
            assert {g.vertex(f): sub.vertex(t)
                    for t, f in enumerate(from_sub)} == relabel
            assert [g.vertex(f) for f in from_sub] == sorted(relabel)
            rows = [g.adj_mask(v) for v in relabel]
            twin_picks += len(set(rows)) < len(rows)
    # most selections hold twins, so the once-per-row path is exercised
    assert twin_picks >= 100


# -- blow-ups --------------------------------------------------------------------


def test_blow_up_identity_and_k33():
    g = MultipartiteGraph([1, 1], [((0, 0), (1, 0))])
    assert blow_up(g, 1) == g
    b = blow_up(g, 3)
    assert b.class_sizes == (3, 3)
    assert b.n_edges() == 9


def test_blow_up_of_skeleton_matches_direct_construction():
    skeleton = build_gamma(3, 3, 3).graph
    direct = build_gamma(9, 3, 3).graph
    assert blow_up(skeleton, 3) == direct
    assert canonical_form(blow_up(skeleton, 3)) == canonical_form(direct)


def test_blow_up_compose():
    g = build_gamma(2, 2, 2).graph
    assert blow_up(blow_up(g, 2), 3) == blow_up(g, 6)


# -- clique enumeration -------------------------------------------------------------


def test_clique_complex_complete_triples():
    g = complete_multipartite([2, 2, 2])
    assert len(clique_complex_edges(g, 3)) == 8


def test_clique_complex_triangle_free():
    g = MultipartiteGraph([1, 1, 1], [((0, 0), (1, 0)), ((1, 0), (2, 0))])
    assert clique_complex_edges(g, 3) == []


def test_clique_complex_matches_naive_triple_loop():
    # in order, not only as sets: the exact-cover search's first packing
    # depends on the ascending enumeration
    graphs = [build_gamma(3, 3, 3).graph]
    for seed, r in enumerate((3, 3, 4, 4, 5, 5)):
        rng = random.Random(f"cliques:{seed}")
        full = complete_multipartite([3] * r)
        graphs.append(full.without_edges(
            [e for e in full.edges() if rng.random() < 0.3]))
    for g in graphs:
        for p in range(2, g.r + 1):
            naive = [c for c in combinations(g.vertices(), p)
                     if all(g.has_edge(u, v) for u, v in combinations(c, 2))]
            assert clique_complex_edges(g, p) == naive, (g, p)


def test_components_of_a_mask_without_its_cut_vertex():
    # the path 0 - 1 - 2 - 3 plus the edge 4 - 5: leaving out vertex 1
    # splits the path, and the components come by least id
    nbrs = [0b10, 0b101, 0b1010, 0b100, 0b100000, 0b10000]
    assert list(components(0b111111, nbrs)) == [0b1111, 0b110000]
    assert list(components(0b111101, nbrs)) == [0b1, 0b1100, 0b110000]
    assert list(components(0, nbrs)) == []


def walk_every_frontier(mask, nbrs):
    """The component walker before it stopped a round early: every frontier
    vertex's neighbourhood is OR-ed in, however much of mask is reached."""
    while mask:
        comp = frontier = mask & -mask
        mask ^= comp
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= nbrs[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & mask
            mask ^= frontier
            comp |= frontier
        yield comp


def test_components_match_the_full_frontier_walk():
    cases = []
    # dense: one component that the first round reaches almost entirely
    dense = complete_multipartite([6, 6, 6, 6])
    cases.append((dense._adj, (1 << 24) - 1))
    # two complete 3-partite blocks, offsets 0-3 and offsets 4-6, that share
    # only vertex (0, 0): in the full mask it is a cut vertex
    sizes = [7, 7, 7]

    def second(v):
        return v[1] >= 4 or v == (0, 0)

    cut = MultipartiteGraph(sizes, [
        (u, v) for u, v in complete_multipartite(sizes).edges()
        if (u[1] <= 3 and v[1] <= 3) or (second(u) and second(v))])
    full = (1 << 21) - 1
    without = full & ~(1 << cut.flat((0, 0)))
    cases += [(cut._adj, full), (cut._adj, without)]
    for copy in range(300):
        rng = random.Random(f"components:{copy}")
        sizes = [rng.randint(1, 8) for _ in range(rng.randint(2, 4))]
        keep = rng.choice((0.05, 0.2, 0.5, 0.9))
        g = MultipartiteGraph(sizes, [e for e in complete_multipartite(sizes).edges()
                                      if rng.random() < keep])
        cases.append((g._adj, rng.getrandbits(g.n_vertices)))
    for nbrs, mask in cases:
        assert list(components(mask, nbrs)) == list(walk_every_frontier(mask, nbrs))
    assert len(list(components(full, cut._adj))) == 1
    assert len(list(components(without, cut._adj))) == 2


def test_clique_complex_output_reverifies():
    rng = random.Random(3)
    g = complete_multipartite([3, 3, 3]).without_edges(
        [e for e in complete_multipartite([3, 3, 3]).edges()
         if rng.random() < 0.3])
    for clique in clique_complex_edges(g, 3):
        classes = {v[0] for v in clique}
        assert len(classes) == len(clique)
        for i in range(len(clique)):
            for j in range(i + 1, len(clique)):
                assert g.has_edge(clique[i], clique[j])


# -- labelings and index vectors ------------------------------------------------------


def test_index_vector_examples():
    lab = PartitionLabeling(2, ((0, 0), (1, 1)))
    assert index_vector([], lab) == (0, 0)
    assert index_vector([(0, 0)], lab) == (1, 0)
    assert index_vector([(0, 0), (0, 1), (1, 0), (1, 1)], lab) == (2, 2)


def test_index_vector_unlabeled_vertex():
    lab = PartitionLabeling(2, ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        index_vector([(0, 5)], lab)


def test_labeling_validation():
    with pytest.raises(ValueError):
        PartitionLabeling(3, ((0, 0), (1, 1)))  # part 2 empty
    lab = PartitionLabeling(2, ((0, 1), (0, 1)))
    assert not lab.respects_classes
    lab2 = PartitionLabeling(4, ((0, 1), (2, 3)))
    assert lab2.respects_classes


@pytest.mark.parametrize("d, part_of", [
    (2, ((0, True), (0.0,))),   # True == 1 and 0.0 == 0 pass the range test
    (True, ((0, 0),)),          # a bool part count of 1
    (2.0, ((0, 1),)),
], ids=["bool-and-float-index", "bool-count", "float-count"])
def test_labeling_rejects_non_integers(d, part_of):
    with pytest.raises(ValueError, match="integer"):
        PartitionLabeling(d, part_of)
    doc = {"r": len(part_of), "class_sizes": [len(row) for row in part_of],
           "edges": [], "labels": {"d": d, "part_of": part_of}}
    with pytest.raises(ValueError, match="integer"):
        graph_from_json(json.dumps(doc))


# -- interchange -----------------------------------------------------------------------


def test_graph_json_round_trip():
    gam = build_gamma(3, 3, 3)
    text = graph_to_json(gam.graph, gam.subparts)
    g2, lab2 = graph_from_json(text)
    assert g2 == gam.graph
    assert lab2 == gam.subparts
    assert graph_to_json(g2, lab2) == text


def test_graph_json_rejects_bad_edges():
    doc = {"r": 2, "class_sizes": [2, 2], "edges": [[[0, 0], [0, 1]]]}
    with pytest.raises(ValueError):
        graph_from_json(json.dumps(doc))
    doc = {"r": 2, "class_sizes": [2, 2], "edges": [[[0, 0], [1, 5]]]}
    with pytest.raises(ValueError):
        graph_from_json(json.dumps(doc))


@pytest.mark.parametrize("sizes, edges", [
    ([2.7, 3], []),                     # read as class size 2
    ([2, 2], [[[True, 0], [0, 1]]]),    # read as vertex (1, 0)
    ([2.7, 3], [[[0, 2], [1, 1]]]),     # (0, 2) would alias (1, 0)
    ([2, 2], [[[0, 1.0], [1, 0]]]),
    ([2, 2], [[[0, 1], [1, False]]]),
], ids=["float-size", "bool-class", "alias", "float-offset", "bool-offset"])
def test_graph_json_rejects_non_integers(sizes, edges):
    doc = {"r": len(sizes), "class_sizes": sizes, "edges": edges}
    with pytest.raises(ValueError, match="integer"):
        graph_from_json(json.dumps(doc))


def named(g, cliques) -> CliquePacking:
    """Flat-id cliques of g as a named packing, for `verify`."""
    return CliquePacking([tuple(map(g.vertex, c)) for c in cliques])


def index_counts(g, cliques) -> Counter:
    """Cliques per index (set of classes), counted from the vertex names."""
    return Counter(frozenset(g.vertex(f)[0] for f in c) for c in cliques)


def test_packing_verify_and_json():
    g = complete_multipartite([2, 2, 2])
    packing = CliquePacking([((0, 0), (1, 0), (2, 0)), ((0, 1), (1, 1), (2, 1))])
    assert packing.verify(g, perfect=True) == []
    text = packing_to_json(packing)
    back = packing_from_json(text)
    assert sorted(back.cliques) == sorted(packing.cliques)

    # each kind of violation, with the exact messages in report order
    overlapping = CliquePacking([((0, 0), (1, 0)), ((0, 0), (1, 1))])
    assert overlapping.verify(g) == ["vertex (0, 0) covered twice"]
    sparse = g.without_edges([((0, 0), (1, 0))])
    broken = CliquePacking([((0, 0), (1, 0))])
    assert broken.verify(sparse) == ["clique 0 misses edge (0, 0)-(1, 0)"]
    assert overlapping.verify(sparse) == ["clique 0 misses edge (0, 0)-(1, 0)",
                                          "vertex (0, 0) covered twice"]
    same_class = CliquePacking([((0, 0), (0, 1), (1, 0))])
    assert same_class.verify(g) == ["clique 0 has two vertices of class 0",
                                    "clique 0 misses edge (0, 0)-(0, 1)"]
    gap = CliquePacking([((0, 0), (1, 0), (2, 0))])
    assert gap.verify(g, perfect=True) == ["vertex (0, 1) not covered",
                                           "vertex (1, 1) not covered",
                                           "vertex (2, 1) not covered"]
    miscounted = CliquePacking([((0, 0), (1, 0), (2, 0))],
                               Counter({frozenset({0, 1, 2}): 2}))
    assert miscounted.verify(g) == ["index_counts inconsistent with clique list"]
    assert miscounted.verify(g, perfect=True) == [
        "index_counts inconsistent with clique list",
        "vertex (0, 1) not covered", "vertex (1, 1) not covered",
        "vertex (2, 1) not covered"]
    wide = complete_multipartite([4, 4])
    assert CliquePacking([((0, 0), (1, 0))]).verify(wide, perfect=True) == [
        "vertex (0, 1) not covered", "vertex (0, 2) not covered",
        "vertex (0, 3) not covered", "vertex (1, 1) not covered",
        "vertex (1, 2) not covered", "... and 1 more uncovered"]


def test_packing_verify_reports_out_of_range_vertices_and_empty_cliques():
    # a vertex outside the graph is a violation, not an exception, and its
    # pairs are left out of the edge check; an empty clique is a violation
    g = complete_multipartite([2, 2])
    stray = CliquePacking([((0, 0), (1, 5)), ((0, 1), (-1, 0))])
    assert stray.verify(g) == ["vertex (1, 5) out of range",
                               "vertex (-1, 0) out of range"]
    assert stray.verify(g, perfect=True) == ["vertex (1, 5) out of range",
                                             "vertex (-1, 0) out of range",
                                             "vertex (1, 0) not covered",
                                             "vertex (1, 1) not covered"]
    assert CliquePacking([()]).verify(g) == ["clique 0 is empty"]
    assert CliquePacking([((0, 0), (1, 0)), ()]).verify(g) == [
        "clique 1 is empty", "clique 1 has 0 vertices, clique 0 has 2"]


def test_packing_verify_rejects_mixed_clique_sizes():
    # a triangle, an edge and four single vertices cover complete 3x3
    g = complete_multipartite([3, 3, 3])
    mixed = CliquePacking([((0, 0), (1, 0), (2, 0)), ((0, 1), (1, 1)),
                           ((0, 2),), ((1, 2),), ((2, 1),), ((2, 2),)])
    problems = mixed.verify(g, perfect=True)
    assert problems == [f"clique {idx} has {size} vertices, clique 0 has 3"
                        for idx, size in [(1, 2), (2, 1), (3, 1), (4, 1),
                                          (5, 1)]]
