"""Splittability, pair-completeness, iterative refinement, lattices, and
barrier diagnosis."""

import random
from fractions import Fraction
from itertools import count

import pytest

from partite_packing import structure
from partite_packing.graphs import (MultipartiteGraph, blow_up, build_gamma,
                                    complete_multipartite, PartitionLabeling,
                                    clique_complex_edges)
from partite_packing.structure import (IntegerLattice, RowDecomposition,
                                       SplitWitness,
                                       diagnose_barriers,
                                       divisibility_barrier_graph,
                                       is_complete_wrt, is_pair_complete,
                                       is_splittable, iterate_decomposition,
                                       merge_to_minimal, min_diagonal_density,
                                       robust_edge_lattice,
                                       space_barrier_graph,
                                       verify_pair_complete_witness,
                                       verify_split_witness)
from partite_packing.oracle import random_min_degree_graph
import detection_reference as ref
from detection_reference import naive_is_pair_complete, naive_is_splittable
from test_detection_differential import planted_split_graph
from test_oracle import relabeled_copy


def two_row_graph(r: int, n: int, row_internal: bool = False):
    """Rows A (first n offsets) and B (last n): complete between blocks in
    different rows and columns; row-internal edges optional."""
    g = MultipartiteGraph([2 * n] * r)
    edges = []
    for j1 in range(r):
        for j2 in range(j1 + 1, r):
            for o1 in range(2 * n):
                for o2 in range(2 * n):
                    same_row = (o1 < n) == (o2 < n)
                    if (row_internal and same_row) or not same_row:
                        edges.append(((j1, o1), (j2, o2)))
    return g.with_edges(edges)


def random_equal_graph(r, size, seed, keep=0.5):
    rng = random.Random(f"se:{seed}")
    base = complete_multipartite([size] * r)
    drop = [e for e in base.edges() if rng.random() > keep]
    return base.without_edges(drop)


# -- splittability ------------------------------------------------------------------


def test_split_complete_graph_any_split_works():
    g = complete_multipartite([4, 4, 4])
    w = is_splittable(g, 2, Fraction(0))
    assert w is not None and w.achieved == 1
    assert verify_split_witness(g, w, Fraction(0))


def test_split_two_row_instance_is_its_own_witness():
    g = two_row_graph(3, 2)
    w = is_splittable(g, 2, Fraction(0))
    assert w is not None
    assert w.achieved == 1


def test_split_gamma_rows_detach():
    # the top subpart row of the extremal construction splits off at density 1
    g = build_gamma(3, 3, 3).graph
    w = is_splittable(g, 3, Fraction(1, 10))
    assert w is not None
    assert verify_split_witness(g, w, Fraction(1, 10))
    assert w.achieved == 1


def test_split_absent_on_balanced_random():
    g = random_equal_graph(3, 4, seed=9, keep=0.5)
    assert is_splittable(g, 2, Fraction(1, 10)) is None
    assert not naive_is_splittable(g, 2, Fraction(1, 10))


def test_split_agrees_with_naive_enumeration():
    for seed in range(40):
        rng = random.Random(f"agree:{seed}")
        r = rng.choice([2, 3])
        g = random_equal_graph(r, 4, seed, keep=rng.choice([0.4, 0.7, 0.9]))
        d = rng.choice([Fraction(0), Fraction(1, 8), Fraction(1, 4),
                        Fraction(1, 2)])
        assert (is_splittable(g, 2, d) is not None) == naive_is_splittable(g, 2, d)


def test_split_monotone_in_threshold():
    for seed in range(12):
        g = random_equal_graph(3, 4, seed=100 + seed, keep=0.85)
        w = is_splittable(g, 2, Fraction(1, 4))
        if w is None:
            continue
        for d2 in (Fraction(1, 3), Fraction(1, 2)):
            assert verify_split_witness(g, w, d2)
            assert is_splittable(g, 2, d2) is not None


def test_split_heuristic_witnesses_are_verified():
    g = complete_multipartite([6, 6, 6])
    w = is_splittable(g, 2, Fraction(1, 100), mode="heuristic", seed=3)
    assert w is not None
    assert verify_split_witness(g, w, Fraction(1, 100))


def test_split_witness_checker_rejects_bogus_sets():
    # on a complete graph every cross density is 1, so only the shape of the
    # sets can make the checker say no
    g = complete_multipartite([6, 6, 6])
    d = Fraction(1, 100)
    assert verify_split_witness(
        g, SplitWitness(1, [(0, 1, 2), (1, 3, 5), (2, 4, 5)], Fraction(0)), d)
    bogus = [
        [(0, 1, 2, 3), (0,), (0, 1, 2)],          # unequal sizes
        [(0, 1, 2), (0, 1, 2), (0, 1, 2, 3)],
        [(), (), ()],                             # t = 0
        [tuple(range(6))] * 3,                    # t = class size
        [(0, 1, 2), (0, 1, 2)],                   # one set per class missing
        [(0, 1, 2)] * 4,
        [(0, 0, 1), (0, 1, 2), (0, 1, 2)],        # a repeated offset
        [(0, 1, 6), (0, 1, 2), (0, 1, 2)],        # offsets out of range
        [(-1, 0, 1), (0, 1, 2), (0, 1, 2)],
    ]
    for sets in bogus:
        assert not verify_split_witness(g, SplitWitness(1, sets, Fraction(0)),
                                        d), sets


def test_split_witness_size_must_match_weight(monkeypatch):
    g = complete_multipartite([12, 12, 12])
    d = Fraction(1, 100)
    w = is_splittable(g, 3, d, "heuristic", seed=1)
    assert w is not None and all(len(s) == w.p_prime * 4 for s in w.sets)
    # a searcher answering p_prime = 1 with sets of 2n offsets: the sets
    # pass the density check, the size check in is_splittable stops them
    wrong = SplitWitness(1, [tuple(range(8))] * 3, Fraction(0))
    assert verify_split_witness(g, wrong, d)
    monkeypatch.setattr(structure, "_split_heuristic", lambda *args: wrong)
    with pytest.raises(AssertionError):
        is_splittable(g, 3, d, "heuristic", seed=1)


def test_split_rejects_uneven_classes():
    g = MultipartiteGraph([4, 2])
    with pytest.raises(ValueError):
        is_splittable(g, 2, Fraction(0))


def test_split_robust_under_small_perturbation():
    # non-splittable stays non-splittable at a much smaller threshold after
    # swapping one vertex per class across an arbitrary split boundary
    for seed in range(8):
        g = random_equal_graph(3, 6, seed=7 * seed + 1, keep=0.5)
        if is_splittable(g, 2, Fraction(1, 4)) is not None:
            continue
        perm = list(range(6))
        rng = random.Random(seed)
        a, b = rng.sample(range(6), 2)
        perm[a], perm[b] = perm[b], perm[a]
        remapped = MultipartiteGraph([6, 6, 6])
        edges = [(((cu), perm[ou] if cu == 0 else ou),
                  ((cv), perm[ov] if cv == 0 else ov))
                 for (cu, ou), (cv, ov) in g.edges()]
        remapped = remapped.with_edges(edges)
        assert is_splittable(remapped, 2, Fraction(1, 50)) is None


# (r, class size, p): small enough for the plain enumerator to refute
REFUTE_SHAPES = ((2, 4, 2), (2, 6, 2), (2, 6, 3), (2, 8, 2), (2, 8, 4),
                 (3, 4, 2), (3, 6, 2), (3, 6, 3), (4, 4, 2))
REFUTE_THRESHOLDS = (Fraction(0), Fraction(1, 100), Fraction(1, 10))


def test_split_refutation_is_sound():
    # wherever the non-edge component rule refutes, the plain enumerator
    # finds no split for any p'; it never refutes a planted split
    cases = fired = 0
    for r, size, p in REFUTE_SHAPES:
        n = size // p
        for d in REFUTE_THRESHOLDS:
            graphs = [(random_min_degree_graph(r, size, p, s), None)
                      for s in range(3)]
            graphs += [(planted_split_graph(r, p, n, p_prime, noise, seed),
                        noise)
                       for seed, p_prime in enumerate(range(1, p))
                       for noise in (0.0, 0.05)]
            for g, noise in graphs:
                cases += 1
                if not structure._split_refuted(g, p, n, d):
                    continue
                assert noise != 0.0, (r, size, p, d)
                assert not naive_is_splittable(g, p, d), (r, size, p, d)
                fired += noise is None
    assert cases >= 150
    assert fired >= 30


@pytest.mark.parametrize("r,size,k", [(5, 12, 3), (4, 12, 3), (5, 9, 3),
                                      (5, 16, 4), (6, 12, 3)])
def test_threshold_graphs_refuted_without_split_search(monkeypatch, r, size, k):
    # the sweep shapes never reach the split heuristic: the component rule
    # refutes them (class sizes divide by k, so each graph is its own core)
    def no_search(*args):
        raise AssertionError("split heuristic reached")
    monkeypatch.setattr(structure, "_split_heuristic", no_search)
    for seed in (1, 2, 3):
        g = random_min_degree_graph(r, size, k, seed)
        assert is_splittable(g, k, Fraction(1, 100), "heuristic") is None


# -- pair-completeness ----------------------------------------------------------------


def test_pair_complete_disjoint_halves():
    g, _ = divisibility_barrier_graph(3, 2)
    w = is_pair_complete(g, Fraction(0))
    assert w is not None
    assert w.max_cross_density == 0
    assert verify_pair_complete_witness(g, w, Fraction(0))


def test_pair_complete_absent_on_complete_graph():
    g = complete_multipartite([2, 2, 2])
    assert is_pair_complete(g, Fraction(1, 4)) is None
    assert not naive_is_pair_complete(g, Fraction(1, 4))


def test_pair_complete_on_gamma_double_row():
    # first two subparts of each class, as a standalone graph
    gam = build_gamma(6, 3, 3)
    keep = [range(4)] * 3   # subpart size 2: offsets 0..3 are subparts 1, 2
    sub, _, _ = gam.graph.induced(keep)
    w = is_pair_complete(sub, Fraction(0))
    assert w is not None
    halves = [set(h) for h in w.halves]
    assert halves == [{0, 1}] * 3 or halves == [{2, 3}] * 3


def test_pair_complete_agrees_with_naive():
    for seed in range(25):
        rng = random.Random(f"pc:{seed}")
        g = random_equal_graph(rng.choice([2, 3]), 4, 1000 + seed,
                               keep=rng.choice([0.3, 0.6, 0.9]))
        d = rng.choice([Fraction(0), Fraction(1, 4), Fraction(1, 2)])
        assert (is_pair_complete(g, d) is not None) == naive_is_pair_complete(g, d)


def test_pair_complete_rejects_odd_classes():
    with pytest.raises(ValueError):
        is_pair_complete(MultipartiteGraph([3, 3]), Fraction(0))


# -- pivot seeds ----------------------------------------------------------------------


@pytest.mark.parametrize("g,k", [
    (relabeled_copy(blow_up(build_gamma(3, 4, 3).graph, 4), 5), 3),
    (random_min_degree_graph(4, 12, 3, 1), 3),
    (random_min_degree_graph(3, 8, 2, 2), 2),
    (random_min_degree_graph(5, 16, 4, 3), 4),
    (complete_multipartite([6] * 3), 3),   # no pivot gives a split weight
], ids=["gamma-blow-up", "threshold-4x12", "threshold-3x8", "threshold-5x16",
        "complete"])
def test_pivot_seeds_match_the_reference_once_per_neighbourhood(g, k):
    # the reference tries every vertex; the seeds depend only on the pivot's
    # class and neighbourhood, so the package's generators must yield the
    # reference's seed of the first vertex of each (class, neighbourhood)
    size = g.class_sizes[0]
    pivots = [(c, o) for c in range(g.r) for o in range(size)]
    first = {}
    for v in pivots:
        first.setdefault((v[0], g.adj_mask(v)), v)
    nbrs = structure._neighborhoods(g, size)
    n = size // 2
    want = [seed for v, seed in zip(pivots, ref._pc_pivot_candidates(g, n))
            if first[(v[0], g.adj_mask(v))] == v]
    assert list(structure._pc_pivot_candidates(g, n, nbrs)) == want

    # the reference yields a split seed only for a pivot whose non-neighbour
    # count per other class rounds to a weight in 1..k-1
    n = size // k
    tried = [v for v in pivots
             if 1 <= round(sum((g.class_mask(j) & ~g.adj_mask(v)).bit_count()
                               for j in range(g.r) if j != v[0])
                           / (g.r - 1) / n) <= k - 1]
    seeds = list(ref._split_pivot_candidates(g, k, n))
    assert len(seeds) == len(tried)
    want = [seed for v, seed in zip(tried, seeds)
            if first[(v[0], g.adj_mask(v))] == v]
    assert list(structure._split_pivot_candidates(g, k, n, nbrs)) == want


# -- iterative refinement ----------------------------------------------------------------


def test_iterate_complete_graph_splits_fully():
    g = complete_multipartite([4, 4, 4])
    res = iterate_decomposition(g, 2, [Fraction(1, 100), Fraction(1, 10)])
    assert res.decomposition.s == 2
    assert res.min_diagonal_density == 1
    assert len(res.events) == 1


def test_iterate_unsplittable_stays_single_row():
    g = random_equal_graph(3, 4, seed=5, keep=0.5)
    res = iterate_decomposition(g, 2, [Fraction(1, 100), Fraction(1, 10)])
    assert res.decomposition.s == 1
    assert res.min_diagonal_density == 1  # single-row convention


def test_iterate_recovers_planted_three_rows():
    # three planted unit rows, complete between different rows and columns
    r, n = 3, 2
    g = MultipartiteGraph([3 * n] * r)
    edges = []
    for j1 in range(r):
        for j2 in range(j1 + 1, r):
            for o1 in range(3 * n):
                for o2 in range(3 * n):
                    if o1 // n != o2 // n:
                        edges.append(((j1, o1), (j2, o2)))
    g = g.with_edges(edges)
    res = iterate_decomposition(
        g, 3, [Fraction(1, 100), Fraction(1, 10), Fraction(1, 4)])
    assert res.decomposition.s == 3
    assert res.decomposition.weights == (1, 1, 1)
    got_rows = set()
    for i in range(3):
        blocks = {tuple(sorted(res.decomposition.rows[i][j])) for j in range(r)}
        assert len(blocks) == 1  # same offsets in every class
        got_rows.add(blocks.pop())
    assert got_rows == {(0, 1), (2, 3), (4, 5)}
    assert len(res.events) <= 2  # terminates within k-1 splits


def test_iterate_requires_ascending_thresholds():
    g = complete_multipartite([2, 2])
    with pytest.raises(ValueError):
        iterate_decomposition(g, 2, [Fraction(1, 10), Fraction(1, 10)])


# -- integer lattices ------------------------------------------------------------------


def test_lattice_even_coordinate_example():
    lat = IntegerLattice(2, [(-2, 2), (0, 1)])
    assert (2, 5) in lat
    assert (4, 0) in lat
    assert (1, 1) not in lat
    assert (3, 7) not in lat


def test_lattice_membership_matches_solvability():
    lat = IntegerLattice(3, [(1, 1, 0), (0, 2, 1)])
    # brute force small integer combinations as the oracle
    attainable = set()
    for a in range(-6, 7):
        for b in range(-6, 7):
            attainable.add((a, a + 2 * b, b))
    for vec in sorted(attainable):
        if all(abs(x) <= 3 for x in vec):
            assert vec in lat
    assert (1, 0, 0) not in lat


def test_lattice_canonical_basis_order_invariant():
    gens = [(2, 0, 2), (0, 3, 1), (2, 3, 3), (4, 3, 5)]
    lat1 = IntegerLattice(3, gens)
    rng = random.Random(4)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert IntegerLattice(3, shuffled).basis == lat1.basis


def test_robust_edge_lattice_thresholds():
    lab = PartitionLabeling(2, ((0, 0), (1, 1)))
    edges = [[(0, 0), (1, 0)]] * 5
    lat = robust_edge_lattice(edges, lab, 3)
    assert (1, 1) in lat and (2, 2) in lat
    assert (1, 0) not in lat
    lat0 = robust_edge_lattice(edges, lab, 0)
    assert lat0.basis == lat.basis


def test_completeness_checks():
    lab = PartitionLabeling(2, ((0, 0), (1, 1)))  # parts are the classes
    full = IntegerLattice(2, [(1, 0), (0, 1)])
    ok, pair = is_complete_wrt(full, lab)
    assert ok and pair is None

    split = PartitionLabeling(3, ((0, 1), (2, 2)))  # class 0 split in two
    zero = IntegerLattice(3, [])
    ok, pair = is_complete_wrt(zero, split)
    assert not ok and pair == (0, 1)


def test_divisibility_barrier_lattice_matches_hand_computation():
    g, lab = divisibility_barrier_graph(3, 1)
    lat = robust_edge_lattice(clique_complex_edges(g, 2), lab, 1)
    # within-half pairs are attained, cross pairs are not
    assert (1, 0, 1, 0, 0, 0) in lat   # S_0 + S_1
    assert (1, 0, 0, 1, 0, 0) not in lat
    ok, pair = is_complete_wrt(lat, lab)
    assert not ok
    minimal_lab, minimal_lat = merge_to_minimal(lab, lat)
    assert minimal_lab.d == 6  # nothing merges: the split is genuinely needed


def test_merge_to_minimal_collapses_redundant_split():
    g = complete_multipartite([2, 2])
    lab = PartitionLabeling(3, ((0, 1), (2, 2)))
    lat = robust_edge_lattice(clique_complex_edges(g, 2), lab, 1)
    merged_lab, merged_lat = merge_to_minimal(lab, lat)
    assert merged_lab.d == 2
    ok, _ = is_complete_wrt(merged_lat, merged_lab)
    assert ok


# -- barrier diagnosis ----------------------------------------------------------------------


def test_diagnose_space_barrier_blow_up():
    g, planted = space_barrier_graph(3, 2, 2, 1)
    report = diagnose_barriers(g, 2, d=Fraction(1, 4))
    assert report["space_exhaustive"]
    hits = [c for c in report["space"]
            if c["sets"] == planted and c["violating_cliques"] == 0]
    assert hits


def test_diagnose_complete_graph_clean():
    g = complete_multipartite([4, 4, 4])
    report = diagnose_barriers(g, 2, d=Fraction(1, 4), floor=1)
    assert report["space"] == []
    assert report["divisibility"] == []
    assert report["pair_complete"] is None
    assert report["splittable"] is not None  # complete graphs always split


def test_diagnose_divisibility_blow_up():
    g, _ = divisibility_barrier_graph(3, 2)
    report = diagnose_barriers(g, 2, d=Fraction(1, 100), floor=1)
    assert report["pair_complete"] is not None
    assert report["divisibility"]
    entry = report["divisibility"][0]
    assert entry["d"] == 6
    assert entry["violating_pair"] is not None


def test_diagnosis_budget_draws_no_more_candidates_than_it_must():
    # r-tuples of the candidates are counted against the budget while the
    # candidates are drawn, so an endless supply is refused, not listed
    assert structure._budgeted(count(), 3, 200_000) is None
    assert structure._budgeted(iter(range(58)), 3, 200_000) == list(range(58))
    assert structure._budgeted(iter(range(59)), 3, 200_000) is None
    assert structure._budgeted(iter(range(4)), 3, 64) == list(range(4))
    assert structure._budgeted(iter(range(5)), 3, 64) is None


def test_row_decomposition_validation():
    with pytest.raises(ValueError):
        RowDecomposition((1, 1), 2, ((frozenset({0, 1}), frozenset({0, 1})),
                                     (frozenset({0, 1}), frozenset({2, 3}))))
    d = RowDecomposition((1, 1), 2,
                         ((frozenset({0, 1}), frozenset({0, 1})),
                          (frozenset({2, 3}), frozenset({2, 3}))))
    assert d.row_vertices(1) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_min_diagonal_density_two_rows():
    g = two_row_graph(3, 2)
    d = RowDecomposition((1, 1), 2,
                         (tuple(frozenset({0, 1}) for _ in range(3)),
                          tuple(frozenset({2, 3}) for _ in range(3))))
    assert min_diagonal_density(g, d) == 1
