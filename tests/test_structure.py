"""Splittability, pair-completeness, iterative refinement, lattices, and
barrier diagnosis."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import count

import pytest

from partite_packing import structure
from partite_packing.graphs import (MultipartiteGraph, blow_up, build_gamma,
                                    complete_multipartite, PartitionLabeling,
                                    clique_complex_edges, mask_ids)
from partite_packing.structure import (IntegerLattice, PairCompleteWitness,
                                       RowDecomposition, SplitWitness,
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
from test_detection_differential import offsets, planted_split_graph
from test_oracle import relabeled_copy


def row_masks(g, row):
    """Per-class offset selections (row[j]: offsets in class j) as the
    flat-id masks a RowDecomposition of g holds."""
    return tuple(g.mask_of((j, o) for o in sel) for j, sel in enumerate(row))


def offset_decomposition(g, weights, unit, rows):
    """The RowDecomposition of g whose block (i, j) holds the offsets
    rows[i][j] of class j."""
    return RowDecomposition(weights, unit,
                            tuple(row_masks(g, row) for row in rows))


def members(g, mask):
    """The vertices of a flat-id mask of g, ascending."""
    return [g.vertex(f) for f in range(g.n_vertices) if mask >> f & 1]


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


def test_split_heuristic_witnesses_are_verified(monkeypatch):
    monkeypatch.setattr(structure, "EXACT_CLASS_CAP", 0)   # force the climb
    g = complete_multipartite([6, 6, 6])
    w = is_splittable(g, 2, Fraction(1, 100), seed=3)
    assert w is not None
    assert verify_split_witness(g, w, Fraction(1, 100))


def test_split_witness_checker_rejects_bogus_sets():
    # on a complete graph every cross density is 1, so only the shape of the
    # sets can make the checker say no
    g = complete_multipartite([6, 6, 6])
    d = Fraction(1, 100)
    assert verify_split_witness(g, SplitWitness(
        1, list(row_masks(g, [(0, 1, 2), (1, 3, 5), (2, 4, 5)])), Fraction(0)), d)
    threes = list(row_masks(g, [(0, 1, 2)] * 3))
    bogus = [
        row_masks(g, [(0, 1, 2, 3), (0,), (0, 1, 2)]),    # unequal sizes
        row_masks(g, [(0, 1, 2), (0, 1, 2), (0, 1, 2, 3)]),
        [0, 0, 0],                                        # t = 0
        row_masks(g, [range(6)] * 3),                     # t = class size
        threes[:2],                                       # one set missing
        threes + threes[:1],                              # one set too many
        row_masks(g, [(0, 0, 1), (0, 1, 2), (0, 1, 2)]),  # a repeated offset
        [threes[0] ^ 0b100 | 1 << 6] + threes[1:],        # a bit in class 1
        [threes[1]] + threes[1:],                         # class 1's set
        threes[:2] + [threes[2] ^ 1 << 14 | 1 << 18],     # a bit outside g
        [-threes[0]] + threes[1:],                        # negative masks
        [~threes[0]] + threes[1:],
    ]
    for sets in bogus:
        assert not verify_split_witness(g, SplitWitness(1, list(sets),
                                                        Fraction(0)), d), sets
    # in place on a row: blocks of offsets 0-3, sets of 2
    blocks = row_masks(g, [range(4)] * 3)
    ok = list(row_masks(g, [(0, 1), (1, 2), (2, 3)]))
    assert verify_split_witness(g, SplitWitness(1, ok, Fraction(0)), d,
                                blocks=blocks)
    for sets in ([ok[0] ^ 1 | 1 << 4] + ok[1:],           # a bit outside the block
                 row_masks(g, [(0, 1), (1, 2), (1, 2, 3)]),
                 ok[:2], [-ok[0]] + ok[1:]):
        assert not verify_split_witness(g, SplitWitness(1, list(sets),
                                                        Fraction(0)), d,
                                        blocks=blocks), sets


def test_split_witness_size_must_match_weight(monkeypatch):
    monkeypatch.setattr(structure, "EXACT_CLASS_CAP", 0)   # force the climb
    g = complete_multipartite([12, 12, 12])
    d = Fraction(1, 100)
    w = is_splittable(g, 3, d, seed=1)
    assert w is not None and all(s.bit_count() == w.p_prime * 4 for s in w.sets)
    # a searcher answering p_prime = 1 with sets of 2n vertices: the sets
    # pass the density check, the size check in is_splittable stops them
    wrong = SplitWitness(1, list(row_masks(g, [range(8)] * 3)), Fraction(0))
    assert verify_split_witness(g, wrong, d)
    monkeypatch.setattr(structure, "_split_heuristic", lambda *args: wrong)
    with pytest.raises(AssertionError):
        is_splittable(g, 3, d, seed=1)


def _no_exact_search(*args):
    raise AssertionError("complete search above EXACT_CLASS_CAP")


def test_split_climbs_above_the_class_cap(monkeypatch):
    # classes of 12 exceed EXACT_CLASS_CAP: the seeded climb answers, and
    # its witness is verified
    monkeypatch.setattr(structure, "_split_exact", _no_exact_search)
    g = complete_multipartite([12] * 3)
    w = is_splittable(g, 2, Fraction(1, 4))
    assert w is not None and verify_split_witness(g, w, Fraction(1, 4))


def test_pair_complete_climbs_above_the_class_cap(monkeypatch):
    monkeypatch.setattr(structure, "_pc_exact", _no_exact_search)
    g, _ = divisibility_barrier_graph(3, 6)
    w = is_pair_complete(g, Fraction(1, 100))
    assert w is not None
    assert verify_pair_complete_witness(g, w, Fraction(1, 100))


def test_detection_searches_completely_up_to_the_class_cap(monkeypatch):
    def no_climb(*args):
        raise AssertionError("climb at most EXACT_CLASS_CAP")
    monkeypatch.setattr(structure, "_split_heuristic", no_climb)
    monkeypatch.setattr(structure, "_pc_heuristic", no_climb)
    size = structure.EXACT_CLASS_CAP
    assert is_splittable(complete_multipartite([size] * 3), 2,
                         Fraction(1, 4)) is not None
    g, _ = divisibility_barrier_graph(3, size // 2)
    assert is_pair_complete(g, Fraction(1, 100)) is not None


def test_split_rejects_uneven_classes():
    g = MultipartiteGraph([4, 2])
    with pytest.raises(ValueError):
        is_splittable(g, 2, Fraction(0))
    g = complete_multipartite([4, 4])
    for p in (0, -1):                   # a weight below 1
        with pytest.raises(ValueError):
            is_splittable(g, p, Fraction(0))
        with pytest.raises(ValueError):
            diagnose_barriers(g, p, d=Fraction(0))


def test_split_absent_on_empty_classes():
    # empty classes have no nonempty proper part to split off
    g = MultipartiteGraph([0, 0, 0])
    for p in (2, 3):
        assert is_splittable(g, p, Fraction(1, 4)) is None


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
                if not structure._split_refuted(g, g._class_masks, p, n, d):
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
    monkeypatch.setattr(structure, "EXACT_CLASS_CAP", 0)   # force the climb
    monkeypatch.setattr(structure, "_split_heuristic", no_search)
    for seed in (1, 2, 3):
        g = random_min_degree_graph(r, size, k, seed)
        assert is_splittable(g, k, Fraction(1, 100)) is None


# -- pair-completeness ----------------------------------------------------------------


def test_pair_complete_disjoint_halves():
    g, _ = divisibility_barrier_graph(3, 2)
    w = is_pair_complete(g, Fraction(0))
    assert w is not None
    assert w.max_cross_density == 0
    assert verify_pair_complete_witness(g, w, Fraction(0))


def test_pair_complete_witness_must_be_n_distinct_in_range_offsets():
    # the two complete halves are offsets 0-11 and 12-23 of every class;
    # a half that is not a set of n = 12 offsets must fail, not be rechecked
    # on the offsets it happens to list
    g, _ = divisibility_barrier_graph(4, 12)
    d = Fraction(1, 4)
    halves = list(row_masks(g, [range(12)] * 4))
    short = row_masks(g, [range(11)])[0]

    def witness(sets):
        return PairCompleteWitness(list(sets), Fraction(0), Fraction(0),
                                   Fraction(0))

    assert verify_pair_complete_witness(g, witness(halves), d)
    bogus = [
        [short] + halves[1:],                   # a short half
        [short] * 4,
        row_masks(g, [(0,) + tuple(range(11))] + [range(12)] * 3),  # repeated
        [short | 1 << 24] + halves[1:],         # a bit in class 1
        [halves[1]] + halves[1:],               # class 1's half
        halves[:3] + [halves[3] ^ 1 << 72 | 1 << 96],  # a bit outside g
        [-halves[0]] + halves[1:],              # negative masks
        [~halves[0]] + halves[1:],
        halves[:3] + [halves[3] | 1 << 84],     # unequal sizes
        halves[1:],                             # one half missing
        halves + halves[:1],                    # one half too many
    ]
    for h in bogus:
        assert not verify_pair_complete_witness(g, witness(h), d), h
    # in place on a row: blocks of offsets 6-17, halves 6-11
    blocks = row_masks(g, [range(6, 18)] * 4)
    ok = list(row_masks(g, [range(6, 12)] * 4))
    assert verify_pair_complete_witness(g, witness(ok), d, blocks=blocks)
    for h in ([ok[0] ^ 1 << 6 | 1] + ok[1:],      # a bit outside the block
              ok[:3] + [ok[3] | 1 << 84],
              ok[:3], [-ok[0]] + ok[1:]):
        assert not verify_pair_complete_witness(g, witness(h), d,
                                                blocks=blocks), h


def test_pair_complete_absent_on_complete_graph():
    g = complete_multipartite([2, 2, 2])
    assert is_pair_complete(g, Fraction(1, 4)) is None
    assert not naive_is_pair_complete(g, Fraction(1, 4))


def test_pair_complete_on_gamma_double_row():
    # first two subparts of each class, as a standalone graph
    gam = build_gamma(6, 3, 3)
    keep = [range(4)] * 3   # subpart size 2: offsets 0..3 are subparts 1, 2
    sub, _ = gam.graph.induced(gam.graph.mask_of(
        (j, o) for j, sel in enumerate(keep) for o in sel))
    w = is_pair_complete(sub, Fraction(0))
    assert w is not None
    halves = [{o for _, o in members(sub, h)} for h in w.halves]
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
    classes = g._class_masks
    n = size // 2
    want = [seed for v, seed in zip(pivots, ref._pc_pivot_candidates(g, n))
            if first[(v[0], g.adj_mask(v))] == v]
    assert [offsets(g, seed) for seed
            in structure._pc_pivot_candidates(g, classes, n)] == want

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
    assert [(p_prime, offsets(g, seed)) for p_prime, seed
            in structure._split_pivot_candidates(g, classes, k, n)] == want


# -- iterative refinement ----------------------------------------------------------------


def test_iterate_complete_graph_splits_fully():
    g = complete_multipartite([4, 4, 4])
    res = iterate_decomposition(g, 2)
    assert res.decomposition.s == 2
    assert res.min_diagonal_density == 1


def test_iterate_unsplittable_stays_single_row():
    g = random_equal_graph(3, 4, seed=5, keep=0.5)
    res = iterate_decomposition(g, 2)
    assert res.decomposition.s == 1
    assert res.min_diagonal_density == 1  # single-row convention


def planted_three_rows(r=3, n=2):
    """Three planted unit rows (offsets 0-1, 2-3, 4-5 of every class),
    complete between different rows and columns."""
    g = MultipartiteGraph([3 * n] * r)
    edges = []
    for j1 in range(r):
        for j2 in range(j1 + 1, r):
            for o1 in range(3 * n):
                for o2 in range(3 * n):
                    if o1 // n != o2 // n:
                        edges.append(((j1, o1), (j2, o2)))
    return g.with_edges(edges)


def test_iterate_recovers_planted_three_rows():
    r = 3
    g = planted_three_rows(r)
    res = iterate_decomposition(g, 3)
    assert res.decomposition.s == 3
    assert res.decomposition.weights == (1, 1, 1)
    got_rows = set()
    for i in range(3):
        blocks = {tuple(o for _, o in members(g, res.decomposition.rows[i][j]))
                  for j in range(r)}
        assert len(blocks) == 1  # same offsets in every class
        got_rows.add(blocks.pop())
    assert got_rows == {(0, 1), (2, 3), (4, 5)}


@pytest.mark.parametrize("g", [
    planted_three_rows(),
    relabeled_copy(blow_up(build_gamma(3, 4, 3).graph, 4), 5),
    blow_up(build_gamma(3, 4, 3).graph, 24),
], ids=["planted-three-rows", "gamma-x4-shuffled", "gamma-x24"])
def test_rows_searched_in_place_match_their_induced_copies(monkeypatch, g):
    # every row that iterate_decomposition searches, and every weight-2 row
    # it leaves, searched in place on g with the row's blocks must give the
    # witness that its induced copy gives with its classes, named back
    # through from_sub: the in-place search masks rows to the blocks
    calls = []
    split = structure.is_splittable

    def spy(g2, p, d, **kwargs):
        calls.append((p, d, kwargs["blocks"]))
        return split(g2, p, d, **kwargs)

    monkeypatch.setattr(structure, "is_splittable", spy)
    decomp = iterate_decomposition(g, 3).decomposition
    monkeypatch.undo()
    pc_rows = [row for row, w in zip(decomp.rows, decomp.weights) if w == 2]
    found = 0
    for search, field, cases in (
            (is_splittable, "sets", calls),
            (is_pair_complete, "halves",
             [(None, d, row) for row in pc_rows
              for d in (Fraction(1, 100), Fraction(1, 4))])):
        for p, d, row in cases:
            args = (d,) if p is None else (p, d)
            sub, from_sub = g.induced(sum(row))
            want = search(sub, *args)
            if want is not None:
                want = replace(want, **{field: [
                    sum(1 << from_sub[f] for f in mask_ids(m))
                    for m in getattr(want, field)]})
            assert search(g, *args, blocks=row) == want, (search, p, d)
            found += want is not None
    assert calls and found


def test_in_place_pivots_rank_by_rows_within_the_blocks():
    # a two-half row (offsets 0-5 and 6-11 of each class, complete within a
    # half, empty across) whose vertices of even offset share 48 neighbours
    # outside the row: ranked by whole rows, a pivot's own half would lose
    # its odd vertices to the other half's even ones; ranked within the
    # row's blocks, the first pivot gives the induced copy's witness
    g = MultipartiteGraph([36] * 3)
    edges = [((a, x), (b, y)) for a in range(3) for b in range(a + 1, 3)
             for x in range(12) for y in range(12) if x // 6 == y // 6]
    edges += [((a, x), (b, y)) for a in range(3) for b in range(3) if a != b
              for x in range(0, 12, 2) for y in range(12, 36)]
    g = g.with_edges(edges)
    row = row_masks(g, [range(12)] * 3)
    sub, from_sub = g.induced(sum(row))
    want = is_pair_complete(sub, Fraction(1, 100))
    assert want.halves == list(row_masks(sub, [range(6)] * 3))
    assert is_pair_complete(g, Fraction(1, 100), blocks=row).halves == list(
        row_masks(g, [range(6)] * 3))


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
    g = MultipartiteGraph([4, 4])
    with pytest.raises(ValueError):     # rows overlap in class 0
        offset_decomposition(g, (1, 1), 2, (({0, 1}, {0, 1}), ({0, 1}, {2, 3})))
    with pytest.raises(ValueError):     # a block of three vertices, not two
        offset_decomposition(g, (1, 1), 2, (({0, 1}, {0, 1}), ({2, 3}, {1, 2, 3})))
    d = offset_decomposition(g, (1, 1), 2, (({0, 1}, {0, 1}), ({2, 3}, {2, 3})))
    assert [v for block in d.rows[1] for v in members(g, block)] == [
        (0, 2), (0, 3), (1, 2), (1, 3)]


def test_min_diagonal_density_two_rows():
    g = two_row_graph(3, 2)
    d = offset_decomposition(g, (1, 1), 2, ([{0, 1}] * 3, [{2, 3}] * 3))
    assert min_diagonal_density(g, d) == 1
