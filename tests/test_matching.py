"""Degree-sequence realization, transversals, bipartite matchings, two-half
balanced matchings, and the exact balanced packing search."""

import random
from fractions import Fraction
from itertools import product

import pytest

import search_reference
from partite_packing.graphs import (MultipartiteGraph, build_gamma,
                                    complete_multipartite)
from partite_packing.matching import (ParityObstruction,
                                      bipartite_maximum_matching,
                                      exact_balanced_clique_packing,
                                      is_multigraphic,
                                      pair_complete_balanced_matching,
                                      realize_multigraph,
                                      regular_bipartite_perfect_matching)
from partite_packing.oracle import brute_force_packing
from partite_packing.structure import divisibility_barrier_graph


# -- degree sequences ------------------------------------------------------------


def exists_multigraph_by_search(seq) -> bool:
    """Independent oracle: exhaustive edge-placement over sorted residues."""
    seen = set()

    def rec(residual):
        key = tuple(sorted(residual, reverse=True))
        if key in seen:
            return False
        if all(d == 0 for d in residual):
            return True
        seen.add(key)
        order = sorted(range(len(residual)), key=lambda i: -residual[i])
        i = order[0]
        for j in order[1:]:
            if residual[j] == 0 or residual[i] == 0:
                continue
            nxt = list(residual)
            nxt[i] -= 1
            nxt[j] -= 1
            if rec(nxt):
                return True
        return False

    return rec(list(seq))


def descending_sequences(total_max):
    out = []

    def rec(prefix, cap, left):
        if prefix:
            out.append(tuple(prefix))
        if left == 0:
            return
        for d in range(min(cap, left), 0, -1):
            rec(prefix + [d], d, left - d)

    rec([], total_max, total_max)
    return out


def test_multigraphic_examples():
    assert is_multigraphic([2, 1, 1])
    assert not is_multigraphic([3, 1])
    assert not is_multigraphic([1, 1, 1])
    assert is_multigraphic([])
    with pytest.raises(ValueError):
        is_multigraphic([1, 2])


def test_multigraphic_agrees_with_search_small():
    for seq in descending_sequences(8):
        assert is_multigraphic(list(seq)) == exists_multigraph_by_search(seq), seq


def test_realize_degree_recount():
    for seq in [(2, 1, 1), (2, 2, 2), (4, 3, 3, 2), (6, 2, 2, 2)]:
        edges = realize_multigraph(list(seq))
        degs = [0] * len(seq)
        for u, v in edges:
            assert u != v
            degs[u] += 1
            degs[v] += 1
        assert degs == list(seq)
    assert realize_multigraph([0, 0]) == []
    with pytest.raises(ValueError):
        realize_multigraph([3, 1])


# -- transversals -------------------------------------------------------------------
# A transversal of a rows x cols rectangle picks one cell per row, all in
# distinct columns and none colored: a maximum matching on the uncolored
# cells that covers every row.


def _transversal(rows, cols, colored):
    allowed = [[ci for ci in range(cols) if (ri, ci) not in colored]
               for ri in range(rows)]
    cells = bipartite_maximum_matching(rows, cols, allowed)
    return cells if len(cells) == rows else None


def _valid_transversal(rows, colored, cells):
    return (len(cells) == rows and len({ri for ri, _ in cells}) == rows
            and len({ci for _, ci in cells}) == rows
            and not any(c in colored for c in cells))


def _recursive_matching(n_left, adj):
    """Independent reference for the search order: each left vertex in turn,
    right neighbours ascending, augmenting paths by plain recursion."""
    match_r = {}

    def augment(u, visited):
        for v in sorted(set(adj[u])):
            if v not in visited:
                visited.add(v)
                if v not in match_r or augment(match_r[v], visited):
                    match_r[v] = u
                    return True
        return False

    for u in range(n_left):
        augment(u, set())
    return sorted((u, v) for v, u in match_r.items())


def test_bipartite_matching_keeps_the_recursive_order():
    rng = random.Random("bipartite-order")
    for _ in range(500):
        n_left, n_right = rng.randint(0, 8), rng.randint(1, 8)
        adj = [rng.sample(range(n_right), rng.randint(0, n_right))
               for _ in range(n_left)]
        assert (bipartite_maximum_matching(n_left, n_right, adj)
                == _recursive_matching(n_left, adj)), adj


def test_bipartite_matching_follows_a_3000_step_augmenting_path():
    # the last left vertex's one neighbour is taken, and freeing it moves
    # every other left vertex one place along the chain: the unique perfect
    # matching, reached through one augmenting path past the recursion limit
    n = 3000
    adj = [[u, u + 1] for u in range(n - 1)] + [[0]]
    assert (bipartite_maximum_matching(n, n, adj)
            == [(u, (u + 1) % n) for u in range(n)])


def test_transversal_examples():
    assert _transversal(1, 1, set()) == [(0, 0)]
    assert _transversal(0, 3, set()) == []
    colored = {(1, 1), (1, 2), (0, 0)}
    assert _valid_transversal(2, colored, _transversal(2, 3, colored))


def test_transversal_exhaustive_small_rectangles():
    # every coloring with <= 1 per column and <= cols-1 per row always works
    for s in range(0, 4):
        for r in range(max(s, 1), 5):
            for pick in product(*[range(-1, s) for _ in range(r)]):
                colored = frozenset((ri, ci) for ci, ri in enumerate(pick)
                                    if ri >= 0)
                row_counts = {}
                for ri, _ in colored:
                    row_counts[ri] = row_counts.get(ri, 0) + 1
                if any(c > r - 1 for c in row_counts.values()):
                    continue
                got = _transversal(s, r, colored)
                assert got is not None, (s, r, colored)
                assert _valid_transversal(s, colored, got), (s, r, colored)


def test_transversal_fallback_reports_absence():
    # fully colored single row: hypotheses fail and no transversal exists
    assert _transversal(1, 2, {(0, 0), (0, 1)}) is None


# -- bipartite matchings ----------------------------------------------------------------


def test_regular_bipartite_examples():
    identity = [[0], [1], [2]]
    assert regular_bipartite_perfect_matching(3, 3, identity) == [(0, 0), (1, 1), (2, 2)]
    k33 = [[0, 1, 2]] * 3
    got = regular_bipartite_perfect_matching(3, 3, k33)
    assert sorted(u for u, _ in got) == [0, 1, 2]
    assert sorted(v for _, v in got) == [0, 1, 2]
    cycle6 = [[0, 1], [1, 2], [2, 0]]
    got = regular_bipartite_perfect_matching(3, 3, cycle6)
    assert got is not None and len(got) == 3


def test_general_bipartite_absence():
    assert regular_bipartite_perfect_matching(2, 2, [[0], [0]]) is None


# -- two-half balanced matchings -----------------------------------------------------------


def test_pair_complete_matching_small_exact_halves():
    g, _ = divisibility_barrier_graph(3, 2)
    got = pair_complete_balanced_matching(g, [[0, 1]] * 3, Fraction(0))
    assert got.verify(g, perfect=True) == []
    assert set(got.index_counts.values()) == {2}


def test_pair_complete_matching_parity_error():
    g, _ = divisibility_barrier_graph(3, 2)
    with pytest.raises(ParityObstruction):
        pair_complete_balanced_matching(g, [[0, 1], [0, 1], [0]], Fraction(1, 2))


def test_pair_complete_matching_complete_graph_any_split():
    g = complete_multipartite([4, 4, 4])
    got = pair_complete_balanced_matching(g, [[0, 1], [0, 2], [1, 3]], Fraction(1))
    assert got.verify(g, perfect=True) == []
    assert got.is_balanced()


def test_pair_complete_matching_with_deletions_and_excess():
    # uneven halves (7, 7, 6) exercise the excess-realization path; a few
    # deleted intra-half edges exercise the tolerance checks
    rng = random.Random(11)
    r, n = 3, 6
    g, _ = divisibility_barrier_graph(r, 7, 5)
    halves = [[0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5]]
    # offset 6 of class 2 sits on the sparse side: detach it from the X side
    drop = [((2, 6), (j, o)) for j in (0, 1) for o in range(7)]
    for j in range(r):
        j2 = (j + 1) % r
        drop.append(((j, rng.randrange(5)), (j2, rng.randrange(5))))
    g = g.without_edges(drop)
    g = g.with_edges([((2, 6), (j, o)) for j in (0, 1) for o in range(7, 12)])
    got = pair_complete_balanced_matching(g, halves, Fraction(1, 3))
    assert got.verify(g, perfect=True) == []
    assert got.is_balanced()


# -- exact balanced packing search ----------------------------------------------------------


def test_exact_search_complete_balanced_counts():
    g = complete_multipartite([4, 4, 4])
    res = exact_balanced_clique_packing(g, 2, True)
    assert res.completed and res.packing is not None
    want = (3 * 4 // 2) // 3
    assert set(res.packing.index_counts.values()) == {want}


def test_exact_search_gamma_absent_with_certainty():
    g = build_gamma(3, 3, 3).graph
    res = exact_balanced_clique_packing(g, 3, False)
    assert res.packing is None and res.completed


def test_exact_search_empty_graph():
    g = MultipartiteGraph([2, 2])
    res = exact_balanced_clique_packing(g, 2, False)
    assert res.packing is None and res.completed


def test_exact_search_budget_distinguished():
    g = complete_multipartite([6, 6, 6, 6])
    res = exact_balanced_clique_packing(g, 2, True, budget=2)
    assert res.packing is None and not res.completed


def test_exact_search_clique_wider_than_class_count():
    g = complete_multipartite([2, 2])
    for balanced in (True, False):
        res = exact_balanced_clique_packing(g, 4, balanced)
        assert res.packing is None and res.completed
    verdict = brute_force_packing(g, 4)
    assert not verdict.exists and verdict.completed


def test_exact_search_rejects_nonpositive_clique_size():
    g = complete_multipartite([2, 2])
    for p in (0, -1):
        with pytest.raises(ValueError):
            exact_balanced_clique_packing(g, p, True)
        with pytest.raises(ValueError):
            brute_force_packing(g, p)


def test_exact_search_balanced_singletons_need_equal_classes():
    # four singletons, quota 2 per class: classes of sizes 1 and 3 cannot
    # be balanced, even though every vertex is a 1-clique
    res = exact_balanced_clique_packing(complete_multipartite([1, 3]), 1, True)
    assert res.packing is None and res.completed
    res = exact_balanced_clique_packing(complete_multipartite([2, 2]), 1, True)
    assert res.packing is not None and res.packing.is_balanced()


def test_exact_search_agrees_with_oracle():
    for seed in range(40):
        rng = random.Random(f"xs:{seed}")
        r = rng.choice([2, 3, 4])
        p = rng.choice([x for x in (2, 3) if x <= r])
        n = rng.choice([x for x in (1, 2, 3) if (r * x) <= 12 and (r * x * 1) % 1 == 0])
        size = p * n if (p * n * r) % p == 0 else p
        base = complete_multipartite([size] * r)
        g = base.without_edges([e for e in base.edges() if rng.random() < 0.35])
        # the stand-alone search, not the entry point that shares the
        # oracle's kernel, so the two verdicts come from separate code
        res = search_reference.exact_balanced_clique_packing(g, p, False)
        oracle = brute_force_packing(g, p)
        assert res.completed and oracle.completed
        assert (res.packing is not None) == oracle.exists
        # same branching order, so the same first packing
        assert res.packing == oracle.witness


def test_realize_recount_exhaustive_to_24():
    # every multigraphic descending sequence with degree sum at most 24
    def sequences(total_cap):
        def rec(prefix, cap, left):
            if prefix:
                yield tuple(prefix)
            for d in range(min(cap, left), 0, -1):
                yield from rec(prefix + [d], d, left - d)
        yield from rec([], total_cap, total_cap)

    n_realized = 0
    for seq in sequences(24):
        if not is_multigraphic(list(seq)):
            continue
        degs = [0] * len(seq)
        for u, v in realize_multigraph(list(seq)):
            degs[u] += 1
            degs[v] += 1
        assert degs == list(seq), seq
        n_realized += 1
    assert n_realized > 500


def test_pair_complete_matching_four_classes():
    # r = 4 needs 3 | 2n; halves with mixed excesses over classes of size 12
    rng = random.Random(23)
    r, n = 4, 6
    g, _ = divisibility_barrier_graph(r, 7, 5)
    halves = [list(range(7)), list(range(7)), list(range(6)), list(range(6))]
    for j in (2, 3):
        # the leftover seventh dense-side vertex joins the sparse side fully
        g = g.without_edges([((j, 6), (j2, o)) for j2 in range(r) if j2 != j
                             for o in range(7)])
        g = g.with_edges([((j, 6), (j2, o)) for j2 in range(r) if j2 != j
                          for o in range(7, 12)])
    drop = []
    for j in range(r):
        j2 = (j + 1) % r
        drop.append(((j, rng.randrange(5)), (j2, rng.randrange(5))))
    g = g.without_edges(drop)
    got = pair_complete_balanced_matching(g, halves, Fraction(1, 3))
    assert got.verify(g, perfect=True) == []
    assert got.is_balanced()
    assert len(got.index_counts) == 6
