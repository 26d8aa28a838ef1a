"""Differential tests: the oracle's `exact_cover` kernel returns exactly the
packing and the completion flag of the stand-alone search it replaced
(`search_reference`), on seeded small graphs with and without the balance
requirement; the balanced cases go through its entry point
`exact_balanced_clique_packing`."""

import random
from math import comb

import search_reference as ref
from partite_packing.graphs import MultipartiteGraph, complete_multipartite
from partite_packing.matching import (SearchResult,
                                      exact_balanced_clique_packing)
from partite_packing.oracle import exact_cover
from test_graphs import named

# A planted balanced triangle packing of K(6,6,6,6,6), one triangle per class
# triple, plus four stray edges.  The search meets one uncovered set twice
# with different per-index counts; the first visit fails, and a memo keyed
# on the uncovered set alone would then wrongly report "no packing".  No such
# graph exists on 24 vertices or fewer: a balanced packing needs classes of
# C(r-1, p-1) * quota vertices, so there p is 1, 2, r - 1 or r, and for
# those the uncovered set fixes the counts (for p = 2 because the search
# always extends the least uncovered vertex).
MEMO_TRAP = MultipartiteGraph([6] * 5, [
    ((0, 0), (1, 0)), ((0, 0), (2, 1)), ((0, 1), (3, 0)), ((0, 1), (4, 2)),
    ((0, 2), (2, 2)), ((0, 2), (3, 4)), ((0, 2), (4, 0)), ((0, 3), (1, 1)),
    ((0, 3), (3, 4)), ((0, 3), (4, 0)), ((0, 4), (1, 2)), ((0, 4), (4, 4)),
    ((0, 5), (2, 0)), ((0, 5), (3, 2)), ((1, 0), (2, 1)), ((1, 1), (3, 4)),
    ((1, 1), (4, 0)), ((1, 2), (4, 4)), ((1, 3), (3, 5)), ((1, 3), (4, 1)),
    ((1, 4), (2, 5)), ((1, 4), (4, 5)), ((1, 5), (2, 4)), ((1, 5), (3, 3)),
    ((2, 0), (3, 2)), ((2, 2), (3, 4)), ((2, 2), (4, 0)), ((2, 3), (3, 1)),
    ((2, 3), (4, 3)), ((2, 4), (3, 3)), ((2, 5), (4, 5)), ((3, 0), (4, 2)),
    ((3, 1), (4, 3)), ((3, 5), (4, 1))])


def _size(rng, r, p, balanced):
    """A class size with at most 20 vertices in all; under balance, one that
    gives a whole quota per index whenever such a size exists."""
    sizes = [s for s in range(1, 7) if r * s <= 20 and (r * s) % p == 0] or [p]
    if balanced and p <= r:
        whole = [s for s in sizes if (r * s // p) % comb(r, p) == 0]
        sizes = whole or sizes
    return rng.choice(sizes)


def search_cases():
    cases = []
    for r in (2, 3, 4, 5):
        for p in (1, 2, 3):
            for balanced in (False, True):
                for copy in range(5):
                    rng = random.Random(f"search-case:{r}:{p}:{balanced}:{copy}")
                    base = complete_multipartite([_size(rng, r, p, balanced)] * r)
                    drop = rng.choice((0.0, 0.15, 0.3, 0.45))
                    g = base.without_edges(
                        [e for e in base.edges() if rng.random() < drop])
                    cases.append((f"r={r} p={p} balanced={balanced} copy={copy}",
                                  g, p, balanced))
    cases.append(("memo trap", MEMO_TRAP, 3, True))
    return cases


def kernel(g, p, balanced):
    """The kernel's answer in the reference's shape, its cliques named: the
    balanced entry point, or `exact_cover` with no quota."""
    if balanced:
        res = exact_balanced_clique_packing(g, p)
    else:
        cliques, nodes, completed = exact_cover(g, p)
        res = SearchResult(cliques, completed, nodes)
    if res.packing is not None:
        res.packing = named(g, res.packing)
    return res


def test_exact_search_matches_reference():
    cases = search_cases()
    assert len(cases) >= 100
    found = searched = 0
    for name, g, p, balanced in cases:
        got = kernel(g, p, balanced)
        if balanced and p > g.r:
            # the reference divides by C(r, p) = 0 here
            assert got.packing is None and got.completed, name
            continue
        want = ref.exact_balanced_clique_packing(g, p, balanced)
        assert got.completed == want.completed, name
        assert got.packing == want.packing, name
        # the kernel's prunes only cut subtrees the reference also explores
        assert got.nodes <= want.nodes, name
        found += want.packing is not None
        searched += want.nodes > 0
    # both outcomes occur, and most cases reach the search itself
    assert 20 <= found <= len(cases) - 20
    assert searched >= len(cases) // 2

