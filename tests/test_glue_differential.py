"""Differential test: `glue_rows` takes each sigma group's minimum degree from
`_min_clique_degree` and its perfect matching from the oracle's
`exact_cover`, and both must equal the helpers they replaced
(`glue_reference`), on seeded random s-partite compatibility graphs."""

import random
from itertools import combinations, product

import glue_reference as ref
from partite_packing.graphs import (MultipartiteGraph, blow_up,
                                    complete_multipartite)
from partite_packing.oracle import exact_cover
from partite_packing.pipeline import _min_clique_degree
from test_graphs import isolated_pair_graph


def compat_cases():
    for copy in range(3000):
        rng = random.Random(f"glue-case:{copy}")
        s, n = rng.randint(2, 4), rng.randint(1, 6)
        density = rng.uniform(0.5, 0.95)
        edges = [((i1, t1), (i2, t2))
                 for i1 in range(s) for i2 in range(i1 + 1, s)
                 for t1 in range(n) for t2 in range(n)
                 if rng.random() < density]
        yield copy, s, n, MultipartiteGraph([n] * s, edges)


def test_glue_search_matches_reference():
    matched = unmatched = 0
    for copy, s, n, h in compat_cases():
        def compatible(i1, t1, i2, t2):
            return h.has_edge((i1, t1), (i2, t2))

        want_degree = min(ref._count_tuples(s, n, compatible, i1, t1)
                          for i1 in range(s) for t1 in range(n))
        assert _min_clique_degree(h) == want_degree, copy
        want = ref._s_partite_perfect_matching(s, n, compatible)
        got, _, completed = exact_cover(h, s)
        assert completed, copy
        if want is None:
            assert got is None, copy
            unmatched += 1
        else:
            assert got is not None, copy
            assert [tuple(h.vertex(f)[1] for f in c) for c in got] == want, copy
            matched += 1
    # both outcomes are common
    assert matched >= 1500 and unmatched >= 800


def product_min_degree(h):
    """Plain loop: for each vertex, every pick of one vertex per other class,
    kept when all its pairs are edges."""
    best = None
    for v in h.vertices():
        others = [[(c, o) for o in range(h.class_sizes[c])]
                  for c in range(h.r) if c != v[0]]
        count = sum(1 for pick in product(*others)
                    if all(h.has_edge(a, b)
                           for a, b in combinations((v,) + pick, 2)))
        best = count if best is None else min(best, count)
    return best


def test_min_clique_degree_matches_product_count():
    """`_min_clique_degree` counts once per twin class and multiplies: on
    blow-ups and complete graphs (all twins), on random graphs (few), and on
    a graph whose one twin class of isolated vertices spans two classes."""
    cases = [complete_multipartite([n] * s) for s in (2, 3, 4) for n in (1, 3, 5)]
    cases.append(isolated_pair_graph())
    for copy in range(40):
        rng = random.Random(f"clique-degree:{copy}")
        s, n = rng.randint(2, 4), rng.randint(1, 3)
        edges = [((i1, t1), (i2, t2))
                 for i1 in range(s) for i2 in range(i1 + 1, s)
                 for t1 in range(n) for t2 in range(n)
                 if rng.random() < rng.choice((0.6, 0.9))]
        base = MultipartiteGraph([n] * s, edges)
        cases += [base, blow_up(base, rng.randint(2, 3))]
    positive = 0
    for h in cases:
        want = product_min_degree(h)
        assert _min_clique_degree(h) == want, h
        positive += want > 0
    assert 20 <= positive <= len(cases) - 10
