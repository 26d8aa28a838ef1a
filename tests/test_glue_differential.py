"""Differential test: `glue_rows` takes each sigma group's minimum degree from
`_min_clique_degree` and its perfect matching from the oracle's
`exact_cover`, and both must equal the helpers they replaced
(`glue_reference`), on seeded random s-partite compatibility graphs."""

import random

import glue_reference as ref
from partite_packing.graphs import MultipartiteGraph
from partite_packing.oracle import exact_cover
from partite_packing.pipeline import _min_clique_degree


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
            assert [tuple(t for _, t in c) for c in got.cliques] == want, copy
            matched += 1
    # both outcomes are common
    assert matched >= 1500 and unmatched >= 800
