"""Differential test: the twin-class recogniser `is_isomorphic_to_gamma`
answers exactly as equality of the independent `canonical_form` search, on
shuffled extremal graphs, near misses, blow-ups, complete graphs, random
threshold graphs, wrong parameters, and graphs with Gamma's twin structure
but a different subpart pairing."""

import random
from functools import cache

from partite_packing.graphs import (MultipartiteGraph, blow_up, build_gamma,
                                    complete_multipartite)
from partite_packing.oracle import (canonical_form, is_isomorphic_to_gamma,
                                    random_min_degree_graph)
from test_oracle import relabeled_copy

# (n, r, k): r = k, k = 2 and r = 2 included; all cheap for canonical_form
PARAMS = [(2, 2, 2), (4, 2, 2), (6, 2, 2), (3, 3, 3), (6, 3, 3), (9, 3, 3),
          (4, 3, 2), (6, 3, 2), (2, 4, 2), (4, 4, 2), (3, 4, 3), (6, 4, 3),
          (4, 4, 4), (2, 5, 2), (3, 5, 3)]
# (n', r, k, factor): blow_up(Gamma(n', r, k), factor) is Gamma(n' factor, r, k)
BLOW_UPS = [(2, 2, 2, 2), (2, 2, 2, 3), (3, 3, 3, 2), (2, 3, 2, 3),
            (2, 4, 2, 2), (3, 4, 3, 2)]


@cache
def gamma_form(n, r, k):
    return canonical_form(build_gamma(n, r, k).graph)


def paired_graph(n, r, k, miss):
    """Classes of k subparts of size n/k, where subpart j of class a misses
    exactly subpart miss(a, b, j) of class b (a < b) and sees the rest.  With
    miss = 3 - j on {1, 2} and j above, this is Gamma(n, r, k)."""
    m = n // k
    edges = []
    for a in range(r):
        for b in range(a + 1, r):
            for oa in range(n):
                for ob in range(n):
                    if ob // m + 1 != miss(a, b, oa // m + 1):
                        edges.append(((a, oa), (b, ob)))
    return MultipartiteGraph([n] * r, edges)


def gamma_pairing(j):
    return 3 - j if j <= 2 else j


def cases():
    """(label, graph, (n, r, k)) triples."""
    for p in PARAMS:
        n, r, k = p
        gamma = build_gamma(n, r, k).graph
        rng = random.Random(f"gamma-diff:{p}")
        for s in range(3):
            yield f"shuffled Gamma{p} #{s}", relabeled_copy(gamma, f"{p}{s}"), p
        edges = gamma.edges()
        for s in range(2):
            minus = gamma.without_edges([rng.choice(edges)])
            yield f"Gamma{p} minus an edge #{s}", relabeled_copy(minus, s), p
        non_edges = [(u, v) for u in gamma.vertices() for v in gamma.vertices()
                     if u[0] < v[0] and not gamma.has_edge(u, v)]
        for s in range(2):
            plus = gamma.with_edges([rng.choice(non_edges)])
            yield f"Gamma{p} plus a forbidden edge #{s}", relabeled_copy(plus, s), p
        yield f"complete {r} x {n}", complete_multipartite([n] * r), p
        if n * r <= 18:
            for s in range(2):
                g = random_min_degree_graph(r, n, k, f"diff{s}")
                yield f"random threshold {p} #{s}", g, p
        if r >= 3:
            # every subpart misses its own label: Gamma's twin structure,
            # but the pairing classes 1 and 2 see between them is wrong
            twisted = paired_graph(n, r, k, lambda a, b, j: j)
            for s in range(2):
                yield f"twisted Gamma{p} #{s}", relabeled_copy(twisted, s), p
            # Gamma except on one pair of classes, whose pairing is another
            # bijection of the labels: only the final edge check can tell
            for s, other in enumerate(
                    [lambda j: j, lambda j: {1: 3, 3: 1}.get(j, j),
                     lambda j: {1: 2, 2: 1, 3: 4, 4: 3}.get(j, j)]):
                if k < 4 and s == 2:
                    continue
                pair = tuple(sorted(rng.sample(range(r), 2)))
                mixed = paired_graph(
                    n, r, k, lambda x, y, j: other(j) if (x, y) == pair
                    else gamma_pairing(j))
                yield (f"Gamma{p} repaired on {pair} #{s}",
                       relabeled_copy(mixed, s), p)
        # the same shuffle against every other parameter set
        for q in PARAMS:
            if q != p:
                yield f"Gamma{p} as Gamma{q}", relabeled_copy(gamma, "q"), q
    for n, r, k, factor in BLOW_UPS:
        big = blow_up(build_gamma(n, r, k).graph, factor)
        name = f"blow-up of Gamma{n, r, k} x{factor}"
        yield name, relabeled_copy(big, factor), (n * factor, r, k)
        yield f"{name} as Gamma{n, r, k}", big, (n, r, k)


def test_recogniser_agrees_with_canonical_form():
    total = isomorphic = 0
    forms = {}
    for label, g, (n, r, k) in cases():
        if g not in forms:
            forms[g] = canonical_form(g)
        expected = forms[g] == gamma_form(n, r, k)
        assert is_isomorphic_to_gamma(g, n, r, k) == expected, label
        total += 1
        isomorphic += expected
    assert total >= 400 and isomorphic >= 50, (total, isomorphic)


def test_twisted_gamma_is_rejected():
    for n, r, k in [(3, 3, 3), (9, 5, 3), (4, 4, 4)]:
        twisted = paired_graph(n, r, k, lambda a, b, j: j)
        assert paired_graph(n, r, k, lambda a, b, j: gamma_pairing(j)) == \
            build_gamma(n, r, k).graph
        assert not is_isomorphic_to_gamma(relabeled_copy(twisted, 1), n, r, k)


def test_empty_classes_are_gamma():
    assert is_isomorphic_to_gamma(MultipartiteGraph([0, 0, 0]), 0, 3, 3)
