"""Differential tests: the integer, incremental detection heuristics return
exactly the witnesses of the Fraction-scored reference they replaced
(`detection_reference`), on seeded (graph, weight, threshold) cases, both
with the pivot seeds in play and with them switched off so that every
witness comes from the hill climb."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import detection_reference as ref
from partite_packing import structure
from partite_packing.graphs import (MultipartiteGraph, blow_up, build_gamma,
                                    mask_ids)
from partite_packing.oracle import random_min_degree_graph
from test_oracle import relabeled_copy

THRESHOLDS = (Fraction(1, 100), Fraction(1, 10), Fraction(1, 4))


def _shuffled_rows(rng, r, size, cut):
    """Per class, a random set of `cut` offsets (True) and the rest."""
    rows = []
    for _ in range(r):
        top = set(rng.sample(range(size), cut))
        rows.append([o in top for o in range(size)])
    return rows


def planted_split_graph(r, p, n, p_prime, noise, seed):
    """Two planted rows of weights p_prime and p - p_prime: edges between
    different rows are kept with probability 1 - noise, edges inside a row
    with probability 1/2."""
    rng = random.Random(f"split-case:{seed}")
    size = p * n
    top = _shuffled_rows(rng, r, size, p_prime * n)
    edges = []
    for a in range(r):
        for b in range(a + 1, r):
            for o1 in range(size):
                for o2 in range(size):
                    if top[a][o1] != top[b][o2]:
                        keep = rng.random() >= noise
                    else:
                        keep = rng.random() < 0.5
                    if keep:
                        edges.append(((a, o1), (b, o2)))
    return MultipartiteGraph([size] * r, edges)


def planted_halves_graph(r, n, noise, seed):
    """Planted halves: same-half edges kept with probability 1 - noise,
    cross-half edges with probability noise."""
    rng = random.Random(f"pc-case:{seed}")
    size = 2 * n
    top = _shuffled_rows(rng, r, size, n)
    edges = []
    for a in range(r):
        for b in range(a + 1, r):
            for o1 in range(size):
                for o2 in range(size):
                    same = top[a][o1] == top[b][o2]
                    if (rng.random() >= noise) if same else (rng.random() < noise):
                        edges.append(((a, o1), (b, o2)))
    return MultipartiteGraph([size] * r, edges)


def split_cases():
    cases = []
    for r in (3, 4):
        for p, n in ((2, 2), (2, 3), (3, 2)):
            for noise in (0.0, 0.1, 0.3):
                for p_prime in range(1, p):
                    for d in THRESHOLDS:
                        seed = len(cases)
                        g = planted_split_graph(r, p, n, p_prime, noise, seed)
                        cases.append((f"planted r={r} p={p} n={n} p'={p_prime} "
                                      f"noise={noise} d={d}", g, p, d, seed % 5))
    for r, size, k in ((3, 4, 2), (4, 4, 2), (3, 6, 2), (3, 6, 3)):
        for s in range(3):
            for d in THRESHOLDS:
                g = random_min_degree_graph(r, size, k, s)
                cases.append((f"threshold r={r} size={size} k={k} seed={s} d={d}",
                              g, k, d, s))
    # twin-heavy rows like pipeline-scale's: shuffled blow-ups of Gamma, whose
    # vertices share a few neighbourhoods, and pair-complete rows (complete
    # within each half, empty across), which have no split once r >= 3 and
    # send the climb through every restart when d*t*c >= 1
    # (some with more than 80 moves, so the climb samples a part of them)
    for (n, r, k), factor in (((3, 4, 3), 2), ((3, 4, 3), 4), ((3, 4, 3), 6),
                              ((2, 3, 2), 3), ((4, 4, 4), 2)):
        for d in THRESHOLDS:
            seed = len(cases)
            g = relabeled_copy(blow_up(build_gamma(n, r, k).graph, factor), seed)
            cases.append((f"gamma blow-up ({n},{r},{k})x{factor} d={d}",
                          g, k, d, seed % 5))
    for r in (3, 4):
        for n in (3, 5, 9):
            for d in THRESHOLDS:
                seed = len(cases)
                g = planted_halves_graph(r, n, 0.0, seed)
                cases.append((f"pair-complete r={r} n={n} d={d}", g, 2, d,
                              seed % 5))
    return cases


def pc_cases():
    cases = []
    for r in (2, 3, 4):
        for n in (2, 3):
            for noise in (0.0, 0.1, 0.2, 0.3):
                for d in THRESHOLDS:
                    seed = len(cases)
                    g = planted_halves_graph(r, n, noise, seed)
                    cases.append((f"halves r={r} n={n} noise={noise} d={d}",
                                  g, d, seed % 3))
    for r, size, k in ((2, 6, 2), (3, 4, 2), (4, 6, 2), (3, 6, 3)):
        for s in range(3):
            for d in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
                g = random_min_degree_graph(r, size, k, s)
                cases.append((f"threshold r={r} size={size} k={k} seed={s} d={d}",
                              g, d, s))
    return cases


def _no_pivots(*args):
    return iter(())


def offsets(g, masks):
    """Per-class flat-id masks of g as the reference's offset tuples."""
    return [tuple(mask_ids(m >> g._off[j])) for j, m in enumerate(masks)]


def _split_key(w):
    return None if w is None else (w.p_prime, [tuple(s) for s in w.sets],
                                   w.achieved)


def _pc_key(w):
    return None if w is None else ([tuple(h) for h in w.halves],
                                   w.min_half_density, w.min_cohalf_density,
                                   w.max_cross_density)


@pytest.mark.parametrize("pivots", [True, False], ids=["pivots", "climb-only"])
def test_split_heuristic_matches_fraction_reference(monkeypatch, pivots):
    monkeypatch.setattr(structure, "EXACT_CLASS_CAP", 0)   # force the climb
    if not pivots:
        monkeypatch.setattr(structure, "_split_pivot_candidates", _no_pivots)
        monkeypatch.setattr(ref, "_split_pivot_candidates", _no_pivots)
    cases = split_cases()
    assert len(cases) >= 100
    hits = 0
    for name, g, p, d, seed in cases:
        n = g.class_sizes[0] // p
        want = ref._split_heuristic(g, p, n, d, seed, 8, 60)
        got = structure.is_splittable(g, p, d, seed=seed)
        if got is not None:
            got = replace(got, sets=offsets(g, got.sets))
        assert _split_key(got) == _split_key(want), name
        hits += want is not None
    # both outcomes occur, so the cases exercise the found and the absent path
    assert 20 <= hits <= len(cases) - 20


@pytest.mark.parametrize("pivots", [True, False], ids=["pivots", "climb-only"])
def test_pc_heuristic_matches_fraction_reference(monkeypatch, pivots):
    monkeypatch.setattr(structure, "EXACT_CLASS_CAP", 0)   # force the climb
    if not pivots:
        monkeypatch.setattr(structure, "_pc_pivot_candidates", _no_pivots)
        monkeypatch.setattr(ref, "_pc_pivot_candidates", _no_pivots)
    cases = pc_cases()
    assert len(cases) >= 100
    hits = 0
    for name, g, d, seed in cases:
        n = g.class_sizes[0] // 2
        want = ref._pc_heuristic(g, n, d, seed, 8, 60)
        got = structure.is_pair_complete(g, d, seed=seed)
        if got is not None:
            got = replace(got, halves=offsets(g, got.halves))
        assert _pc_key(got) == _pc_key(want), name
        hits += want is not None
    assert 10 <= hits <= len(cases) - 10
