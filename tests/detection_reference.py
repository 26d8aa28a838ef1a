"""Test-only references for split and pair-completeness detection.

- `naive_is_splittable` / `naive_is_pair_complete`: full enumeration through
  `graphs.density`, with no pruning; ground truth for the exact searches.
- The Fraction-scored heuristics as they were before the integer,
  incremental rewrite in `partite_packing.structure`, kept verbatim but for
  the move draw and the witness check: the split climb takes its 80 trial
  moves by `rng.sample` over indices into its move list, as the rewrite
  does, where it once shuffled the whole list, and a witness is checked
  through `graphs.density` on its offsets (`_split_density`,
  `_pc_densities`), as the package once checked it, where the package now
  checks flat-id masks.  The differential tests assert that the rewrite
  returns the same witnesses, named by offsets.

Not collected by pytest (no test_ prefix).
"""

import random
from fractions import Fraction
from itertools import combinations

from partite_packing.graphs import MultipartiteGraph, density
from partite_packing.structure import PairCompleteWitness, SplitWitness


def naive_is_splittable(g: MultipartiteGraph, p: int, d: Fraction) -> bool:
    """Independent full-enumeration checker (no pruning); test oracle only."""
    size = g.class_sizes[0]
    n = size // p
    from itertools import product
    for p_prime in range(1, p):
        target = p_prime * n
        options = list(combinations(range(size), target))
        for pick in product(options, repeat=g.r):
            ok = True
            for a in range(g.r):
                for b in range(g.r):
                    if a == b:
                        continue
                    s_a = [(a, o) for o in pick[a]]
                    comp_b = [(b, o) for o in range(size) if o not in pick[b]]
                    if density(g, s_a, comp_b) < 1 - d:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def naive_is_pair_complete(g: MultipartiteGraph, d: Fraction) -> bool:
    """Independent full-enumeration checker; test oracle only."""
    from itertools import product
    size = g.class_sizes[0]
    n = size // 2
    options = list(combinations(range(size), n))
    for pick in product(options, repeat=g.r):
        ok = True
        for a in range(g.r):
            for b in range(g.r):
                if a == b:
                    continue
                s_a = [(a, o) for o in pick[a]]
                s_b = [(b, o) for o in pick[b]]
                t_b = [(b, o) for o in range(size) if o not in pick[b]]
                t_a = [(a, o) for o in range(size) if o not in pick[a]]
                if (density(g, s_a, s_b) < 1 - d
                        or density(g, t_a, t_b) < 1 - d
                        or density(g, s_a, t_b) > d):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def _split_pivot_candidates(g, p, n):
    """Deterministic seed splits derived from single vertices: outside the
    pivot's class take its non-neighbors, inside take the vertices with the
    most similar neighborhoods.  Exact for blow-up-shaped instances."""
    size = p * n
    for c in range(g.r):
        for o in range(size):
            v = (c, o)
            nv = g.adj_mask(v)
            non_counts = [(g.class_mask(j) & ~nv).bit_count()
                          for j in range(g.r) if j != c]
            if not non_counts:
                continue
            p_prime = round(sum(non_counts) / len(non_counts) / n)
            if not (1 <= p_prime <= p - 1):
                continue
            target = p_prime * n
            sets = []
            for j in range(g.r):
                if j == c:
                    ranked = sorted(
                        range(size),
                        key=lambda o2: ((g.adj_mask((j, o2)) ^ nv).bit_count(),
                                        o2))
                else:
                    ranked = sorted(
                        range(size),
                        key=lambda o2: (bool(nv >> g.flat((j, o2)) & 1), o2))
                sets.append(tuple(sorted(ranked[:target])))
            yield p_prime, sets


def _split_heuristic(g, p, n, d, seed, restarts, max_steps):
    size = p * n
    bound = 1 - Fraction(d)

    def objective(sets):
        worst = Fraction(1)
        total = Fraction(0)
        for a in range(g.r):
            for b in range(g.r):
                if a == b:
                    continue
                mask_a = sum(1 << g.flat((a, o)) for o in sets[a])
                comp_b = g.class_mask(b) & ~sum(1 << g.flat((b, o)) for o in sets[b])
                e = g.edge_count_between(mask_a, comp_b)
                dens = Fraction(e, len(sets[a]) * (size - len(sets[b])))
                worst = min(worst, dens)
                total += dens
        return worst, total

    def climb(sets, rng):
        best = objective(sets)
        for _ in range(max_steps):
            if best[0] >= bound:
                break
            improved = False
            moves = [(j, out_v, in_v)
                     for j in range(g.r)
                     for out_v in sets[j]
                     for in_v in range(size) if in_v not in set(sets[j])]
            for idx in rng.sample(range(len(moves)), min(80, len(moves))):
                j, out_v, in_v = moves[idx]
                trial = list(sets)
                trial[j] = sorted((set(sets[j]) - {out_v}) | {in_v})
                val = objective(trial)
                if val > best:
                    sets, best, improved = trial, val, True
                    break
            if not improved:
                break
        return sets, best

    for p_prime, sets in _split_pivot_candidates(g, p, n):
        achieved = _split_density(g, sets)
        if achieved >= 1 - d:
            return SplitWitness(p_prime, [tuple(s) for s in sets], achieved)

    for p_prime in range(1, p):
        target = p_prime * n
        for t in range(restarts):
            rng = random.Random(f"split:{seed}:{p_prime}:{t}")
            sets = [sorted(rng.sample(range(size), target)) for _ in range(g.r)]
            sets, best = climb(sets, rng)
            if best[0] >= bound:
                achieved = _split_density(g, sets)
                if achieved >= 1 - d:
                    return SplitWitness(p_prime, [tuple(s) for s in sets],
                                        achieved)
    return None


def _split_density(g, sets):
    """min d(S_a, V_b minus S_b) over ordered pairs of classes, through
    `graphs.density` on offset sets."""
    size = g.class_sizes[0]
    rest = [[(j, o) for o in range(size) if o not in s]
            for j, s in enumerate(sets)]
    return min(density(g, [(a, o) for o in sets[a]], rest[b])
               for a in range(g.r) for b in range(g.r) if a != b)


def _pc_densities(g, halves):
    """(min d(S_a, S_b), min d(T_a, T_b), max d(S_a, T_b)) over ordered
    pairs of classes, T_j the rest of class j, through `graphs.density` on
    offset halves."""
    size = g.class_sizes[0]
    s = [[(j, o) for o in h] for j, h in enumerate(halves)]
    t = [[(j, o) for o in range(size) if o not in h]
         for j, h in enumerate(halves)]
    pairs = [(a, b) for a in range(g.r) for b in range(g.r) if a != b]
    return (min(density(g, s[a], s[b]) for a, b in pairs),
            min(density(g, t[a], t[b]) for a, b in pairs),
            max(density(g, s[a], t[b]) for a, b in pairs))


def _pc_pivot_candidates(g, n):
    """Deterministic seed halves from single vertices: outside the pivot's
    class its neighbors, inside the most similar neighborhoods."""
    size = 2 * n
    for c in range(g.r):
        for o in range(size):
            v = (c, o)
            nv = g.adj_mask(v)
            halves = []
            for j in range(g.r):
                if j == c:
                    ranked = sorted(
                        range(size),
                        key=lambda o2: ((g.adj_mask((j, o2)) ^ nv).bit_count(),
                                        o2))
                else:
                    ranked = sorted(
                        range(size),
                        key=lambda o2: (not (nv >> g.flat((j, o2)) & 1), o2))
                halves.append(tuple(sorted(ranked[:n])))
            yield halves


def _pc_heuristic(g, n, d, seed, restarts, max_steps):
    size = 2 * n

    def score(halves):
        # feasibility margin: min over constraints of slack
        lo = Fraction(1)
        hi = Fraction(0)
        for a in range(g.r):
            for b in range(g.r):
                if a == b:
                    continue
                s_a = sum(1 << g.flat((a, o)) for o in halves[a])
                s_b = sum(1 << g.flat((b, o)) for o in halves[b])
                t_a = g.class_mask(a) & ~s_a
                t_b = g.class_mask(b) & ~s_b
                lo = min(lo, Fraction(g.edge_count_between(s_a, s_b), n * n))
                lo = min(lo, Fraction(g.edge_count_between(t_a, t_b), n * n))
                hi = max(hi, Fraction(g.edge_count_between(s_a, t_b), n * n))
        return lo, hi

    for cand in _pc_pivot_candidates(g, n):
        lo1, lo2, hi = _pc_densities(g, cand)
        if lo1 >= 1 - d and lo2 >= 1 - d and hi <= d:
            return PairCompleteWitness([tuple(h) for h in cand], lo1, lo2, hi)

    for t in range(restarts):
        rng = random.Random(f"pc:{seed}:{t}")
        halves = [sorted(rng.sample(range(size), n)) for _ in range(g.r)]
        lo, hi = score(halves)
        for _ in range(max_steps):
            if lo >= 1 - d and hi <= d:
                break
            improved = False
            for j in range(g.r):
                inside = set(halves[j])
                for out_v in sorted(inside):
                    for in_v in [o for o in range(size) if o not in inside]:
                        trial = list(halves)
                        trial[j] = sorted((inside - {out_v}) | {in_v})
                        lo2, hi2 = score(trial)
                        if (lo2 - hi2) > (lo - hi):
                            halves, lo, hi = trial, lo2, hi2
                            improved = True
                            break
                    if improved:
                        break
                if improved:
                    break
            if not improved:
                break
        if lo >= 1 - d and hi <= d:
            lo1, lo2, hi = _pc_densities(g, halves)
            if lo1 >= 1 - d and lo2 >= 1 - d and hi <= d:
                return PairCompleteWitness([tuple(h) for h in halves],
                                           lo1, lo2, hi)
    return None
