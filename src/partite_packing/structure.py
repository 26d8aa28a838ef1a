"""Row decompositions, splittability / pair-completeness detection, integer
lattices of edge indices, and barrier diagnosis.

Splittability and pair-completeness are existential density conditions; the
searches here are exact (complete backtracking) for small classes and a
verified local-search heuristic above a size cap.  The searches score
candidates with integer edge counts over bitmasks (the heuristics update
them incrementally per swap), never with `Fraction`s.  Any returned witness
is re-checked once, by `is_splittable` / `is_pair_complete`, before it is
handed back: `verify_split_witness` / `verify_pair_complete_witness` check
the witness's shape (r sets of distinct in-range offsets of the right size)
and then every density through `graphs.density`, which builds its own masks
from the vertices it is given and reads only the adjacency rows, never a
mask or count a search made.  So witnesses are always exact and only
*absence* is mode-qualified: the exact search certifies it, and in either
mode so does the non-edge component rule that `is_splittable` tries before
any split search (`_split_refuted`).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product
from typing import Iterable, Sequence

from .graphs import (MultipartiteGraph, PartitionLabeling, Vertex,
                     clique_complex_edges, components, density, index_vector)

EXACT_CLASS_CAP = 8           # exact detection up to this class size
HEURISTIC_RESTARTS = 8        # seeded random starts per heuristic search
HEURISTIC_MAX_STEPS = 60      # climbing steps per start
SPACE_BUDGET = 200_000        # space-barrier candidates diagnose_barriers tries
DIVISIBILITY_BUDGET = 20_000  # divisibility-barrier candidates, likewise


# -- row decompositions -------------------------------------------------------


@dataclass(frozen=True)
class RowDecomposition:
    """Blocks rows[i][j] partitioning each class j into s rows of weight p_i.

    Every block in row i has exactly weights[i] * unit vertices.
    """

    weights: tuple[int, ...]
    unit: int
    rows: tuple[tuple[frozenset[int], ...], ...]  # rows[i][j]: offsets in class j

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            for j, block in enumerate(row):
                if len(block) != self.weights[i] * self.unit:
                    raise ValueError(
                        f"block ({i},{j}) has {len(block)} vertices, "
                        f"expected {self.weights[i] * self.unit}")
        r = len(self.rows[0])
        for j in range(r):
            all_offsets: set[int] = set()
            total = 0
            for i in range(self.s):
                all_offsets |= self.rows[i][j]
                total += len(self.rows[i][j])
            if total != len(all_offsets):
                raise ValueError(f"rows overlap in class {j}")

    @property
    def s(self) -> int:
        return len(self.weights)

    @property
    def r(self) -> int:
        return len(self.rows[0])

    def block_vertices(self, i: int, j: int) -> list[Vertex]:
        return [(j, o) for o in sorted(self.rows[i][j])]

    def row_vertices(self, i: int) -> list[Vertex]:
        out = []
        for j in range(self.r):
            out.extend(self.block_vertices(i, j))
        return out


def trivial_decomposition(g: MultipartiteGraph, k: int) -> RowDecomposition:
    sizes = set(g.class_sizes)
    if len(sizes) != 1 or g.class_sizes[0] % k != 0:
        raise ValueError("classes must have equal size divisible by k")
    n = g.class_sizes[0] // k
    return RowDecomposition(
        (k,), n,
        (tuple(frozenset(range(g.class_sizes[0])) for _ in range(g.r)),))


def block_masks(g: MultipartiteGraph, decomp: RowDecomposition) -> list[list[int]]:
    """masks[i][j]: the vertex mask of block X^i_j.  The one place that builds
    a decomposition's block masks; callers build them once per decomposition."""
    return [[g.mask_of(decomp.block_vertices(i, j)) for j in range(decomp.r)]
            for i in range(decomp.s)]


def min_diagonal_density(g: MultipartiteGraph, decomp: RowDecomposition) -> Fraction:
    """Minimum density between blocks in different rows and columns; 1 when
    the decomposition has a single row."""
    if decomp.s == 1:
        return Fraction(1)
    masks = block_masks(g, decomp)
    sizes = [w * decomp.unit for w in decomp.weights]
    best_e, best_den = 1, 1
    for i in range(decomp.s):
        for i2 in range(decomp.s):
            if i2 == i:
                continue
            den = sizes[i] * sizes[i2]
            for j in range(decomp.r):
                for j2 in range(decomp.r):
                    if j2 == j:
                        continue
                    e = g.edge_count_between(masks[i][j], masks[i2][j2])
                    if e * best_den < best_e * den:
                        best_e, best_den = e, den
    return Fraction(best_e, best_den)


def detection_mode(g: MultipartiteGraph) -> str:
    """The search mode for split and two-half detection on g: "exact" for
    classes of at most EXACT_CLASS_CAP vertices, "heuristic" above."""
    return "exact" if g.class_sizes[0] <= EXACT_CLASS_CAP else "heuristic"


# -- splittability ------------------------------------------------------------


@dataclass
class SplitWitness:
    """Sets S_j of size p_prime*n per class with all cross densities
    d(S_j, V_j' \\ S_j') at least 1-d."""

    p_prime: int
    sets: list[tuple[int, ...]]  # offsets per class
    achieved: Fraction           # minimum density over all ordered pairs


def _offset_sets(g: MultipartiteGraph, sets: Sequence[Sequence[int]],
                 t: int) -> list[set[int]] | None:
    """The witness sets as Python sets, or None unless they are r sets of t
    distinct offsets each, all inside the class size."""
    size = g.class_sizes[0]
    members = [set(s) for s in sets]
    if (len(members) != g.r
            or any(len(m) != t or len(s) != t for m, s in zip(members, sets))
            or any(not 0 <= o < size for m in members for o in m)):
        return None
    return members


def verify_split_witness(g: MultipartiteGraph, w: SplitWitness,
                         d: Fraction) -> bool:
    """Recheck a split witness through `graphs.density`.  The sets
    must be r sets of distinct in-range offsets with one common size t,
    0 < t < class size."""
    r = g.r
    size = g.class_sizes[0]
    achieved = Fraction(1)
    t = len(w.sets[0]) if w.sets else 0
    members = _offset_sets(g, w.sets, t)
    if members is None or not 0 < t < size:
        return False
    comps = [[(j, o) for o in range(size) if o not in members[j]]
             for j in range(r)]
    for j in range(r):
        s_j = [(j, o) for o in w.sets[j]]
        for j2 in range(r):
            if j == j2:
                continue
            dens = density(g, s_j, comps[j2])
            achieved = min(achieved, dens)
    w.achieved = achieved
    return achieved >= 1 - d


def is_splittable(g: MultipartiteGraph, p: int, d: Fraction,
                  mode: str = "exact", *, seed: int = 0) -> SplitWitness | None:
    """Search for an equal-proportion split with all diagonal densities >= 1-d.

    First the non-edge component rule (`_split_refuted`) may refute every
    weight; None is then certified absence in either mode, and no search
    runs.  Otherwise, in exact mode the search is complete backtracking over
    per-class subsets (lexicographic, so the first witness found is the
    least); in heuristic mode it is seeded hill climbing and absence is not
    certified.
    """
    sizes = set(g.class_sizes)
    if len(sizes) != 1:
        raise ValueError("classes must have equal size")
    size = g.class_sizes[0]
    if p < 1 or size % p != 0:
        raise ValueError(f"class size {size} is not divisible by weight {p}")
    if p == 1:
        return None
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    n = size // p
    if _split_refuted(g, p, n, d):
        return None
    if mode == "exact":
        witness = _split_exact(g, p, n, d)
    else:
        witness = _split_heuristic(g, p, n, d, seed)
    if witness is not None and (not verify_split_witness(g, witness, d)
                                or len(witness.sets[0]) != witness.p_prime * n):
        raise AssertionError("searcher returned a witness that fails verification")
    return witness


def _split_refuted(g, p, n, d):
    """True when the cross-class non-edges alone rule out a split for every
    p_prime in 1..p-1.

    A witness for p_prime has t = p_prime*n offsets per class in S and
    c = size - t outside, and allows at most d*t*c non-edges from S_a to
    V_b minus S_b.  When d*t*c < 1 it allows none, so each connected
    component of the cross-class non-edge graph (u, w in different classes,
    not adjacent) lies wholly in S or wholly outside it.  A component with
    more than t vertices in some class and more than c in some class fits
    on neither side.  The rule applies only when d*t*c < 1 for every
    p_prime; it never rejects a graph that has a split.
    """
    size = p * n
    targets = [q * n for q in range(1, p)]
    if any(d * t * (size - t) >= 1 for t in targets):
        return False
    full = (1 << g.n_vertices) - 1
    class_masks = [g.class_mask(j) for j in range(g.r)]
    non_edges = [full & ~class_masks[c] & ~nb
                 for c, nb in zip(g._class_of, g._adj)]
    for comp in components(full, non_edges):
        # misfitting only grows with `most`, so the component with the
        # largest class count misfits every p_prime that any component does
        most = max((comp & m).bit_count() for m in class_masks)
        if all(most > t and most > size - t for t in targets):
            return True
    return False


def _exact_choice(g, options, pair_ok):
    """Lexicographically least choice of one offset tuple per class, from
    options[j] for class j, with pair_ok(s_a, t_a, s_b, t_b) true for every
    pair of classes b < a (s: chosen offsets' mask, t: the rest of the
    class); None if there is none.  Each option's masks are built once."""
    table = []
    for j, opts in enumerate(options):
        whole = g.class_mask(j)
        masks = [g.mask_of((j, o) for o in combo) for combo in opts]
        table.append([(combo, m, whole & ~m) for combo, m in zip(opts, masks)])
    chosen = []

    def backtrack(a):
        if a == len(table):
            return True
        for option in table[a]:
            _, s_a, t_a = option
            if all(pair_ok(s_a, t_a, s_b, t_b) for _, s_b, t_b in chosen):
                chosen.append(option)
                if backtrack(a + 1):
                    return True
                chosen.pop()
        return False

    return [combo for combo, _, _ in chosen] if backtrack(0) else None


def _split_exact(g, p, n, d):
    """Least split for the least p_prime: every e(S_a, V_b minus S_b) at
    least (1-d)*t*c, with t = p_prime*n and c = size - t."""
    size = p * n
    bound = 1 - Fraction(d)
    num, den = bound.numerator, bound.denominator
    count = g.edge_count_between
    for p_prime in range(1, p):
        target = p_prime * n
        least = num * target * (size - target)

        def pair_ok(s_a, t_a, s_b, t_b):
            return (count(s_a, t_b) * den >= least
                    and count(s_b, t_a) * den >= least)

        sets = _exact_choice(
            g, [list(combinations(range(size), target))] * g.r, pair_ok)
        if sets is not None:
            return SplitWitness(p_prime, sets, Fraction(0))
    return None


def _class_masks(g, sets):
    """Bitmasks of the chosen offsets per class, and of their complements."""
    masks = [g.mask_of((j, o) for o in s) for j, s in enumerate(sets)]
    comps = [g.class_mask(j) & ~m for j, m in enumerate(masks)]
    return masks, comps


def _pair_counts(g, left, right):
    """e(left[a], right[b]) for every ordered pair of classes a != b (masks
    per class), 0 on the diagonal."""
    r = len(left)
    return [[g.edge_count_between(left[a], right[b]) if a != b else 0
             for b in range(r)] for a in range(r)]


def _neighborhoods(g, size):
    return [[g.adj_mask((j, o)) for o in range(size)] for j in range(g.r)]


def _pivot_seed(g, nbrs, c, nv, target, side):
    """Sets of `target` offsets per class seeded by a pivot in class c with
    neighbourhood nv: in class c the neighbourhoods nearest nv in Hamming
    distance, in every other class the offsets with bit `side` in nv first
    (1: neighbours, 0: non-neighbours), ties to the lower offset."""
    size = len(nbrs[c])
    sets = []
    for j in range(g.r):
        if j == c:
            ranked = sorted(range(size),
                            key=lambda o: ((nbrs[c][o] ^ nv).bit_count(), o))
        else:
            bits = nv >> g._off[j]
            ranked = [o for o in range(size) if (bits >> o & 1) == side]
            if len(ranked) < target:
                ranked += [o for o in range(size) if (bits >> o & 1) != side]
        sets.append(tuple(sorted(ranked[:target])))
    return sets


def _split_pivot_candidates(g, p, n, nbrs):
    """Deterministic seed splits derived from single vertices: outside the
    pivot's class take its non-neighbors, inside take the vertices with the
    most similar neighborhoods.  Exact for blow-up-shaped instances.

    A candidate depends only on the pivot's class and neighbourhood, so each
    distinct neighbourhood of a class is tried once, at its first vertex."""
    for c in range(g.r):
        for nv in dict.fromkeys(nbrs[c]):
            non_counts = [(g.class_mask(j) & ~nv).bit_count()
                          for j in range(g.r) if j != c]
            if not non_counts:
                continue
            p_prime = round(sum(non_counts) / len(non_counts) / n)
            if 1 <= p_prime <= p - 1:
                yield p_prime, _pivot_seed(g, nbrs, c, nv, p_prime * n, 0)


def _split_heuristic(g, p, n, d, seed):
    """Pivot candidates first, then seeded hill climbing from random splits.

    All sets have p_prime*n offsets, so every density of a split shares the
    denominator full = target * (size - target), and the climb ranks splits
    by the integer pair (min e, sum e) over e[a][b] = e(S_a, V_b minus S_b):
    the same order as the densities give, with no Fractions.  A swap in class
    j changes only row j and column j of that table, so a trial move costs
    O(r) bit counts.
    """
    size = p * n
    r = g.r
    bound = 1 - Fraction(d)
    num, den = bound.numerator, bound.denominator
    nbrs = _neighborhoods(g, size)

    def feasible(worst, full):
        return worst * den >= num * full

    def climb(sets, rng, target):
        free = size - target
        full = target * free
        comps = [[o for o in range(size) if o not in members]
                 for members in map(set, sets)]
        masks, comp_masks = _class_masks(g, sets)
        e = _pair_counts(g, masks, comp_masks)
        pairs = [(a, b) for a in range(r) for b in range(r) if a != b]
        others = [[b for b in range(r) if b != j] for j in range(r)]
        worst = min([full] + [e[a][b] for a, b in pairs])
        total = sum(e[a][b] for a, b in pairs)
        for _ in range(HEURISTIC_MAX_STEPS):
            if feasible(worst, full):
                break
            # per class j: the least entry outside row j and column j, and
            # the sum of the entries inside them
            rest = [min([full] + [e[a][b] for a, b in pairs
                                  if j not in (a, b)]) for j in range(r)]
            inside = [sum(e[j]) + sum(e[a][j] for a in range(r))
                      for j in range(r)]
            # up to 80 distinct indices into the list of moves (j, out, in),
            # nested in that order, drawn without building that list
            improved = False
            for idx in rng.sample(range(r * full), min(80, r * full)):
                j, rem = divmod(idx, full)
                out_v = sets[j][rem // free]
                in_v = comps[j][rem % free]
                n_out, n_in = nbrs[j][out_v], nbrs[j][in_v]
                row = [e[j][b] - (n_out & comp_masks[b]).bit_count()
                       + (n_in & comp_masks[b]).bit_count() for b in others[j]]
                col = [e[a][j] - (n_in & masks[a]).bit_count()
                       + (n_out & masks[a]).bit_count() for a in others[j]]
                new_worst = min(rest[j], *row, *col)
                new_total = total - inside[j] + sum(row) + sum(col)
                if (new_worst, new_total) > (worst, total):
                    for x, b in enumerate(others[j]):
                        e[j][b], e[b][j] = row[x], col[x]
                    sets[j] = sorted(set(sets[j]) - {out_v} | {in_v})
                    comps[j] = sorted(set(comps[j]) - {in_v} | {out_v})
                    swap = 1 << g.flat((j, out_v)) | 1 << g.flat((j, in_v))
                    masks[j] ^= swap
                    comp_masks[j] ^= swap
                    worst, total, improved = new_worst, new_total, True
                    break
            if not improved:
                break
        return sets, feasible(worst, full)

    for p_prime, sets in _split_pivot_candidates(g, p, n, nbrs):
        target = p_prime * n
        e = _pair_counts(g, *_class_masks(g, sets))
        if feasible(min(e[a][b] for a in range(r) for b in range(r) if a != b),
                    target * (size - target)):
            return SplitWitness(p_prime, [tuple(s) for s in sets], Fraction(0))

    for p_prime in range(1, p):
        target = p_prime * n
        for t in range(HEURISTIC_RESTARTS):
            rng = random.Random(f"split:{seed}:{p_prime}:{t}")
            sets = [sorted(rng.sample(range(size), target)) for _ in range(r)]
            sets, ok = climb(sets, rng, target)
            if ok:
                return SplitWitness(p_prime, [tuple(s) for s in sets],
                                    Fraction(0))
    return None


# -- pair-completeness ----------------------------------------------------------


@dataclass
class PairCompleteWitness:
    """Halves S_j of size n per class: dense within each half, sparse across."""

    halves: list[tuple[int, ...]]
    min_half_density: Fraction
    min_cohalf_density: Fraction
    max_cross_density: Fraction


def verify_pair_complete_witness(g: MultipartiteGraph, w: PairCompleteWitness,
                                 d: Fraction) -> bool:
    """Recheck a pair-complete witness through `graphs.density`.  The
    halves must be r sets of n distinct in-range offsets, n half the class
    size."""
    size = g.class_sizes[0]
    members = _offset_sets(g, w.halves, size // 2)
    if members is None or size % 2:
        return False
    lo1 = lo2 = Fraction(1)
    hi = Fraction(0)
    halves = [[(j, o) for o in w.halves[j]] for j in range(g.r)]
    others = [[(j, o) for o in range(size) if o not in members[j]]
              for j in range(g.r)]
    for j in range(g.r):
        for j2 in range(g.r):
            if j == j2:
                continue
            lo1 = min(lo1, density(g, halves[j], halves[j2]))
            lo2 = min(lo2, density(g, others[j], others[j2]))
            hi = max(hi, density(g, halves[j], others[j2]))
    w.min_half_density, w.min_cohalf_density, w.max_cross_density = lo1, lo2, hi
    return lo1 >= 1 - d and lo2 >= 1 - d and hi <= d


def is_pair_complete(g: MultipartiteGraph, d: Fraction,
                     mode: str = "exact", *,
                     seed: int = 0) -> PairCompleteWitness | None:
    """Search for halves with near-complete intra-half and near-empty
    cross-half densities.  Witnesses are re-verified before return."""
    sizes = set(g.class_sizes)
    if len(sizes) != 1:
        raise ValueError("classes must have equal size")
    size = g.class_sizes[0]
    if size % 2 != 0:
        raise ValueError("classes must have even size")
    n = size // 2
    if mode == "exact":
        witness = _pc_exact(g, n, d)
    elif mode == "heuristic":
        witness = _pc_heuristic(g, n, d, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if witness is not None and not verify_pair_complete_witness(g, witness, d):
        raise AssertionError("searcher returned a witness that fails verification")
    return witness


def _pc_exact(g, n, d):
    """Least halves with e(S_a, S_b) and e(T_a, T_b) at least (1-d)*n*n and
    e(S_a, T_b) at most d*n*n for every pair of classes."""
    lo, hi = 1 - Fraction(d), Fraction(d)
    least, most = lo.numerator * n * n, hi.numerator * n * n
    count = g.edge_count_between

    def pair_ok(s_a, t_a, s_b, t_b):
        return (count(s_b, s_a) * lo.denominator >= least
                and count(t_b, t_a) * lo.denominator >= least
                and count(s_b, t_a) * hi.denominator <= most
                and count(s_a, t_b) * hi.denominator <= most)

    halves = list(combinations(range(2 * n), n))
    # Global half-swap symmetry: restrict class 0 to halves containing offset 0.
    first = [h for h in halves if 0 in h]
    chosen = _exact_choice(g, [first] + [halves] * (g.r - 1), pair_ok)
    if chosen is None:
        return None
    return PairCompleteWitness(chosen, Fraction(0), Fraction(0), Fraction(0))


def _pc_pivot_candidates(g, n, nbrs):
    """Deterministic seed halves from single vertices: outside the pivot's
    class its neighbors, inside the most similar neighborhoods.  Each
    distinct neighbourhood of a class is tried once."""
    for c in range(g.r):
        for nv in dict.fromkeys(nbrs[c]):
            yield _pivot_seed(g, nbrs, c, nv, n, 1)


def _pc_heuristic(g, n, d, seed):
    """Pivot candidates first, then seeded first-improvement climbing.

    Every density of a half pair has the denominator n*n, so the score
    lo - hi is kept as the integer min e(S_a, S_b), e(T_a, T_b) minus max
    e(S_a, T_b), with the identities n*n and 0 that the density form starts
    from.  A swap in class j changes only the entries that involve class j,
    and each vertex's edge counts into the halves are counted once per step.
    """
    size = 2 * n
    r = g.r
    full = n * n
    lo_bound, hi_bound = 1 - Fraction(d), Fraction(d)
    nbrs = _neighborhoods(g, size)
    pairs = [(a, b) for a in range(r) for b in range(r) if a != b]

    def table(halves):
        s_masks, t_masks = _class_masks(g, halves)
        return (s_masks, t_masks, _pair_counts(g, s_masks, s_masks),
                _pair_counts(g, t_masks, t_masks),
                _pair_counts(g, s_masks, t_masks))

    def extremes(ss, tt, st, skip=None):
        kept = [(a, b) for a, b in pairs if skip not in (a, b)]
        lo = min([full] + [ss[a][b] for a, b in kept]
                 + [tt[a][b] for a, b in kept])
        hi = max([0] + [st[a][b] for a, b in kept])
        return lo, hi

    def feasible(lo, hi):
        return (lo * lo_bound.denominator >= lo_bound.numerator * full
                and hi * hi_bound.denominator <= hi_bound.numerator * full)

    for cand in _pc_pivot_candidates(g, n, nbrs):
        _, _, ss, tt, st = table(cand)
        if feasible(*extremes(ss, tt, st)):
            return PairCompleteWitness([tuple(h) for h in cand],
                                       Fraction(0), Fraction(0), Fraction(0))

    for t in range(HEURISTIC_RESTARTS):
        rng = random.Random(f"pc:{seed}:{t}")
        halves = [sorted(rng.sample(range(size), n)) for _ in range(r)]
        s_masks, t_masks, ss, tt, st = table(halves)
        lo, hi = extremes(ss, tt, st)
        for _ in range(HEURISTIC_MAX_STEPS):
            if feasible(lo, hi):
                break
            improved = False
            for j in range(r):
                rest_lo, rest_hi = extremes(ss, tt, st, skip=j)
                others = [b for b in range(r) if b != j]
                # edge counts of each class-j vertex into S_b and T_b
                into = [[((nbrs[j][o] & s_masks[b]).bit_count(),
                          (nbrs[j][o] & t_masks[b]).bit_count())
                         for b in others] for o in range(size)]
                inside = set(halves[j])
                outside = [o for o in range(size) if o not in inside]
                for out_v in halves[j]:
                    for in_v in outside:
                        lo2, hi2 = rest_lo, rest_hi
                        for x, b in enumerate(others):
                            s_out, t_out = into[out_v][x]
                            s_in, t_in = into[in_v][x]
                            lo2 = min(lo2, ss[j][b] - s_out + s_in,
                                      tt[j][b] - t_in + t_out)
                            hi2 = max(hi2, st[j][b] - t_out + t_in,
                                      st[b][j] - s_in + s_out)
                        if lo2 - hi2 > lo - hi:
                            for x, b in enumerate(others):
                                s_out, t_out = into[out_v][x]
                                s_in, t_in = into[in_v][x]
                                ss[j][b] = ss[b][j] = ss[j][b] - s_out + s_in
                                tt[j][b] = tt[b][j] = tt[j][b] - t_in + t_out
                                st[j][b] += t_in - t_out
                                st[b][j] += s_out - s_in
                            swap = (1 << g.flat((j, out_v))
                                    | 1 << g.flat((j, in_v)))
                            s_masks[j] ^= swap
                            t_masks[j] ^= swap
                            halves[j] = sorted(inside - {out_v} | {in_v})
                            lo, hi, improved = lo2, hi2, True
                            break
                    if improved:
                        break
                if improved:
                    break
            if not improved:
                break
        if feasible(lo, hi):
            return PairCompleteWitness([tuple(h) for h in halves],
                                       Fraction(0), Fraction(0), Fraction(0))
    return None


# -- iterative refinement -------------------------------------------------------


@dataclass
class SplitEvent:
    row: int
    p_prime: int
    threshold: Fraction


@dataclass
class IterationResult:
    decomposition: RowDecomposition
    events: list[SplitEvent]
    min_diagonal_density: Fraction


def iterate_decomposition(g: MultipartiteGraph, k: int,
                          thresholds: Sequence[Fraction], *,
                          seed: int = 0) -> IterationResult:
    """Refine the trivial one-row decomposition by splitting rows while any
    row is splittable at the threshold for the current row count.

    Each row is searched in its `detection_mode`.  Tie-breaking is
    deterministic: the lowest-index splittable row splits first, using the
    lexicographically least witness the searcher finds.
    """
    thresholds = [Fraction(t) for t in thresholds]
    if any(t2 <= t1 for t1, t2 in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly ascending")
    if len(thresholds) < k:
        raise ValueError(f"need at least {k} thresholds")
    decomp = trivial_decomposition(g, k)
    n = decomp.unit
    weights = [k]
    rows: list[list[frozenset[int]]] = [list(decomp.rows[0])]
    events: list[SplitEvent] = []

    while len(weights) < k:
        s = len(weights)
        d_s = thresholds[s - 1]
        split_done = False
        for i in range(s):
            if weights[i] < 2:
                continue
            selection = [sorted(rows[i][j]) for j in range(g.r)]
            sub, _, _ = g.induced(selection)
            w = is_splittable(sub, weights[i], d_s, detection_mode(sub),
                              seed=seed)
            if w is None:
                continue
            new_first = []
            new_second = []
            for j in range(g.r):
                ordered = selection[j]
                in_split = frozenset(ordered[t] for t in w.sets[j])
                new_first.append(in_split)
                new_second.append(frozenset(ordered) - in_split)
            rows[i] = new_first
            rows.append(new_second)
            weights.append(weights[i] - w.p_prime)
            weights[i] = w.p_prime
            events.append(SplitEvent(i, w.p_prime, d_s))
            split_done = True
            break
        if not split_done:
            break

    final = RowDecomposition(tuple(weights), n,
                             tuple(tuple(row) for row in rows))
    return IterationResult(final, events, min_diagonal_density(g, final))


# -- integer lattices -------------------------------------------------------------


class IntegerLattice:
    """Subgroup of Z^d given by generators; canonical triangular basis with
    membership by back-substitution over the integers."""

    def __init__(self, dim: int, generators: Iterable[Sequence[int]] = ()):
        self.dim = dim
        self._rows: list[list[int]] = []  # sorted by pivot column
        for v in generators:
            self.add_vector(v)

    def _pivot_col(self, row: list[int]) -> int:
        for j, x in enumerate(row):
            if x:
                return j
        return self.dim

    def add_vector(self, vec: Sequence[int]) -> None:
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError("vector has wrong dimension")
        while True:
            j = self._pivot_col(v)
            if j == self.dim:
                return
            hit = None
            for idx, row in enumerate(self._rows):
                pj = self._pivot_col(row)
                if pj == j:
                    hit = idx
                    break
                if pj > j:
                    break
            if hit is None:
                if v[j] < 0:
                    v = [-x for x in v]
                insert_at = 0
                while (insert_at < len(self._rows)
                       and self._pivot_col(self._rows[insert_at]) < j):
                    insert_at += 1
                self._rows.insert(insert_at, v)
                self._normalize()
                return
            row = self._rows[hit]
            a, b = row[j], v[j]
            g, x, y = _xgcd(a, b)
            combined = [x * ra + y * va for ra, va in zip(row, v)]
            reduced = [(a // g) * va - (b // g) * ra for ra, va in zip(row, v)]
            self._rows[hit] = combined
            v = reduced

    def _normalize(self) -> None:
        # Hermite-style: positive pivots, entries above each pivot reduced.
        self._rows.sort(key=self._pivot_col)
        for idx, row in enumerate(self._rows):
            j = self._pivot_col(row)
            if row[j] < 0:
                self._rows[idx] = [-x for x in row]
        for idx in range(len(self._rows) - 1, -1, -1):
            row = self._rows[idx]
            j = self._pivot_col(row)
            p = row[j]
            for above in range(idx):
                q, rem = divmod(self._rows[above][j], p)
                if q:
                    self._rows[above] = [xa - q * xr for xa, xr
                                         in zip(self._rows[above], row)]

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        self._normalize()
        return tuple(tuple(row) for row in self._rows)

    def __contains__(self, vec: Sequence[int]) -> bool:
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError("vector has wrong dimension")
        for row in self._rows:
            j = self._pivot_col(row)
            if v[j] == 0:
                continue
            q, rem = divmod(v[j], row[j])
            if rem != 0:
                # in echelon form no later row has an entry in column j, so
                # only a multiple of this row can clear v[j]: the pivot must
                # divide the entry
                return False
            v = [xv - q * xr for xv, xr in zip(v, row)]
        return all(x == 0 for x in v)

    def __repr__(self):
        return f"IntegerLattice(dim={self.dim}, basis={self.basis})"


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def robust_edge_lattice(edges: Iterable[Iterable[Vertex]],
                        labeling: PartitionLabeling,
                        mu_count: int) -> IntegerLattice:
    """Lattice generated by every index vector attained by at least mu_count
    edges (an absolute count standing in for a density threshold; mu_count=0
    keeps every attained vector)."""
    counts = Counter(index_vector(e, labeling) for e in edges)
    floor = max(mu_count, 1)
    gens = sorted(v for v, c in counts.items() if c >= floor)
    return IntegerLattice(labeling.d, gens)


def is_complete_wrt(lattice: IntegerLattice, q: PartitionLabeling):
    """True iff u_a - u_b is in the lattice for every pair of parts a, b that
    lie inside a single class; otherwise (False, (a, b)) for one violation."""
    if not q.respects_classes:
        raise ValueError("labeling must refine the class partition")
    if lattice.dim != q.d:
        raise ValueError("lattice dimension must match part count")
    per_class: dict[int, set[int]] = {}
    for c, row in enumerate(q.part_of):
        per_class.setdefault(c, set()).update(row)
    for c in sorted(per_class):
        parts = sorted(per_class[c])
        for a, b in combinations(parts, 2):
            vec = [0] * q.d
            vec[a], vec[b] = 1, -1
            if vec not in lattice:
                return False, (a, b)
    return True, None


def merge_to_minimal(q: PartitionLabeling, lattice: IntegerLattice):
    """Merge same-class part pairs whose basis-vector difference lies in the
    lattice, repeatedly, producing a minimal refinement and merged lattice."""
    part_of = [list(row) for row in q.part_of]
    dim = q.d
    gens = [list(b) for b in lattice.basis]
    changed = True
    while changed:
        changed = False
        per_class: dict[int, set[int]] = {}
        for c, row in enumerate(part_of):
            per_class.setdefault(c, set()).update(row)
        lat = IntegerLattice(dim, gens)
        for c in sorted(per_class):
            for a, b in combinations(sorted(per_class[c]), 2):
                vec = [0] * dim
                vec[a], vec[b] = 1, -1
                if vec in lat:
                    # merge part b into part a, compact indices
                    remap = {}
                    nxt = 0
                    for p in range(dim):
                        if p == b:
                            continue
                        remap[p] = nxt
                        nxt += 1
                    remap[b] = remap[a]
                    for row in part_of:
                        for idx, p in enumerate(row):
                            row[idx] = remap[p]
                    new_gens = []
                    for gvec in gens:
                        out = [0] * (dim - 1)
                        for p, x in enumerate(gvec):
                            out[remap[p]] += x
                        new_gens.append(out)
                    gens = new_gens
                    dim -= 1
                    changed = True
                    break
            if changed:
                break
    new_q = PartitionLabeling(dim, tuple(tuple(row) for row in part_of))
    return new_q, IntegerLattice(dim, gens)


# -- barrier constructions ---------------------------------------------------------


def space_barrier_graph(r: int, p: int, n: int, j: int,
                        extra: int = 0) -> tuple[MultipartiteGraph, list[list[int]]]:
    """Graph on classes of size p*n in which every p-clique has at most j
    vertices inside the planted set S (first j*n + extra offsets per class).

    Inside S, vertices carry one of j group labels (offset // n, capped) and
    same-label cross-class pairs are non-adjacent; every other cross-class
    pair is an edge.  Any clique within S therefore has pairwise-distinct
    labels, hence at most j vertices.  Returns the graph and S as per-class
    offset lists.
    """
    if not (1 <= j < p):
        raise ValueError("need 1 <= j < p")
    size = p * n
    s_size = j * n + extra
    if s_size > size:
        raise ValueError("planted set exceeds the class")
    from .graphs import complete_multipartite
    g = complete_multipartite([size] * r)
    masks = list(g._adj)

    def label(o: int) -> int:
        return min(o // n, j - 1)

    for c1 in range(r):
        for o1 in range(s_size):
            f1 = g.flat((c1, o1))
            for c2 in range(c1 + 1, r):
                for o2 in range(s_size):
                    if label(o1) == label(o2):
                        f2 = g.flat((c2, o2))
                        masks[f1] &= ~(1 << f2)
                        masks[f2] &= ~(1 << f1)
    out = MultipartiteGraph([size] * r)
    out._adj = masks
    planted = [list(range(s_size)) for _ in range(r)]
    return out, planted


def divisibility_barrier_graph(r: int, half: int,
                               other: int | None = None
                               ) -> tuple[MultipartiteGraph, PartitionLabeling]:
    """Two complete r-partite halves with no cross edges: the robust edge
    lattice of any clique layer is incomplete with respect to the per-class
    half split.  Classes have size half + other (other defaults to half)."""
    if other is None:
        other = half
    size = half + other
    g = MultipartiteGraph([size] * r)
    for c1 in range(r):
        for c2 in range(c1 + 1, r):
            for o1 in range(size):
                side1 = o1 < half
                for o2 in range(size):
                    if (o2 < half) == side1:
                        f1, f2 = g.flat((c1, o1)), g.flat((c2, o2))
                        g._adj[f1] |= 1 << f2
                        g._adj[f2] |= 1 << f1
    labeling = PartitionLabeling(
        2 * r,
        tuple(tuple(2 * c + (0 if o < half else 1) for o in range(size))
              for c in range(r)))
    return g, labeling


# -- barrier diagnosis ----------------------------------------------------------


def _class_bipartitions(size: int, floor: int):
    """Unordered 2-part splits of range(size) with both sides >= floor,
    canonicalized so offset 0 is in the first side; plus None (no split)."""
    yield None
    for a_minus_rest in range(max(floor, 1) - 1, size - max(floor, 1) + 1):
        for rest in combinations(range(1, size), a_minus_rest):
            a = (0,) + rest
            if size - len(a) >= max(floor, 1):
                yield a


def _budgeted(options, r: int, budget: int) -> list | None:
    """The options as a list when their r-tuples number at most `budget`,
    else None; at most one option beyond that bound is ever drawn."""
    listed = list(islice(options, int(budget ** (1 / r)) + 2))
    return listed if len(listed) ** r <= budget else None


def diagnose_barriers(g: MultipartiteGraph, p_weight: int, *,
                      d: Fraction, beta: Fraction = Fraction(0),
                      mu_count: int = 1,
                      floor: int | None = None, seed: int = 0) -> dict:
    """Structured report of detected obstructions to a perfect clique packing.

    Space candidates are planted sets S (one slice per class) such that at
    most a beta fraction of the enumerated p-cliques have more than j
    vertices in S; divisibility candidates are class refinements whose robust
    edge lattice is incomplete.  Enumeration is exhaustive within the budgets
    and flagged otherwise; a class whose candidates exceed a budget is never
    listed in full.  Split and two-half detection search in
    `detection_mode(g)`.
    """
    sizes = set(g.class_sizes)
    if len(sizes) != 1:
        raise ValueError("classes must have equal size")
    size = g.class_sizes[0]
    if size % p_weight != 0:
        raise ValueError("class size must be divisible by the weight")
    n = size // p_weight
    if floor is None:
        floor = max(1, n // 2)

    report: dict = {"splittable": None, "pair_complete": None,
                    "space": [], "divisibility": [],
                    "space_exhaustive": True, "divisibility_exhaustive": True}

    mode = detection_mode(g)
    w = is_splittable(g, p_weight, d, mode, seed=seed)
    if w is not None:
        report["splittable"] = {"p_prime": w.p_prime,
                                "sets": [list(s) for s in w.sets],
                                "achieved": str(w.achieved)}
    if p_weight == 2 and size % 2 == 0:
        pc = is_pair_complete(g, d, mode, seed=seed)
        if pc is not None:
            report["pair_complete"] = {
                "halves": [list(h) for h in pc.halves],
                "min_half_density": str(pc.min_half_density),
                "min_cohalf_density": str(pc.min_cohalf_density),
                "max_cross_density": str(pc.max_cross_density)}

    cliques = clique_complex_edges(g, p_weight)
    clique_masks = [g.mask_of(c) for c in cliques]

    # space barriers: S with j*n vertices per class and at most a beta
    # fraction of cliques holding more than j vertices of S
    beta = Fraction(beta)
    allowed = int(beta * len(clique_masks))
    for j in range(1, p_weight):
        options = _budgeted(combinations(range(size), j * n), g.r, SPACE_BUDGET)
        if options is None:
            report["space_exhaustive"] = False
            continue
        for pick in product(options, repeat=g.r):
            s_mask = 0
            for c, offs in enumerate(pick):
                for o in offs:
                    s_mask |= 1 << g.flat((c, o))
            violating = sum(1 for cm in clique_masks
                            if (cm & s_mask).bit_count() > j)
            if violating <= allowed:
                report["space"].append({"j": j,
                                        "sets": [list(offs) for offs in pick],
                                        "violating_cliques": violating})
                if len(report["space"]) >= 20:
                    break

    # divisibility barriers: per-class bipartitions with parts >= floor
    split_options = _budgeted(_class_bipartitions(size, floor), g.r,
                              DIVISIBILITY_BUDGET)
    if split_options is None:
        report["divisibility_exhaustive"] = False
    else:
        seen_keys = set()
        for pick in product(split_options, repeat=g.r):
            if all(s is None for s in pick):
                continue
            part_rows = []
            next_part = 0
            for c in range(g.r):
                if pick[c] is None:
                    part_rows.append(tuple(next_part for _ in range(size)))
                    next_part += 1
                else:
                    inside = set(pick[c])
                    part_rows.append(tuple(next_part if o in inside
                                           else next_part + 1
                                           for o in range(size)))
                    next_part += 2
            q = PartitionLabeling(next_part, tuple(part_rows))
            lattice = robust_edge_lattice(cliques, q, mu_count)
            complete, violating = is_complete_wrt(lattice, q)
            if complete:
                continue
            minimal_q, minimal_lat = merge_to_minimal(q, lattice)
            if minimal_q.d == g.r:
                continue  # merging collapsed the refinement entirely
            complete2, violating2 = is_complete_wrt(minimal_lat, minimal_q)
            if complete2:
                continue
            key = tuple(minimal_q.part_of)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            report["divisibility"].append({
                "part_of": [list(row) for row in minimal_q.part_of],
                "d": minimal_q.d,
                "violating_pair": list(violating2),
                "basis": [list(b) for b in minimal_lat.basis]})
    return report
