"""Row decompositions, splittability / pair-completeness detection, integer
lattices of edge indices, and barrier diagnosis.

Splittability and pair-completeness are existential density conditions on
the blocks a search is given: one flat-id mask per class, the blocks of a
row of a `RowDecomposition` or by default the whole classes.  A search reads
g's adjacency rows in place, masked by the union of the blocks where a row
itself is compared, draws and ranks vertices by their position within each
block, and returns witnesses whose sets are flat-id masks of g.  The
searches are exact (complete backtracking) for small blocks and a verified
local-search heuristic above a size cap, and they score candidates with
integer edge counts over bitmasks (the heuristics update them incrementally
per swap), never with `Fraction`s.  Any returned witness is re-checked once,
by `is_splittable` / `is_pair_complete`, before it is handed back:
`verify_split_witness` / `verify_pair_complete_witness` check its shape (one
mask per block, inside it, all of one size) and then every density as an
edge count over g's rows against complements they build themselves, never a
mask or count a search made.  So witnesses are always exact and only
*absence* depends on the block size: the exact search certifies it, and at
any size so does the non-edge component rule that `is_splittable` tries
before any split search (`_split_refuted`).  Offsets appear only in the
report of `diagnose_barriers`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice, product
from operator import or_
from typing import Iterable, Sequence

from .graphs import (MultipartiteGraph, PartitionLabeling, Vertex,
                     clique_complex_edges, components, index_vector, mask_ids)

EXACT_CLASS_CAP = 8           # exact detection up to this class size
HEURISTIC_RESTARTS = 8        # seeded random starts per heuristic search
HEURISTIC_MAX_STEPS = 60      # climbing steps per start
SPACE_BUDGET = 200_000        # space-barrier candidates diagnose_barriers tries
DIVISIBILITY_BUDGET = 20_000  # divisibility-barrier candidates, likewise


# -- row decompositions -------------------------------------------------------


@dataclass(frozen=True)
class RowDecomposition:
    """Blocks rows[i][j] partitioning (part of) each class j into s rows of
    weight p_i, each block a mask of flat ids of the decomposed graph.

    Every block in row i has exactly weights[i] * unit vertices, and no two
    blocks share a vertex.
    """

    weights: tuple[int, ...]
    unit: int
    rows: tuple[tuple[int, ...], ...]  # rows[i][j]: flat-id mask in class j

    def __post_init__(self):
        seen = 0
        for i, row in enumerate(self.rows):
            for j, block in enumerate(row):
                if block.bit_count() != self.weights[i] * self.unit:
                    raise ValueError(
                        f"block ({i},{j}) has {block.bit_count()} vertices, "
                        f"expected {self.weights[i] * self.unit}")
                if block & seen:
                    raise ValueError(f"block ({i},{j}) overlaps another block")
                seen |= block

    @property
    def s(self) -> int:
        return len(self.weights)

    @property
    def r(self) -> int:
        return len(self.rows[0])


def trivial_decomposition(g: MultipartiteGraph, k: int) -> RowDecomposition:
    """One row of weight k holding the first k·⌊n/k⌋ vertices of each class
    (n the class size); the vertices beyond the first k·⌊n/k⌋ of each class
    stay outside every block."""
    if len(set(g.class_sizes)) != 1:
        raise ValueError("classes must have equal size")
    n = g.class_sizes[0] // k
    return RowDecomposition(
        (k,), n,
        (tuple(((1 << k * n) - 1) << g._off[j] for j in range(g.r)),))


def min_diagonal_density(g: MultipartiteGraph, decomp: RowDecomposition) -> Fraction:
    """Minimum density between blocks in different rows and columns; 1 when
    the decomposition has a single row."""
    if decomp.s == 1:
        return Fraction(1)
    masks = decomp.rows
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


# -- splittability ------------------------------------------------------------


@dataclass
class SplitWitness:
    """Sets S_j of p_prime*n vertices in each block B_j, as flat-id masks of
    the searched graph, with all cross densities d(S_j, B_j' \\ S_j') at
    least 1-d."""

    p_prime: int
    sets: list[int]              # flat-id mask per block
    achieved: Fraction           # minimum density over all ordered pairs


def verify_split_witness(g: MultipartiteGraph, w: SplitWitness,
                         d: Fraction, *, blocks: Sequence[int] | None = None
                         ) -> bool:
    """Recheck a split witness on the blocks it was found in (one flat-id
    mask per class, by default the classes).  The sets must be one mask per
    block, each inside its block, all of one size t with 0 < t < block size;
    every density is an edge count over g's rows against complements built
    here."""
    blocks = g._class_masks if blocks is None else blocks
    sets = w.sets
    size = blocks[0].bit_count()
    t = sets[0].bit_count() if sets else 0
    if (len(sets) != len(blocks) or not 0 < t < size
            or any(s & ~b or s.bit_count() != t for s, b in zip(sets, blocks))):
        return False
    e = _pair_counts(g, sets, [b & ~s for s, b in zip(sets, blocks)])
    w.achieved = min([Fraction(1)] + [Fraction(x, t * (size - t))
                                      for a, row in enumerate(e)
                                      for b, x in enumerate(row) if a != b])
    return w.achieved >= 1 - d


def is_splittable(g: MultipartiteGraph, p: int, d: Fraction, *,
                  seed: int = 0, blocks: Sequence[int] | None = None
                  ) -> SplitWitness | None:
    """Search the blocks (one flat-id mask per class, by default the
    classes) for an equal-proportion split with all diagonal densities
    >= 1-d; each block is searched in place, by its vertices' positions.

    First the non-edge component rule (`_split_refuted`) may refute every
    weight; None is then certified absence at any block size, and no search
    runs.  Otherwise blocks of at most EXACT_CLASS_CAP vertices get complete
    backtracking over per-block subsets (lexicographic, so the first witness
    found is the least, and None is certified absence); larger blocks get
    seeded hill climbing, whose None certifies nothing.
    """
    blocks = g._class_masks if blocks is None else blocks
    sizes = {b.bit_count() for b in blocks}
    if len(sizes) != 1:
        raise ValueError("blocks must have equal size")
    size = sizes.pop()
    if p < 1 or size % p != 0:
        raise ValueError(f"block size {size} is not divisible by weight {p}")
    if p == 1 or size == 0:     # no proper nonempty part to split off
        return None
    n = size // p
    if _split_refuted(g, blocks, p, n, d):
        return None
    if size <= EXACT_CLASS_CAP:
        witness = _split_exact(g, blocks, p, n, d)
    else:
        witness = _split_heuristic(g, blocks, p, n, d, seed)
    if witness is not None and (
            not verify_split_witness(g, witness, d, blocks=blocks)
            or witness.sets[0].bit_count() != witness.p_prime * n):
        raise AssertionError("searcher returned a witness that fails verification")
    return witness


def _split_refuted(g, blocks, p, n, d):
    """True when the cross-block non-edges alone rule out a split for every
    p_prime in 1..p-1.

    A witness for p_prime has t = p_prime*n vertices of each block in S and
    c = size - t outside, and allows at most d*t*c non-edges from S_a to
    B_b minus S_b.  When d*t*c < 1 it allows none, so each connected
    component of the cross-block non-edge graph (u, w in different blocks,
    not adjacent) lies wholly in S or wholly outside it.  A component with
    more than t vertices in some block and more than c in some block fits
    on neither side.  The rule applies only when d*t*c < 1 for every
    p_prime; it never rejects a graph that has a split.
    """
    size = p * n
    targets = [q * n for q in range(1, p)]
    if any(d * t * (size - t) >= 1 for t in targets):
        return False
    union = reduce(or_, blocks)
    non_edges = [union & ~g._class_masks[c] & ~nb
                 for c, nb in zip(g._class_of, g._adj)]
    for comp in components(union, non_edges):
        # misfitting only grows with `most`, so the component with the
        # largest block count misfits every p_prime that any component does
        most = max((comp & b).bit_count() for b in blocks)
        if all(most > t and most > size - t for t in targets):
            return True
    return False


def _exact_choice(blocks, options, pair_ok):
    """Lexicographically least choice of one mask per block, from options[j]
    for block j, with pair_ok(s_a, t_a, s_b, t_b) true for every pair of
    blocks b < a (s: the chosen mask, t: the rest of its block); None if
    there is none.  Each option's complement is built once."""
    table = [[(m, block & ~m) for m in opts]
             for block, opts in zip(blocks, options)]
    chosen = []

    def backtrack(a):
        if a == len(table):
            return True
        for option in table[a]:
            s_a, t_a = option
            if all(pair_ok(s_a, t_a, s_b, t_b) for s_b, t_b in chosen):
                chosen.append(option)
                if backtrack(a + 1):
                    return True
                chosen.pop()
        return False

    return [s for s, _ in chosen] if backtrack(0) else None


def _split_exact(g, blocks, p, n, d):
    """Least split for the least p_prime: every e(S_a, B_b minus S_b) at
    least (1-d)*t*c, with t = p_prime*n and c = size - t.  The options of a
    block are its t-subsets in lexicographic order of positions."""
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

        options = [[sum(1 << f for f in c)
                    for c in combinations(mask_ids(b), target)] for b in blocks]
        sets = _exact_choice(blocks, options, pair_ok)
        if sets is not None:
            return SplitWitness(p_prime, sets, Fraction(0))
    return None


def _pair_counts(g, left, right):
    """e(left[a], right[b]) for every ordered pair of blocks a != b (masks
    per block), 0 on the diagonal."""
    r = len(left)
    return [[g.edge_count_between(left[a], right[b]) if a != b else 0
             for b in range(r)] for a in range(r)]


def _pivot_seed(g, ids, union, c, nv, target, side):
    """Masks of `target` vertices per block seeded by a pivot in block c
    whose row within the blocks (`union`) is nv; ids[j] lists block j's
    vertices.  In block c the vertices whose rows within the blocks are
    nearest nv in Hamming distance, in every other block the vertices with
    bit `side` in nv first (1: neighbours, 0: non-neighbours), ties to the
    lower position."""
    sets = []
    for j, block in enumerate(ids):
        if j == c:
            ranked = sorted(block, key=lambda f: (
                ((g._adj[f] ^ nv) & union).bit_count(), f))
        else:
            ranked = [f for f in block if (nv >> f & 1) == side]
            if len(ranked) < target:
                ranked += [f for f in block if (nv >> f & 1) != side]
        sets.append(sum(1 << f for f in ranked[:target]))
    return sets


def _split_pivot_candidates(g, blocks, p, n):
    """Deterministic seed splits derived from single vertices: outside the
    pivot's block take its non-neighbors, inside take the vertices with the
    most similar neighborhoods.  Exact for blow-up-shaped instances.

    A candidate depends only on the pivot's block and its row within the
    blocks, so each distinct such row of a block is tried once, at its first
    vertex."""
    ids = [list(mask_ids(b)) for b in blocks]
    union = reduce(or_, blocks)
    for c in range(len(blocks)):
        for nv in dict.fromkeys(g._adj[f] & union for f in ids[c]):
            non_counts = [(b & ~nv).bit_count()
                          for j, b in enumerate(blocks) if j != c]
            if not non_counts:
                continue
            p_prime = round(sum(non_counts) / len(non_counts) / n)
            if 1 <= p_prime <= p - 1:
                yield p_prime, _pivot_seed(g, ids, union, c, nv,
                                           p_prime * n, 0)


def _split_heuristic(g, blocks, p, n, d, seed):
    """Pivot candidates first, then seeded hill climbing from random splits.

    All sets have p_prime*n vertices, so every density of a split shares the
    denominator full = target * (size - target), and the climb ranks splits
    by the integer pair (min e, sum e) over e[a][b] = e(S_a, B_b minus S_b):
    the same order as the densities give, with no Fractions.  A swap in block
    j changes only row j and column j of that table, so a trial move costs
    O(r) bit counts.
    """
    size = p * n
    r = len(blocks)
    bound = 1 - Fraction(d)
    num, den = bound.numerator, bound.denominator
    ids = [list(mask_ids(b)) for b in blocks]

    def feasible(worst, full):
        return worst * den >= num * full

    def climb(sets, rng, target):
        # sets[j]: the ascending flat ids of S_j
        free = size - target
        full = target * free
        masks = [sum(1 << f for f in s) for s in sets]
        comps = [[f for f in block if not m >> f & 1]
                 for block, m in zip(ids, masks)]
        comp_masks = [b & ~m for b, m in zip(blocks, masks)]
        e = _pair_counts(g, masks, comp_masks)
        pairs = [(a, b) for a in range(r) for b in range(r) if a != b]
        others = [[b for b in range(r) if b != j] for j in range(r)]
        worst = min([full] + [e[a][b] for a, b in pairs])
        total = sum(e[a][b] for a, b in pairs)
        for _ in range(HEURISTIC_MAX_STEPS):
            if feasible(worst, full):
                break
            # per block j: the least entry outside row j and column j, and
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
                n_out, n_in = g._adj[out_v], g._adj[in_v]
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
                    swap = 1 << out_v | 1 << in_v
                    masks[j] ^= swap
                    comp_masks[j] ^= swap
                    worst, total, improved = new_worst, new_total, True
                    break
            if not improved:
                break
        return masks, feasible(worst, full)

    for p_prime, sets in _split_pivot_candidates(g, blocks, p, n):
        target = p_prime * n
        e = _pair_counts(g, sets, [b & ~s for b, s in zip(blocks, sets)])
        if feasible(min(e[a][b] for a in range(r) for b in range(r) if a != b),
                    target * (size - target)):
            return SplitWitness(p_prime, sets, Fraction(0))

    for p_prime in range(1, p):
        target = p_prime * n
        for t in range(HEURISTIC_RESTARTS):
            rng = random.Random(f"split:{seed}:{p_prime}:{t}")
            sets = [sorted(rng.sample(block, target)) for block in ids]
            masks, ok = climb(sets, rng, target)
            if ok:
                return SplitWitness(p_prime, masks, Fraction(0))
    return None


# -- pair-completeness ----------------------------------------------------------


@dataclass
class PairCompleteWitness:
    """Halves S_j of n vertices in each block B_j of 2n, as flat-id masks of
    the searched graph: dense within each half, sparse across."""

    halves: list[int]            # flat-id mask per block
    min_half_density: Fraction
    min_cohalf_density: Fraction
    max_cross_density: Fraction


def verify_pair_complete_witness(g: MultipartiteGraph, w: PairCompleteWitness,
                                 d: Fraction, *,
                                 blocks: Sequence[int] | None = None) -> bool:
    """Recheck a pair-complete witness on the blocks it was found in (one
    flat-id mask per class, by default the classes).  The halves must be one
    mask per block, each inside its block and holding half of it; every
    density is an edge count over g's rows against complements built
    here."""
    blocks = g._class_masks if blocks is None else blocks
    halves = w.halves
    size = blocks[0].bit_count()
    n = size // 2
    if (size % 2 or not n or len(halves) != len(blocks)
            or any(h & ~b or h.bit_count() != n for h, b in zip(halves, blocks))):
        return False
    others = [b & ~h for h, b in zip(halves, blocks)]
    pairs = [(a, b) for a in range(len(blocks)) for b in range(len(blocks))
             if a != b]
    ss, tt, st = ([Fraction(e[a][b], n * n) for a, b in pairs] for e in (
        _pair_counts(g, halves, halves), _pair_counts(g, others, others),
        _pair_counts(g, halves, others)))
    w.min_half_density, w.min_cohalf_density, w.max_cross_density = (
        min([Fraction(1)] + ss), min([Fraction(1)] + tt), max([Fraction(0)] + st))
    return (w.min_half_density >= 1 - d and w.min_cohalf_density >= 1 - d
            and w.max_cross_density <= d)


def is_pair_complete(g: MultipartiteGraph, d: Fraction, *,
                     seed: int = 0, blocks: Sequence[int] | None = None
                     ) -> PairCompleteWitness | None:
    """Search the blocks (one flat-id mask per class, by default the
    classes) for halves with near-complete intra-half and near-empty
    cross-half densities, each block in place, by its vertices' positions:
    complete backtracking for blocks of at most EXACT_CLASS_CAP vertices
    (None is then certified absence), seeded hill climbing above.  Witnesses
    are re-verified before return."""
    blocks = g._class_masks if blocks is None else blocks
    sizes = {b.bit_count() for b in blocks}
    if len(sizes) != 1:
        raise ValueError("blocks must have equal size")
    size = sizes.pop()
    if size % 2 != 0:
        raise ValueError("blocks must have even size")
    n = size // 2
    if size <= EXACT_CLASS_CAP:
        witness = _pc_exact(g, blocks, n, d)
    else:
        witness = _pc_heuristic(g, blocks, n, d, seed)
    if witness is not None and not verify_pair_complete_witness(
            g, witness, d, blocks=blocks):
        raise AssertionError("searcher returned a witness that fails verification")
    return witness


def _pc_exact(g, blocks, n, d):
    """Least halves with e(S_a, S_b) and e(T_a, T_b) at least (1-d)*n*n and
    e(S_a, T_b) at most d*n*n for every pair of blocks."""
    lo, hi = 1 - Fraction(d), Fraction(d)
    least, most = lo.numerator * n * n, hi.numerator * n * n
    count = g.edge_count_between

    def pair_ok(s_a, t_a, s_b, t_b):
        return (count(s_b, s_a) * lo.denominator >= least
                and count(t_b, t_a) * lo.denominator >= least
                and count(s_b, t_a) * hi.denominator <= most
                and count(s_a, t_b) * hi.denominator <= most)

    options = [[sum(1 << f for f in c) for c in combinations(mask_ids(b), n)]
               for b in blocks]
    # Global half-swap symmetry: restrict block 0 to halves holding its
    # first vertex.
    first = blocks[0] & -blocks[0]
    options[0] = [h for h in options[0] if h & first]
    chosen = _exact_choice(blocks, options, pair_ok)
    if chosen is None:
        return None
    return PairCompleteWitness(chosen, Fraction(0), Fraction(0), Fraction(0))


def _pc_pivot_candidates(g, blocks, n):
    """Deterministic seed halves from single vertices: outside the pivot's
    block its neighbors, inside the most similar neighborhoods.  Each
    distinct row within the blocks of a block is tried once."""
    ids = [list(mask_ids(b)) for b in blocks]
    union = reduce(or_, blocks)
    for c in range(len(blocks)):
        for nv in dict.fromkeys(g._adj[f] & union for f in ids[c]):
            yield _pivot_seed(g, ids, union, c, nv, n, 1)


def _pc_heuristic(g, blocks, n, d, seed):
    """Pivot candidates first, then seeded first-improvement climbing.

    Every density of a half pair has the denominator n*n, so the score
    lo - hi is kept as the integer min e(S_a, S_b), e(T_a, T_b) minus max
    e(S_a, T_b), with the identities n*n and 0 that the density form starts
    from.  A swap in block j changes only the entries that involve block j,
    and each vertex's edge counts into the halves are counted once per step.
    """
    r = len(blocks)
    full = n * n
    lo_bound, hi_bound = 1 - Fraction(d), Fraction(d)
    ids = [list(mask_ids(b)) for b in blocks]
    pairs = [(a, b) for a in range(r) for b in range(r) if a != b]

    def table(s_masks):
        t_masks = [b & ~s for b, s in zip(blocks, s_masks)]
        return (t_masks, _pair_counts(g, s_masks, s_masks),
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

    for cand in _pc_pivot_candidates(g, blocks, n):
        _, ss, tt, st = table(cand)
        if feasible(*extremes(ss, tt, st)):
            return PairCompleteWitness(cand, Fraction(0), Fraction(0),
                                       Fraction(0))

    for t in range(HEURISTIC_RESTARTS):
        rng = random.Random(f"pc:{seed}:{t}")
        # halves[j]: the ascending flat ids of S_j
        halves = [sorted(rng.sample(block, n)) for block in ids]
        s_masks = [sum(1 << f for f in h) for h in halves]
        t_masks, ss, tt, st = table(s_masks)
        lo, hi = extremes(ss, tt, st)
        for _ in range(HEURISTIC_MAX_STEPS):
            if feasible(lo, hi):
                break
            improved = False
            for j in range(r):
                rest_lo, rest_hi = extremes(ss, tt, st, skip=j)
                others = [b for b in range(r) if b != j]
                # edge counts of each block-j vertex into S_b and T_b
                into = {f: [((g._adj[f] & s_masks[b]).bit_count(),
                             (g._adj[f] & t_masks[b]).bit_count())
                            for b in others] for f in ids[j]}
                inside = set(halves[j])
                outside = [f for f in ids[j] if f not in inside]
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
                            swap = 1 << out_v | 1 << in_v
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
            return PairCompleteWitness(s_masks, Fraction(0), Fraction(0),
                                       Fraction(0))
    return None


# -- iterative refinement -------------------------------------------------------


def ladder(k: int) -> list[Fraction]:
    """The splitting ladder: k ascending thresholds 1/100, 2/100, 4/100, ..."""
    return [Fraction(2 ** i, 100) for i in range(k)]


@dataclass
class IterationResult:
    decomposition: RowDecomposition
    min_diagonal_density: Fraction


def iterate_decomposition(g: MultipartiteGraph, k: int, *,
                          seed: int = 0) -> IterationResult:
    """Refine the trivial one-row decomposition by splitting rows while any
    row is splittable at the `ladder(k)` threshold for the current row count.
    Each row is searched in place, with its blocks as the blocks of
    `is_splittable`, and a split's sets become the first new row's blocks.
    The vertices beyond the first k·⌊n/k⌋ of each class stay in no block.

    Tie-breaking is deterministic: the lowest-index splittable row splits
    first, using the lexicographically least witness the searcher finds.
    """
    thresholds = ladder(k)
    decomp = trivial_decomposition(g, k)
    n = decomp.unit
    weights = [k]
    rows: list[list[int]] = [list(decomp.rows[0])]

    while len(weights) < k:
        d_s = thresholds[len(weights) - 1]
        for i, row in enumerate(rows):
            if weights[i] < 2:
                continue
            w = is_splittable(g, weights[i], d_s, seed=seed, blocks=row)
            if w is None:
                continue
            rows[i] = w.sets
            rows.append([block & ~part for block, part in zip(row, w.sets)])
            weights.append(weights[i] - w.p_prime)
            weights[i] = w.p_prime
            break
        else:   # no row splits at this threshold
            break

    final = RowDecomposition(tuple(weights), n,
                             tuple(tuple(row) for row in rows))
    return IterationResult(final, min_diagonal_density(g, final))


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


def space_barrier_graph(r: int, p: int, n: int,
                        j: int) -> tuple[MultipartiteGraph, list[list[int]]]:
    """Graph on classes of size p*n in which every p-clique has at most j
    vertices inside the planted set S (the first j*n offsets per class).

    Inside S, vertices carry one of j group labels (offset // n) and
    same-label cross-class pairs are non-adjacent; every other cross-class
    pair is an edge.  Any clique within S therefore has pairwise-distinct
    labels, hence at most j vertices.  Returns the graph and S as per-class
    offset lists.
    """
    if not (1 <= j < p):
        raise ValueError("need 1 <= j < p")
    size = p * n
    s_size = j * n
    from .graphs import complete_multipartite
    g = complete_multipartite([size] * r)
    masks = list(g._adj)

    for c1 in range(r):
        for o1 in range(s_size):
            f1 = g.flat((c1, o1))
            for c2 in range(c1 + 1, r):
                for o2 in range(s_size):
                    if o1 // n == o2 // n:
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
    listed in full.  Split and two-half detection search the whole classes
    and choose their search by the class size, as in `is_splittable` and
    `is_pair_complete`; the report names their mask witnesses by offsets.
    """
    sizes = set(g.class_sizes)
    if len(sizes) != 1:
        raise ValueError("classes must have equal size")
    size = g.class_sizes[0]
    if p_weight < 1 or size % p_weight != 0:
        raise ValueError("class size must be divisible by a weight of at least 1")
    n = size // p_weight
    if floor is None:
        floor = max(1, n // 2)

    report: dict = {"splittable": None, "pair_complete": None,
                    "space": [], "divisibility": [],
                    "space_exhaustive": True, "divisibility_exhaustive": True}

    w = is_splittable(g, p_weight, d, seed=seed)
    if w is not None:
        report["splittable"] = {"p_prime": w.p_prime,
                                "sets": [list(mask_ids(s >> g._off[j]))
                                         for j, s in enumerate(w.sets)],
                                "achieved": str(w.achieved)}
    if p_weight == 2 and size % 2 == 0:
        pc = is_pair_complete(g, d, seed=seed)
        if pc is not None:
            report["pair_complete"] = {
                "halves": [list(mask_ids(h >> g._off[j]))
                           for j, h in enumerate(pc.halves)],
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
