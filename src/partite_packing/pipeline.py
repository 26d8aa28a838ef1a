"""The staged deletion pipeline: bad-vertex classification, greedy clique
building, the five balancing/covering stages, per-row balanced packings,
and the gluing of row packings into one spanning clique packing.

`solve` takes its routes in one order.  It answers k = 1 by singletons, and
then Γ(n, r, k) with rn/k odd by its barrier, before any route runs: that is
the only place `solve` looks for Γ.  Small graphs go to the exhaustive
oracle and the rest to the pipeline.  Every stage ends with an exact recount
of its postcondition; a stage that cannot meet it raises StageFailure rather
than passing silently, and the orchestrator falls back to the oracle or
reports a structured diagnosis.

Only the rows, prepare and cover stages delete cliques.  At desk scale the
greedy column pattern that builds every deleted clique already leaves each
class and each block even, so the columns and blocks stages only recount:
the paper's index swaps and block fillers are not built, and an uneven
count fails the stage.  Wherever the stages run on the benchmark's graphs
there is no bad vertex, no row excess and at most one heavy row, so only
"proper" cliques are built.  The graphs of
test_solve_reaches_the_building_block_kinds have bad vertices, positive row
excesses and two heavy two-half rows.  In complete graphs whose class size
is not a multiple of k (test_solve_packs_complete_graphs_with_trimmed_offsets),
the trimmed offsets give a weight-1 row positive excess, which the rows
stage removes with `_row_edge_matching` and "through_edge" cliques.  In the
graph near Γ(9, 5, 3) of test_solve_builds_through_edge_near_gamma,
`_extremal_zero_excess_fix` extends an added edge inside a weight-1 row to
a clique.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import ceil, comb, factorial
from typing import Iterable, Sequence

from .graphs import (CliquePacking, MultipartiteGraph, Vertex, index_set,
                     k_cliques, partite_min_degree)
from .matching import (bipartite_maximum_matching,
                       exact_balanced_clique_packing,
                       pair_complete_balanced_matching, ObstructionError)
from .oracle import (brute_force_packing, exact_cover, gamma_barrier,
                     is_isomorphic_to_gamma)
from .structure import (RowDecomposition, block_masks, detection_mode,
                        is_pair_complete, iterate_decomposition)


class StageFailure(RuntimeError):
    def __init__(self, stage: str, reason: str, detail=None):
        self.stage, self.reason, self.detail = stage, reason, detail
        super().__init__(f"[{stage}] {reason}")


class RecountFailure(StageFailure):
    pass


FALLBACK_CUTOFF = 40    # oracle fallback after a stage failure, in vertices
ETA_COUNT = 1           # spare cliques per heavy row pair


def ladder(k: int) -> list[Fraction]:
    """The splitting ladder: k ascending thresholds 1/100, 2/100, 4/100, ..."""
    return [Fraction(2 ** i, 100) for i in range(k)]


@dataclass
class PipelineParams:
    pc_threshold: Fraction = Fraction(1, 4)    # pair-completeness slack
    budget: int = 2_000_000                    # oracle and exact-search nodes
    seed: int = 0


# -- block assignment ---------------------------------------------------------


@dataclass
class BlockAssignment:
    """Mutable containers W^i_j derived from a row decomposition by moving
    bad vertices; the X-blocks stay fixed and drive all badness queries."""

    g: MultipartiteGraph
    decomp: RowDecomposition
    w: list[list[set[Vertex]]]
    y: list[list[set[Vertex]]]
    bad: set[Vertex]
    pc_rows: set[int]
    s_half: dict[int, list[set[Vertex]]]

    def __post_init__(self):
        self._x_masks = block_masks(self.g, self.decomp)
        self._bad_cache: dict[Vertex, frozenset] = {}
        self.v_block: dict[Vertex, tuple[int, int]] = {}
        for i in range(self.s):
            for j in range(self.r):
                for v in self.w[i][j]:
                    self.v_block[v] = (i, j)

    @property
    def s(self) -> int:
        return self.decomp.s

    @property
    def r(self) -> int:
        return self.decomp.r

    @property
    def n(self) -> int:
        return self.decomp.unit

    @property
    def weights(self):
        return self.decomp.weights

    def row_vertices(self, i: int) -> set[Vertex]:
        out: set[Vertex] = set()
        for j in range(self.r):
            out |= self.w[i][j]
        return out

    def is_block_bad_for(self, v: Vertex, i: int, j: int) -> bool:
        """More than n/2 non-neighbors of v inside the fixed block X^i_j."""
        mask = self._x_masks[i][j] & ~self.g.adj_mask(v)
        mask &= ~(1 << self.g.flat(v))
        return 2 * mask.bit_count() > self.n

    def bad_blocks_of(self, v: Vertex) -> frozenset:
        got = self._bad_cache.get(v)
        if got is None:
            got = frozenset((i, j) for i in range(self.s)
                            for j in range(self.r)
                            if j != v[0] and self.is_block_bad_for(v, i, j))
            self._bad_cache[v] = got
        return got

    def in_s_half(self, v: Vertex) -> bool:
        i, j = self.v_block[v]
        return i in self.pc_rows and v in self.s_half[i][j]

    def good_in_block(self, i: int, j: int) -> list[Vertex]:
        return sorted(self.y[i][j])


def classify_bad_vertices(g: MultipartiteGraph, decomp: RowDecomposition,
                          pc_halves: dict[int, list[set[int]]],
                          bad_slack: int) -> BlockAssignment:
    """Mark vertices bad (weak diagonal block, weak half in a two-half row,
    or outside the decomposition entirely), reassign each bad vertex to the
    row holding the most blocks that are bad for it, and carry the half sets
    forward using the majority-neighborhood rule."""
    s, r, n = decomp.s, decomp.r, decomp.unit
    weights = decomp.weights
    x_masks = block_masks(g, decomp)
    t_masks = {i: [g.mask_of([(j, o) for o in sorted(pc_halves[i][j])])
                   for j in range(r)] for i in pc_halves}

    in_x: set[Vertex] = set()
    for i in range(s):
        for j in range(r):
            in_x.update(decomp.block_vertices(i, j))

    def weak(i, j, inside, nv):
        """Whether a vertex of block X^i_j with neighbourhood nv has a weak
        diagonal block or, in a two-half row, a weak half (`inside`: the
        vertex lies in the row's half T^i_j)."""
        for i2 in range(s):
            if i2 == i:
                continue
            for j2 in range(r):
                if (j2 != j and (x_masks[i2][j2] & ~nv).bit_count()
                        > bad_slack * weights[i2]):
                    return True
        if i not in pc_halves:
            return False
        for j2 in range(r):
            if j2 == j:
                continue
            ref = (t_masks[i][j2] if inside
                   else x_masks[i][j2] & ~t_masks[i][j2])
            if (ref & ~nv).bit_count() > bad_slack:
                return True
        return False

    bad: set[Vertex] = {v for v in g.vertices() if v not in in_x}
    verdicts: dict[tuple, bool] = {}   # twins in one block share a verdict
    for i in range(s):
        if s == 1 and i not in pc_halves:
            continue    # a single row without halves has nothing to audit
        for j in range(r):
            half = pc_halves[i][j] if i in pc_halves else ()
            for v in decomp.block_vertices(i, j):
                key = (i, j, v[1] in half, g.adj_mask(v))
                verdict = verdicts.get(key)
                if verdict is None:
                    verdict = verdicts[key] = weak(*key)
                if verdict:
                    bad.add(v)

    w = [[set() for _ in range(r)] for _ in range(s)]
    y = [[set() for _ in range(r)] for _ in range(s)]
    for i in range(s):
        for j in range(r):
            for v in decomp.block_vertices(i, j):
                if v not in bad:
                    w[i][j].add(v)
                    y[i][j].add(v)

    helper = BlockAssignment(g, decomp, [[set(b) for b in row] for row in w],
                             [[set(b) for b in row] for row in y],
                             set(bad), set(), {})
    for v in sorted(bad):
        counts = [sum(1 for (i2, j2) in helper.bad_blocks_of(v) if i2 == i)
                  for i in range(s)]
        target = max(range(s), key=lambda i: (counts[i], -i))
        w[target][v[0]].add(v)

    s_half: dict[int, list[set[Vertex]]] = {}
    for i in pc_halves:
        s_half[i] = []
        for j in range(r):
            t_j = {(j, o) for o in pc_halves[i][j]}
            half = {v for v in t_j if v not in bad}
            for v in w[i][j]:
                if v in bad:
                    for j2 in range(r):
                        if j2 == j:
                            continue
                        deg = (g.adj_mask(v) & t_masks[i][j2]).bit_count()
                        if 2 * deg >= n:
                            half.add(v)
                            break
            s_half[i].append(half)

    return BlockAssignment(g, decomp, w, y, set(bad), set(pc_halves), s_half)


# -- greedy clique extension -----------------------------------------------------


def _extension_condition(asg: BlockAssignment, base: Sequence[Vertex],
                         a_sets: dict[int, tuple[int, ...]], i: int
                         ) -> str | None:
    """Which of the five supply conditions holds for row i, if any."""
    cols = a_sets.get(i, ())
    base_blocks = {asg.v_block[v] for v in base if v in asg.v_block}
    base_cols_in_row = {j for (i2, j) in base_blocks if i2 == i}
    if cols and all(j in base_cols_in_row for j in cols):
        return "a"
    if len(cols) <= asg.weights[i]:
        if not base:
            return "b"
        v1 = base[0]
        for j in cols:
            if (i, j) in base_blocks:
                continue
            if not asg.is_block_bad_for(v1, i, j) and j != v1[0]:
                return "c"
        if v1 in asg.v_block and asg.v_block[v1][0] == i:
            return "d"
    if len(cols) < asg.weights[i]:
        return "e"
    return None


def extend_clique(g: MultipartiteGraph, asg: BlockAssignment,
                  base: Sequence[Vertex], a_sets: dict[int, tuple[int, ...]],
                  *, forbidden: Iterable[Vertex] = ()):
    """Extend a partial clique to one meeting exactly the blocks (i, j) for
    j in a_sets[i], choosing the least admissible good vertex at each step.

    Two-half rows keep even half-intersections when both of their columns are
    filled here.  Returns the full clique, or None when a step finds no
    admissible vertex.
    """
    base = list(base)
    cols_needed = {i: tuple(cols) for i, cols in a_sets.items() if cols}
    all_cols = [j for cols in cols_needed.values() for j in cols]
    if len(all_cols) != len(set(all_cols)):
        raise ValueError("column sets must be pairwise disjoint")
    for v in base:
        blk = asg.v_block.get(v)
        if blk is None:
            raise ValueError(f"base vertex {v} is outside the assignment")
        if blk[0] not in cols_needed or blk[1] not in cols_needed[blk[0]]:
            raise ValueError(f"base vertex {v} not covered by the column sets")
    for i in cols_needed:
        cond = _extension_condition(asg, base, cols_needed, i)
        if cond is None:
            raise ValueError(f"no supply condition holds for row {i}")

    forbid_mask = g.mask_of(forbidden) | g.mask_of(base)

    need_mask = (1 << g.n_vertices) - 1
    for v in base:
        need_mask &= g.adj_mask(v)

    chosen: list[Vertex] = []
    base_cols = {asg.v_block[v][1] for v in base}
    v1 = base[0] if base else None

    for i in sorted(cols_needed):
        row_cols = [j for j in sorted(cols_needed[i]) if j not in base_cols]
        # a column that is good for the anchor vertex goes last in its row
        if v1 is not None and len(row_cols) > 1:
            good_last = [j for j in row_cols
                         if not asg.is_block_bad_for(v1, i, j)]
            if good_last:
                j_last = good_last[-1]
                row_cols = [j for j in row_cols if j != j_last] + [j_last]
        row_first_half: bool | None = None
        base_in_row = any(asg.v_block[v][0] == i for v in base)
        for j in row_cols:
            pool_mask = g.mask_of(asg.y[i][j]) & need_mask & ~forbid_mask
            if (i in asg.pc_rows and len(cols_needed[i]) == 2
                    and not base_in_row and row_first_half is not None):
                s_mask = g.mask_of(asg.s_half[i][j])
                pool_mask &= s_mask if row_first_half else ~s_mask
            if pool_mask == 0:
                return None
            fid = (pool_mask & -pool_mask).bit_length() - 1
            v = g.vertex(fid)
            if i in asg.pc_rows and row_first_half is None:
                row_first_half = v in asg.s_half[i][j]
            chosen.append(v)
            need_mask &= g.adj_mask(v)
            forbid_mask |= 1 << fid

    clique = tuple(sorted(base + chosen))
    for a, b in combinations(clique, 2):
        if not g.has_edge(a, b):
            raise AssertionError("greedy extension produced a non-clique")
    return clique


# -- pattern selection and building blocks ------------------------------------------


def _greedy_pattern(asg: BlockAssignment, covered: set[Vertex],
                    sizes: dict[int, int],
                    anchors: dict[int, tuple[int, ...]]):
    """Disjoint column sets per row.  Columns are preferred globally by
    largest uncovered column (keeping class coverage even) and assigned to
    rows by largest uncovered block; non-anchored picks must have uncovered
    vertices left, with backtracking over column subsets when the preferred
    choice is infeasible.  Anchored columns are forced."""
    left = [[len(block - covered) for block in row] for row in asg.w]
    forced: set[int] = set()
    for cols in anchors.values():
        forced.update(cols)
    k_total = sum(sizes.values())
    if len(forced) > k_total:
        return None
    order = sorted(sizes, key=lambda i: (-asg.weights[i], i))

    def assign(chosen: set[int]):
        unassigned = set(chosen) - forced
        out: dict[int, tuple[int, ...]] = {}

        def rec(idx):
            if idx == len(order):
                return not unassigned
            i = order[idx]
            need = sizes[i] - len(anchors.get(i, ()))
            if need < 0:
                return False
            ranked = [j for j in sorted(unassigned,
                                        key=lambda j: (-left[i][j], j))
                      if left[i][j] > 0]
            for take in combinations(ranked, need):
                unassigned.difference_update(take)
                out[i] = tuple(sorted(anchors.get(i, ()) + take))
                if rec(idx + 1):
                    return True
                unassigned.update(take)
                del out[i]
            return False

        return dict(out) if rec(0) else None

    free = sorted((j for j in range(asg.r) if j not in forced),
                  key=lambda j: (-sum(row[j] for row in left), j))
    need_free = k_total - len(forced)
    if need_free > len(free):
        return None
    tries = 0
    for subset in combinations(free, need_free):
        got = assign(forced | set(subset))
        if got is not None:
            return got
        tries += 1
        if tries >= 60:
            return None
    return None


def _transversal_anchors(asg: BlockAssignment, v: Vertex,
                         skip_rows: Iterable[int], skip_cols: Iterable[int],
                         forbidden: set[Vertex]):
    """One block per remaining row, good for v and with a good vertex left
    outside `forbidden`, no two in one column, from a maximum matching of
    rows to allowed columns; None if a row is left out."""
    rows = [i for i in range(asg.s) if i not in set(skip_rows)]
    cols = [j for j in range(asg.r) if j not in set(skip_cols)]
    allowed = [[ci for ci, j in enumerate(cols)
                if not asg.is_block_bad_for(v, i, j)
                and not asg.y[i][j] <= forbidden] for i in rows]
    t = bipartite_maximum_matching(len(rows), len(cols), allowed)
    if len(t) < len(rows):
        return None
    return {rows[ri]: (cols[ci],) for ri, ci in t}


def building_block(g: MultipartiteGraph, asg: BlockAssignment, kind: str, *,
                   rows: tuple[int, int] | None = None,
                   vertex: Vertex | None = None,
                   edge: tuple[Vertex, Vertex] | None = None,
                   parity: int | None = None,
                   forbidden: Iterable[Vertex] = ()):
    """One clique of the requested distribution, or None with the obstruction
    implicit in the failed search.

    kinds: "proper" (p_i vertices per row, even half-intersections),
    "through_vertex" (proper, containing the given vertex), "ij" (one extra
    vertex in row i, one fewer in row j, seeded by the least (p_i+1)-clique of
    row i's good vertices; in a two-half row a given `parity` keeps the seed
    inside the half when at least 1 and outside it when 0),
    "through_edge" (ij for a weight-1 row i through the given edge),
    "outside_row" (proper but with no half-parity demand on the edge's own
    two-half row).  A kind only sets its base vertices, per-row sizes and
    anchored columns; one column pattern and one greedy extension then build
    every kind.  An anchored column is one whose block is good for the
    anchoring vertex and still has a good vertex outside `forbidden`.

    `solve` builds "ij" in the rows and prepare stages, "through_vertex" in
    cover, "outside_row" for it in a two-half row, and "through_edge" in
    the rows stage for a weight-1 row with positive excess (complete graphs
    whose class size is not a multiple of k) and in
    `_extremal_zero_excess_fix` on graphs near Γ(n, r, k)
    (test_solve_reaches_the_building_block_kinds,
    test_solve_packs_complete_graphs_with_trimmed_offsets,
    test_solve_builds_through_edge_near_gamma).
    """
    forbidden = set(forbidden)
    weights = asg.weights
    sizes = dict(enumerate(weights))
    base: list[Vertex] = []
    anchors: dict[int, tuple[int, ...]] | None = {}
    if kind == "through_vertex":
        v = vertex
        if v is None or v not in asg.v_block:
            raise ValueError("through_vertex needs an assigned vertex")
        li, lj = asg.v_block[v]
        if li in asg.pc_rows:
            # pick a good partner on the same side of the half split
            same_side = asg.in_s_half(v)
            for j2 in range(asg.r):
                if j2 == lj:
                    continue
                for u in asg.good_in_block(li, j2):
                    if u in forbidden or not g.has_edge(u, v):
                        continue
                    if (u in asg.s_half[li][j2]) != same_side:
                        continue
                    got = building_block(g, asg, "outside_row", edge=(u, v),
                                         forbidden=forbidden)
                    if got is not None:
                        return got
            return None
        base = [v]
        anchors = _transversal_anchors(asg, v, [li], [lj], forbidden)
        if anchors is None:
            return None
        anchors[li] = (lj,)
    elif kind == "ij":
        i, j = rows
        if weights[i] < 2:
            raise ValueError("ij building block needs a heavy source row")
        pool = 0
        for c in range(asg.r):
            block = g.mask_of(asg.y[i][c])
            if i in asg.pc_rows and parity is not None:
                half = g.mask_of(asg.s_half[i][c])
                block &= half if parity >= 1 else ~half
            pool |= block
        seed = next(k_cliques(g._adj, pool & ~g.mask_of(forbidden),
                              weights[i] + 1), None)
        if seed is None:
            return None
        base = [g.vertex(f) for f in seed]
        anchors = {i: tuple(sorted(v[0] for v in base))}
        sizes[i] += 1
        sizes[j] -= 1
    elif kind in ("through_edge", "outside_row"):
        u, v = edge
        base = [u, v]
        if kind == "through_edge":
            i, j = rows
            if weights[i] != 1:
                raise ValueError("through_edge extends an edge in a weight-1 row")
            skip_rows = [i, j] if weights[j] == 1 else [i]
            sizes[i] += 1
            sizes[j] -= 1
        else:
            i = asg.v_block[u][0]
            if weights[i] != 2:
                raise ValueError("outside_row extends an edge in a weight-2 row")
            skip_rows = [i]
        anchors = _transversal_anchors(asg, v if v in asg.bad else u,
                                       skip_rows, (u[0], v[0]), forbidden)
        if anchors is None:
            return None
        anchors[i] = (u[0], v[0])
    elif kind != "proper":
        raise ValueError(f"unknown building block kind {kind!r}")

    pattern = _greedy_pattern(asg, forbidden,
                              {i: p for i, p in sizes.items() if p}, anchors)
    if pattern is None:
        return None
    return extend_clique(g, asg, base, pattern, forbidden=forbidden)


# -- the deletion ledger ----------------------------------------------------------


@dataclass
class LedgerEntry:
    clique: tuple[Vertex, ...]
    stage: str
    tag: str


class DeletionLedger:
    """All cliques deleted so far, tagged by stage and distribution kind;
    re-verifiable for pairwise disjointness and completeness at any time."""

    def __init__(self, g: MultipartiteGraph):
        self.g = g
        self.entries: list[LedgerEntry] = []
        self.covered: set[Vertex] = set()

    def add(self, clique: Sequence[Vertex], stage: str, tag: str) -> None:
        clique = tuple(sorted(clique))
        overlap = set(clique) & self.covered
        if overlap:
            raise StageFailure(stage, f"clique overlaps ledger at {sorted(overlap)[0]}")
        self.entries.append(LedgerEntry(clique, stage, tag))
        self.covered.update(clique)

    def stage_cliques(self, stage: str) -> list[LedgerEntry]:
        return [e for e in self.entries if e.stage == stage]

    def __len__(self) -> int:
        return len(self.entries)

    def verify(self) -> list[str]:
        problems = []
        seen: set[Vertex] = set()
        for e in self.entries:
            for v in e.clique:
                if v in seen:
                    problems.append(f"vertex {v} deleted twice")
                seen.add(v)
            for a, b in combinations(e.clique, 2):
                if not self.g.has_edge(a, b):
                    problems.append(f"ledger clique {e.clique} misses {a}-{b}")
        if seen != self.covered:
            problems.append("covered set out of sync")
        return problems


def _clique_row_profile(asg: BlockAssignment, clique: Sequence[Vertex]) -> Counter:
    prof: Counter = Counter()
    for v in clique:
        prof[asg.v_block[v][0]] += 1
    return prof


def is_properly_distributed(asg: BlockAssignment, clique: Sequence[Vertex]) -> bool:
    prof = _clique_row_profile(asg, clique)
    if any(prof[i] != asg.weights[i] for i in range(asg.s)):
        return False
    for i in asg.pc_rows:
        if sum(1 for v in clique if asg.in_s_half(v)
               and asg.v_block[v][0] == i) % 2:
            return False
    return True


def is_ij_distributed(asg: BlockAssignment, clique: Sequence[Vertex],
                      i: int, j: int) -> bool:
    """Whether the clique has one vertex more than proper in row i, one fewer
    in row j, and even half-intersections in the other two-half rows."""
    prof = _clique_row_profile(asg, clique)
    for l in range(asg.s):
        want = asg.weights[l] + (1 if l == i else 0) - (1 if l == j else 0)
        if prof[l] != want:
            return False
    for l in asg.pc_rows:
        if l in (i, j):
            continue
        if sum(1 for v in clique if asg.v_block[v][0] == l
               and asg.in_s_half(v)) % 2:
            return False
    return True


# -- stage 1: balancing rows -------------------------------------------------------


def _row_edge_matching(g: MultipartiteGraph, asg: BlockAssignment, i: int,
                       size: int, forbidden: set[Vertex]):
    """Matching of the given size inside row i, every edge holding at least
    one good vertex, grown greedily by the least free edge; None when the
    greedy matching stops short.  Weight-1 rows with positive excess need
    it, as in complete graphs whose trimmed offsets are reassigned to a
    weight-1 row, and there the greedy growth has never stopped short."""
    edges: list[tuple[Vertex, Vertex]] = []
    used: set[Vertex] = set(forbidden)

    def grow_one() -> bool:
        for j1 in range(asg.r):
            for u in sorted(asg.w[i][j1]):
                if u in used or u in asg.bad:
                    continue
                for j2 in range(asg.r):
                    if j2 == j1:
                        continue
                    for v in sorted(asg.w[i][j2]):
                        if v in used or not g.has_edge(u, v):
                            continue
                        edges.append((u, v))
                        used.update((u, v))
                        return True
        return False

    while len(edges) < size:
        if not grow_one():
            return None
    return edges


def _covered_s_parity(asg: BlockAssignment, ledger: DeletionLedger,
                      i_star: int) -> int:
    total = sum(len(asg.s_half[i_star][j]) for j in range(asg.r))
    covered = sum(1 for v in ledger.covered
                  if asg.v_block.get(v, (None,))[0] == i_star
                  and asg.in_s_half(v))
    return (total - covered) % 2


def balance_rows(g: MultipartiteGraph, asg: BlockAssignment,
                 ledger: DeletionLedger, total_target: int,
                 extremal: bool) -> None:
    """Delete cliques so every row's remainder is proportional to its weight;
    under the extremal row structure also leave the heavy row's half with
    even size.  A row with positive excess a gives a distributed cliques to
    the rows short of their share: an "ij" clique from a heavy row, a
    "through_edge" clique on an edge of a matching in a weight-1 row.

    Under the extremal row structure only a zero excess is handled (by
    `_extremal_zero_excess_fix` when the half is odd).  A positive excess
    there fails the stage: the paper's final-step parity relay is not
    built, since no graph of the tests or the benchmark needs it.  Γ itself
    never reaches this stage: `solve` answers Γ with rn/k odd by its barrier
    before any route runs, so an odd half that nothing fixes fails the stage
    like any other shortfall."""
    s = asg.s
    a_i = [len(asg.row_vertices(i)) - asg.weights[i] * total_target
           for i in range(s)]
    if sum(a_i) != 0:
        raise RecountFailure("rows", f"row excesses {a_i} do not cancel")
    seq_plus = [i for i in range(s) for _ in range(max(0, a_i[i]))]
    seq_minus = [i for i in range(s) for _ in range(max(0, -a_i[i]))]
    i_star = None
    if extremal:
        if seq_plus:
            raise StageFailure("rows", f"row excesses {a_i} under the "
                                       "extremal row structure", detail=a_i)
        i_star = next(i for i in range(s) if asg.weights[i] == 2)

    matchings: dict[int, list] = {}
    reserved: set[Vertex] = set()
    for i in sorted(set(seq_plus)):
        if asg.weights[i] == 1:
            m = _row_edge_matching(g, asg, i, a_i[i], ledger.covered | reserved)
            if m is None:
                raise StageFailure("rows", f"no usable matching of size {a_i[i]} "
                                           f"in row {i}")
            matchings[i] = m
            for e in m:
                reserved.update(e)

    for i_from, i_to in zip(seq_plus, seq_minus):
        forb = ledger.covered | reserved
        if asg.weights[i_from] == 1:
            e = matchings[i_from].pop(0)
            reserved.difference_update(e)
            got = building_block(g, asg, "through_edge", rows=(i_from, i_to),
                                 edge=e, forbidden=forb - set(e))
        else:
            got = building_block(g, asg, "ij", rows=(i_from, i_to),
                                 forbidden=forb)
        if got is None:
            raise StageFailure("rows", f"no {i_from}->{i_to} distributed clique")
        ledger.add(got, "rows", f"dist:{i_from}->{i_to}")
    if extremal and _covered_s_parity(asg, ledger, i_star) == 1:
        _extremal_zero_excess_fix(g, asg, ledger, i_star)

    m1 = len(ledger.entries)
    for i in range(s):
        got = len(asg.row_vertices(i) - ledger.covered)
        want = asg.weights[i] * (total_target - m1)
        if got != want:
            raise RecountFailure("rows", f"row {i} has {got} vertices left, "
                                         f"expected {want}")
    if extremal and _covered_s_parity(asg, ledger, i_star) != 0:
        raise RecountFailure("rows", "heavy-row half parity still odd")


def _extremal_zero_excess_fix(g, asg, ledger, i_star):
    """Zero row excess but odd half size: trade one clique in and one out of
    the heavy row, or use one clique free of the half-parity demand;
    StageFailure when no edge at a good vertex does either.  Γ itself never
    gets here: `solve` answers it before any route."""
    for i in range(asg.s):
        if i == i_star:
            continue
        for j1 in range(asg.r):
            for u in sorted(asg.y[i][j1] - ledger.covered):
                for j2 in range(asg.r):
                    if j2 == j1:
                        continue
                    for v in sorted(asg.w[i][j2] - ledger.covered):
                        if not g.has_edge(u, v):
                            continue
                        k1 = building_block(
                            g, asg, "through_edge", rows=(i, i_star),
                            edge=(u, v), forbidden=ledger.covered - {u, v})
                        if k1 is None:
                            continue
                        need = (_covered_s_parity(asg, ledger, i_star)
                                + sum(1 for x in k1
                                      if asg.v_block[x][0] == i_star
                                      and asg.in_s_half(x))) % 2
                        k2 = building_block(
                            g, asg, "ij", rows=(i_star, i),
                            parity=3 if need else 0,
                            forbidden=ledger.covered | set(k1))
                        if k2 is None:
                            continue
                        ledger.add(k1, "rows", f"dist:{i}->{i_star}")
                        ledger.add(k2, "rows", f"dist:{i_star}->{i}")
                        return
    # an edge inside the heavy row crossing the half split
    for j1 in range(asg.r):
        for u in sorted(asg.y[i_star][j1] - ledger.covered):
            for j2 in range(asg.r):
                if j2 == j1:
                    continue
                for v in sorted(asg.w[i_star][j2] - ledger.covered):
                    if not g.has_edge(u, v):
                        continue
                    if (asg.in_s_half(u) + asg.in_s_half(v)) != 1:
                        continue
                    k = building_block(
                        g, asg, "outside_row", edge=(u, v),
                        forbidden=ledger.covered - {u, v})
                    if k is not None:
                        ledger.add(k, "rows", f"halffix:{i_star}")
                        return
    raise StageFailure(
        "rows", "no parity-fixing edge exists; structure matches the "
                "extremal construction")


# -- stage 2: spare cliques for multiple heavy rows ----------------------------------


def prepare_multirow(g: MultipartiteGraph, asg: BlockAssignment,
                     ledger: DeletionLedger, total_target: int) -> None:
    """Spare (i, j)-distributed cliques for every ordered pair of heavy rows;
    nothing with fewer than two heavy rows."""
    heavy = [i for i in range(asg.s) if asg.weights[i] >= 2]
    if len(heavy) < 2:
        return
    for i in heavy:
        for j in heavy:
            if i == j:
                continue
            for _ in range(ETA_COUNT):
                got = building_block(g, asg, "ij", rows=(i, j),
                                     forbidden=ledger.covered)
                if got is None:
                    raise StageFailure("prepare",
                                       f"spare clique shortfall for pair {(i, j)}")
                if any(v in asg.bad for v in got):
                    raise StageFailure("prepare", "spare clique touched a bad vertex")
                if not is_ij_distributed(asg, got, i, j):
                    raise RecountFailure("prepare", f"clique {got} is not "
                                                    f"{(i, j)}-distributed")
                ledger.add(got, "prepare", f"ij:{i},{j}")
    m12 = len(ledger.entries)
    for i in range(asg.s):
        got = len(asg.row_vertices(i) - ledger.covered)
        want = asg.weights[i] * (total_target - m12)
        if got != want:
            raise RecountFailure("prepare", f"row {i} off target after spares")


# -- stage 3: covering bad vertices, fixing divisibility ------------------------------


def cover_and_divisibility(g: MultipartiteGraph, asg: BlockAssignment,
                           ledger: DeletionLedger, total_target: int) -> None:
    """Delete a properly distributed clique through every bad vertex, then
    "proper" filler cliques until the number of cliques left is a multiple
    of r * r!, so that the final unit is divisible by r!."""
    r = asg.r
    modulus = r * factorial(r)
    m12 = len(ledger.entries)
    count = 0
    for v in sorted(asg.bad):
        if v in ledger.covered:
            continue
        got = building_block(g, asg, "through_vertex", vertex=v,
                             forbidden=ledger.covered)
        if got is None:
            raise StageFailure("cover", f"bad vertex {v} cannot be covered")
        if not is_properly_distributed(asg, got):
            raise RecountFailure("cover", f"covering clique {got} not proper")
        ledger.add(got, "cover", "proper")
        count += 1
    residue = (total_target - m12) % modulus
    c_target = residue
    while c_target < count:
        c_target += modulus
    if m12 + c_target > total_target:
        raise StageFailure("cover",
                           f"divisibility filler needs {c_target} cliques, "
                           f"only {total_target - m12} remain")
    while count < c_target:
        got = building_block(g, asg, "proper", forbidden=ledger.covered)
        if got is None:
            raise StageFailure("cover", "proper filler clique unavailable")
        if not is_properly_distributed(asg, got):
            raise RecountFailure("cover", f"filler clique {got} not proper")
        ledger.add(got, "cover", "proper")
        count += 1
    leftover = set(asg.bad) - ledger.covered
    if leftover:
        raise RecountFailure("cover", f"bad vertices uncovered: {sorted(leftover)[:3]}")
    if (total_target - len(ledger.entries)) % modulus:
        raise RecountFailure("cover", "remaining clique count misses the modulus")


# -- stage 4: balancing columns -------------------------------------------------------


def balance_columns(g: MultipartiteGraph, asg: BlockAssignment,
                    ledger: DeletionLedger, total_target: int) -> None:
    """Recount that every class has lost the same number of vertices.

    The paper's stage deletes index-swapping cliques here.  At desk scale
    the greedy column pattern that builds every deleted clique already keeps
    the classes even, so this stage deletes nothing; uneven classes raise
    StageFailure and leave the graph to the fallback."""
    per_class = [sum(1 for v in ledger.covered if v[0] == j)
                 for j in range(asg.r)]
    if len(set(per_class)) > 1:
        raise StageFailure("columns", f"classes uneven: {per_class}",
                           detail=per_class)


# -- stage 5: balancing blocks --------------------------------------------------------


def balance_blocks(g: MultipartiteGraph, asg: BlockAssignment,
                   ledger: DeletionLedger, total_target: int):
    """Recount that every surviving block holds exactly weight * n_prime
    vertices with r! dividing n_prime, and that no bad vertex survives.

    The paper's stage deletes filler cliques here.  At desk scale the
    earlier stages already leave every block on its target, so this stage
    deletes nothing; a block off its target raises StageFailure with the
    deviations q (surviving size minus target) as detail.  Returns the final
    row decomposition together with its diagonal degree audit: the minimum,
    over surviving vertices v in X'^i_j and blocks X'^i2_j2 with i2 != i and
    j2 != j, of the number of neighbours of v in X'^i2_j2 (None when there
    is one row or nothing survives)."""
    r, s = asg.r, asg.s
    m_rem = total_target - len(ledger.entries)
    if m_rem % (r * factorial(r)):
        raise RecountFailure("blocks", "remaining clique count misses r*r!")
    n_prime = m_rem // r
    rows = tuple(tuple(frozenset(v[1] for v in asg.w[i][j] - ledger.covered)
                       for j in range(r)) for i in range(s))
    q = [[len(rows[i][j]) - asg.weights[i] * n_prime for j in range(r)]
         for i in range(s)]
    if any(map(any, q)):
        raise StageFailure("blocks", "block sizes miss weight * unit", detail=q)
    survivors_bad = [v for v in asg.bad if v not in ledger.covered]
    if survivors_bad:
        raise RecountFailure("blocks", f"bad vertex survived: {survivors_bad[:3]}")
    xprime = RowDecomposition(asg.weights, n_prime, rows)
    audit = None
    if s > 1 and n_prime > 0:
        masks = block_masks(g, xprime)
        audit = min(    # twins share a row: read each distinct row once
            (row & masks[i2][j2]).bit_count()
            for i in range(s) for j in range(r)
            for row in {g._adj[g._off[j] + o] for o in xprime.rows[i][j]}
            for i2 in range(s) if i2 != i for j2 in range(r) if j2 != j)
    return xprime, audit


# -- per-row balanced packings ----------------------------------------------------------


def _induced_row(g: MultipartiteGraph, xprime: RowDecomposition, i: int):
    selection = [sorted(xprime.rows[i][j]) for j in range(xprime.r)]
    return g.induced(selection)


def _measured_zeta(g, sub, halves, n_prime) -> Fraction:
    worst = Fraction(0)
    size = sub.class_sizes[0]
    for j in range(sub.r):
        worst = max(worst, Fraction(abs(len(halves[j]) - n_prime), n_prime))
    for side in (halves, [[o for o in range(size) if o not in set(h)]
                          for h in halves]):
        for j in range(sub.r):
            block_masks = [sub.mask_of([(j2, o) for o in side[j2]])
                           for j2 in range(sub.r)]
            for o in side[j]:
                v = (j, o)
                for j2 in range(sub.r):
                    if j2 == j:
                        continue
                    nn = (block_masks[j2] & ~sub.adj_mask(v)).bit_count()
                    worst = max(worst, Fraction(nn, n_prime))
    return worst


def _pair_complete_row_packing(g, asg, xprime, i) -> CliquePacking:
    sub, to_sub, _ = _induced_row(g, xprime, i)
    n_prime = xprime.unit
    halves = []
    for j in range(xprime.r):
        half = sorted(to_sub[v][1] for v in asg.s_half[i][j]
                      if v[1] in xprime.rows[i][j] and v[0] == j)
        halves.append(half)
    zeta = _measured_zeta(g, sub, halves, n_prime)
    if zeta >= 1:
        raise StageFailure("rowpack", f"row {i} half structure too degraded")
    try:
        packing = pair_complete_balanced_matching(sub, halves, zeta)
    except ObstructionError as e:
        raise StageFailure("rowpack", f"two-half row {i}: {e}") from e
    back = {to_sub[v]: v for v in to_sub}
    return CliquePacking([tuple(sorted(back[u] for u in c))
                          for c in packing.cliques])


def fix_row_parity_and_matchability(g: MultipartiteGraph, asg: BlockAssignment,
                                    xprime: RowDecomposition,
                                    params: PipelineParams
                                    ) -> dict[int, CliquePacking]:
    """A balanced perfect packing of every row of the final decomposition,
    one way per row: a weight-1 row by its single vertices, a two-half row by
    `pair_complete_balanced_matching` when its surviving half has even size,
    and every other row by the balanced exact search.  A row that its way
    cannot pack raises StageFailure: nothing repairs it, and the
    decomposition stays the one the blocks stage left.  Every packing is
    recounted before it is returned."""
    if xprime.unit == 0:
        return {i: CliquePacking([]) for i in range(xprime.s)}
    packings: dict[int, CliquePacking] = {}
    for i in range(xprime.s):
        w_i = xprime.weights[i]
        if w_i == 1:
            packings[i] = CliquePacking(
                [(v,) for v in sorted(xprime.row_vertices(i))])
        elif i in asg.pc_rows:
            if sum(1 for j in range(xprime.r) for o in xprime.rows[i][j]
                   if (j, o) in asg.s_half[i][j]) % 2:
                raise StageFailure("rowpack",
                                   f"two-half row {i} stuck at odd half size")
            packings[i] = _pair_complete_row_packing(g, asg, xprime, i)
        else:
            sub, to_sub, _ = _induced_row(g, xprime, i)
            back = {to_sub[v]: v for v in to_sub}
            res = exact_balanced_clique_packing(sub, w_i, budget=params.budget)
            if res.packing is None:
                kind = "proven absent" if res.completed else "budget exhausted"
                raise StageFailure("rowpack",
                                   f"row {i}: balanced packing {kind}")
            packings[i] = CliquePacking([tuple(sorted(back[u] for u in c))
                                         for c in res.packing.cliques])

    for i, packing in packings.items():
        if packing.covered() != set(xprime.row_vertices(i)):
            raise RecountFailure("rowpack", f"row {i} packing not perfect")
        if len(set(packing.index_counts.values())) > 1:
            raise RecountFailure("rowpack", f"row {i} packing not balanced")
        problems = packing.verify(g)
        if problems:
            raise RecountFailure("rowpack", f"row {i}: {problems[:2]}")
    return packings


# -- gluing row packings ------------------------------------------------------------


@dataclass
class GlueResult:
    packing: CliquePacking
    sigma_log: list[dict]


def glue_rows(g: MultipartiteGraph, xprime: RowDecomposition,
              row_packings: dict[int, CliquePacking], k: int) -> GlueResult:
    """Combine balanced perfect per-row packings into one packing of the
    surviving graph: split each row packing into groups of size N, one per
    injection of slot positions into classes, and perfectly match each
    group family's compatibility hypergraph.

    Two groups of different rows are compatible when completely joined, so
    each family's matching is a perfect s-clique packing of an s-partite
    graph, found by the package's one exact-cover search."""
    s, r, n_prime = xprime.s, xprime.r, xprime.unit
    if sum(xprime.weights) != k:
        raise ValueError("row weights must sum to k")
    if s == 1:
        packing = row_packings[0]
        return GlueResult(CliquePacking(sorted(packing.cliques)), [])
    if n_prime % factorial(r):
        raise StageFailure("glue", f"unit {n_prime} not divisible by r!")
    if n_prime == 0:
        return GlueResult(CliquePacking([]), [])

    weights = xprime.weights
    slots: list[tuple[int, ...]] = []
    at = 0
    for i in range(s):
        slots.append(tuple(range(at, at + weights[i])))
        at += weights[i]
    sigmas = sorted(permutations(range(r), k))
    n_group = r * n_prime * factorial(r - k) // factorial(r)

    groups: dict[tuple, dict[int, list]] = {sig: {} for sig in sigmas}
    for i in range(s):
        packing = row_packings[i]
        per_index: dict[frozenset, list] = {}
        for c in packing.cliques:
            per_index.setdefault(index_set(c), []).append(tuple(sorted(c)))
        want = r * n_prime // comb(r, weights[i])
        sig_by_index: dict[frozenset, list] = {}
        for sig in sigmas:
            image = frozenset(sig[x] for x in slots[i])
            sig_by_index.setdefault(image, []).append(sig)
        for image, sig_list in sorted(sig_by_index.items(), key=lambda kv: sorted(kv[0])):
            members = sorted(per_index.get(image, []))
            if len(members) != want:
                raise StageFailure("glue", f"row {i} has {len(members)} cliques "
                                           f"of index {sorted(image)}, want {want}")
            if len(sig_list) * n_group != want:
                raise StageFailure("glue", "group arithmetic failed")
            for t, sig in enumerate(sorted(sig_list)):
                groups[sig][i] = members[t * n_group:(t + 1) * n_group]

    out: list[tuple[Vertex, ...]] = []
    sigma_log = []
    for sig in sigmas:
        classes = [groups[sig][i] for i in range(s)]
        common = [[_common_mask(g, c) for c in cls] for cls in classes]
        masks = [[g.mask_of(c) for c in cls] for cls in classes]
        compat = _compatibility_graph(masks, common, n_group)
        degree_min = _min_clique_degree(compat)
        matching, _, _ = exact_cover(compat, s)
        sigma_log.append({"sigma": list(sig), "n": n_group,
                          "min_degree": degree_min,
                          "matched": matching is not None})
        if matching is None:
            raise StageFailure("glue", f"no perfect matching for one group "
                                       f"family (min degree {degree_min})",
                               detail={"sigma": list(sig)})
        for combo in matching.cliques:
            union: list[Vertex] = []
            for i, t in combo:
                union.extend(classes[i][t])
            union = tuple(sorted(union))
            for a, b in combinations(union, 2):
                if not g.has_edge(a, b):
                    raise RecountFailure("glue", "glued tuple is not a clique")
            out.append(union)
    packing = CliquePacking(sorted(out))
    want = {v for i in range(s) for v in xprime.row_vertices(i)}
    if packing.covered() != want:
        raise RecountFailure("glue", "glued packing does not cover the remainder")
    return GlueResult(packing, sigma_log)


def _compatibility_graph(masks: Sequence[Sequence[int]],
                         common: Sequence[Sequence[int]],
                         n_group: int) -> MultipartiteGraph:
    """The s-partite compatibility graph of one group family: group t2 of row
    i2 is joined to group t1 of row i1 < i2 when all of its vertices
    (masks[i2][t2]) lie in the common neighbourhood of group t1
    (common[i1][t1]).  Vertex (i, t) is flat id i * n_group + t, and the
    adjacency rows are set directly, as `complete_multipartite` does."""
    s = len(masks)
    compat = MultipartiteGraph([n_group] * s)
    adj = compat._adj
    for i1, i2 in combinations(range(s), 2):
        for t1, c1 in enumerate(common[i1]):
            f1, outside = i1 * n_group + t1, ~c1
            for t2, m2 in enumerate(masks[i2]):
                if m2 & outside == 0:
                    f2 = i2 * n_group + t2
                    adj[f1] |= 1 << f2
                    adj[f2] |= 1 << f1
    return compat


def _common_mask(g: MultipartiteGraph, clique) -> int:
    m = (1 << g.n_vertices) - 1
    for v in clique:
        m &= g.adj_mask(v)
    return m


def _min_clique_degree(h: MultipartiteGraph) -> int:
    """Least number of h.r-cliques through a vertex of the h.r-partite graph
    h: neighbourhood masks are intersected along the classes before the last,
    whose candidates are counted by their bits.  The walk is on flat ids, so
    no candidate is turned into a vertex tuple and range-checked again.  The
    count depends only on a vertex's class and neighbourhood, so twins are
    counted once."""
    adj, class_masks, class_of = h._adj, h._class_masks, h._class_of

    def count(classes, common: int) -> int:
        pool = common & class_masks[classes[0]]
        if len(classes) == 1:
            return pool.bit_count()
        rest, total = classes[1:], 0
        while pool:
            low = pool & -pool
            total += count(rest, common & adj[low.bit_length() - 1])
            pool ^= low
        return total

    counts: dict[tuple[int, int], int] = {}
    for fv, nv in enumerate(adj):
        key = (class_of[fv], nv)
        if key not in counts:
            counts[key] = count([c for c in range(h.r) if c != key[0]], nv)
    return min(counts.values())


# -- orchestration ------------------------------------------------------------------


@dataclass
class SolveResult:
    status: str                    # "packed" | "extremal" | "diagnosis"
    packing: CliquePacking | None
    stages: list[dict]
    diagnosis: dict | None = None


def _extremal(g: MultipartiteGraph, k: int) -> SolveResult | None:
    """`extremal`, with Γ's checked barrier certificate, when rn/k is odd and
    the recogniser maps g onto Γ(n, r, k); None otherwise."""
    n_plus, r = g.class_sizes[0], g.r
    if (r * n_plus // k) % 2 == 0 or not is_isomorphic_to_gamma(g, n_plus, r, k):
        return None
    return SolveResult("extremal", None, [{"name": "oracle", "note": "barrier"}],
                       {"stage": "oracle",
                        "reason": "no packing; isomorphic to the extremal construction",
                        "barrier": gamma_barrier(n_plus, r, k)})


def _oracle_route(g: MultipartiteGraph, k: int, params: PipelineParams,
                  stages: list[dict]) -> SolveResult:
    """Decide g by the exhaustive search.  `solve` has already answered Γ
    with rn/k odd, so a proven absence here is a diagnosis.

    At k = 2 that also covers every graph with a component of odd size.  At
    the threshold each vertex has at least n/2 neighbours in every other
    class, so every component holds at least n/2 vertices of each class.  A
    disconnected graph is therefore two complete r-partite halves, which is
    Γ(n, r, 2), and its components have odd size exactly when rn/2 is
    odd."""
    verdict = brute_force_packing(g, k, params.budget)
    stages.append({"name": "oracle", "nodes": verdict.nodes_explored,
                   "completed": verdict.completed})
    if verdict.exists:
        return SolveResult("packed", verdict.witness, stages)
    if not verdict.completed:
        return SolveResult("diagnosis", None, stages,
                           {"stage": "oracle", "reason": "budget exhausted"})
    parity = (g.n_vertices // k) % 2 == 1 and g.class_sizes[0] % k == 0
    return SolveResult("diagnosis", None, stages,
                       {"stage": "oracle", "reason": "no packing exists (proven)",
                        "parity_clause": parity})


def solve(g: MultipartiteGraph, k: int,
          params: PipelineParams | None = None) -> SolveResult:
    """Perfect k-clique packing, certified extremal instance, or a structured
    diagnosis naming the stage that failed.  Never returns an unverified
    packing.

    The routes come in one order.  After the input checks, k = 1 is packed
    by singletons, and Γ(n, r, k) with rn/k odd answers `extremal` by its
    barrier, with no decomposition and no search.  Every other graph goes to
    the oracle when k = 2, r <= 3 or the class size is below k*k, so on every
    graph below 36 vertices the verdict is exactly the oracle's.  The rest
    go to the pipeline, and a stage failure falls back to the oracle on at
    most FALLBACK_CUTOFF vertices."""
    params = params or PipelineParams()
    r = g.r
    if len(set(g.class_sizes)) != 1:
        raise ValueError("classes must have equal size")
    n_plus = g.class_sizes[0]
    if k < 1 or (r * n_plus) % k:
        raise ValueError("k must divide the vertex count r*n")
    if k > r:
        raise ValueError("clique size cannot exceed the class count")
    if k == 1:
        packing = CliquePacking([(v,) for v in g.vertices()])
        return SolveResult("packed", packing, [{"name": "trivial"}])
    need = ceil((k - 1) * n_plus / k)
    if n_plus and partite_min_degree(g) < need:
        raise ValueError(f"partite minimum degree below {need}")
    extremal = _extremal(g, k)
    if extremal:
        return extremal

    stages: list[dict] = []
    if k == 2 or r <= 3 or n_plus < k * k:
        return _oracle_route(g, k, params, stages)

    try:
        return _pipeline_route(g, k, params, stages)
    except StageFailure as e:
        stages.append({"name": e.stage, "failed": e.reason})
        return _fallback(g, k, params, stages, e)


def _fallback(g, k, params, stages, err) -> SolveResult:
    if g.n_vertices <= FALLBACK_CUTOFF:
        return _oracle_route(g, k, params, stages)
    return SolveResult("diagnosis", None, stages,
                       {"stage": err.stage, "reason": err.reason,
                        "detail": repr(err.detail) if err.detail else None})


def _pipeline_route(g: MultipartiteGraph, k: int, params: PipelineParams,
                    stages: list[dict]) -> SolveResult:
    r = g.r
    n_plus = g.class_sizes[0]
    n = n_plus // k
    total_target = r * n_plus // k

    trimmed = g if k * n == n_plus else g.induced([range(k * n)] * r)[0]
    iteration = iterate_decomposition(trimmed, k, ladder(k), seed=params.seed)
    decomp = iteration.decomposition
    stages.append({"name": "decompose", "s": decomp.s,
                   "weights": list(decomp.weights),
                   "min_diagonal_density": str(iteration.min_diagonal_density)})

    pc_halves: dict[int, list[set[int]]] = {}
    for i in range(decomp.s):
        if decomp.weights[i] != 2:
            continue
        selection = [sorted(decomp.rows[i][j]) for j in range(r)]
        sub, _, _ = trimmed.induced(selection)
        w = is_pair_complete(sub, params.pc_threshold, detection_mode(sub),
                             seed=params.seed)
        if w is not None:
            pc_halves[i] = [set(selection[j][o] for o in w.halves[j])
                            for j in range(r)]
    bad_slack = max(1, (2 * decomp.unit) // 5)   # per-unit non-neighbours
    asg = classify_bad_vertices(g, decomp, pc_halves, bad_slack)
    stages.append({"name": "classify", "bad": len(asg.bad),
                   "pair_complete_rows": sorted(asg.pc_rows)})

    ledger = DeletionLedger(g)
    heavy = [i for i in range(decomp.s) if decomp.weights[i] >= 2]
    extremal = (len(heavy) == 1 and decomp.weights[heavy[0]] == 2
                and heavy[0] in asg.pc_rows and decomp.s == k - 1)

    balance_rows(g, asg, ledger, total_target, extremal)
    m1 = len(ledger.stage_cliques("rows"))
    stages.append({"name": "rows", "deleted": m1,
                   "recounts": {"rows_left": [len(asg.row_vertices(i)
                                                  - ledger.covered)
                                              for i in range(decomp.s)]}})
    prepare_multirow(g, asg, ledger, total_target)
    stages.append({"name": "prepare",
                   "deleted": len(ledger.stage_cliques("prepare"))})
    cover_and_divisibility(g, asg, ledger, total_target)
    stages.append({"name": "cover", "deleted": len(ledger.stage_cliques("cover")),
                   "recounts": {"cliques_left": total_target - len(ledger),
                                "modulus": r * factorial(r)}})
    balance_columns(g, asg, ledger, total_target)
    stages.append({"name": "columns", "deleted": 0,
                   "recounts": {"covered_per_class":
                                [sum(1 for v in ledger.covered if v[0] == j)
                                 for j in range(r)]}})
    xprime, audit = balance_blocks(g, asg, ledger, total_target)
    stages.append({"name": "blocks", "deleted": 0,
                   "unit": xprime.unit, "min_diagonal_degree": audit,
                   "recounts": {"block_sizes_ok": True}})
    problems = ledger.verify()
    if problems:
        raise RecountFailure("ledger", problems[0])

    row_packings = fix_row_parity_and_matchability(g, asg, xprime, params)
    stages.append({"name": "rowpack", "unit": xprime.unit})
    glue = glue_rows(g, xprime, row_packings, k)
    stages.append({"name": "glue",
                   "sigma_min_degrees": [e["min_degree"] for e in glue.sigma_log]})

    cliques = list(glue.packing.cliques) + [e.clique for e in ledger.entries]
    packing = CliquePacking(sorted(cliques))
    problems = packing.verify(g, perfect=True)
    if problems:
        raise RecountFailure("final", f"assembled packing invalid: {problems[:3]}")
    return SolveResult("packed", packing, stages)
