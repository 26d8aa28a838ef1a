"""The staged deletion pipeline: bad-vertex classification, greedy clique
building, the five balancing/covering stages, per-row balanced packings,
and the gluing of row packings into one spanning clique packing.

`solve` takes its routes in one order.  It answers k = 1 by singletons, and
then Γ(n, r, k) with rn/k odd by its barrier, before any route runs: that is
the only place `solve` looks for Γ.  Small graphs go to the exhaustive
oracle and the rest to the pipeline.  A stage raises StageFailure when a
search or a builder comes up short or a count that the input decides is
off, and the orchestrator falls back to the oracle or reports a structured
diagnosis.  Identities that the stages' own arithmetic fixes are not
recounted; the assembled packing is checked once, by
`CliquePacking.verify`, before `solve` returns it.

The deletion stages, from `classify_bad_vertices` to `balance_blocks`,
hold every vertex set as a mask of flat ids and every clique as a tuple of
them, and so do rowpack and glue; vertex names appear only in failure
messages and in the packing that `solve` returns, named once after glue's
and the ledger's cliques are joined.  Ascending flat id is ascending
(class, offset), so each "least vertex" choice is the one the names would
give.

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
the vertices beyond the first k·⌊n/k⌋ of each class give a weight-1 row
positive excess, which the rows stage removes with `_row_edge_matching` and
"through_edge" cliques.  In the graph near Γ(9, 5, 3) of
test_solve_builds_through_edge_near_gamma, `_extremal_zero_excess_fix`
extends an added edge inside a weight-1 row to a clique.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import ceil, comb, factorial
from operator import and_, or_
from typing import Iterable, Sequence

from .graphs import (CliquePacking, MultipartiteGraph, k_cliques, mask_ids,
                     partite_min_degree)
from .matching import (bipartite_maximum_matching,
                       exact_balanced_clique_packing,
                       pair_complete_balanced_matching, ObstructionError)
from .oracle import (brute_force_packing, exact_cover, gamma_barrier,
                     is_isomorphic_to_gamma)
from .structure import RowDecomposition, is_pair_complete, iterate_decomposition


class StageFailure(RuntimeError):
    def __init__(self, stage: str, reason: str, detail=None):
        self.stage, self.reason, self.detail = stage, reason, detail
        super().__init__(f"[{stage}] {reason}")


class RecountFailure(StageFailure):
    pass


FALLBACK_CUTOFF = 40    # oracle fallback after a stage failure, in vertices
ETA_COUNT = 1           # spare cliques per heavy row pair
PC_THRESHOLD = Fraction(1, 4)   # slack of the two-half rows' pair-completeness


@dataclass
class PipelineParams:
    budget: int = 2_000_000     # oracle and exact-search nodes
    seed: int = 0


# -- block assignment ---------------------------------------------------------


@dataclass
class BlockAssignment:
    """The containers W^i_j that a row decomposition leaves once bad vertices
    have moved rows, all as masks of flat ids.  w[i][j] lies in class j and
    the containers partition the vertex set; `bad` marks the bad vertices and
    `half` the half sides of the two-half rows, so the good vertices of W^i_j
    are w[i][j] & ~bad and its half side is w[i][j] & half.  The X-blocks
    stay fixed and drive all badness queries."""

    g: MultipartiteGraph
    decomp: RowDecomposition
    w: list[list[int]]
    bad: int
    pc_rows: set[int]
    half: int

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

    def row_of(self, f: int) -> int:
        """The row whose container holds vertex f."""
        j = self.g._class_of[f]
        return next(i for i in range(self.s) if self.w[i][j] >> f & 1)

    def row_mask(self, i: int) -> int:
        """The vertices of row i's containers."""
        mask = 0
        for block in self.w[i]:
            mask |= block
        return mask

    def is_block_bad_for(self, f: int, i: int, j: int) -> bool:
        """More than n/2 non-neighbours of vertex f inside the fixed block X^i_j."""
        mask = self.decomp.rows[i][j] & ~self.g._adj[f] & ~(1 << f)
        return 2 * mask.bit_count() > self.n


def classify_bad_vertices(g: MultipartiteGraph, decomp: RowDecomposition,
                          pc_halves: dict[int, list[int]],
                          bad_slack: int) -> BlockAssignment:
    """Mark vertices bad (weak diagonal block, weak half in a two-half row,
    or outside the decomposition entirely), reassign each bad vertex to the
    row holding the most blocks that are bad for it (ties to the lowest
    row), and carry the half sets forward using the majority-neighbourhood
    rule: a half holds its side T minus the bad vertices, plus each bad
    vertex of a two-half container with at least n/2 neighbours in another
    class's T.  pc_halves[i][j] is the mask of T^i_j inside block X^i_j; a
    block with a vertex outside its class raises ValueError."""
    s, r, n = decomp.s, decomp.r, decomp.unit
    weights = decomp.weights
    adj, class_of = g._adj, g._class_of
    x_masks = decomp.rows
    for i, row in enumerate(x_masks):
        for j, block in enumerate(row):
            if block & ~g.class_mask(j):
                raise ValueError(f"block ({i},{j}) has a vertex outside class {j}")
    asg = BlockAssignment(g, decomp, [], 0, set(pc_halves), 0)

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
            ref = (pc_halves[i][j2] if inside
                   else x_masks[i][j2] & ~pc_halves[i][j2])
            if (ref & ~nv).bit_count() > bad_slack:
                return True
        return False

    bad = (1 << g.n_vertices) - 1
    for row in x_masks:
        for block in row:
            bad &= ~block
    verdicts: dict[tuple, bool] = {}   # twins in one block share a verdict
    for i in range(s):
        if s == 1 and i not in pc_halves:
            continue    # a single row without halves has nothing to audit
        for j in range(r):
            half = pc_halves[i][j] if i in pc_halves else 0
            for f in mask_ids(x_masks[i][j]):
                key = (i, j, bool(half >> f & 1), adj[f])
                verdict = verdicts.get(key)
                if verdict is None:
                    verdict = verdicts[key] = weak(*key)
                if verdict:
                    bad |= 1 << f

    asg.bad = bad
    asg.w = [[block & ~bad for block in row] for row in x_masks]
    for f in mask_ids(bad):
        c = class_of[f]
        counts = [sum(1 for j in range(r)
                      if j != c and asg.is_block_bad_for(f, i, j))
                  for i in range(s)]
        target = max(range(s), key=lambda i: (counts[i], -i))
        asg.w[target][c] |= 1 << f

    for i in pc_halves:
        for j in range(r):
            asg.half |= pc_halves[i][j] & ~bad
            for f in mask_ids(asg.w[i][j] & bad):
                if any(2 * (adj[f] & pc_halves[i][j2]).bit_count() >= n
                       for j2 in range(r) if j2 != j):
                    asg.half |= 1 << f
    return asg


# -- greedy clique extension -----------------------------------------------------


def _extension_condition(asg: BlockAssignment, base: Sequence[int],
                         a_sets: dict[int, tuple[int, ...]], i: int
                         ) -> str | None:
    """Which of the five supply conditions holds for row i, if any."""
    cols = a_sets.get(i, ())
    class_of = asg.g._class_of
    base_blocks = {(asg.row_of(f), class_of[f]) for f in base}
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
            if not asg.is_block_bad_for(v1, i, j) and j != class_of[v1]:
                return "c"
        if asg.row_of(v1) == i:
            return "d"
    if len(cols) < asg.weights[i]:
        return "e"
    return None


def extend_clique(g: MultipartiteGraph, asg: BlockAssignment,
                  base: Sequence[int], a_sets: dict[int, tuple[int, ...]],
                  *, forbidden: int = 0) -> tuple[int, ...] | None:
    """Extend a partial clique (flat ids) to one meeting exactly the blocks
    (i, j) for j in a_sets[i], choosing the least admissible good vertex
    outside the mask `forbidden` at each step.

    Two-half rows keep even half-intersections when both of their columns are
    filled here.  Returns the full clique as ascending flat ids, or None when
    a step finds no admissible vertex.
    """
    base = list(base)
    cols_needed = {i: tuple(cols) for i, cols in a_sets.items() if cols}
    all_cols = [j for cols in cols_needed.values() for j in cols]
    if len(all_cols) != len(set(all_cols)):
        raise ValueError("column sets must be pairwise disjoint")
    adj, class_of = g._adj, g._class_of
    base_rows = [asg.row_of(f) for f in base]
    for f, i in zip(base, base_rows):
        if i not in cols_needed or class_of[f] not in cols_needed[i]:
            raise ValueError(f"base vertex {g.vertex(f)} not covered by the "
                             "column sets")
    for i in cols_needed:
        cond = _extension_condition(asg, base, cols_needed, i)
        if cond is None:
            raise ValueError(f"no supply condition holds for row {i}")

    forbid_mask = forbidden
    need_mask = (1 << g.n_vertices) - 1
    for f in base:
        forbid_mask |= 1 << f
        need_mask &= adj[f]

    chosen: list[int] = []
    base_cols = {class_of[f] for f in base}
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
        base_in_row = i in base_rows
        for j in row_cols:
            pool_mask = asg.w[i][j] & ~asg.bad & need_mask & ~forbid_mask
            if (i in asg.pc_rows and len(cols_needed[i]) == 2
                    and not base_in_row and row_first_half is not None):
                pool_mask &= asg.half if row_first_half else ~asg.half
            if pool_mask == 0:
                return None
            low = pool_mask & -pool_mask
            if i in asg.pc_rows and row_first_half is None:
                row_first_half = bool(asg.half & low)
            f = low.bit_length() - 1
            chosen.append(f)
            need_mask &= adj[f]
            forbid_mask |= low

    clique = tuple(sorted(base + chosen))
    for a, b in combinations(clique, 2):
        if not adj[a] >> b & 1:
            raise AssertionError("greedy extension produced a non-clique")
    return clique


# -- pattern selection and building blocks ------------------------------------------


def _greedy_pattern(asg: BlockAssignment, covered: int,
                    sizes: dict[int, int],
                    anchors: dict[int, tuple[int, ...]]):
    """Disjoint column sets per row.  Columns are preferred globally by
    largest uncovered column (keeping class coverage even) and assigned to
    rows by largest uncovered block; non-anchored picks must have uncovered
    vertices left, with backtracking over column subsets when the preferred
    choice is infeasible.  Anchored columns are forced."""
    left = [[(block & ~covered).bit_count() for block in row] for row in asg.w]
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




def _transversal_anchors(asg: BlockAssignment, v: int,
                         skip_rows: Iterable[int], skip_cols: Iterable[int],
                         forbidden: int):
    """One block per remaining row, good for vertex v and with a good vertex
    left outside the mask `forbidden`, no two in one column, from a maximum
    matching of rows to allowed columns; None if a row is left out."""
    rows = [i for i in range(asg.s) if i not in set(skip_rows)]
    cols = [j for j in range(asg.r) if j not in set(skip_cols)]
    allowed = [[ci for ci, j in enumerate(cols)
                if not asg.is_block_bad_for(v, i, j)
                and asg.w[i][j] & ~asg.bad & ~forbidden] for i in rows]
    t = bipartite_maximum_matching(len(rows), len(cols), allowed)
    if len(t) < len(rows):
        return None
    return {rows[ri]: (cols[ci],) for ri, ci in t}


def building_block(g: MultipartiteGraph, asg: BlockAssignment, kind: str, *,
                   rows: tuple[int, int] | None = None,
                   vertex: int | None = None,
                   edge: tuple[int, int] | None = None,
                   parity: int | None = None,
                   forbidden: int = 0) -> tuple[int, ...] | None:
    """One clique of the requested distribution, as ascending flat ids
    avoiding the mask `forbidden`, or None with the obstruction implicit in
    the failed search.  `vertex` is a flat id and `edge` a pair of them.

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
    weights, class_of = asg.weights, g._class_of
    sizes = dict(enumerate(weights))
    base: list[int] = []
    anchors: dict[int, tuple[int, ...]] | None = {}
    if kind == "through_vertex":
        v = vertex
        if v is None:
            raise ValueError("through_vertex needs a vertex")
        li, lj = asg.row_of(v), class_of[v]
        if li in asg.pc_rows:
            # pick a good partner on the same side of the half split
            side = asg.half if asg.half >> v & 1 else ~asg.half
            for j2 in range(asg.r):
                if j2 == lj:
                    continue
                partners = (asg.w[li][j2] & ~asg.bad & ~forbidden
                            & g._adj[v] & side)
                for u in mask_ids(partners):
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
        pool = asg.row_mask(i) & ~asg.bad & ~forbidden
        if i in asg.pc_rows and parity is not None:
            pool &= asg.half if parity >= 1 else ~asg.half
        seed = next(k_cliques(g._adj, pool, weights[i] + 1), None)
        if seed is None:
            return None
        base = list(seed)
        anchors = {i: tuple(class_of[f] for f in base)}   # ascending
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
            i = asg.row_of(u)
            if weights[i] != 2:
                raise ValueError("outside_row extends an edge in a weight-2 row")
            skip_rows = [i]
        cols = (class_of[u], class_of[v])
        anchors = _transversal_anchors(asg, v if asg.bad >> v & 1 else u,
                                       skip_rows, cols, forbidden)
        if anchors is None:
            return None
        anchors[i] = cols
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
    clique: tuple[int, ...]     # ascending flat ids
    stage: str
    tag: str


class DeletionLedger:
    """All cliques deleted so far, as ascending flat-id tuples tagged by
    stage and distribution kind, and `covered`, the mask of their vertices.
    `add` refuses a clique that meets an earlier one; the assembled
    packing's final check re-verifies every clique against the graph."""

    def __init__(self, g: MultipartiteGraph):
        self.g = g
        self.entries: list[LedgerEntry] = []
        self.covered = 0

    def add(self, clique: Sequence[int], stage: str, tag: str) -> None:
        clique = tuple(sorted(clique))
        mask = 0
        for f in clique:
            mask |= 1 << f
        overlap = mask & self.covered
        if overlap:
            first = self.g.vertex((overlap & -overlap).bit_length() - 1)
            raise StageFailure(stage, f"clique overlaps ledger at {first}")
        self.entries.append(LedgerEntry(clique, stage, tag))
        self.covered |= mask

    def stage_cliques(self, stage: str) -> list[LedgerEntry]:
        return [e for e in self.entries if e.stage == stage]

    def __len__(self) -> int:
        return len(self.entries)


def _clique_row_profile(asg: BlockAssignment, clique: Sequence[int]) -> Counter:
    return Counter(asg.row_of(f) for f in clique)


def _half_hits(asg: BlockAssignment, clique: Sequence[int], i: int) -> int:
    """The number of the clique's vertices on row i's half side."""
    return sum(1 for f in clique if asg.half >> f & 1 and asg.row_of(f) == i)


def is_properly_distributed(asg: BlockAssignment, clique: Sequence[int]) -> bool:
    prof = _clique_row_profile(asg, clique)
    if any(prof[i] != asg.weights[i] for i in range(asg.s)):
        return False
    return not any(_half_hits(asg, clique, i) % 2 for i in asg.pc_rows)


def is_ij_distributed(asg: BlockAssignment, clique: Sequence[int],
                      i: int, j: int) -> bool:
    """Whether the clique (flat ids) has one vertex more than proper in row
    i, one fewer in row j, and even half-intersections in the other two-half
    rows."""
    prof = _clique_row_profile(asg, clique)
    for l in range(asg.s):
        want = asg.weights[l] + (1 if l == i else 0) - (1 if l == j else 0)
        if prof[l] != want:
            return False
    return not any(_half_hits(asg, clique, l) % 2
                   for l in asg.pc_rows if l not in (i, j))


# -- stage 1: balancing rows -------------------------------------------------------


def _row_edge_matching(g: MultipartiteGraph, asg: BlockAssignment, i: int,
                       size: int, forbidden: int):
    """Matching of the given size inside row i, as flat-id pairs outside the
    mask `forbidden`, every edge holding at least one good vertex, grown
    greedily by the least free edge; None when the greedy matching stops
    short.  Weight-1 rows with positive excess need it, as in complete
    graphs whose vertices beyond the first k·⌊n/k⌋ of each class are
    reassigned to a weight-1 row, and there the greedy growth has never
    stopped short."""
    edges: list[tuple[int, int]] = []
    row, used = asg.row_mask(i), forbidden
    while len(edges) < size:
        for u in mask_ids(row & ~used & ~asg.bad):
            free = row & ~used & g._adj[u]
            if free:
                v = (free & -free).bit_length() - 1
                edges.append((u, v))
                used |= 1 << u | 1 << v
                break
        else:
            return None
    return edges


def _covered_s_parity(asg: BlockAssignment, ledger: DeletionLedger,
                      i_star: int) -> int:
    """The parity of row i_star's half side left outside the ledger."""
    return sum((block & asg.half & ~ledger.covered).bit_count()
               for block in asg.w[i_star]) % 2


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
    a_i = [asg.row_mask(i).bit_count() - asg.weights[i] * total_target
           for i in range(s)]
    seq_plus = [i for i in range(s) for _ in range(max(0, a_i[i]))]
    seq_minus = [i for i in range(s) for _ in range(max(0, -a_i[i]))]
    i_star = None
    if extremal:
        if seq_plus:
            raise StageFailure("rows", f"row excesses {a_i} under the "
                                       "extremal row structure", detail=a_i)
        i_star = next(i for i in range(s) if asg.weights[i] == 2)

    matchings: dict[int, list] = {}
    reserved = 0
    for i in sorted(set(seq_plus)):
        if asg.weights[i] == 1:
            m = _row_edge_matching(g, asg, i, a_i[i], ledger.covered | reserved)
            if m is None:
                raise StageFailure("rows", f"no usable matching of size {a_i[i]} "
                                           f"in row {i}")
            matchings[i] = m
            for u, v in m:
                reserved |= 1 << u | 1 << v

    for i_from, i_to in zip(seq_plus, seq_minus):
        forb = ledger.covered | reserved
        if asg.weights[i_from] == 1:
            e = matchings[i_from].pop(0)
            ends = 1 << e[0] | 1 << e[1]
            reserved &= ~ends
            got = building_block(g, asg, "through_edge", rows=(i_from, i_to),
                                 edge=e, forbidden=forb & ~ends)
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
        got = (asg.row_mask(i) & ~ledger.covered).bit_count()
        want = asg.weights[i] * (total_target - m1)
        if got != want:
            raise RecountFailure("rows", f"row {i} has {got} vertices left, "
                                         f"expected {want}")
    if extremal and _covered_s_parity(asg, ledger, i_star) != 0:
        raise RecountFailure("rows", "heavy-row half parity still odd")


def _extremal_zero_excess_fix(g, asg, ledger, i_star):
    """Zero row excess but odd half size: trade one clique in and one out of
    the heavy row, or use one clique free of the half-parity demand;
    StageFailure when no edge at a good vertex does either.  Edges (u, v)
    are tried with u a good vertex, by ascending flat ids.  Γ itself never
    gets here: `solve` answers it before any route."""
    adj, covered = g._adj, ledger.covered
    for i in range(asg.s):
        if i == i_star:
            continue
        row = asg.row_mask(i) & ~covered
        for u in mask_ids(row & ~asg.bad):
            for v in mask_ids(row & adj[u]):
                k1 = building_block(g, asg, "through_edge", rows=(i, i_star),
                                    edge=(u, v), forbidden=covered)
                if k1 is None:
                    continue
                need = (_covered_s_parity(asg, ledger, i_star)
                        + _half_hits(asg, k1, i_star)) % 2
                k1_mask = 0
                for f in k1:
                    k1_mask |= 1 << f
                k2 = building_block(g, asg, "ij", rows=(i_star, i),
                                    parity=3 if need else 0,
                                    forbidden=covered | k1_mask)
                if k2 is None:
                    continue
                ledger.add(k1, "rows", f"dist:{i}->{i_star}")
                ledger.add(k2, "rows", f"dist:{i_star}->{i}")
                return
    # an edge inside the heavy row crossing the half split
    row = asg.row_mask(i_star) & ~covered
    for u in mask_ids(row & ~asg.bad):
        across = ~asg.half if asg.half >> u & 1 else asg.half
        for v in mask_ids(row & adj[u] & across):
            k = building_block(g, asg, "outside_row", edge=(u, v),
                               forbidden=covered)
            if k is not None:
                ledger.add(k, "rows", f"halffix:{i_star}")
                return
    raise StageFailure(
        "rows", "no parity-fixing edge exists; structure matches the "
                "extremal construction")


# -- stage 2: spare cliques for multiple heavy rows ----------------------------------


def prepare_multirow(g: MultipartiteGraph, asg: BlockAssignment,
                     ledger: DeletionLedger) -> None:
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
                if not is_ij_distributed(asg, got, i, j):
                    named = tuple(map(g.vertex, got))
                    raise RecountFailure("prepare", f"clique {named} is not "
                                                    f"{(i, j)}-distributed")
                ledger.add(got, "prepare", f"ij:{i},{j}")


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
    for v in mask_ids(asg.bad):
        if ledger.covered >> v & 1:
            continue
        got = building_block(g, asg, "through_vertex", vertex=v,
                             forbidden=ledger.covered)
        if got is None:
            raise StageFailure("cover",
                               f"bad vertex {g.vertex(v)} cannot be covered")
        if not is_properly_distributed(asg, got):
            raise RecountFailure("cover", "covering clique "
                                          f"{tuple(map(g.vertex, got))} not proper")
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
            raise RecountFailure("cover", "filler clique "
                                          f"{tuple(map(g.vertex, got))} not proper")
        ledger.add(got, "cover", "proper")
        count += 1


# -- stage 4: balancing columns -------------------------------------------------------


def _covered_per_class(g: MultipartiteGraph, ledger: DeletionLedger) -> list[int]:
    return [(ledger.covered & g.class_mask(j)).bit_count() for j in range(g.r)]


def balance_columns(g: MultipartiteGraph, ledger: DeletionLedger) -> None:
    """Recount that every class has lost the same number of vertices.

    The paper's stage deletes index-swapping cliques here.  At desk scale
    the greedy column pattern that builds every deleted clique already keeps
    the classes even, so this stage deletes nothing; uneven classes raise
    StageFailure and leave the graph to the fallback."""
    per_class = _covered_per_class(g, ledger)
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
    n_prime = (total_target - len(ledger.entries)) // r
    left = [[block & ~ledger.covered for block in row] for row in asg.w]
    q = [[left[i][j].bit_count() - asg.weights[i] * n_prime for j in range(r)]
         for i in range(s)]
    if any(map(any, q)):
        raise StageFailure("blocks", "block sizes miss weight * unit", detail=q)
    xprime = RowDecomposition(asg.weights, n_prime,
                              tuple(tuple(row) for row in left))
    audit = None
    if s > 1 and n_prime > 0:
        audit = min(    # twins share a row: read each distinct row once
            (row & left[i2][j2]).bit_count()
            for i in range(s) for j in range(r)
            for row in {g._adj[f] for f in mask_ids(left[i][j])}
            for i2 in range(s) if i2 != i for j2 in range(r) if j2 != j)
    return xprime, audit


# -- per-row balanced packings ----------------------------------------------------------


def fix_row_parity_and_matchability(g: MultipartiteGraph, asg: BlockAssignment,
                                    xprime: RowDecomposition,
                                    params: PipelineParams
                                    ) -> dict[int, list[tuple[int, ...]]]:
    """A balanced perfect packing of every row of the final decomposition,
    as flat-id cliques of g, one way per row: a weight-1 row by its single
    vertices, a two-half row by `pair_complete_balanced_matching` on the
    surviving part of its halves, and every other row by the balanced exact
    search, both on the row induced from its mask.  A row that its way
    cannot pack raises StageFailure: nothing repairs it, and the
    decomposition stays the one the blocks stage left.  A two-half row fails
    with the matcher's obstruction, so an odd surviving half reads "two-half
    row i: parity obstruction: ...".  The matcher and the exact search
    verify their own packings, and blocks sized a weight-1 row's blocks
    equally, so nothing is recounted here."""
    if xprime.unit == 0:
        return {i: [] for i in range(xprime.s)}
    packings: dict[int, list[tuple[int, ...]]] = {}
    for i in range(xprime.s):
        w_i, row = xprime.weights[i], reduce(or_, xprime.rows[i])
        if w_i == 1:
            packings[i] = [(f,) for f in mask_ids(row)]
            continue
        sub, from_sub = g.induced(row)
        if i in asg.pc_rows:
            half = sum(1 << t for t, f in enumerate(from_sub)
                       if asg.half >> f & 1)
            try:
                cliques = pair_complete_balanced_matching(sub, half)
            except ObstructionError as e:
                raise StageFailure("rowpack", f"two-half row {i}: {e}") from e
        else:
            res = exact_balanced_clique_packing(sub, w_i, budget=params.budget)
            if res.packing is None:
                kind = "proven absent" if res.completed else "budget exhausted"
                raise StageFailure("rowpack",
                                   f"row {i}: balanced packing {kind}")
            cliques = res.packing
        packings[i] = [tuple(from_sub[f] for f in c) for c in cliques]
    return packings


# -- gluing row packings ------------------------------------------------------------


@dataclass
class GlueResult:
    packing: list[tuple[int, ...]]  # ascending flat-id cliques, sorted
    sigma_log: list[dict]


def glue_rows(g: MultipartiteGraph, xprime: RowDecomposition,
              row_packings: dict[int, list[tuple[int, ...]]]) -> GlueResult:
    """Combine balanced perfect per-row packings, each a list of flat-id
    cliques of g, into one packing of the surviving graph: split each row
    packing into groups of size N, one per injection of k slot positions
    into classes (k the sum of the row weights), and perfectly match each
    group family's compatibility hypergraph.

    Two groups of different rows are compatible when completely joined, so
    each family's matching is a perfect s-clique packing of an s-partite
    graph, found by the package's one exact-cover search.  A row with the
    wrong number of cliques of some index, or a family with no perfect
    matching, raises StageFailure; `solve` checks the glued cliques with
    the rest of the packing."""
    s, r, n_prime = xprime.s, xprime.r, xprime.unit
    if s == 1:
        return GlueResult(sorted(row_packings[0]), [])
    if n_prime % factorial(r):
        raise StageFailure("glue", f"unit {n_prime} not divisible by r!")
    if n_prime == 0:
        return GlueResult([], [])

    weights = xprime.weights
    k = sum(weights)
    slots: list[tuple[int, ...]] = []
    at = 0
    for i in range(s):
        slots.append(tuple(range(at, at + weights[i])))
        at += weights[i]
    sigmas = sorted(permutations(range(r), k))
    n_group = r * n_prime * factorial(r - k) // factorial(r)

    groups: dict[tuple, dict[int, list]] = {sig: {} for sig in sigmas}
    for i in range(s):
        per_index: dict[frozenset, list] = {}
        for c in row_packings[i]:
            per_index.setdefault(frozenset(g._class_of[f] for f in c),
                                 []).append(c)
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
            for t, sig in enumerate(sorted(sig_list)):
                groups[sig][i] = members[t * n_group:(t + 1) * n_group]

    out: list[tuple[int, ...]] = []
    sigma_log = []
    for sig in sigmas:
        classes = [groups[sig][i] for i in range(s)]
        common = [[reduce(and_, (g._adj[f] for f in c)) for c in cls]
                  for cls in classes]
        masks = [[sum(1 << f for f in c) for c in cls] for cls in classes]
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
        for combo in matching:
            out.append(tuple(sorted(f for x in combo
                                    for f in classes[x // n_group][x % n_group])))
    return GlueResult(sorted(out), sigma_log)


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
    total_target = r * g.class_sizes[0] // k

    iteration = iterate_decomposition(g, k, seed=params.seed)
    decomp = iteration.decomposition
    stages.append({"name": "decompose", "s": decomp.s,
                   "weights": list(decomp.weights),
                   "min_diagonal_density": str(iteration.min_diagonal_density)})

    pc_halves: dict[int, list[int]] = {}
    for i in range(decomp.s):
        if decomp.weights[i] != 2:
            continue
        w = is_pair_complete(g, PC_THRESHOLD, seed=params.seed,
                             blocks=decomp.rows[i])
        if w is not None:
            pc_halves[i] = w.halves
    bad_slack = max(1, (2 * decomp.unit) // 5)   # per-unit non-neighbours
    asg = classify_bad_vertices(g, decomp, pc_halves, bad_slack)
    stages.append({"name": "classify", "bad": asg.bad.bit_count(),
                   "pair_complete_rows": sorted(asg.pc_rows)})

    ledger = DeletionLedger(g)
    heavy = [i for i in range(decomp.s) if decomp.weights[i] >= 2]
    extremal = (len(heavy) == 1 and decomp.weights[heavy[0]] == 2
                and heavy[0] in asg.pc_rows and decomp.s == k - 1)

    balance_rows(g, asg, ledger, total_target, extremal)
    m1 = len(ledger.stage_cliques("rows"))
    stages.append({"name": "rows", "deleted": m1,
                   "recounts": {"rows_left": [(asg.row_mask(i)
                                               & ~ledger.covered).bit_count()
                                              for i in range(decomp.s)]}})
    prepare_multirow(g, asg, ledger)
    stages.append({"name": "prepare",
                   "deleted": len(ledger.stage_cliques("prepare"))})
    cover_and_divisibility(g, asg, ledger, total_target)
    stages.append({"name": "cover", "deleted": len(ledger.stage_cliques("cover")),
                   "recounts": {"cliques_left": total_target - len(ledger),
                                "modulus": r * factorial(r)}})
    balance_columns(g, ledger)
    stages.append({"name": "columns", "deleted": 0,
                   "recounts": {"covered_per_class":
                                _covered_per_class(g, ledger)}})
    xprime, audit = balance_blocks(g, asg, ledger, total_target)
    stages.append({"name": "blocks", "deleted": 0,
                   "unit": xprime.unit, "min_diagonal_degree": audit,
                   "recounts": {"block_sizes_ok": True}})

    row_packings = fix_row_parity_and_matchability(g, asg, xprime, params)
    stages.append({"name": "rowpack", "unit": xprime.unit})
    glue = glue_rows(g, xprime, row_packings)
    stages.append({"name": "glue",
                   "sigma_min_degrees": [e["min_degree"] for e in glue.sigma_log]})

    cliques = sorted(glue.packing + [e.clique for e in ledger.entries])
    packing = CliquePacking([tuple(map(g.vertex, c)) for c in cliques])
    problems = packing.verify(g, perfect=True)
    if problems:
        raise RecountFailure("final", f"assembled packing invalid: {problems[:3]}")
    return SolveResult("packed", packing, stages)
