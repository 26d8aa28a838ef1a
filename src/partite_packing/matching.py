"""Constructive matching subroutines: degree-sequence realization, bipartite
matchings, the balanced matching builder for two-half rows, and the balanced
clique-packing entry point into the oracle's exact-cover search.  The last
two are the only ways `solve` balances a row.  Both return flat-id cliques;
the two-half builder takes only the row and its half side as a flat-id
mask, and verifies what it builds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .graphs import (MultipartiteGraph, least_edge, mask_ids,
                     packing_problems)
from .oracle import exact_cover


class ObstructionError(ValueError):
    """A named structural obstruction found while building a matching."""


class ParityObstruction(ObstructionError):
    pass


class SizingObstruction(ObstructionError):
    pass


class SupplyObstruction(ObstructionError):
    pass


# -- degree sequences ---------------------------------------------------------


def is_multigraphic(seq: Sequence[int]) -> bool:
    """True iff a loopless multigraph with this descending degree sequence
    exists: even sum and max degree at most the sum of the rest."""
    vals = list(seq)
    if any(v < 0 for v in vals):
        raise ValueError("degrees must be nonnegative")
    if vals != sorted(vals, reverse=True):
        raise ValueError("sequence must be sorted descending")
    total = sum(vals)
    if total % 2:
        return False
    return not vals or vals[0] <= total - vals[0]


def realize_multigraph(seq: Sequence[int]) -> list[tuple[int, int]]:
    """Loopless multigraph with the given degree sequence, by repeatedly
    joining the two largest residual degrees (ties to the lowest index)."""
    if not is_multigraphic(seq):
        raise ValueError(f"sequence {list(seq)} is not multigraphic")
    heap = [(-d, i) for i, d in enumerate(seq) if d > 0]
    heapify(heap)
    edges: list[tuple[int, int]] = []
    while heap:
        d1, i1 = heappop(heap)
        if not heap:
            raise AssertionError("odd residue in a multigraphic sequence")
        d2, i2 = heappop(heap)
        edges.append((min(i1, i2), max(i1, i2)))
        if d1 + 1 < 0:
            heappush(heap, (d1 + 1, i1))
        if d2 + 1 < 0:
            heappush(heap, (d2 + 1, i2))
    return edges


# -- bipartite matchings --------------------------------------------------------


def bipartite_maximum_matching(n_left: int, n_right: int,
                               adj: Sequence[Iterable[int]]) -> list[tuple[int, int]]:
    """Maximum matching via augmenting paths (deterministic order).  Each
    left vertex in turn starts a depth-first search over its right
    neighbours in ascending order, kept on an explicit stack, so a path's
    length is not bounded by the recursion limit."""
    adj_lists = [sorted(set(a)) for a in adj]
    if len(adj_lists) != n_left:
        raise ValueError("need one adjacency list per left vertex")
    match_r: dict[int, int] = {}

    for root in range(n_left):
        visited: set[int] = set()
        stack = [(root, iter(adj_lists[root]))]
        path: list[int] = []    # path[d]: the right vertex leading to stack[d+1]
        while stack:
            v = next((v for v in stack[-1][1] if v not in visited), None)
            if v is None:
                stack.pop()
                del path[-1:]
                continue
            visited.add(v)
            path.append(v)
            if v not in match_r:
                for (u, _), x in zip(stack, path):
                    match_r[x] = u
                break
            stack.append((match_r[v], iter(adj_lists[match_r[v]])))
    return sorted((u, v) for v, u in match_r.items())


# -- balanced perfect matchings in two-half rows -----------------------------------


def pair_complete_balanced_matching(g: MultipartiteGraph,
                                    half: int) -> list[tuple[int, int]]:
    """Perfect matching with equally many edges of every index, as ascending
    flat-id pairs, in a graph whose classes split into two near-complete
    halves: X, the vertices of the flat-id mask `half`, and Y, the rest.

    Construction: pick a unit n' divisible by r-1, realize the per-class
    excesses |X_j| - n' as a loopless multigraph, cover each realized pair
    with one X-edge of that index plus one Y-edge of every other index, then
    split the residue into index groups and finish each group with a perfect
    matching in its near-complete bipartite pair.  Near-completeness is not
    measured: missing edges are met by chunk rotations and an exact residue
    search, and an odd |X| raises ParityObstruction before any sizing.
    """
    r = g.r
    sizes = set(g.class_sizes)
    if len(sizes) != 1 or g.class_sizes[0] % 2:
        raise ValueError("classes must have equal even size")
    if r < 2:
        raise ValueError("need at least two classes")
    if half < 0 or half >> g.n_vertices:
        raise ValueError("half mask holds ids outside the graph")
    size = g.class_sizes[0]

    x_sets = [half & cm for cm in g._class_masks]
    y_sets = [cm & ~half for cm in g._class_masks]
    x_total = half.bit_count()
    if x_total % 2:
        raise ParityObstruction(
            f"parity obstruction: |X| = {x_total} is odd, X cannot be "
            "perfectly covered inside itself")
    if size % (r - 1):
        raise SizingObstruction(f"r-1 = {r - 1} must divide the class size {size}")

    # largest feasible unit: divisible by r-1, no negative excess, excesses
    # realizable as a loopless multigraph, and a nonnegative residue on the
    # other side
    x_sizes = [x.bit_count() for x in x_sets]
    n_prime = min(x_sizes) // (r - 1) * (r - 1)
    while n_prime > 0:
        a_j = [x_sizes[j] - n_prime for j in range(r)]
        if is_multigraphic(sorted(a_j, reverse=True)):
            covered_per_class = (r - 1) * sum(a_j) // 2
            m_y = size - n_prime - covered_per_class
            if m_y >= 0 and m_y % (r - 1) == 0:
                break
        n_prime -= (r - 1)
    if n_prime <= 0:
        raise SizingObstruction(
            "no feasible unit n' (divisible by r-1 with realizable excesses)")

    order = sorted(range(r), key=lambda j: (-a_j[j], j))
    realized = realize_multigraph([a_j[j] for j in order])
    pair_list = [(min(order[u], order[v]), max(order[u], order[v]))
                 for u, v in realized]

    used = 0
    edges: list[tuple[int, int]] = []
    all_indices = list(combinations(range(r), 2))
    for pair in pair_list:
        # one X-edge of the pair's index, then one Y-edge of every other
        for side, sets, (a, b) in [("X", x_sets, pair)] + [
                ("Y", y_sets, idx) for idx in all_indices if idx != pair]:
            picked = least_edge(g, sets[a] & ~used, sets[b] & ~used)
            if picked is None:
                raise SupplyObstruction(f"no free {side}-edge of index {(a, b)} "
                                        "for a correction matching")
            used |= 1 << picked[0] | 1 << picked[1]
            edges.append(picked)

    edges += _chunked_index_matchings(g, [x & ~used for x in x_sets], "X")
    edges += _chunked_index_matchings(g, [y & ~used for y in y_sets], "Y")

    problems = sum(packing_problems(g, edges), [])
    if problems:
        raise AssertionError(f"balanced matching failed verification: {problems[:3]}")
    counts = Counter((g._class_of[u], g._class_of[v]) for u, v in edges)
    if len(set(counts.values())) > 1:
        raise AssertionError("matching is not balanced after assembly")
    return edges


def _chunked_index_matchings(g: MultipartiteGraph, rest: list[int],
                             side_name: str) -> list[tuple[int, int]]:
    """Split each class's residue (the mask rest[j]) into r-1 per-index
    chunks and perfectly match each index's bipartite pair (an empty residue
    gives no edges); cyclic rotations are retried on failure and an exact
    balanced search over the whole residue is the last resort."""
    r, adj = g.r, g._adj
    rest_ids = [list(mask_ids(mask)) for mask in rest]
    chunk = len(rest_ids[0]) // (r - 1)
    indices_for_class = [[c for c in combinations(range(r), 2) if j in c]
                         for j in range(r)]
    n_rot = max(1, len(rest_ids[0]))
    for rot in range(n_rot):
        chunks: dict[tuple[tuple[int, int], int], list[int]] = {}
        for j in range(r):
            rotated = rest_ids[j][rot:] + rest_ids[j][:rot]
            for t, idx in enumerate(indices_for_class[j]):
                chunks[(idx, j)] = rotated[t * chunk:(t + 1) * chunk]
        out = []
        ok = True
        for idx in combinations(range(r), 2):
            left = chunks[(idx, idx[0])]
            right = chunks[(idx, idx[1])]
            nbrs = [[t for t, v in enumerate(right) if adj[u] >> v & 1]
                    for u in left]
            pm = bipartite_maximum_matching(len(left), len(right), nbrs)
            if len(pm) != len(left) or len(left) != len(right):
                ok = False      # no perfect matching of this pair
                break
            out.extend((left[u], right[v]) for u, v in pm)
        if ok:
            return out
    sub, from_sub = g.induced(sum(rest))     # one mask per class: disjoint
    res = exact_balanced_clique_packing(sub, 2, budget=500_000)
    if res.packing is not None:
        return [(from_sub[u], from_sub[v]) for u, v in res.packing]
    raise SupplyObstruction(
        f"residue of side {side_name} admits no per-index perfect matchings "
        "under any chunk rotation, and the exact balanced residue search "
        f"{'proved none exists' if res.completed else 'ran out of budget'}")


# -- exact balanced clique packing search ------------------------------------------


@dataclass
class SearchResult:
    packing: list[tuple[int, ...]] | None   # ascending flat-id cliques
    completed: bool
    nodes: int


def exact_balanced_clique_packing(g: MultipartiteGraph, p: int, *,
                                  budget: int | None = None) -> SearchResult:
    """Perfect balanced p-clique packing by the oracle's search,
    `oracle.exact_cover`, with every index held to its quota of
    (|V|/p) / C(r, p) cliques.  An unbalanced packing is `exact_cover` (or
    `brute_force_packing`) without a quota.

    completed=True makes an absent verdict a proof of nonexistence; a budget
    stop is reported as completed=False.
    """
    if p < 1:
        raise ValueError("p must be positive")
    total = g.n_vertices
    if total == 0:
        return SearchResult([], True, 0)
    if total % p or p > g.r:
        return SearchResult(None, True, 0)
    n_cliques, n_indices = total // p, comb(g.r, p)
    if n_cliques % n_indices:
        return SearchResult(None, True, 0)
    quota = n_cliques // n_indices
    packing, nodes, completed = exact_cover(g, p, budget, quota)
    return SearchResult(packing, completed, nodes)
