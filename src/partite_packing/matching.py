"""Constructive matching subroutines: degree-sequence realization, bipartite
matchings, the balanced matching builder for two-half rows, and the balanced
clique-packing entry point into the oracle's exact-cover search.  The last
two are the only ways `solve` balances a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .graphs import CliquePacking, MultipartiteGraph, Vertex
from .oracle import exact_cover


class ObstructionError(ValueError):
    """A named structural obstruction found while building a matching."""


class ParityObstruction(ObstructionError):
    pass


class SizingObstruction(ObstructionError):
    pass


class DegreeObstruction(ObstructionError):
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


def regular_bipartite_perfect_matching(n_left: int, n_right: int,
                                       adj: Sequence[Iterable[int]]):
    """Perfect matching by augmenting paths.  For regular bipartite inputs
    (equal sides, every vertex of the same degree >= 1) existence is
    guaranteed; general inputs are still searched, with None meaning no
    perfect matching exists."""
    matching = bipartite_maximum_matching(n_left, n_right, adj)
    if len(matching) != n_left or n_left != n_right:
        return None
    return matching


# -- balanced perfect matchings in two-half rows -----------------------------------


def _pick_edge(g: MultipartiteGraph, left: list[Vertex], right: list[Vertex],
               used: set[Vertex]):
    for u in left:
        if u in used:
            continue
        for v in right:
            if v not in used and g.has_edge(u, v):
                return u, v
    return None


def pair_complete_balanced_matching(g: MultipartiteGraph,
                                    halves: Sequence[Iterable[int]],
                                    zeta: Fraction) -> CliquePacking:
    """Perfect matching with equally many edges of every index, in a graph
    whose classes split into two near-complete halves X and Y.

    Construction: pick a unit n' divisible by r-1, realize the per-class
    excesses |X_j| - n' as a loopless multigraph, cover each realized pair
    with one X-edge of that index plus one Y-edge of every other index, then
    split the residue into index groups and finish each group with a perfect
    matching in its near-complete bipartite pair.
    """
    zeta = Fraction(zeta)
    r = g.r
    sizes = set(g.class_sizes)
    if len(sizes) != 1 or g.class_sizes[0] % 2:
        raise ValueError("classes must have equal even size")
    size = g.class_sizes[0]
    n = size // 2
    if (2 * n) % (r - 1):
        raise SizingObstruction(f"r-1 = {r - 1} must divide the class size {2 * n}")

    x_sets = [sorted(set(h)) for h in halves]
    if len(x_sets) != r:
        raise ValueError("need one half per class")
    y_sets = [[o for o in range(size) if o not in set(x_sets[j])] for j in range(r)]
    x_total = sum(len(s) for s in x_sets)
    if x_total % 2:
        raise ParityObstruction(
            f"parity obstruction: |X| = {x_total} is odd, X cannot be "
            "perfectly covered inside itself")
    for j, s in enumerate(x_sets):
        if abs(len(s) - n) * 1 > zeta * n:
            raise SizingObstruction(
                f"half of class {j} has size {len(s)}, outside (1±zeta)n")
    # degree audit: every X vertex near-complete to other X blocks, same for Y
    for side_name, side in (("X", x_sets), ("Y", y_sets)):
        for i in range(r):
            for o in side[i]:
                v = (i, o)
                for j in range(r):
                    if j == i:
                        continue
                    block = [(j, o2) for o2 in side[j]]
                    missing = sum(1 for u in block if not g.has_edge(v, u))
                    if missing > zeta * n:
                        raise DegreeObstruction(
                            f"vertex {v} has {missing} non-neighbours in "
                            f"{side_name}_{j}, above zeta*n")

    # largest feasible unit: divisible by r-1, no negative excess, excesses
    # realizable as a loopless multigraph, and a nonnegative residue on the
    # other side
    min_x = min(len(s) for s in x_sets)
    n_prime = min_x // (r - 1) * (r - 1)
    while n_prime > 0:
        a_j = [len(x_sets[j]) - n_prime for j in range(r)]
        if is_multigraphic(sorted(a_j, reverse=True)):
            covered_per_class = (r - 1) * sum(a_j) // 2
            m_y = 2 * n - n_prime - covered_per_class
            if m_y >= 0 and m_y % (r - 1) == 0:
                break
        n_prime -= (r - 1)
    if n_prime <= 0:
        raise SizingObstruction(
            "no feasible unit n' (divisible by r-1 with realizable excesses)")

    a_j = [len(x_sets[j]) - n_prime for j in range(r)]
    order = sorted(range(r), key=lambda j: (-a_j[j], j))
    realized = realize_multigraph([a_j[j] for j in order])
    pair_list = [(min(order[u], order[v]), max(order[u], order[v]))
                 for u, v in realized]

    used: set[Vertex] = set()
    edges: list[tuple[Vertex, Vertex]] = []
    all_indices = [tuple(c) for c in combinations(range(r), 2)]
    for (i_l, j_l) in pair_list:
        picked = _pick_edge(g, [(i_l, o) for o in x_sets[i_l]],
                            [(j_l, o) for o in x_sets[j_l]], used)
        if picked is None:
            raise SupplyObstruction(
                f"no free X-edge of index {(i_l, j_l)} for a correction matching")
        used.update(picked)
        edges.append(picked)
        for (u_c, v_c) in all_indices:
            if (u_c, v_c) == (i_l, j_l):
                continue
            picked = _pick_edge(g, [(u_c, o) for o in y_sets[u_c]],
                                [(v_c, o) for o in y_sets[v_c]], used)
            if picked is None:
                raise SupplyObstruction(
                    f"no free Y-edge of index {(u_c, v_c)} for a correction matching")
            used.update(picked)
            edges.append(picked)

    x_rest = [[o for o in x_sets[j] if (j, o) not in used] for j in range(r)]
    y_rest = [[o for o in y_sets[j] if (j, o) not in used] for j in range(r)]
    assert all(len(x_rest[j]) == n_prime for j in range(r))
    m_y = len(y_rest[0])
    assert all(len(y_rest[j]) == m_y for j in range(r))
    assert m_y % (r - 1) == 0

    edges += _chunked_index_matchings(g, x_rest, n_prime // (r - 1), "X")
    if m_y:
        edges += _chunked_index_matchings(g, y_rest, m_y // (r - 1), "Y")

    packing = CliquePacking([tuple(sorted(e)) for e in edges])
    problems = packing.verify(g, perfect=True)
    if problems:
        raise AssertionError(f"balanced matching failed verification: {problems[:3]}")
    if not packing.is_balanced():
        raise AssertionError("matching is not balanced after assembly")
    return packing


def _chunked_index_matchings(g: MultipartiteGraph, rest: list[list[int]],
                             chunk: int, side_name: str):
    """Split each class's residue into per-index chunks and perfectly match
    each index's bipartite pair; cyclic rotations are retried on failure and
    an exact balanced search over the whole residue is the last resort."""
    r = g.r
    indices_for_class = [[c for c in combinations(range(r), 2) if j in c]
                         for j in range(r)]
    n_rot = max(1, len(rest[0]))
    for rot in range(n_rot):
        chunks: dict[tuple[tuple[int, int], int], list[Vertex]] = {}
        for j in range(r):
            rotated = rest[j][rot:] + rest[j][:rot]
            for t, idx in enumerate(indices_for_class[j]):
                chunks[(idx, j)] = [(j, o) for o in rotated[t * chunk:(t + 1) * chunk]]
        out = []
        ok = True
        for idx in combinations(range(r), 2):
            left = chunks[(idx, idx[0])]
            right = chunks[(idx, idx[1])]
            adj = [[t for t, v in enumerate(right) if g.has_edge(u, v)]
                   for u in left]
            pm = regular_bipartite_perfect_matching(len(left), len(right), adj)
            if pm is None:
                ok = False
                break
            out.extend((left[u], right[v]) for u, v in pm)
        if ok:
            return out
    sub, _, from_sub = g.induced(rest)
    res = exact_balanced_clique_packing(sub, 2, True, budget=500_000)
    if res.packing is not None:
        back = {}
        for new_f, old_v in enumerate(from_sub):
            back[sub.vertex(new_f)] = old_v
        return [(back[a], back[b]) for a, b in res.packing.cliques]
    raise SupplyObstruction(
        f"residue of side {side_name} admits no per-index perfect matchings "
        "under any chunk rotation, and the exact balanced residue search "
        f"{'proved none exists' if res.completed else 'ran out of budget'}")


# -- exact balanced clique packing search ------------------------------------------


@dataclass
class SearchResult:
    packing: CliquePacking | None
    completed: bool
    nodes: int


def exact_balanced_clique_packing(g: MultipartiteGraph, p: int,
                                  require_balanced: bool = True,
                                  budget: int | None = None) -> SearchResult:
    """Perfect (optionally balanced) p-clique packing by the oracle's search,
    `oracle.exact_cover`, with every index held to its balanced quota of
    (|V|/p) / C(r, p) cliques when balance is required.

    completed=True makes an absent verdict a proof of nonexistence; a budget
    stop is reported as completed=False.
    """
    if p < 1:
        raise ValueError("p must be positive")
    total = g.n_vertices
    if total == 0:
        return SearchResult(CliquePacking([]), True, 0)
    if total % p or p > g.r:
        return SearchResult(None, True, 0)
    quota = None
    if require_balanced:
        n_cliques, n_indices = total // p, comb(g.r, p)
        if n_cliques % n_indices:
            return SearchResult(None, True, 0)
        quota = n_cliques // n_indices
    packing, nodes, completed = exact_cover(g, p, budget, quota)
    return SearchResult(packing, completed, nodes)
