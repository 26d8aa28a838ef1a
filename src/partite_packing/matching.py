"""Constructive matching subroutines: degree-sequence realization, rectangle
transversals, bipartite matchings, even-path search, the balanced matching
builder for two-half rows, the configuration-flip balancer, and the balanced
clique-packing entry point into the oracle's exact-cover search.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .graphs import (CliquePacking, MultipartiteGraph, Vertex, index_set)
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


class ConfigurationShortfall(ObstructionError):
    def __init__(self, s_set, t, needed, available):
        self.s_set, self.t, self.needed, self.available = s_set, t, needed, available
        super().__init__(f"need {needed} unflipped configurations for "
                         f"(S={sorted(s_set)}, T={t}), only {available} available")


class BalanceError(ObstructionError):
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


# -- rectangles and transversals ----------------------------------------------


@dataclass(frozen=True)
class Rectangle:
    rows: int
    cols: int
    colored: frozenset = frozenset()

    def __post_init__(self):
        if self.rows > self.cols:
            raise ValueError("rectangles here always have rows <= cols")
        for (ri, ci) in self.colored:
            if not (0 <= ri < self.rows and 0 <= ci < self.cols):
                raise ValueError(f"colored cell {(ri, ci)} out of bounds")


def _transversal_preconditions(rect: Rectangle) -> bool:
    if len(rect.colored) > rect.cols:
        return False
    col_counts = Counter(ci for _, ci in rect.colored)
    if any(c > 1 for c in col_counts.values()):
        return False
    row_counts = Counter(ri for ri, _ in rect.colored)
    return all(c <= rect.cols - 1 for c in row_counts.values())


def _transversal_inductive(rows: list[int], cols: list[int], colored: set):
    if not rows:
        return []
    counts = {ri: 0 for ri in rows}
    live = {(ri, ci) for (ri, ci) in colored if ri in counts and ci in set(cols)}
    for ri, _ in live:
        counts[ri] += 1
    pick_row = max(rows, key=lambda ri: (counts[ri], -ri))
    cell_col = None
    for ci in cols:
        if (pick_row, ci) not in live:
            cell_col = ci
            break
    if cell_col is None:
        return None
    rest = _transversal_inductive([ri for ri in rows if ri != pick_row],
                                  [ci for ci in cols if ci != cell_col],
                                  live)
    if rest is None:
        return None
    return [(pick_row, cell_col)] + rest


def _transversal_exhaustive(rect: Rectangle):
    match_of_row: dict[int, int] = {}
    match_of_col: dict[int, int] = {}

    def augment(ri, visited):
        for ci in range(rect.cols):
            if (ri, ci) in rect.colored or ci in visited:
                continue
            visited.add(ci)
            if ci not in match_of_col or augment(match_of_col[ci], visited):
                match_of_col[ci] = ri
                match_of_row[ri] = ci
                return True
        return False

    for ri in range(rect.rows):
        if not augment(ri, set()):
            return None
    return sorted(match_of_row.items())


def find_transversal(rect: Rectangle):
    """Cells, one per row with all columns distinct, avoiding colored cells.

    When the coloring satisfies the guaranteed-existence hypotheses (at most
    `cols` colored cells, at most one per column, at most cols-1 per row) the
    inductive max-colored-row strategy is used; otherwise an exhaustive
    matching search runs and may report absence.
    """
    result = None
    if _transversal_preconditions(rect):
        result = _transversal_inductive(list(range(rect.rows)),
                                        list(range(rect.cols)),
                                        set(rect.colored))
    if result is None:
        result = _transversal_exhaustive(rect)
    if result is None:
        return None
    rows_seen = {ri for ri, _ in result}
    cols_seen = {ci for _, ci in result}
    if (len(result) != rect.rows or len(rows_seen) != rect.rows
            or len(cols_seen) != rect.rows
            or any(cell in rect.colored for cell in result)):
        raise AssertionError("transversal failed re-verification")
    return sorted(result)


# -- bipartite matchings --------------------------------------------------------


def bipartite_maximum_matching(n_left: int, n_right: int,
                               adj: Sequence[Iterable[int]]) -> list[tuple[int, int]]:
    """Maximum matching via augmenting paths (deterministic order)."""
    adj_lists = [sorted(set(a)) for a in adj]
    if len(adj_lists) != n_left:
        raise ValueError("need one adjacency list per left vertex")
    match_r: dict[int, int] = {}

    def augment(u, visited):
        for v in adj_lists[u]:
            if v in visited:
                continue
            visited.add(v)
            if v not in match_r or augment(match_r[v], visited):
                match_r[v] = u
                return True
        return False

    for u in range(n_left):
        augment(u, set())
    return sorted((u, v) for v, u in match_r.items())


def bipartite_regularity(n_left: int, n_right: int,
                         adj: Sequence[Iterable[int]]) -> int | None:
    """The common degree when the sides have equal size and every vertex on
    both sides has the same degree >= 1; None otherwise.  A library function
    that `solve` never calls."""
    if n_left != n_right:
        return None
    degrees_l = [len(set(a)) for a in adj]
    if not degrees_l or min(degrees_l) < 1 or len(set(degrees_l)) != 1:
        return None
    deg_r = Counter()
    for a in adj:
        for v in set(a):
            if not (0 <= v < n_right):
                raise ValueError(f"right vertex {v} out of range")
            deg_r[v] += 1
    if len(deg_r) != n_right or set(deg_r.values()) != {degrees_l[0]}:
        return None
    return degrees_l[0]


def regular_bipartite_perfect_matching(n_left: int, n_right: int,
                                       adj: Sequence[Iterable[int]]):
    """Perfect matching by augmenting paths.  For regular inputs (see
    bipartite_regularity) existence is guaranteed; general inputs are still
    searched, with None meaning no perfect matching exists."""
    matching = bipartite_maximum_matching(n_left, n_right, adj)
    if len(matching) != n_left or n_left != n_right:
        return None
    return matching


# -- even paths between co-partnered vertices -------------------------------------


def even_path_between_copartners(g: MultipartiteGraph):
    """A class {x, y} together with an even-length path from x to y, found by
    breadth-first search on parity-augmented vertices; None when no class
    admits one.  The returned walk visits each (vertex, parity) state at most
    once and is re-verified for adjacency and evenness.  A library function
    that `solve` never calls."""
    if any(s != 2 for s in g.class_sizes):
        raise ValueError("every class must have exactly two vertices")
    for j in range(g.r):
        x, y = (j, 0), (j, 1)
        fx, fy = g.flat(x), g.flat(y)
        start = (fx, 0)
        target = (fy, 0)
        parents: dict[tuple[int, int], tuple[int, int] | None] = {start: None}
        queue = deque([start])
        found = None
        while queue:
            state = queue.popleft()
            if state == target and parents[state] is not None:
                found = state
                break
            fid, parity = state
            rest = g._adj[fid]
            while rest:
                low = rest & -rest
                nxt = (low.bit_length() - 1, parity ^ 1)
                rest ^= low
                if nxt not in parents:
                    parents[nxt] = state
                    queue.append(nxt)
        if found is None:
            continue
        path_flat = []
        state = found
        while state is not None:
            path_flat.append(state[0])
            state = parents[state]
        path_flat.reverse()
        path = [g.vertex(f) for f in path_flat]
        length = len(path) - 1
        if length % 2 or path[0] != x or path[-1] != y:
            raise AssertionError("even-path search returned a bad walk")
        for u, v in zip(path, path[1:]):
            if not g.has_edge(u, v):
                raise AssertionError("even-path search returned a non-walk")
        return j, path
    return None


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


# -- configurations and the flip balancer ----------------------------------------


@dataclass
class Configuration:
    """Two disjoint (p-1)-cliques plus two apex vertices, flippable between
    two disjoint-pair states with different index sets.

    Pattern (s_set, t) with t = (a, a', b, b'): k1 has index s_set|{b}, k2 has
    index s_set|{b'}, v is in class a, v_prime in class a'.  Fake
    configurations (p=2 padding) only guarantee the unflipped pair of edges
    and must never be flipped.
    """

    s_set: frozenset
    t: tuple[int, int, int, int]
    k1: tuple[Vertex, ...]
    k2: tuple[Vertex, ...]
    v: Vertex
    v_prime: Vertex
    fake: bool = False
    state: str = "unflipped"

    def vertices(self) -> tuple[Vertex, ...]:
        return self.k1 + self.k2 + (self.v, self.v_prime)

    def unflipped_pair(self):
        return (tuple(sorted(self.k1 + (self.v,))),
                tuple(sorted(self.k2 + (self.v_prime,))))

    def flipped_pair(self):
        return (tuple(sorted(self.k1 + (self.v_prime,))),
                tuple(sorted(self.k2 + (self.v,))))

    def validate(self, g: MultipartiteGraph) -> bool:
        a, a2, b, b2 = self.t
        if self.v[0] != a or self.v_prime[0] != a2:
            return False
        if index_set(self.k1) != self.s_set | {b}:
            return False
        if index_set(self.k2) != self.s_set | {b2}:
            return False
        if self.fake:
            for clique in self.unflipped_pair():
                for x, y in combinations(clique, 2):
                    if not g.has_edge(x, y):
                        return False
            return True
        for clique in (self.k1, self.k2):
            for x, y in combinations(clique, 2):
                if not g.has_edge(x, y):
                    return False
        for apex in (self.v, self.v_prime):
            for u in self.k1 + self.k2:
                if not g.has_edge(apex, u):
                    return False
        return True


def configuration_patterns(r: int, p: int):
    """All (s_set, t) patterns: s_set of size p-2 and an ordered quadruple of
    distinct classes outside it."""
    out = []
    for s_set in combinations(range(r), p - 2):
        remaining = [c for c in range(r) if c not in s_set]
        for quad in combinations(remaining, 4):
            for a in quad:
                for a2 in quad:
                    if a2 == a:
                        continue
                    rest = [c for c in quad if c not in (a, a2)]
                    for b in rest:
                        b2 = next(c for c in rest if c != b)
                        out.append((frozenset(s_set), (a, a2, b, b2)))
    return out


def find_configurations(g: MultipartiteGraph, p: int,
                        patterns: Iterable[tuple[frozenset, tuple]],
                        per_pattern: int,
                        forbidden: Iterable[Vertex] = ()) -> list[Configuration]:
    """Greedy vertex-disjoint configuration pool: scan apex pairs in
    ascending order, build the two cliques inside their common neighborhood.
    For p = 2, patterns whose apex class a is not class 0 get fake
    configurations (two disjoint edges) instead of flippable ones.  A library
    function that `solve` never calls."""
    used: set[Vertex] = set(forbidden)
    pool: list[Configuration] = []
    for s_set, t in patterns:
        a, a2, b, b2 = t
        fake = (p == 2 and a != 0)
        found = 0
        for ov in range(g.class_sizes[a]):
            if found >= per_pattern:
                break
            v = (a, ov)
            if v in used:
                continue
            for ov2 in range(g.class_sizes[a2]):
                if found >= per_pattern:
                    break
                v2 = (a2, ov2)
                if v2 in used:
                    continue
                if fake:
                    k1 = _grow_partite_clique(g, [b], g.adj_mask(v), used)
                    if k1 is None:
                        continue
                    k2 = _grow_partite_clique(g, [b2], g.adj_mask(v2),
                                              used | set(k1))
                    if k2 is None:
                        continue
                else:
                    common = g.adj_mask(v) & g.adj_mask(v2)
                    k1_classes = sorted(s_set | {b})
                    k2_classes = sorted(s_set | {b2})
                    k1 = _grow_partite_clique(g, k1_classes, common, used)
                    if k1 is None:
                        continue
                    k2 = _grow_partite_clique(g, k2_classes, common,
                                              used | set(k1))
                    if k2 is None:
                        continue
                cfg = Configuration(s_set, t, tuple(k1), tuple(k2), v, v2, fake)
                if not cfg.validate(g):
                    continue
                used.update(cfg.vertices())
                pool.append(cfg)
                found += 1
                break  # apex v is consumed
    return pool


def _grow_partite_clique(g: MultipartiteGraph, classes: Sequence[int],
                         inside_mask: int, used: set[Vertex]):
    """Least-id clique with one vertex per listed class, drawn from
    inside_mask, avoiding used vertices."""
    used_mask = 0
    for v in used:
        used_mask |= 1 << g.flat(v)

    def grow(idx, common, acc):
        if idx == len(classes):
            return acc
        c = classes[idx]
        rest = common & g.class_mask(c) & ~used_mask
        while rest:
            low = rest & -rest
            fid = low.bit_length() - 1
            got = grow(idx + 1, common & g._adj[fid], acc + [g.vertex(fid)])
            if got is not None:
                return got
            rest ^= low
        return None

    return grow(0, inside_mask, [])


def _index_order(r: int, p: int):
    """Linear order on p-subsets of range(r): replacing an element by a
    smaller one moves a set strictly later, and the closed family used for
    final bookkeeping forms a terminal segment."""
    terminal = {frozenset(range(p - 1)) | {i} for i in range(p + 1, r)}
    terminal |= {frozenset(range(p + 1)) - {i} for i in range(p + 1)}

    def key(a: frozenset):
        return tuple(sorted(a, reverse=True))

    others = sorted((a for a in map(frozenset, combinations(range(r), p))
                     if a not in terminal), key=key, reverse=True)
    last = sorted(terminal, key=key, reverse=True)
    return others, last


def _flip_quadruple(a_set: frozenset, r: int, p: int):
    """x, y in the index set and x', y' outside with x' < x and y' < y, all
    distinct; for p = 2 the class x' must be 0."""
    comp = sorted(set(range(r)) - a_set)
    members = sorted(a_set)
    for x_p in comp:
        if p == 2 and x_p != 0:
            break
        for x in members:
            if x <= x_p:
                continue
            for y_p in comp:
                if y_p == x_p:
                    continue
                for y in members:
                    if y == x or y <= y_p:
                        continue
                    return x_p, x, y_p, y
    return None


def flip_balance(m: CliquePacking, pool: Sequence[Configuration],
                 r: int, p: int) -> CliquePacking:
    """Turn a near-balanced perfect packing into an exactly balanced one by
    flipping configurations whose unflipped cliques lie in the packing.

    Index sets are processed in an order under which every index affected by
    a flip, other than the one being fixed, comes strictly later; the final
    family is then forced to the common count by the covering identity.  For
    p in {r, r-1} any perfect packing is already balanced and the call is a
    validity check performing zero flips.  A library function that `solve`
    never calls: rows are balanced by `exact_balanced_clique_packing` or
    `pair_complete_balanced_matching`.
    """
    n_indices = len(list(combinations(range(r), p)))
    total = len(m.cliques)
    if total % n_indices:
        raise BalanceError(f"{total} cliques cannot split evenly over "
                           f"{n_indices} index sets")
    target = total // n_indices
    counts = Counter(m.index_counts)

    if p in (r, r - 1):
        if any(counts[frozenset(a)] != target
               for a in combinations(range(r), p)):
            raise BalanceError("a perfect packing must already be balanced "
                               "when p is r or r-1")
        return CliquePacking(list(m.cliques))

    cliques = {tuple(sorted(c)): True for c in m.cliques}
    by_pattern: dict[tuple, list[Configuration]] = {}
    for cfg in pool:
        by_pattern.setdefault((cfg.s_set, cfg.t), []).append(cfg)

    others, last = _index_order(r, p)
    for a_set in others:
        delta = counts[a_set] - target
        if delta == 0:
            continue
        quad = _flip_quadruple(a_set, r, p)
        if quad is None:
            raise BalanceError(f"no flip quadruple for index {sorted(a_set)}")
        x_p, x, y_p, y = quad
        s_set = a_set - {x, y}
        if delta > 0:
            t = (x_p, x, y_p, y)
        else:
            t = (x_p, x, y, y_p)
        need = abs(delta)
        avail = [cfg for cfg in by_pattern.get((s_set, t), [])
                 if cfg.state == "unflipped" and not cfg.fake
                 and all(cl in cliques for cl in cfg.unflipped_pair())]
        if len(avail) < need:
            raise ConfigurationShortfall(s_set, t, need, len(avail))
        for cfg in avail[:need]:
            assert not cfg.fake, "fake configurations must never be flipped"
            old1, old2 = cfg.unflipped_pair()
            new1, new2 = cfg.flipped_pair()
            del cliques[old1]
            del cliques[old2]
            cliques[new1] = True
            cliques[new2] = True
            for cl in (old1, old2):
                counts[index_set(cl)] -= 1
            for cl in (new1, new2):
                counts[index_set(cl)] += 1
            cfg.state = "flipped"
        if counts[a_set] != target:
            raise AssertionError("flip step failed to reach the target count")

    result = CliquePacking(sorted(cliques))
    for a in combinations(range(r), p):
        if result.index_counts[frozenset(a)] != target:
            raise AssertionError(
                f"index {a} missed the common count after all flips; the "
                "input violated the covering identity")
    return result


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
