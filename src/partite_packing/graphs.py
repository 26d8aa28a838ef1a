"""Multipartite graphs with bitset adjacency, plus the core constructions.

Vertices are ``(class_index, offset)`` pairs; internally each vertex also has
a flattened integer id, and adjacency is one Python int bitmask per vertex.
Graphs are immutable once constructed; every operation that "modifies" a
graph returns a new one.  A constructor writes the rows `_adj` before the
graph's first query: the twin table (`twins`) is built once, on first use.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence

Vertex = tuple[int, int]


class MultipartiteGraph:
    """An r-partite graph: no edge joins two vertices of the same class."""

    __slots__ = ("r", "class_sizes", "n_vertices", "_off", "_adj", "_class_of",
                 "_class_masks", "_twins")

    def __init__(self, class_sizes: Sequence[int],
                 edges: Iterable[tuple[Vertex, Vertex]] = ()):
        sizes = [int(s) for s in class_sizes]
        if not sizes or any(s < 0 for s in sizes):
            raise ValueError("class_sizes must be nonempty with nonnegative entries")
        self.r = len(sizes)
        self.class_sizes = tuple(sizes)
        off = [0]
        for s in sizes:
            off.append(off[-1] + s)
        self._off = tuple(off)
        self.n_vertices = off[-1]
        self._class_of = tuple(c for c, s in enumerate(sizes) for _ in range(s))
        self._class_masks = tuple(((1 << s) - 1) << off[c]
                                  for c, s in enumerate(sizes))
        self._adj = adj = [0] * self.n_vertices
        self._twins: tuple[int, ...] | None = None
        for u, v in edges:
            (cu, ou), (cv, ov) = u, v
            if not (0 <= cu < self.r and 0 <= ou < sizes[cu]):
                raise ValueError(f"vertex {u} out of range")
            if not (0 <= cv < self.r and 0 <= ov < sizes[cv]):
                raise ValueError(f"vertex {v} out of range")
            fu, fv = off[cu] + ou, off[cv] + ov
            if fu == fv:
                raise ValueError(f"loop at {u}")
            if cu == cv:
                raise ValueError(f"edge {u}-{v} joins two vertices of class {cu}")
            adj[fu] |= 1 << fv
            adj[fv] |= 1 << fu

    # -- vertex bookkeeping ------------------------------------------------

    def flat(self, v: Vertex) -> int:
        c, o = v
        if not (0 <= c < self.r and 0 <= o < self.class_sizes[c]):
            raise ValueError(f"vertex {v} out of range")
        return self._off[c] + o

    def vertex(self, fid: int) -> Vertex:
        c = self._class_of[fid]
        return (c, fid - self._off[c])

    def vertices(self) -> Iterator[Vertex]:
        for c, s in enumerate(self.class_sizes):
            for o in range(s):
                yield (c, o)

    def class_mask(self, c: int) -> int:
        return self._class_masks[c]

    def mask_of(self, vs: Iterable[Vertex]) -> int:
        m = 0
        for v in vs:
            m |= 1 << self.flat(v)
        return m

    # -- adjacency ----------------------------------------------------------

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return bool(self._adj[self.flat(u)] >> self.flat(v) & 1)

    def adj_mask(self, v: Vertex) -> int:
        return self._adj[self.flat(v)]

    def degree_in_class(self, v: Vertex, c: int) -> int:
        return (self.adj_mask(v) & self._class_masks[c]).bit_count()

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        """All edges, each listed once, ordered by flattened ids: one walk
        over the bits of each row above its own id, naming each id through a
        table built once per call."""
        names = list(self.vertices())
        out = []
        for fu, row in enumerate(self._adj):
            u = names[fu]
            rest = row >> (fu + 1) << (fu + 1)
            while rest:
                low = rest & -rest
                out.append((u, names[low.bit_length() - 1]))
                rest ^= low
        return out

    def n_edges(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def twins(self) -> tuple[int, ...]:
        """The twin table, built on first call: twins()[f] is the mask of
        every vertex whose row equals vertex f's, f included.  A twin class
        may span classes (isolated vertices share row 0)."""
        if self._twins is None:
            by_row: dict[int, int] = {}
            for f, row in enumerate(self._adj):
                by_row[row] = by_row.get(row, 0) | 1 << f
            self._twins = tuple(by_row[row] for row in self._adj)
        return self._twins

    def twin_parts(self, mask: int) -> Iterator[tuple[int, int]]:
        """(f, part) for each twin class that meets `mask`, by ascending f:
        part is the class's vertices in mask, and f the least of them."""
        twins = self.twins()
        while mask:
            f = (mask & -mask).bit_length() - 1
            part = twins[f] & mask
            yield f, part
            mask ^= part

    def edge_count_between(self, mask_a: int, mask_b: int) -> int:
        """Number of edges with one end in mask_a and the other in mask_b,
        counted once per twin class of mask_a.  The masks must be disjoint."""
        adj, twins, total = self._adj, self.twins(), 0
        while mask_a:
            f = (mask_a & -mask_a).bit_length() - 1
            part = twins[f] & mask_a
            total += (adj[f] & mask_b).bit_count() * part.bit_count()
            mask_a ^= part
        return total

    # -- derived graphs -----------------------------------------------------

    def induced(self, keep: int):
        """Induced subgraph on the vertices of the flat-id mask `keep`.

        Returns (subgraph, from_sub), where from_sub[f] is the flat id in
        this graph of the subgraph's vertex f.  Both graphs order their
        vertices by flat id, so each class keeps its vertices in order.
        """
        if keep < 0 or keep >> self.n_vertices:
            raise ValueError("mask holds ids outside the graph")
        sizes = [(keep & m).bit_count() for m in self._class_masks]
        from_sub: list[int] = []
        runs = []   # maximal runs of consecutive kept ids: old, new, ones
        rest = keep
        while rest:
            low = rest & -rest
            f = low.bit_length() - 1
            if from_sub and f == from_sub[-1] + 1:
                runs[-1][2] = runs[-1][2] << 1 | 1
            else:
                runs.append([f, len(from_sub), 1])
            from_sub.append(f)
            rest ^= low

        def gather(mask: int) -> int:   # the runs' bits are disjoint
            return sum((mask >> old_at & ones) << new_at
                       for old_at, new_at, ones in runs)

        sub = MultipartiteGraph(sizes)
        for f, part in self.twin_parts(keep):   # twins: gather one row
            row = gather(self._adj[f])
            for new_fu in mask_ids(gather(part)):
                sub._adj[new_fu] = row
        return sub, from_sub

    def without_edges(self, drop: Iterable[tuple[Vertex, Vertex]]) -> "MultipartiteGraph":
        masks = list(self._adj)
        for u, v in drop:
            fu, fv = self.flat(u), self.flat(v)
            masks[fu] &= ~(1 << fv)
            masks[fv] &= ~(1 << fu)
        g = MultipartiteGraph(self.class_sizes)
        g._adj = masks
        return g

    def with_edges(self, add: Iterable[tuple[Vertex, Vertex]]) -> "MultipartiteGraph":
        g = MultipartiteGraph(self.class_sizes)
        g._adj = list(self._adj)
        for u, v in add:
            fu, fv = self.flat(u), self.flat(v)
            if self._class_of[fu] == self._class_of[fv]:
                raise ValueError(f"edge {u}-{v} joins two vertices of one class")
            g._adj[fu] |= 1 << fv
            g._adj[fv] |= 1 << fu
        return g

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultipartiteGraph)
                and self.class_sizes == other.class_sizes
                and self._adj == other._adj)

    def __hash__(self):
        return hash((self.class_sizes, tuple(self._adj)))

    def __repr__(self):
        return (f"MultipartiteGraph(r={self.r}, sizes={list(self.class_sizes)}, "
                f"edges={self.n_edges()})")


def complete_multipartite(class_sizes: Sequence[int]) -> MultipartiteGraph:
    g = MultipartiteGraph(class_sizes)
    full = (1 << g.n_vertices) - 1
    for fu in range(g.n_vertices):
        g._adj[fu] = full & ~g._class_masks[g._class_of[fu]]
    return g


# -- partition labelings and index vectors ----------------------------------


@dataclass(frozen=True)
class PartitionLabeling:
    """A partition of the vertex set into d parts, stored per class.

    part_of[c][o] is the part index of vertex (c, o). Parts refine the class
    partition when each part touches only one class.
    """

    d: int
    part_of: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.d) is not int:
            raise ValueError(f"part count {self.d!r} is not an integer")
        seen = set()
        for row in self.part_of:
            for p in row:
                if type(p) is not int:
                    raise ValueError(f"part index {p!r} is not an integer")
                if not (0 <= p < self.d):
                    raise ValueError(f"part index {p} out of range")
                seen.add(p)
        if seen != set(range(self.d)):
            raise ValueError("every part must be nonempty")

    def part(self, v: Vertex) -> int:
        c, o = v
        try:
            return self.part_of[c][o]
        except IndexError:
            raise ValueError(f"vertex {v} is not labeled") from None

    def parts(self) -> list[list[Vertex]]:
        out: list[list[Vertex]] = [[] for _ in range(self.d)]
        for c, row in enumerate(self.part_of):
            for o, p in enumerate(row):
                out[p].append((c, o))
        return out

    @property
    def respects_classes(self) -> bool:
        owner: dict[int, int] = {}
        for c, row in enumerate(self.part_of):
            for p in row:
                if owner.setdefault(p, c) != c:
                    return False
        return True


def index_vector(s: Iterable[Vertex], labeling: PartitionLabeling) -> tuple[int, ...]:
    """Per-part intersection counts of the vertex set s."""
    vec = [0] * labeling.d
    for v in s:
        vec[labeling.part(v)] += 1
    return tuple(vec)


def index_set(s: Iterable[Vertex]) -> frozenset[int]:
    """The set of classes a partite vertex set touches."""
    return frozenset(v[0] for v in s)


# -- degrees, densities, blow-ups --------------------------------------------


def partite_min_degree(g: MultipartiteGraph) -> int:
    """min over vertices v and classes c != class(v) of |N(v) & V_c|.  The
    degrees depend only on v's class and adjacency row, so each distinct
    (class, row) pair is counted once."""
    if g.r < 2:
        raise ValueError("needs at least two classes")
    masks, best = g._class_masks, None
    for c, size in enumerate(g.class_sizes):
        others, start = masks[:c] + masks[c + 1:], g._off[c]
        for row in set(g._adj[start:start + size]):
            d = min((row & m).bit_count() for m in others)
            if d == 0:
                return 0
            if best is None or d < best:
                best = d
    return 0 if best is None else best


def density(g: MultipartiteGraph, a: Iterable[Vertex], b: Iterable[Vertex]) -> Fraction:
    """Exact edge density e(A,B) / (|A||B|) between sets in two distinct classes.

    A library function on vertex names, which no package search calls (the
    detection verifiers count edges on flat-id masks); the tests' reference
    detection reads it.  Every vertex is validated once, a repeated vertex in
    either side is a `ValueError`, and each A-vertex's edges into B are one
    popcount of its adjacency row against the mask of B built here.
    """
    aa, bb = list(a), list(b)
    if not aa or not bb:
        raise ValueError("density needs nonempty sides")
    ca = {v[0] for v in aa}
    cb = {v[0] for v in bb}
    if len(ca) != 1 or len(cb) != 1 or ca == cb:
        raise ValueError("sides must each lie in a single, distinct class")
    fa = [g.flat(u) for u in aa]
    mask_b = 0
    for v in bb:
        mask_b |= 1 << g.flat(v)
    if len(set(fa)) != len(aa) or mask_b.bit_count() != len(bb):
        raise ValueError("density needs sets: a vertex repeats")
    edges = sum((g._adj[fu] & mask_b).bit_count() for fu in fa)
    return Fraction(edges, len(aa) * len(bb))


def blow_up(g: MultipartiteGraph, factor: int) -> MultipartiteGraph:
    """Replace each vertex by `factor` clones and each edge by a complete
    bipartite graph between the clone sets."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    sizes = [s * factor for s in g.class_sizes]
    big = MultipartiteGraph(sizes)
    for (cu, ou), (cv, ov) in g.edges():
        for a in range(factor):
            fu = big._off[cu] + ou * factor + a
            base = big._off[cv] + ov * factor
            block = ((1 << factor) - 1) << base
            big._adj[fu] |= block
            for b in range(factor):
                big._adj[base + b] |= 1 << fu
    return big


# -- the extremal construction ------------------------------------------------


@dataclass(frozen=True)
class GammaGraph:
    """Result of build_gamma: the graph, its subpart labeling, and whether the
    odd-count obstruction to a perfect packing is active."""

    graph: MultipartiteGraph
    subparts: PartitionLabeling
    n: int
    r: int
    k: int
    parity_blocked: bool


def build_gamma(n: int, r: int, k: int) -> GammaGraph:
    """The extremal r-partite construction on classes of size n.

    Each class splits into k subparts of size n/k.  A vertex of subpart j >= 3
    is adjacent to every other-class vertex except those of subpart j; a
    vertex of subpart j in {1, 2} is adjacent to every other-class vertex
    except those of subpart 3-j.  Partite minimum degree is exactly
    (k-1)n/k, and when rn/k is odd no perfect k-clique packing exists:
    `oracle.gamma_barrier` gives the divisibility barrier that proves it, on
    the subpart labels returned here.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if r < k:
        raise ValueError("r must be at least k")
    if n % k != 0:
        raise ValueError("k must divide n")
    m = n // k
    g = MultipartiteGraph([n] * r)

    def forbidden(ju: int, jv: int) -> bool:
        if ju >= 3:
            return jv == ju
        return jv == 3 - ju

    subpart_of_offset = [o // m + 1 for o in range(n)]
    # per (class, subpart) bit blocks
    blocks = [[0] * (k + 1) for _ in range(r)]
    for c in range(r):
        for o in range(n):
            blocks[c][subpart_of_offset[o]] |= 1 << (g._off[c] + o)
    for c in range(r):
        for o in range(n):
            ju = subpart_of_offset[o]
            mask = 0
            for c2 in range(r):
                if c2 == c:
                    continue
                for jv in range(1, k + 1):
                    if not forbidden(ju, jv):
                        mask |= blocks[c2][jv]
            g._adj[g._off[c] + o] = mask

    labeling = PartitionLabeling(
        r * k,
        tuple(tuple(c * k + (o // m) for o in range(n)) for c in range(r)))
    return GammaGraph(g, labeling, n, r, k, parity_blocked(n, r, k))


def parity_blocked(n: int, r: int, k: int) -> bool:
    """The parity clause of the paper's exact result: k divides n and rn/k
    is odd, the case in which Γ(n, r, k) has no perfect k-clique packing."""
    return n % k == 0 and (r * n // k) % 2 == 1


# -- clique enumeration and components -----------------------------------------


def mask_ids(mask: int) -> Iterator[int]:
    """The flat ids of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def least_edge(g: MultipartiteGraph, left: int, right: int
               ) -> tuple[int, int] | None:
    """The edge from the least vertex of the mask `left` with a neighbour in
    the mask `right` to its least such neighbour, or None.  The package's
    one least-edge search."""
    for u in mask_ids(left):
        free = g._adj[u] & right
        if free:
            return u, (free & -free).bit_length() - 1
    return None


def k_cliques(adj: Sequence[int], pool: int, k: int,
              stack: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """The k-cliques that extend the clique `stack` by vertices of `pool`, as
    flat-id tuples in ascending lexicographic order; adj[f] is vertex f's
    neighbourhood mask.  `pool` must lie in the common neighbourhood of
    `stack` and above its last id.  The package's one clique enumerator: the
    exact-cover search's first packing depends on this order."""
    if len(stack) + 1 < k:
        while pool:
            low = pool & -pool
            pool ^= low
            f = low.bit_length() - 1
            yield from k_cliques(adj, pool & adj[f], k, stack + (f,))
    elif len(stack) < k:
        while pool:
            low = pool & -pool
            pool ^= low
            yield stack + (low.bit_length() - 1,)
    else:
        yield stack


def components(mask: int, nbrs: Sequence[int]) -> Iterator[int]:
    """The connected components, as masks, of the graph on the vertices of
    `mask` whose edges are given by the neighbourhood masks nbrs[f], starting
    with the component of the least id.  The package's one component walker."""
    while mask:
        comp = frontier = mask & -mask
        mask ^= comp
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= nbrs[low.bit_length() - 1]
                frontier ^= low
                if not mask & ~grow:    # the rest of mask is already reached
                    break
            frontier = grow & mask
            mask ^= frontier
            comp |= frontier
        yield comp


def clique_complex_edges(g: MultipartiteGraph, p: int) -> list[tuple[Vertex, ...]]:
    """All p-vertex cliques with at most one vertex per class, in ascending
    lexicographic order of flattened ids, by `k_cliques`."""
    if not (1 <= p <= g.r):
        raise ValueError("need 1 <= p <= r")
    return [tuple(g.vertex(f) for f in clique)
            for clique in k_cliques(g._adj, (1 << g.n_vertices) - 1, p)]


# -- packings -----------------------------------------------------------------


def packing_problems(g: MultipartiteGraph, cliques: Sequence[Sequence[int]]
                     ) -> tuple[list[str], list[str]]:
    """The package's one packing checker, on flat ids: (violations of the
    cliques, vertices left uncovered), two empty lists for a perfect packing
    of g.  Cliques must be nonempty and of one size; disjointness is a
    running mask, distinct classes a mask of classes, and each clique's
    edges one AND of its mask against each member's row, a pair being named
    only when an edge is missing.  Id -1 stands for a vertex outside g that
    the caller has reported: it counts toward its clique's size only."""
    adj, class_of, name = g._adj, g._class_of, g.vertex
    problems: list[str] = []
    covered = 0
    for idx, clique in enumerate(cliques):
        if not clique:
            problems.append(f"clique {idx} is empty")
        if len(clique) != len(cliques[0]):
            problems.append(f"clique {idx} has {len(clique)} vertices, "
                            f"clique 0 has {len(cliques[0])}")
        inside = [f for f in clique if f >= 0]
        mask = classes = 0
        for f in inside:
            bit, class_bit = 1 << f, 1 << class_of[f]
            if covered & bit:
                problems.append(f"vertex {name(f)} covered twice")
            if classes & class_bit:
                problems.append(f"clique {idx} has two vertices of class "
                                f"{class_of[f]}")
            covered |= bit
            classes |= class_bit
            mask |= bit
        if (mask.bit_count() != len(inside)
                or any(mask & ~adj[f] != 1 << f for f in inside)):
            for i, f in enumerate(inside):
                for h in inside[i + 1:]:
                    if not adj[f] >> h & 1:
                        problems.append(f"clique {idx} misses edge "
                                        f"{name(f)}-{name(h)}")
    missing = ~covered & ((1 << g.n_vertices) - 1)
    uncovered = [f"vertex {name(f)} not covered"
                 for f in islice(mask_ids(missing), 5)]
    if missing.bit_count() > 5:
        uncovered.append(f"... and {missing.bit_count() - 5} more uncovered")
    return problems, uncovered


@dataclass
class CliquePacking:
    """Disjoint cliques named by vertex, as a packing leaves the package."""

    cliques: list[tuple[Vertex, ...]]
    index_counts: Counter = field(default_factory=Counter)

    def __post_init__(self):
        if not self.index_counts:
            self.index_counts = Counter(index_set(c) for c in self.cliques)

    def verify(self, g: MultipartiteGraph, perfect: bool = False) -> list[str]:
        """All violations (empty list means the packing is valid), each
        reported rather than raised: each vertex outside g first, as out of
        range, then what `packing_problems` finds on the flat ids of the
        rest, and the index counts recounted from the names."""
        r, sizes, off = g.r, g.class_sizes, g._off
        problems, ids = [], []
        for clique in self.cliques:
            row = []
            for v in clique:
                c, o = v
                if 0 <= c < r and 0 <= o < sizes[c]:
                    row.append(off[c] + o)
                else:
                    problems.append(f"vertex {v} out of range")
                    row.append(-1)
            ids.append(row)
        found, uncovered = packing_problems(g, ids)
        problems += found
        recount = Counter(index_set(c) for c in self.cliques)
        if recount != Counter(self.index_counts):
            problems.append("index_counts inconsistent with clique list")
        return problems + uncovered if perfect else problems


# -- JSON interchange ---------------------------------------------------------


def graph_to_json(g: MultipartiteGraph,
                  labeling: PartitionLabeling | None = None) -> str:
    """The graph as JSON text, its edges in `edges()` order; json writes each
    (class, offset) name and each edge pair as a list."""
    doc: dict = {
        "r": g.r,
        "class_sizes": list(g.class_sizes),
        "edges": g.edges(),
    }
    if labeling is not None:
        doc["labels"] = {"d": labeling.d,
                         "part_of": [list(row) for row in labeling.part_of]}
    return json.dumps(doc, sort_keys=True)


def _json_object(text: str, what: str, keys: Sequence[str]) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(missing)}")
    return doc


def graph_from_json(text: str):
    """Parse `graph_to_json` output.  Any malformed document, including one
    of the wrong shape or with a class size, an edge coordinate, a part count
    or a part index that is not an int (a float or a bool), raises
    ValueError."""
    doc = _json_object(text, "graph document", ("class_sizes", "edges"))
    try:
        sizes = doc["class_sizes"]
        if doc.get("r") != len(sizes):
            raise ValueError("r does not match class_sizes")
        if not all(type(s) is int for s in sizes):
            raise ValueError("class_sizes must be integers")
        g = MultipartiteGraph(sizes)
        sizes, off, adj = g.class_sizes, g._off, g._adj
        for e in doc["edges"]:
            (cu, ou), (cv, ov) = e
            if not type(cu) is type(ou) is type(cv) is type(ov) is int:
                raise ValueError(f"edge {e} has a non-integer coordinate")
            if not (0 <= cu < g.r and 0 <= ou < sizes[cu]
                    and 0 <= cv < g.r and 0 <= ov < sizes[cv]):
                raise ValueError(f"edge {e} references an out-of-range vertex")
            if cu == cv:
                raise ValueError(f"edge {e} joins two vertices of class {cu}")
            fu, fv = off[cu] + ou, off[cv] + ov
            adj[fu] |= 1 << fv
            adj[fv] |= 1 << fu
        labeling = None
        if doc.get("labels"):
            labeling = PartitionLabeling(
                doc["labels"]["d"],
                tuple(tuple(row) for row in doc["labels"]["part_of"]))
            if [len(row) for row in labeling.part_of] != list(g.class_sizes):
                raise ValueError("labels do not cover the vertex set")
    except (TypeError, KeyError) as e:
        raise ValueError(f"malformed graph document: {e}") from e
    return g, labeling


def packing_to_json(p: CliquePacking) -> str:
    doc = {
        "cliques": sorted([sorted([list(v) for v in c]) for c in p.cliques]),
        "index_counts": {json.dumps(sorted(k)): v
                         for k, v in sorted(p.index_counts.items(),
                                            key=lambda kv: sorted(kv[0]))},
    }
    return json.dumps(doc, sort_keys=True)


def packing_from_json(text: str) -> CliquePacking:
    """Parse `packing_to_json` output.  Any malformed document, including one
    of the wrong shape, raises ValueError."""
    doc = _json_object(text, "packing document", ("cliques",))
    counts = doc.get("index_counts", {})
    if not isinstance(counts, dict):
        raise ValueError("index_counts must be a JSON object")
    try:
        cliques = [tuple((c, o) for c, o in cl) for cl in doc["cliques"]]
        declared = Counter({frozenset(json.loads(k)): v
                            for k, v in counts.items()})
    except TypeError as e:
        raise ValueError(f"malformed packing document: {e}") from e
    if not all(type(x) is int for cl in cliques for v in cl for x in v):
        raise ValueError("packing vertices must be [class, offset] integer pairs")
    if declared:
        # kept as declared so that verify() can report any inconsistency
        return CliquePacking(cliques, declared)
    return CliquePacking(cliques)
