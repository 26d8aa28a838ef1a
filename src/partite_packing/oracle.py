"""Ground truth at desk scale: exhaustive packing decision, recognition of
the extremal construction and its barrier certificate, canonical forms,
seeded boundary harnesses.

`exact_cover` is the package's one exact-cover search: the oracle decides
packings with it, and the solver's balanced row packings
(`matching.exact_balanced_clique_packing`) and its gluing step
(`pipeline.glue_rows`) run through it too.  It draws its cliques from
`graphs.k_cliques` and its component prune from `graphs.components`, and it
keeps its own stack, so a packing of any depth fits in memory rather than in
the recursion limit.  The oracle's independence therefore comes from
`CliquePacking.verify`, whose plain loops re-check every packing the search
returns, not from separate search code.
The extremal construction is recognised in O(V^2) from its twin classes, and
every positive answer is an explicit vertex map checked edge by edge.  That
Γ(n, r, k) with rn/k odd has no perfect packing is proven by a divisibility
barrier (`gamma_barrier`), integer weights on its subparts that
`check_barrier` verifies with plain loops.  `solve` runs the recogniser once,
after its input checks and before it picks a route, so it answers Γ with
rn/k odd without any decomposition or search; the oracle then searches only
graphs that are not Γ.  `canonical_form` is an independent, exponential
library function that `solve` never calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import ceil

from .graphs import (CliquePacking, MultipartiteGraph, PartitionLabeling,
                     build_gamma, complete_multipartite, components,
                     graph_to_json, k_cliques)


@dataclass
class OracleVerdict:
    exists: bool
    witness: CliquePacking | None
    nodes_explored: int
    completed: bool


MEMO_CAP = 4_000_000   # failed states remembered by one search


class _TallyMemo(set):
    """Failed-state memo under a per-index quota.  Whether the rest of the
    graph can still be packed depends on how many cliques of each index the
    branch has placed, so a state is the uncovered mask together with that
    count vector, which `tally()` reads for the current branch."""

    def __init__(self, tally):
        super().__init__()
        self.tally = tally

    def __contains__(self, uncovered) -> bool:
        return super().__contains__((uncovered, self.tally()))

    def add(self, uncovered) -> None:
        super().add((uncovered, self.tally()))


def exact_cover(g: MultipartiteGraph, k: int, budget: int | None = None,
                quota: int | None = None
                ) -> tuple[CliquePacking | None, int, bool]:
    """The package's one exact-cover search: a perfect k-clique packing of g,
    as (packing or None, nodes, completed).

    Backtracking over k-cliques, always extending the least uncovered vertex
    and trying its cliques in ascending id order (`k_cliques`), with three
    sound prunes: k must divide every connected component of the uncovered
    subgraph, no class may hold more uncovered vertices than there are
    cliques left to place, and uncovered states already proven unpackable
    are never re-explored.  With a quota, a clique whose index (its set of
    classes) already has `quota` cliques is skipped without counting a node.
    Prunes only cut subtrees that hold no packing, so the packing returned is
    the first one in this order.  The search keeps its own stack, one frame
    (uncovered mask, clique generator) per placed clique, so its depth is
    bounded by memory, not by the recursion limit.  completed=False marks a
    stop after `budget` nodes; a packing is returned only after
    `CliquePacking.verify` passes."""
    total = g.n_vertices
    adj = g._adj
    class_masks = [g.class_mask(c) for c in range(g.r)]
    nodes = 0
    chosen: list[tuple[int, ...]] = []
    failed: set = set()
    if quota is not None:
        slot = {idx: i for i, idx in enumerate(combinations(range(g.r), k))}
        # tallies[d]: cliques per index among the first d chosen
        tallies = [(0,) * len(slot)] * (total // k + 1)
        failed = _TallyMemo(lambda: tallies[len(chosen)])

        def admit(clique: tuple[int, ...]) -> bool:
            d = len(chosen)
            t = tallies[d]
            i = slot[tuple(g._class_of[f] for f in clique)]
            if t[i] >= quota:
                return False
            tallies[d + 1] = t[:i] + (t[i] + 1,) + t[i + 1:]
            return True

    def prunable(uncovered: int, left: int) -> bool:
        for cm in class_masks:
            if (uncovered & cm).bit_count() > left:
                return True
        return any(comp.bit_count() % k for comp in components(uncovered, adj))

    # frames[d]: the uncovered mask after the first d cliques of `chosen`,
    # and the generator of the cliques through its least vertex
    frames = []
    uncovered = (1 << total) - 1
    while uncovered:
        if uncovered in failed:
            pass        # proven unpackable at this tally: backtrack
        elif prunable(uncovered, total // k - len(chosen)):
            if len(failed) < MEMO_CAP:
                failed.add(uncovered)
        else:
            fv = (uncovered & -uncovered).bit_length() - 1
            cliques = k_cliques(adj, adj[fv] & uncovered, k, (fv,))
            frames.append((uncovered, cliques if quota is None
                           else filter(admit, cliques)))
        # advance the deepest frame, dropping the clique that led below it
        while frames:
            uncovered, cliques = frames[-1]
            del chosen[len(frames) - 1:]
            clique = next(cliques, None)
            if clique is not None:
                break
            if len(failed) < MEMO_CAP:
                failed.add(uncovered)
            frames.pop()
        else:
            return None, nodes, True
        nodes += 1
        if budget is not None and nodes > budget:
            return None, nodes, False
        chosen.append(clique)
        for f in clique:
            uncovered &= ~(1 << f)
    packing = CliquePacking([tuple(g.vertex(f) for f in clique)
                             for clique in chosen])
    problems = packing.verify(g, perfect=True)
    if problems:
        raise AssertionError(f"packing failed recheck: {problems[:3]}")
    return packing, nodes, True


def brute_force_packing(g: MultipartiteGraph, k: int,
                        budget: int | None = None) -> OracleVerdict:
    """Exhaustive decision of a perfect k-clique packing by `exact_cover`.
    Exact whenever the search completes; the witness is the
    lexicographically first packing."""
    if k < 1:
        raise ValueError("k must be positive")
    total = g.n_vertices
    if total % k:
        raise ValueError(f"k={k} does not divide the vertex count {total}")
    packing, nodes, completed = exact_cover(g, k, budget)
    return OracleVerdict(packing is not None, packing, nodes, completed)


# -- canonical forms -----------------------------------------------------------


class CanonicalFormBudgetExceeded(RuntimeError):
    """The canonical-form search spent its node budget without finishing."""

    def __init__(self, max_nodes: int):
        self.max_nodes = max_nodes
        super().__init__("canonical form search exceeded its node budget "
                         f"of {max_nodes} nodes")


def canonical_form(g: MultipartiteGraph, max_nodes: int = 2_000_000):
    """Class-preserving canonical encoding: the lexicographically greatest
    adjacency code over all orderings of equal-size classes and of vertices
    within classes.  A library function and the test cross-check for
    `is_isomorphic_to_gamma`; `solve` never calls it.

    Positions are filled round-robin over the class slots so every placed
    vertex immediately discriminates the next class's candidates, with two
    prunings: branches whose code drops below the best known prefix are cut,
    and candidates with identical neighborhoods are interchangeable (their
    transposition is an automorphism), so only one of each is branched on.
    """
    sizes = g.class_sizes
    flat_by_class = [list(range(g._off[c], g._off[c + 1])) for c in range(g.r)]
    slot_sizes = sorted(sizes, reverse=True)
    # fixed position -> slot map: round-robin over slots, skipping slots that
    # are already full (depends only on the size multiset)
    slot_positions: list[int] = []
    fill = [0] * g.r
    while len(slot_positions) < g.n_vertices:
        for s in range(g.r):
            if fill[s] < slot_sizes[s]:
                slot_positions.append(s)
                fill[s] += 1
    best: list[int] | None = None
    placed: list[int] = []
    codes: list[int] = []
    nodes = 0

    def code_of(fid: int) -> int:
        out = 0
        row = g._adj[fid]
        for pos, pf in enumerate(placed):
            if row >> pf & 1:
                out |= 1 << pos
        return out

    def assign_classes(slot_of_class: dict[int, int], remaining: list[int]):
        """Branch over which real class occupies the next unassigned slot."""
        slot = len(slot_of_class)
        if not remaining:
            place({s: list(flat_by_class[c]) for c, s in slot_of_class.items()},
                  0)
            return
        for ci in remaining:
            if sizes[ci] != slot_sizes[slot]:
                continue
            slot_of_class[ci] = slot
            assign_classes(slot_of_class, [c for c in remaining if c != ci])
            del slot_of_class[ci]

    def place(pools: dict[int, list[int]], pos: int):
        # best is always the greatest code prefix seen; a branch survives only
        # while it ties best position by position, or extends/overtakes it
        nonlocal best, nodes
        nodes += 1
        if nodes > max_nodes:
            raise CanonicalFormBudgetExceeded(max_nodes)
        if pos == g.n_vertices:
            return
        slot = slot_positions[pos]
        pool = pools[slot]
        seen = set()
        scored = []
        for fid in pool:
            nb = g._adj[fid]
            if nb in seen:
                continue
            seen.add(nb)
            scored.append((code_of(fid), fid))
        scored.sort(reverse=True)
        for code, fid in scored:
            ref = best[pos] if pos < len(best) else None
            if ref is not None and code < ref:
                continue
            if ref is None or code > ref:
                del best[pos:]
                best.append(code)
            placed.append(fid)
            codes.append(code)
            pools[slot] = [f for f in pool if f != fid]
            place(pools, pos + 1)
            pools[slot] = pool
            placed.pop()
            codes.pop()

    best = []
    assign_classes({}, sorted(range(g.r), key=lambda c: (-sizes[c], c)))
    return (tuple(slot_sizes), tuple(best))


def is_isomorphic_to_gamma(g: MultipartiteGraph, n: int, r: int, k: int) -> bool:
    """Class-permuting, in-class-permuting isomorphism test against the
    extremal construction of the same parameters, in O(V^2).

    Gamma's subparts are the twin classes (equal neighbourhoods) of each
    class, and each misses exactly one subpart, its partner, in every other
    class.  In class 0 the two subparts whose partners in classes 1 and 2 are
    adjacent get labels 1 and 2 (any two when r = 2), and a partner of label j
    gets label j, or 3 - j for j <= 2; the choices left free are automorphisms
    of Gamma.  True only after the vertex map this gives is checked pair by
    pair against `build_gamma`."""
    if n % k or r < k:
        return False
    if g.r != r or set(g.class_sizes) != {n}:
        return False
    if n == 0:
        return True
    twins: list[dict[int, list[int]]] = []     # adjacency mask -> members
    for c in range(r):
        groups: dict[int, list[int]] = {}
        for f in range(g._off[c], g._off[c + 1]):
            groups.setdefault(g._adj[f], []).append(f)
        if len(groups) != k or any(len(vs) != n // k for vs in groups.values()):
            return False
        twins.append(groups)
    owner = [{sum(1 << f for f in vs): nb for nb, vs in groups.items()}
             for groups in twins]

    def partner(nb: int, c: int) -> int | None:
        return owner[c].get(g._class_masks[c] & ~nb)

    # part[c][X]: the twin class of class c matched to class-0 twin class X
    part = [{nb: nb for nb in twins[0]}]
    part += [{nb: partner(nb, c) for nb in twins[0]} for c in range(1, r)]
    if any(None in p.values() or len(set(p.values())) != k for p in part):
        return False
    order = list(twins[0])
    if r >= 3:
        low = [nb for nb in order if partner(part[1][nb], 2) != part[2][nb]]
        if len(low) != 2:
            return False
        order = low + [nb for nb in order if nb not in low]
    target = build_gamma(n, r, k).graph
    image = [0] * g.n_vertices
    for c in range(r):
        for j, nb in enumerate(order, 1):
            base = target._off[c] + ((3 - j if c and j <= 2 else j) - 1) * (n // k)
            for i, f in enumerate(twins[c][part[c][nb]]):
                image[f] = base + i
    for fu in range(g.n_vertices):
        row, trow, cu = g._adj[fu], target._adj[image[fu]], g._class_of[fu]
        for fv in range(fu + 1, g.n_vertices):
            if g._class_of[fv] != cu and (row >> fv & 1) != (trow >> image[fv] & 1):
                return False
    return True


# -- the divisibility barrier of the extremal construction ------------------------


def gamma_barrier(n: int, r: int, k: int) -> dict:
    """Γ(n, r, k)'s divisibility barrier, as integer weights on the subparts
    of `build_gamma(n, r, k).subparts` (subpart j of class c is part
    c*k + j - 1).  y is 1 on subparts 3..k and 0 on subparts 1 and 2, read
    over `scale` = k - 2 (so y = 1/(k-2)); the parity functional p is 1 on
    subpart 1.  For k = 2 the scale is 0, every type is tight, and p alone is
    the odd-component argument.  Raises ValueError when rn/k is even (Γ then
    packs); the barrier is returned only after `check_barrier` passes on Γ."""
    if (r * n // k) % 2 == 0:
        raise ValueError(f"rn/k = {r * n // k} is even: no barrier refutes Γ")
    barrier = {"gamma": [n, r, k], "scale": k - 2,
               "y": ([0, 0] + [1] * (k - 2)) * r,
               "p": ([1] + [0] * (k - 1)) * r}
    gamma = build_gamma(n, r, k)
    problems = check_barrier(gamma.graph, gamma.subparts, barrier)
    if problems:
        raise AssertionError(f"barrier failed its check: {problems[:3]}")
    return barrier


def check_barrier(g: MultipartiteGraph, subparts: PartitionLabeling,
                  barrier: dict) -> list[str]:
    """All the reasons the barrier fails to refute a perfect k-clique packing
    of g (an empty list: g has none), k being the barrier's `gamma[2]`.

    Between any two subparts the edges must be all present or all missing, so
    every clique lies on a type: k pairwise-complete subparts in distinct
    classes.  If y(T) <= scale on every type and y.sizes = scale * V/k, the
    V/k cliques of a perfect packing would all lie on tight types
    (y(T) = scale); if p is even on every tight type but p.sizes is odd, they
    cannot.  Plain loops over vertex pairs and subpart sets, like
    `CliquePacking.verify`."""
    k, scale, y, p = barrier["gamma"][2], barrier["scale"], barrier["y"], barrier["p"]
    d = subparts.d
    if [len(row) for row in subparts.part_of] != list(g.class_sizes):
        return ["the subparts do not label the graph's vertices"]
    if len(y) != d or len(p) != d:
        return [f"y and p need one weight for each of the {d} subparts"]
    problems = []
    members = subparts.parts()
    for a, vs in enumerate(members):
        if len({c for c, _ in vs}) != 1:
            problems.append(f"subpart {a} spans more than one class")
    complete = [[False] * d for _ in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            if members[a][0][0] == members[b][0][0]:
                continue
            edges = sum(1 for u in members[a] for v in members[b]
                        if g.has_edge(u, v))
            pairs = len(members[a]) * len(members[b])
            if 0 < edges < pairs:
                problems.append(f"subparts {a} and {b} are not all-or-nothing: "
                                f"{edges} of {pairs} edges")
            complete[a][b] = complete[b][a] = edges == pairs

    def extend(chosen: list[int], weight: int, parity: int,
               candidates: list[int]) -> None:
        # candidates: the later subparts complete to every chosen one
        if len(chosen) == k:
            if weight > scale:
                problems.append(f"type {chosen} has y(T) = {weight}/{scale} > 1")
            elif weight == scale and parity % 2:
                problems.append(f"tight type {chosen} has odd p(T) = {parity}")
            return
        for i, b in enumerate(candidates):
            extend(chosen + [b], weight + y[b], parity + p[b],
                   [c for c in candidates[i + 1:] if complete[b][c]])

    extend([], 0, 0, list(range(d)))
    total = g.n_vertices
    if total % k:
        problems.append(f"k = {k} does not divide the {total} vertices")
    elif sum(w * len(vs) for w, vs in zip(y, members)) != scale * (total // k):
        problems.append(f"y.sizes is not the {total // k} cliques of a perfect "
                        "packing")
    if sum(w * len(vs) for w, vs in zip(p, members)) % 2 == 0:
        problems.append("p.sizes is even")
    return problems

# -- seeded instance generation --------------------------------------------------


def random_min_degree_graph(r: int, n: int, k: int, seed,
                            delete_prob: float = 1.0) -> MultipartiteGraph:
    """Start from the complete r-partite graph on classes of size n and delete
    cross edges in seeded random order whenever the partite minimum degree
    stays at or above ceil((k-1)n/k); biased toward the threshold boundary."""
    if k < 1:
        raise ValueError("k must be positive")
    rng = random.Random(f"mindeg:{seed}")
    threshold = ceil((k - 1) * n / k)
    g = complete_multipartite([n] * r)
    masks, cls = g._adj, g._class_of
    deg = [[n if c != cls[f] else 0 for c in range(r)]
           for f in range(g.n_vertices)]
    # the cross pairs in `g.edges()` order (ascending flat ids, fu < fv): the
    # seeded shuffle, and so every generated graph, depends on this order
    pairs = [(fu, fv) for fu in range(g.n_vertices)
             for fv in range(g._off[cls[fu] + 1], g.n_vertices)]
    rng.shuffle(pairs)
    for fu, fv in pairs:
        if delete_prob < 1.0 and rng.random() > delete_prob:
            continue
        cu, cv = cls[fu], cls[fv]
        if deg[fu][cv] - 1 >= threshold and deg[fv][cu] - 1 >= threshold:
            masks[fu] &= ~(1 << fv)
            masks[fv] &= ~(1 << fu)
            deg[fu][cv] -= 1
            deg[fv][cu] -= 1
    return g


def _all_graphs_with_min_degree(r: int, n: int, threshold: int):
    """Every r-partite graph on classes of size n with partite minimum degree
    at least the threshold.  Exponential; for tiny instances only."""
    base = complete_multipartite([n] * r)
    all_edges = base.edges()
    for bits in range(1 << len(all_edges)):
        keep = [e for i, e in enumerate(all_edges) if bits >> i & 1]
        g = MultipartiteGraph([n] * r, keep)
        ok = True
        for v in g.vertices():
            for c in range(r):
                if c != v[0] and g.degree_in_class(v, c) < threshold:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield g


def verify_theorem_boundary(r: int, k: int, n: int, sample,
                            budget: int | None = None) -> dict:
    """Run the oracle over sampled qualifying instances and record every
    no-packing instance together with whether the odd-count-plus-isomorphism
    clause explains it.  Instances it does not explain are expected and
    legitimate at small scale; they are logged, never hidden.

    sample: ("exhaustive",) or ("random", count, seed).  Raises ValueError
    unless 1 <= k <= r and k divides r*n.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k > r:
        raise ValueError("clique size cannot exceed the class count")
    report = {
        "r": r, "k": k, "n": n,
        "instances": 0, "with_packing": 0, "without_packing": 0,
        "gamma_isomorphic": 0, "parity_clause_applies": 0,
        "exceptions": [], "incomplete_searches": 0,
    }
    if n == 0:
        report["note"] = "empty classes: vacuous"
        return report
    if (r * n) % k:
        raise ValueError("k must divide r*n")
    threshold = ceil((k - 1) * n / k)

    if sample[0] == "exhaustive":
        instances = _all_graphs_with_min_degree(r, n, threshold)
    elif sample[0] == "random":
        _, count, seed = sample
        instances = (random_min_degree_graph(r, n, k, f"{seed}:{i}",
                                             delete_prob=0.5 + 0.5 * (i % 2))
                     for i in range(count))
    else:
        raise ValueError(f"unknown sample spec {sample!r}")

    for g in instances:
        report["instances"] += 1
        verdict = brute_force_packing(g, k, budget)
        if not verdict.completed:
            report["incomplete_searches"] += 1
            continue
        if verdict.exists:
            report["with_packing"] += 1
            continue
        report["without_packing"] += 1
        parity = (r * n // k) % 2 == 1 and n % k == 0
        if parity:
            report["parity_clause_applies"] += 1
            if is_isomorphic_to_gamma(g, n, r, k):
                report["gamma_isomorphic"] += 1
                continue
        report["exceptions"].append(json.loads(graph_to_json(g)))
    return report
