"""Test-only reference for the exact balanced clique-packing search: the
search as it was before it became an entry point into the oracle's
`exact_cover` kernel, kept verbatim.  It has no component, class-count or
failed-state prunes, so it is slow, but it tries cliques in the same order;
the differential tests assert that the kernel returns the same packing.

Not collected by pytest (no test_ prefix).
"""

from collections import Counter
from itertools import combinations

from partite_packing.graphs import (CliquePacking, MultipartiteGraph, Vertex,
                                    index_set)
from partite_packing.matching import SearchResult


def exact_balanced_clique_packing(g: MultipartiteGraph, p: int,
                                  require_balanced: bool = True,
                                  budget: int | None = None) -> SearchResult:
    """Exhaustive backtracking for a perfect (optionally balanced) p-clique
    packing: always extend the least uncovered vertex, enumerate its cliques
    in ascending id order, and prune indices already at their balanced quota.

    completed=True makes an absent verdict a proof of nonexistence; a budget
    stop is reported as completed=False.
    """
    total = g.n_vertices
    if total == 0:
        return SearchResult(CliquePacking([]), True, 0)
    if total % p:
        return SearchResult(None, True, 0)
    n_cliques = total // p
    quota = None
    if require_balanced:
        n_indices = len(list(combinations(range(g.r), p)))
        if n_cliques % n_indices:
            return SearchResult(None, True, 0)
        quota = n_cliques // n_indices
    nodes = 0
    counts: Counter = Counter()
    chosen: list[tuple[Vertex, ...]] = []
    full = (1 << total) - 1

    def search(covered: int) -> bool | None:
        """True found, False exhausted, None budget."""
        nonlocal nodes
        if covered == full:
            return True
        free = full & ~covered
        fv = (free & -free).bit_length() - 1
        v = g.vertex(fv)

        def extend(stack, common, lo):
            nonlocal nodes
            if len(stack) == p:
                idx = index_set(stack)
                if quota is not None and counts[idx] >= quota:
                    return False
                nodes += 1
                if budget is not None and nodes > budget:
                    return None
                counts[idx] += 1
                chosen.append(tuple(stack))
                sub = search(covered | sum(1 << g.flat(u) for u in stack))
                if sub:
                    return sub
                chosen.pop()
                counts[idx] -= 1
                return sub
            rest = common >> lo << lo
            while rest:
                low = rest & -rest
                fid = low.bit_length() - 1
                got = extend(stack + [g.vertex(fid)],
                             common & g._adj[fid], fid + 1)
                if got:
                    return got
                if got is None:
                    return None
                rest ^= low
            return False

        if p == 1:
            nodes += 1
            if budget is not None and nodes > budget:
                return None
            counts[index_set([v])] += 1
            chosen.append((v,))
            sub = search(covered | (1 << fv))
            if sub:
                return sub
            chosen.pop()
            counts[index_set([v])] -= 1
            return sub
        return extend([v], g._adj[fv] & free, fv + 1)

    got = search(0)
    if got is True:
        packing = CliquePacking(list(chosen))
        problems = packing.verify(g, perfect=True)
        if problems:
            raise AssertionError(f"packing failed verification: {problems[:3]}")
        return SearchResult(packing, True, nodes)
    return SearchResult(None, got is False, nodes)
