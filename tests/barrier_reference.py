"""Test-only reference for Γ's barrier checker: `oracle.check_barrier` as it
was before it read g through the package's kernels (`k_cliques` over one
subpart-completeness mask per subpart, `edge_count_between` over one mask per
subpart), kept verbatim.  It enumerates the types with its own recursion and
counts each subpart pair's edges one `has_edge` call at a time.

Not collected by pytest (no test_ prefix).
"""

from __future__ import annotations


def check_barrier(g: MultipartiteGraph, subparts: PartitionLabeling,
                  barrier: dict) -> list[str]:
    """All the reasons the barrier fails to refute a perfect k-clique packing
    of g (an empty list: g has none), k being the barrier's `gamma[2]`.

    Between any two subparts the edges must be all present or all missing, so
    every clique lies on a type: k pairwise-complete subparts in distinct
    classes.  If y(T) <= scale on every type and y.sizes = scale * V/k, the
    V/k cliques of a perfect packing would all lie on tight types
    (y(T) = scale); if p is even on every tight type but p.sizes is odd, they
    cannot.  Plain loops over vertex pairs and subpart sets.  A barrier that
    lacks a key, has a field of the wrong shape (`gamma` not three ints,
    `scale` not an int, `y` or `p` not a list of ints; a bool is not an int)
    or has k < 1 is reported as a problem, not raised: barriers are read
    from outside."""
    missing = [key for key in ("gamma", "scale", "y", "p") if key not in barrier]
    if missing:
        return [f"the barrier lacks {', '.join(missing)}"]
    gamma, scale = barrier["gamma"], barrier["scale"]
    y, p = barrier["y"], barrier["p"]

    def ints(vec) -> bool:
        return (isinstance(vec, (list, tuple))
                and all(type(x) is int for x in vec))

    shape = [f"{name} is not {want}" for name, ok, want in (
        ("gamma", ints(gamma) and len(gamma) == 3, "three integers"),
        ("scale", type(scale) is int, "an integer"),
        ("y", ints(y), "a list of integers"),
        ("p", ints(p), "a list of integers")) if not ok]
    if shape:
        return shape
    k = gamma[2]
    if k < 1:
        return [f"k = {k} is not a clique size"]
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
