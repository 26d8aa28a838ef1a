"""Test-only reference for the gluing step's matching and degree count: the
two helpers `glue_rows` used before it ran on the oracle's `exact_cover`
kernel, kept verbatim.  `compatible(i1, t1, i2, t2)` says whether group t1 of
row i1 and group t2 of row i2 can share a glued clique.

Not collected by pytest (no test_ prefix).
"""


def _count_tuples(s, n, compatible, i1, t1) -> int:
    def rec(i, chosen):
        if i == s:
            return 1
        if i == i1:
            return rec(i + 1, chosen)
        total = 0
        for t in range(n):
            if all(compatible(i2, t2, i, t) for i2, t2 in chosen + [(i1, t1)]):
                total += rec(i + 1, chosen + [(i, t)])
        return total
    return rec(0, [])


def _s_partite_perfect_matching(s, n, compatible):
    if n == 0:
        return []
    used = [[False] * n for _ in range(s)]
    out: list[tuple[int, ...]] = []

    def rec(t1):
        if t1 == n:
            return True
        combo = [t1]

        def pick(i):
            if i == s:
                out.append(tuple(combo))
                if rec(t1 + 1):
                    return True
                out.pop()
                return False
            for t in range(n):
                if used[i][t]:
                    continue
                if all(compatible(i2, combo[i2], i, t) for i2 in range(i)):
                    used[i][t] = True
                    combo.append(t)
                    if pick(i + 1):
                        return True
                    combo.pop()
                    used[i][t] = False
            return False

        return pick(1)

    return out if rec(0) else None
