"""Differential test: `check_barrier`, which reads g through `k_cliques` and
`edge_count_between` over one mask per subpart, returns exactly the list of
the plain-loop checker it replaced (`barrier_reference`): on Γ shapes with
k = 2-5, Γ with edges removed or added, seeded relabellings (some with
subparts that span classes), and barriers with mutated y, p, scale and k."""

import random

import barrier_reference as ref
from partite_packing.graphs import (MultipartiteGraph, PartitionLabeling,
                                    build_gamma)
from partite_packing.oracle import check_barrier

# (n, r, k): r = k and rn/k even or odd for every k
SHAPES = [(2, 2, 2), (2, 3, 2), (4, 3, 2), (6, 3, 2), (2, 5, 2), (4, 4, 2),
          (3, 3, 3), (3, 4, 3), (6, 3, 3), (3, 5, 3), (9, 3, 3), (6, 4, 3),
          (4, 4, 4), (4, 5, 4), (8, 4, 4), (5, 5, 5), (5, 6, 5)]


def weights(n, r, k):
    return {"gamma": [n, r, k], "scale": k - 2,
            "y": [int(j >= 3) for c in range(r) for j in range(1, k + 1)],
            "p": [int(j == 1) for c in range(r) for j in range(1, k + 1)]}


def toggled(g, rng, count):
    """g with `count` seeded cross-class pairs toggled: an edge removed, a
    non-edge added."""
    drop, add = [], []
    for _ in range(count):
        cu, cv = rng.sample(range(g.r), 2)
        u = (cu, rng.randrange(g.class_sizes[cu]))
        v = (cv, rng.randrange(g.class_sizes[cv]))
        (drop if g.has_edge(u, v) else add).append((u, v))
    return g.without_edges(drop).with_edges(add)


def relabelled(g, labels, rng):
    """A seeded class and in-class shuffle of g, its labels moved along."""
    classes = rng.sample(range(g.r), g.r)
    offs = [rng.sample(range(s), s) for s in g.class_sizes]

    def new(v):
        return classes[v[0]], offs[v[0]][v[1]]

    sizes = [0] * g.r
    part_of = [None] * g.r
    for c, s in enumerate(g.class_sizes):
        sizes[classes[c]] = s
        row = [0] * s
        for o in range(s):
            row[offs[c][o]] = labels.part_of[c][o]
        part_of[classes[c]] = tuple(row)
    return (MultipartiteGraph(sizes, [(new(u), new(v)) for u, v in g.edges()]),
            PartitionLabeling(labels.d, tuple(part_of)))


def swapped(g, labels, rng):
    """The labels with two vertices of different classes exchanged, so both
    their subparts span two classes (or, between equal labels, nothing)."""
    rows = [list(row) for row in labels.part_of]
    cu, cv = rng.sample(range(g.r), 2)
    ou, ov = rng.randrange(g.class_sizes[cu]), rng.randrange(g.class_sizes[cv])
    rows[cu][ou], rows[cv][ov] = rows[cv][ov], rows[cu][ou]
    return PartitionLabeling(labels.d, tuple(map(tuple, rows)))


def mutated(barrier, rng):
    """The barrier with one of y, p, scale or k changed at random."""
    out = {key: list(v) if isinstance(v, list) else v
           for key, v in barrier.items()}
    field = rng.choice(["y", "p", "scale", "k"])
    if field in ("y", "p"):
        for _ in range(rng.randint(1, 3)):
            out[field][rng.randrange(len(out[field]))] = rng.randint(-1, 2)
    elif field == "scale":
        out["scale"] += rng.choice([-2, -1, 1, 2])
    else:
        out["gamma"][2] = max(1, out["gamma"][2] + rng.choice([-1, 1]))
    return out


def cases():
    for n, r, k in SHAPES:
        gam = build_gamma(n, r, k)
        g, labels, barrier = gam.graph, gam.subparts, weights(n, r, k)
        yield g, labels, barrier
        for copy in range(40):
            rng = random.Random(f"barrier-diff:{n},{r},{k}:{copy}")
            h, hl, hb = g, labels, barrier
            if copy % 4 == 1:
                h = toggled(h, rng, rng.randint(1, 3))
            h, hl = relabelled(h, hl, rng)
            if copy % 4 == 2:
                hl = swapped(h, hl, rng)
            if copy % 4 == 3 or copy % 8 == 1:
                hb = mutated(hb, rng)
            yield h, hl, hb


def test_check_barrier_matches_reference():
    seen = set()
    count = 0
    for g, labels, barrier in cases():
        want = ref.check_barrier(g, labels, barrier)
        assert check_barrier(g, labels, barrier) == want, (g, labels, barrier)
        seen.update(problem.split(" ")[0] for problem in want)
        count += 1
    assert count > 600
    # every kind of problem occurs: a subpart spanning classes, a subpart
    # pair neither complete nor empty, a heavy or an odd tight type, k not
    # dividing V, and the two totals
    assert {"subpart", "subparts", "type", "tight", "k", "y.sizes",
            "p.sizes"} <= seen, seen
