"""Bad-vertex classification, building blocks, the five balancing stages,
per-row packings, gluing, and the solve orchestrator."""

import random
from collections import Counter
from math import factorial

import pytest

from partite_packing import matching, pipeline
from partite_packing.graphs import (CliquePacking, MultipartiteGraph,
                                    blow_up, build_gamma, complete_multipartite)
from partite_packing.matching import exact_balanced_clique_packing
from partite_packing.oracle import (brute_force_packing, check_barrier,
                                    gamma_barrier, random_min_degree_graph)
from partite_packing.pipeline import (DeletionLedger, PipelineParams,
                                      StageFailure, balance_blocks,
                                      balance_columns, balance_rows,
                                      building_block, classify_bad_vertices,
                                      cover_and_divisibility, extend_clique,
                                      fix_row_parity_and_matchability,
                                      glue_rows, is_ij_distributed,
                                      is_properly_distributed,
                                      prepare_multirow, solve)
from partite_packing.structure import RowDecomposition
from test_graphs import index_counts, named
from test_oracle import relabeled_copy
from test_structure import members, offset_decomposition, row_masks


def planted_two_row(r=4, k=3, n=8, seed=None, diag_delete=0.0,
                    pc_row=False):
    """Classes of size k*n with a planted (2,1)-row structure.  Optionally
    delete a fraction of diagonal edges; optionally give the heavy row a
    two-half structure (halves = first/second n offsets)."""
    size = k * n
    g = complete_multipartite([size] * r)
    decomp = offset_decomposition(g, (2, 1), n,
                                  ([range(2 * n)] * r, [range(2 * n, size)] * r))
    drop = []
    rng = random.Random(f"p2r:{seed}")
    for j1 in range(r):
        for j2 in range(j1 + 1, r):
            for o1 in range(size):
                for o2 in range(size):
                    row1, row2 = o1 >= 2 * n, o2 >= 2 * n
                    if pc_row and not row1 and not row2:
                        # two-half heavy row: kill cross-half edges
                        if (o1 < n) != (o2 < n):
                            drop.append(((j1, o1), (j2, o2)))
                            continue
                    if row1 != row2 and seed is not None \
                            and rng.random() < diag_delete:
                        drop.append(((j1, o1), (j2, o2)))
    return g.without_edges(drop), decomp


def make_assignment(g, decomp, pc=None, bad_slack=None):
    if bad_slack is None:
        bad_slack = max(1, 2 * decomp.unit // 5)
    return classify_bad_vertices(g, decomp, pc or {}, bad_slack)


def bad_blocks_of(g, asg, v):
    """The blocks (i, j), j not v's class, that are bad for vertex v."""
    return {(i, j) for i in range(asg.s) for j in range(asg.r)
            if j != v[0] and asg.is_block_bad_for(g.flat(v), i, j)}


def has(mask, g, v):
    """Whether the flat-id mask holds vertex v."""
    return bool(mask >> g.flat(v) & 1)


def half_hits(asg, clique, i):
    """Plain count of the clique's vertices on row i's half side."""
    return sum(1 for f in clique if asg.row_of(f) == i and asg.half >> f & 1)


# -- classification ------------------------------------------------------------------


def test_classify_clean_blow_up():
    g, decomp = planted_two_row(n=2)
    asg = make_assignment(g, decomp)
    assert asg.bad == 0
    for i in range(2):
        for j in range(4):
            assert asg.w[i][j] == decomp.rows[i][j]


def test_classify_planted_bad_vertex_moves_rows():
    g, decomp = planted_two_row(n=2)
    # vertex (0,0) sits in row 0; delete its edges into the row-1 block of class 1
    drop = [((0, 0), (1, o)) for o in range(4, 6)]
    g = g.without_edges(drop)
    asg = make_assignment(g, decomp, bad_slack=1)
    assert has(asg.bad, g, (0, 0))
    assert has(asg.w[1][0], g, (0, 0))  # reassigned to the row it is bad for
    assert not has(asg.w[0][0], g, (0, 0))
    assert bad_blocks_of(g, asg, (0, 0)) == {(1, 1)}


def test_classify_fill_vertices_are_bad():
    g = complete_multipartite([7, 7])
    decomp = offset_decomposition(g, (2, 1), 2,
                                  ([range(4)] * 2, [range(4, 6)] * 2))
    asg = make_assignment(g, decomp)
    assert has(asg.bad, g, (0, 6)) and has(asg.bad, g, (1, 6))


def test_classify_rejects_a_block_outside_its_class():
    # a block is a flat-id mask, so nothing but this check ties it to its class
    g = complete_multipartite([4, 4])
    class0, class1 = row_masks(g, [range(4)] * 2)
    swapped = RowDecomposition((2,), 2, ((class1, class0),))
    straddling = RowDecomposition((2,), 2, (
        (g.mask_of([(0, 0), (0, 1), (0, 2), (1, 0)]),
         g.mask_of([(1, 1), (1, 2), (1, 3), (0, 3)])),))
    for decomp in (swapped, straddling):
        with pytest.raises(ValueError, match="outside class 0"):
            make_assignment(g, decomp)


def test_classify_pc_half_membership_rule():
    g, decomp = planted_two_row(n=2, pc_row=True)
    pc = {0: row_masks(g, [range(2)] * 4)}
    # a half vertex that lost its within-half edges lands on the other side
    drop = [((0, 0), (j, o)) for j in range(1, 4) for o in range(2)]
    add = [((0, 0), (j, o)) for j in range(1, 4) for o in range(2, 4)]
    g = g.without_edges(drop).with_edges(add)
    asg = make_assignment(g, decomp, pc=pc, bad_slack=1)
    assert has(asg.bad, g, (0, 0))
    assert 0 in asg.pc_rows
    i, j = asg.row_of(g.flat((0, 0))), 0
    if i == 0:
        assert not has(asg.half & asg.w[0][j], g, (0, 0))


def test_bad_block_table_at_most_one_per_column():
    for seed in range(6):
        g, decomp = planted_two_row(n=3, seed=seed, diag_delete=0.2)
        asg = make_assignment(g, decomp)
        for v in g.vertices():
            per_col = {}
            for (i, j) in bad_blocks_of(g, asg, v):
                per_col[j] = per_col.get(j, 0) + 1
            assert all(c <= 1 for c in per_col.values())


def recount_bad(g, decomp, pc, bad_slack):
    """Plain-loop bad set: a vertex outside every block; one with more than
    bad_slack * p_i2 non-neighbours in a block X^i2_j2, i2 != i and j2 != j;
    or, in a two-half row, one with more than bad_slack non-neighbours on
    its own side (half or rest of the row's block) of another class."""
    placed = {v for i in range(decomp.s) for j in range(decomp.r)
              for v in members(g, decomp.rows[i][j])}
    bad = {v for v in g.vertices() if v not in placed}
    for i in range(decomp.s):
        for j in range(decomp.r):
            for v in members(g, decomp.rows[i][j]):
                for i2 in range(decomp.s):
                    for j2 in range(decomp.r):
                        misses = sum(1 for u in members(g, decomp.rows[i2][j2])
                                     if not g.has_edge(v, u))
                        if (i2 != i and j2 != j
                                and misses > bad_slack * decomp.weights[i2]):
                            bad.add(v)
                if i not in pc:
                    continue
                inside = has(pc[i][j], g, v)
                for j2 in range(decomp.r):
                    side = [u for u in members(g, decomp.rows[i][j2])
                            if has(pc[i][j2], g, u) == inside]
                    misses = sum(1 for u in side if not g.has_edge(v, u))
                    if j2 != j and misses > bad_slack:
                        bad.add(v)
    return bad


def recount_placement(g, decomp, pc, bad):
    """Plain-loop containers and half side for the given bad set: a bad
    vertex goes to the row holding the most blocks bad for it (more than n/2
    non-neighbours in X^i2_j2, j2 not its class), ties to the lowest row; a
    two-half row's half holds its side T minus the bad vertices, plus each
    bad vertex of its containers with at least n/2 neighbours in another
    class's T.  Returns (w, half) as sets of vertices."""
    s, r, n = decomp.s, decomp.r, decomp.unit
    w = [[{v for v in members(g, decomp.rows[i][j]) if v not in bad}
          for j in range(r)] for i in range(s)]
    for v in sorted(bad):
        counts = [0] * s
        for i in range(s):
            for j in range(r):
                misses = sum(1 for u in members(g, decomp.rows[i][j])
                             if u != v and not g.has_edge(v, u))
                if j != v[0] and 2 * misses > n:
                    counts[i] += 1
        target = 0
        for i in range(s):
            if counts[i] > counts[target]:
                target = i
        w[target][v[0]].add(v)
    half = set()
    for i in pc:
        for j in range(r):
            half |= set(members(g, pc[i][j])) - bad
            for v in w[i][j] & bad:
                for j2 in range(r):
                    deg = sum(1 for u in members(g, pc[i][j2]) if g.has_edge(v, u))
                    if j2 != j and 2 * deg >= n:
                        half.add(v)
    return w, half


def check_classified(g, decomp, pc, bad_slack, want):
    """classify_bad_vertices against the plain-loop recounts: its bad set is
    `want`, and its containers and half side are `recount_placement`'s.
    Returns the recounted containers and half side."""
    asg = classify_bad_vertices(g, decomp, pc, bad_slack)
    assert asg.bad == g.mask_of(want)
    w, half = recount_placement(g, decomp, pc, want)
    assert asg.w == [[g.mask_of(block) for block in blocks] for blocks in w]
    assert asg.half == g.mask_of(half)
    return w, half


def test_classify_bad_set_matches_recount():
    """`classify_bad_vertices` decides once per block and neighbourhood; on
    twin-heavy two-row graphs with planted bad twins, weak halves and noise,
    its bad set equals a `has_edge` recount, and so do the containers its
    bad vertices move to and its half side."""
    n, r = 4, 4
    sizes = []
    half_bad = Counter()    # bad vertices of two-half containers: in half?
    for seed in range(6):
        g, decomp = planted_two_row(r=r, n=n, seed=seed, pc_row=True,
                                    diag_delete=0.04 * (seed % 2))
        pc = {0: row_masks(g, [range(n)] * r)}
        # two twins of row 0 lose their edges into the block X^1_1
        drop = [((0, o), (1, o2)) for o in (seed, seed + 1)
                for o2 in range(2 * n, 3 * n)]
        # a vertex outside the half of class 2 trades its side for the half
        v = (2, n + seed % n)
        drop += [(v, (j, o)) for j in (0, 1, 3) for o in range(n, 2 * n)]
        add = [(v, (j, o)) for j in (0, 1, 3) for o in range(n)]
        # a vertex outside the half of class 1 loses its side and keeps
        # exactly n/2 neighbours in the half of class 0: bad, and on the half
        # side by the rule's bound
        u = (1, n + (seed + 1) % n)
        drop += [(u, (j, o)) for j in (0, 2, 3) for o in range(n, 2 * n)]
        add += [(u, (0, o)) for o in range(n // 2)]
        g = g.without_edges(drop).with_edges(add)
        # row 0 alone: no diagonal blocks, so only its halves can be weak
        row, _ = g.induced(g.mask_of((j, o) for j in range(r)
                                     for o in range(2 * n)))
        one = offset_decomposition(row, (2,), n, ([range(2 * n)] * r,))
        pc_one = {0: row_masks(row, [range(n)] * r)}
        for bad_slack in (1, 2):
            want = recount_bad(g, decomp, pc, bad_slack)
            w, half = check_classified(g, decomp, pc, bad_slack, want)
            half_bad.update(u in half for block in w[0] for u in block & want)
            assert {(0, seed), (0, seed + 1), v, u} <= want and u in half
            sizes.append(len(want))
            want = recount_bad(row, one, pc_one, bad_slack)
            check_classified(row, one, pc_one, bad_slack, want)
            assert v in want
            assert classify_bad_vertices(row, one, {}, bad_slack).bad == 0
    # the planted vertices are not all: noise and slack 1 add more
    assert max(sizes) > 3 and min(sizes) < g.n_vertices
    # the half rule both admits and leaves out bad vertices
    assert half_bad[True] and half_bad[False]

    # without halves, noise sends bad vertices from each row to the other,
    # and leaves some (ties included) in their own row
    moves = Counter()
    for seed in range(6):
        g, decomp = planted_two_row(r=r, n=n, seed=seed, diag_delete=0.2)
        home = {u: i for i in range(2) for j in range(r)
                for u in members(g, decomp.rows[i][j])}
        for bad_slack in (1, 2):
            want = recount_bad(g, decomp, {}, bad_slack)
            w, half = check_classified(g, decomp, {}, bad_slack, want)
            assert half == set()
            moves.update((home[u], i) for i in range(2) for block in w[i]
                         for u in block & want)
    assert moves[0, 1] and moves[1, 0] and moves[0, 0]


# -- building blocks ------------------------------------------------------------------


def test_extend_clique_proper_on_clean_instance():
    g, decomp = planted_two_row(n=2)
    asg = make_assignment(g, decomp)
    got = extend_clique(g, asg, [], {0: (0, 1), 1: (2,)})
    assert got is not None and len(got) == 3
    assert is_properly_distributed(asg, got)


def test_extend_clique_reports_failing_step():
    g, decomp = planted_two_row(n=2)
    asg = make_assignment(g, decomp)
    got = extend_clique(g, asg, [], {0: (0, 1), 1: (2,)},
                        forbidden=decomp.rows[1][2])
    assert got is None


def test_extend_clique_checks_conditions():
    g, decomp = planted_two_row(n=2)
    asg = make_assignment(g, decomp)
    with pytest.raises(ValueError):
        # overfull row with no seed: no condition holds
        extend_clique(g, asg, [], {0: (0, 1, 2), 1: (3,)})


def test_building_block_through_vertex_and_ij():
    g, decomp = planted_two_row(n=2)
    asg = make_assignment(g, decomp)
    v = g.flat((2, 0))
    got = building_block(g, asg, "through_vertex", vertex=v)
    assert got is not None and v in got and is_properly_distributed(asg, got)

    got = building_block(g, asg, "ij", rows=(0, 1))
    assert got is not None and is_ij_distributed(asg, got, 0, 1)

    u, w = g.flat((0, 4)), g.flat((1, 5))   # both in the weight-1 row
    got = building_block(g, asg, "through_edge", rows=(1, 0), edge=(u, w))
    assert got is not None and is_ij_distributed(asg, got, 1, 0)
    assert u in got and w in got


def test_building_block_pc_parity_controls():
    g, decomp = planted_two_row(n=2, pc_row=True)
    pc = {0: row_masks(g, [range(2)] * 4)}
    asg = make_assignment(g, decomp, pc=pc)
    assert asg.pc_rows == {0}
    for b in (0, 3):
        got = building_block(g, asg, "ij", rows=(0, 1), parity=b)
        assert got is not None
        assert half_hits(asg, got, 0) == b
    proper = building_block(g, asg, "proper")
    assert proper is not None and is_properly_distributed(asg, proper)


# -- stage unit tests ----------------------------------------------------------------------


def run_stages(g, decomp, pc=None, extremal=False):
    asg = make_assignment(g, decomp, pc=pc)
    ledger = DeletionLedger(g)
    total_target = g.r * g.class_sizes[0] // sum(decomp.weights)
    balance_rows(g, asg, ledger, total_target, extremal)
    prepare_multirow(g, asg, ledger)
    cover_and_divisibility(g, asg, ledger, total_target)
    balance_columns(g, ledger)
    xprime, audit = balance_blocks(g, asg, ledger, total_target)
    assert CliquePacking([tuple(g.vertex(f) for f in e.clique)
                          for e in ledger.entries]).verify(g) == []
    return asg, ledger, xprime, audit


def recount_audit(g, xprime):
    """Plain-loop diagonal degree: least number of neighbours a vertex of
    X'^i_j has in a block X'^i2_j2 with i2 != i and j2 != j."""
    return min(sum(1 for u in members(g, xprime.rows[i2][j2]) if g.has_edge(v, u))
               for i in range(xprime.s) for j in range(xprime.r)
               for v in members(g, xprime.rows[i][j])
               for i2 in range(xprime.s) if i2 != i
               for j2 in range(xprime.r) if j2 != j)


def test_stage_rows_zero_excess_is_noop():
    g, decomp = planted_two_row(n=2)
    asg = make_assignment(g, decomp)
    ledger = DeletionLedger(g)
    balance_rows(g, asg, ledger, g.r * g.class_sizes[0] // 3, False)
    assert len(ledger) == 0


def test_stage_rows_corrects_one_moved_vertex():
    g, decomp = planted_two_row(n=8)
    drop = [((0, 0), (1, o)) for o in range(16, 24)]
    g = g.without_edges(drop)
    asg = make_assignment(g, decomp, bad_slack=3)
    assert has(asg.w[1][0], g, (0, 0))
    ledger = DeletionLedger(g)
    total_target = g.r * g.class_sizes[0] // 3
    balance_rows(g, asg, ledger, total_target, False)
    assert len(ledger) == 1
    clique = ledger.entries[0].clique
    assert is_ij_distributed(asg, clique, 1, 0)
    for i in range(2):
        left = (asg.row_mask(i) & ~ledger.covered).bit_count()
        assert left == decomp.weights[i] * (total_target - 1)


def test_stage_cover_divisibility_and_columns():
    g, decomp = planted_two_row(n=26)
    asg, ledger, xprime, audit = run_stages(g, decomp)
    r = 4
    assert (g.r * g.class_sizes[0] // 3 - len(ledger)) % (r * factorial(r)) == 0
    per_class = [(ledger.covered & g.class_mask(j)).bit_count()
                 for j in range(r)]
    assert len(set(per_class)) == 1
    assert xprime.unit % factorial(r) == 0
    assert xprime.unit >= 8
    assert audit == recount_audit(g, xprime)


def test_stage_blocks_recount_against_planted_bad():
    for seed in range(2):
        g, decomp = planted_two_row(n=26, seed=seed, diag_delete=0.05)
        drop = [((0, seed), (1, o)) for o in range(52, 78)]
        g = g.without_edges(drop)
        asg, ledger, xprime, audit = run_stages(g, decomp)
        for i in range(xprime.s):
            for j in range(xprime.r):
                assert xprime.rows[i][j].bit_count() == xprime.weights[i] * xprime.unit
        assert audit == recount_audit(g, xprime)


def test_stage_columns_fails_on_skewed_classes():
    # skew the ledger by hand: the columns stage only recounts, so uneven
    # classes fail it
    r, k, n = 3, 2, 20
    size = k * n
    g = complete_multipartite([size] * r)
    ledger = DeletionLedger(g)
    # nine hand-placed edges covering classes (8, 6, 4): a' = (+2, 0, -2)
    pairs = [((0, 2 * t), (1, 2 * t + 1)) for t in range(3)]
    pairs += [((0, 10 + 2 * t), (2, 2 * t + 1)) for t in range(1)]
    pairs += [((1, 10 + 2 * t), (2, 10 + 2 * t + 1)) for t in range(1)]
    pairs += [((0, 20 + t), (1, 26 + t)) for t in range(2)]
    pairs += [((0, 30 + t), (2, 26 + t)) for t in range(2)]
    for u, v in pairs:
        ledger.add((g.flat(u), g.flat(v)), "cover", "proper")
    per_class = [(ledger.covered & g.class_mask(j)).bit_count()
                 for j in range(r)]
    assert per_class == [8, 6, 4]
    with pytest.raises(StageFailure) as err:
        balance_columns(g, ledger)
    assert (err.value.stage, err.value.reason, err.value.detail) == (
        "columns", "classes uneven: [8, 6, 4]", [8, 6, 4])
    assert len(ledger) == 9


def test_balance_blocks_rejects_deviations_that_do_not_cancel():
    # 18 cliques left on 18 vertices: every block falls short of its target
    # (q = -8 in the weight-2 row, -4 in the weight-1 row), so no row of the
    # deviations cancels
    g, decomp = planted_two_row(r=3, k=3, n=2)
    asg = make_assignment(g, decomp)
    with pytest.raises(StageFailure) as err:
        balance_blocks(g, asg, DeletionLedger(g), 18)
    assert (err.value.stage, err.value.reason) == (
        "blocks", "block sizes miss weight * unit")
    assert err.value.detail == [[-8, -8, -8], [-4, -4, -4]]


def test_stage_blocks_fails_on_block_skew():
    # block-level skew with balanced rows and columns: the blocks stage only
    # recounts, so blocks off their targets fail it
    r, k, n = 3, 3, 12
    size = k * n
    g = complete_multipartite([size] * r)
    decomp = offset_decomposition(g, (2, 1), n,
                                  ([range(2 * n)] * r, [range(2 * n, size)] * r))
    asg = make_assignment(g, decomp)
    ledger = DeletionLedger(g)
    total_target = r * size // k
    patterns = [({0: (0, 1), 1: (2,)}, 8), ({0: (1, 2), 1: (0,)}, 5),
                ({0: (2, 0), 1: (1,)}, 5)]
    for pattern, count in patterns:
        for _ in range(count):
            got = extend_clique(g, asg, [], pattern, forbidden=ledger.covered)
            ledger.add(got, "cover", "proper")
    per_class = [(ledger.covered & g.class_mask(j)).bit_count()
                 for j in range(r)]
    assert len(set(per_class)) == 1
    with pytest.raises(StageFailure) as err:
        balance_blocks(g, asg, ledger, total_target)
    # 18 cliques remain, so n' = 6 and the targets are 12 (row 0) and 6
    # (row 1).  Row 0 loses 8 + 5 vertices in columns 0 and 1 and 5 + 5 in
    # column 2 of its 24; row 1 loses 5, 5 and 8 of its 12
    assert (err.value.stage, err.value.reason, err.value.detail) == (
        "blocks", "block sizes miss weight * unit", [[-1, -1, 2], [1, 1, -2]])
    assert len(ledger) == 18


# -- row packings and gluing ---------------------------------------------------------------


def test_glue_single_row_passthrough():
    g = complete_multipartite([6, 6, 6])
    decomp = offset_decomposition(g, (3,), 2, ([range(6)] * 3,))
    res = exact_balanced_clique_packing(g, 3)
    glue = glue_rows(g, decomp, {0: res.packing})
    assert named(g, glue.packing).verify(g, perfect=True) == []


def test_glue_two_rows_complete_diagonal():
    g, decomp = planted_two_row(r=3, k=3, n=6)
    asg = make_assignment(g, decomp)
    packs = fix_row_parity_and_matchability(g, asg, decomp, PipelineParams())
    glue = glue_rows(g, decomp, packs)
    assert min(e["min_degree"] for e in glue.sigma_log) > 0
    assert named(g, glue.packing).verify(g, perfect=True) == []
    # every glued clique meets row i in exactly its weight
    for clique in named(g, glue.packing).cliques:
        for i in range(decomp.s):
            hit = sum(1 for v in clique if has(decomp.rows[i][v[0]], g, v))
            assert hit == decomp.weights[i]


def test_glue_rejects_bad_unit():
    # unit 2 is not divisible by r! = 6
    g = complete_multipartite([6, 6, 6])
    decomp = offset_decomposition(g, (2, 1), 2, ([{0, 1, 2, 3}] * 3, [{4, 5}] * 3))
    with pytest.raises(StageFailure):
        glue_rows(g, decomp, {0: [], 1: []})


def test_fix_rows_pair_complete_path():
    g, decomp = planted_two_row(r=3, k=3, n=6, pc_row=True)
    pc = {0: row_masks(g, [range(6)] * 3)}
    asg = make_assignment(g, decomp, pc=pc)
    packs = fix_row_parity_and_matchability(g, asg, decomp, PipelineParams())
    assert set(index_counts(g, packs[0]).values()) == {len(packs[0]) // 3}
    glue = glue_rows(g, decomp, packs)
    assert named(g, glue.packing).verify(g, perfect=True) == []


# -- the orchestrator ---------------------------------------------------------------------


def test_solve_complete_graph_via_pipeline():
    g = complete_multipartite([24] * 4)
    res = solve(g, 3)
    assert res.status == "packed"
    assert res.packing.verify(g, perfect=True) == []
    assert any(s["name"] == "glue" or s["name"] == "blocks" for s in res.stages)


def test_solve_gamma_extremal():
    res = solve(build_gamma(3, 3, 3).graph, 3)
    assert res.status == "extremal"


@pytest.mark.parametrize("n,r,k,stage", [(3, 5, 3, "oracle")])
def test_solve_certifies_shuffled_gamma(n, r, k, stage):
    # a relabelled Gamma(3,5,3) is certified extremal with the oracle as the
    # diagnosing stage, under the seeded relabelling it has always used
    g = relabeled_copy(build_gamma(n, r, k).graph, f"solve:{n},{r},{k}")
    res = solve(g, k)
    assert res.status == "extremal"
    assert res.diagnosis["stage"] == stage


# Γ of oracle-route shapes, of pipeline-scale shapes (r >= 4 and class size
# at least k*k), and Γ(2,3,2) at k = 2, whose two components have odd size:
# each is answered before any route runs
@pytest.mark.parametrize("n,r,k", [(3, 5, 3), (4, 5, 4), (5, 5, 5), (9, 3, 3),
                                   (9, 5, 3), (9, 7, 3), (15, 5, 3),
                                   (20, 5, 4), (2, 3, 2)])
def test_oracle_route_answers_gamma_by_its_barrier(monkeypatch, n, r, k):
    def no_search(*args, **kwargs):
        raise AssertionError("solve searched or decomposed a recognised Gamma")

    monkeypatch.setattr(pipeline, "brute_force_packing", no_search)
    monkeypatch.setattr(pipeline, "iterate_decomposition", no_search)
    res = solve(relabeled_copy(build_gamma(n, r, k).graph, f"barrier:{n}"), k)
    assert res.status == "extremal"
    assert res.stages == [{"name": "oracle", "note": "barrier"}]
    assert res.diagnosis["stage"] == "oracle"
    barrier = res.diagnosis["barrier"]
    assert barrier == gamma_barrier(n, r, k)
    gam = build_gamma(*barrier["gamma"])
    assert check_barrier(gam.graph, gam.subparts, barrier) == []


def test_oracle_route_searches_what_it_does_not_recognise():
    # rn/k even: not refuted, and Gamma(6,4,3) packs; one edge more than
    # Gamma(3,5,3) is no longer Gamma
    plus = build_gamma(3, 5, 3).graph.with_edges([((0, 0), (1, 1))])
    for g in (relabeled_copy(build_gamma(6, 4, 3).graph, "even"), plus):
        res = solve(g, 3)
        verdict = brute_force_packing(g, 3)
        assert [s["name"] for s in res.stages] == ["oracle"]
        assert res.stages[0]["nodes"] == verdict.nodes_explored
        assert (res.status == "packed") == verdict.exists
        assert res.status != "extremal"


def test_solve_agrees_with_oracle_small():
    for i in range(80):
        rng = random.Random(f"sv:{i}")
        r = rng.choice([2, 3, 4])
        k = rng.choice([x for x in (2, 3, 4) if x <= r])
        ns = [x for x in (2, 3, 4, 5) if (r * x) % k == 0 and r * x <= 15]
        if not ns:
            continue
        n = rng.choice(ns)
        g = random_min_degree_graph(r, n, k, seed=i, delete_prob=0.7)
        res = solve(g, k)
        oracle = brute_force_packing(g, k)
        assert (res.status == "packed") == oracle.exists
        if res.packing is not None:
            assert res.packing.verify(g, perfect=True) == []


def test_solve_precondition_errors():
    with pytest.raises(ValueError):
        solve(MultipartiteGraph([3, 3, 3]), 3)   # empty graph: degree 0
    with pytest.raises(ValueError):
        solve(complete_multipartite([3, 3]), 4)  # k > r
    with pytest.raises(ValueError):
        solve(complete_multipartite([5, 5, 5, 5]), 3)  # k does not divide rn


def test_graphs_below_36_vertices_take_the_oracle_route():
    # the pipeline needs k >= 3, r >= 4 and a class size of at least k*k
    for r in range(1, 36):
        for size in range(1, 35 // r + 1):
            for k in range(1, r + 1):
                if (r * size) % k == 0:
                    res = solve(complete_multipartite([size] * r), k)
                    assert res.status == "packed", (r, size, k)
                    assert ([s["name"] for s in res.stages]
                            == ["trivial" if k == 1 else "oracle"]), (r, size, k)
    res = solve(complete_multipartite([9] * 4), 3)
    assert res.status == "packed" and res.stages[0]["name"] == "decompose"


def test_stage_failure_falls_back_to_the_oracle():
    # 36 vertices, within FALLBACK_CUTOFF: the one pipeline shape small
    # enough for the fallback (r = 4, class size 9 = k*k).  Cover runs out
    # of proper filler cliques, and the oracle then decides the graph
    assert pipeline.FALLBACK_CUTOFF == 40
    g = random_min_degree_graph(4, 9, 3, 1)
    res = solve(g, 3)
    verdict = brute_force_packing(g, 3)
    assert verdict.completed and verdict.exists
    assert res.stages[-2:] == [
        {"name": "cover", "failed": "proper filler clique unavailable"},
        {"name": "oracle", "completed": True,
         "nodes": verdict.nodes_explored}]
    assert res.status == "packed"
    edges = {frozenset(e) for e in g.edges()}
    assert sorted(v for c in res.packing.cliques for v in c) == sorted(g.vertices())
    for clique in res.packing.cliques:
        assert len(clique) == 3
        assert all(frozenset((clique[a], clique[b])) in edges
                   for a in range(3) for b in range(a + 1, 3))
    assert res.packing.verify(g, perfect=True) == []


def test_random_graphs_pack_through_the_balanced_row_search(monkeypatch):
    # no split is found on these 288-vertex graphs, so rowpack's balanced
    # exact search packs the one row that is left after the earlier stages
    searches = []

    def spy(*args, **kwargs):
        searches.append(exact_balanced_clique_packing(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(pipeline, "exact_balanced_clique_packing", spy)
    for seed in (1, 2, 3):
        searches.clear()
        g = random_min_degree_graph(4, 72, 3, seed)
        res = solve(g, 3)
        assert res.status == "packed"
        assert [s["unit"] for s in res.stages if s["name"] == "rowpack"] == [24]
        assert len(searches) == 1
        assert searches[0].completed and searches[0].packing is not None
        edges = {frozenset(e) for e in g.edges()}
        covered = []
        for clique in res.packing.cliques:
            assert len(clique) == 3
            for a in range(3):
                for b in range(a + 1, 3):
                    assert frozenset((clique[a], clique[b])) in edges
            covered.extend(clique)
        assert sorted(covered) == sorted(g.vertices())


@pytest.mark.parametrize("factor, excess", [(25, [2, 2, 2, 2]), (26, [1, 1, 1, 1])],
                         ids=["x25", "x26"])
def test_solve_runs_the_two_half_correction_matching(monkeypatch, factor, excess):
    # the halves that survive in the two-half row of Γ(3,4,3) blown up 25 or
    # 26 times are uneven against the unit 24, so the matcher realizes their
    # excesses and covers each realized pair with its correction matching
    sequences = []
    real = matching.realize_multigraph

    def spy(seq):
        sequences.append(list(seq))
        return real(seq)

    monkeypatch.setattr(matching, "realize_multigraph", spy)
    g = blow_up(build_gamma(3, 4, 3).graph, factor)
    res = solve(g, 3)
    assert res.status == "packed"
    assert res.packing.verify(g, perfect=True) == []
    stages = {s["name"]: s for s in res.stages}
    assert stages["classify"]["pair_complete_rows"] == [1]
    assert stages["rowpack"]["unit"] == 24
    assert sequences == [excess]


def test_deep_balanced_row_search_packs():
    # rowpack's search packs most of these 960 vertices: hundreds of
    # cliques deep, past the recursion limit of a recursive search
    g = random_min_degree_graph(4, 240, 3, 1)
    assert solve(g, 3).status == "packed"


def double_swap(n, r, extra):
    """r classes of n + extra vertices at the k = 4 threshold.  Offsets below
    n fall into four subparts of n/4, and two vertices of different classes
    are adjacent unless their subparts are partners (0-1 or 2-3); the offsets
    from n on are adjacent to every vertex of the other classes."""
    size, part = n + extra, n // 4

    def partners(o1, o2):
        return o1 < n and o2 < n and o1 // part == (o2 // part) ^ 1

    return MultipartiteGraph([size] * r, [
        ((c1, o1), (c2, o2)) for c1 in range(r) for c2 in range(c1 + 1, r)
        for o1 in range(size) for o2 in range(size) if not partners(o1, o2)])


def near_gamma(n, r, k, m, seed):
    """Γ(n, r, k) with m of its cross-class non-edges, drawn by the seed,
    added as edges: a graph near the extremal construction, still at the
    partite minimum-degree threshold."""
    g = build_gamma(n, r, k).graph
    non_edges = [(u, v) for u in g.vertices() for v in g.vertices()
                 if u[0] < v[0] and not g.has_edge(u, v)]
    rng = random.Random(f"near-gamma:{n},{r},{k},{m},{seed}")
    return g.with_edges(rng.sample(non_edges, m))


# every building-block kind but "through_edge" is reached by these graphs:
# built counts by (kind, found), and cliques deleted by the rows, prepare and
# cover stages
@pytest.mark.parametrize("make, k, built, bad, deleted", [
    # weights [2, 2], two two-half rows: the spare cliques of prepare
    (lambda: double_swap(16, 4, 0), 4,
     {("ij", True): 2, ("proper", True): 14}, 0, [0, 2, 14]),
    # 4 bad vertices: rows deletes positive-excess ij cliques, and cover
    # takes each bad vertex through an edge of its two-half row
    (lambda: double_swap(16, 4, 1), 4,
     {("ij", True): 4, ("through_vertex", True): 4, ("outside_row", True): 4,
      ("outside_row", False): 3, ("proper", True): 9}, 4, [2, 2, 13]),
    # k does not divide the class size: the trimmed offsets are bad, and
    # cover takes each through a row without halves
    (lambda: random_min_degree_graph(4, 98, 4, 1), 4,
     {("through_vertex", True): 8, ("proper", True): 90}, 8, [0, 0, 98]),
    # the same in a row of weight k < r, where the bad vertex's column must
    # be anchored in the pattern
    (lambda: random_min_degree_graph(6, 10, 3, 1), 3,
     {("through_vertex", True): 6, ("proper", True): 14}, 6, [0, 0, 20]),
], ids=["double_swap-16-4-0", "double_swap-16-4-1", "random-4-98-4-1",
        "random-6-10-3-1"])
def test_solve_reaches_the_building_block_kinds(monkeypatch, make, k, built,
                                                bad, deleted):
    g = make()
    counts = Counter()
    real = pipeline.building_block

    def counting(g, asg, kind, **kwargs):
        got = real(g, asg, kind, **kwargs)
        counts[kind, got is not None] += 1
        return got

    monkeypatch.setattr(pipeline, "building_block", counting)
    res = solve(g, k)
    assert res.status == "packed"
    assert res.packing.verify(g, perfect=True) == []
    assert brute_force_packing(g, k).exists
    assert counts == built
    stages = {s["name"]: s for s in res.stages}
    assert stages["classify"]["bad"] == bad
    assert [stages[name]["deleted"]
            for name in ("rows", "prepare", "cover")] == deleted


@pytest.mark.parametrize("r, n, k", [(4, 18, 4), (6, 10, 3)])
def test_solve_packs_complete_graphs_with_trimmed_offsets(monkeypatch, r, n,
                                                          k):
    # k does not divide n: the offsets past the largest multiple of k are
    # reassigned to a weight-1 row, whose positive excess the rows stage
    # removes through an edge matching and "through_edge" cliques.  Those
    # cliques and the covering ones must be anchored in blocks that still
    # have a vertex left
    matchings = []
    real = pipeline._row_edge_matching

    def counting(*args):
        got = real(*args)
        matchings.append(got)
        return got

    monkeypatch.setattr(pipeline, "_row_edge_matching", counting)
    g = complete_multipartite([n] * r)
    res = solve(g, k)
    assert res.status == "packed"
    assert matchings and all(m is not None for m in matchings)
    # the packing, re-checked with plain loops: k vertices of k different
    # classes per clique (so a clique of the complete graph), each vertex
    # exactly once
    for clique in res.packing.cliques:
        assert len(clique) == k and len({c for c, _ in clique}) == k
    covered = sorted(v for clique in res.packing.cliques for v in clique)
    assert covered == [(c, o) for c in range(r) for o in range(n)]


def test_solve_builds_through_edge_near_gamma(monkeypatch):
    # Γ(9,5,3) has rn/k = 15 odd and no packing.  With two added cross
    # edges the rows stage finds no excess but an odd half in the two-half
    # row, and _extremal_zero_excess_fix mends the parity with a
    # "through_edge" clique on an added edge and an "ij" clique
    g = near_gamma(9, 5, 3, 2, 1)
    counts = Counter()
    fixing = []     # one entry per _extremal_zero_excess_fix call
    depth = []
    through = []
    real_block = pipeline.building_block
    real_fix = pipeline._extremal_zero_excess_fix

    def counting(g, asg, kind, **kwargs):
        got = real_block(g, asg, kind, **kwargs)
        counts[kind, got is not None, bool(depth)] += 1
        if kind == "through_edge":
            through.append(got)
        return got

    def counting_fix(*args):
        fixing.append(args)
        depth.append(True)
        try:
            return real_fix(*args)
        finally:
            depth.pop()

    monkeypatch.setattr(pipeline, "building_block", counting)
    monkeypatch.setattr(pipeline, "_extremal_zero_excess_fix", counting_fix)
    res = solve(g, 3)
    assert res.status == "packed"
    assert res.packing.verify(g, perfect=True) == []
    assert len(fixing) == 1
    # (kind, found, built inside the fix)
    assert counts == {("through_edge", True, True): 1, ("ij", True, True): 1,
                      ("proper", True, False): 13}
    gamma = build_gamma(9, 5, 3).graph
    assert any(not gamma.has_edge(g.vertex(a), g.vertex(b))
               for a in through[0] for b in through[0] if a < b)
    stages = {s["name"]: s for s in res.stages}
    assert stages["classify"]["pair_complete_rows"] == [1]
    assert stages["rows"]["deleted"] == 2
    # the packing, re-checked against the edge list with plain loops; the
    # oracle's search does not finish on this graph within 300,000 nodes
    edges = {frozenset(e) for e in g.edges()}
    assert all(frozenset((a, b)) in edges for clique in res.packing.cliques
               for a in clique for b in clique if a < b)
    assert (sorted(v for clique in res.packing.cliques for v in clique)
            == sorted(g.vertices()))


def per_vertex_audit(g, xprime):
    """The blocks stage's diagonal degree audit, one vertex at a time."""
    s, r = xprime.s, xprime.r
    masks = xprime.rows
    return min((g.adj_mask(v) & masks[i2][j2]).bit_count()
               for i in range(s) for j in range(r)
               for v in members(g, masks[i][j])
               for i2 in range(s) if i2 != i for j2 in range(r) if j2 != j)


# the benchmark's pipeline-scale graphs, and the double-swap graphs that
# pack, where every block ends empty (unit 0) and there is nothing to audit
@pytest.mark.parametrize("make, k", [
    (lambda: relabeled_copy(blow_up(build_gamma(3, 4, 3).graph, 24), 1), 3),
    *[(lambda n=n: complete_multipartite([n] * 4), 3)
      for n in (72, 84, 96, 108, 120, 132, 144, 168, 192)],
    *[(lambda n=n: complete_multipartite([n] * 4), 4) for n in (96, 128, 160, 192)],
    (lambda: double_swap(16, 4, 0), 4),
    (lambda: double_swap(16, 4, 1), 4),
], ids=["gamma-3-4-3-x24", *[f"complete-{n}x4-k3" for n in (72, 84, 96, 108, 120,
                                                           132, 144, 168, 192)],
        *[f"complete-{n}x4-k4" for n in (96, 128, 160, 192)],
        "double_swap-16-4-0", "double_swap-16-4-1"])
def test_blocks_audit_matches_per_vertex_min(monkeypatch, make, k):
    seen = []
    real = pipeline.balance_blocks

    def recording(g, *args):
        xprime, audit = real(g, *args)
        seen.append((g, xprime, audit))
        return xprime, audit

    monkeypatch.setattr(pipeline, "balance_blocks", recording)
    assert solve(make(), k).status == "packed"
    ((g, xprime, audit),) = seen
    if xprime.unit == 0:
        assert audit is None
    else:
        assert xprime.s > 1 and audit == per_vertex_audit(g, xprime)


def test_solve_k1_and_k2():
    g = complete_multipartite([3, 3])
    assert solve(g, 1).status == "packed"
    # one class: the degree condition is void, and singletons pack it
    res = solve(MultipartiteGraph([3]), 1)
    assert res.status == "packed"
    assert sorted(res.packing.cliques) == [((0, 0),), ((0, 1),), ((0, 2),)]
    res = solve(g, 2)
    assert res.status == "packed"
    gam = build_gamma(2, 3, 2)   # rn/k = 3 odd: two odd components
    res = solve(gam.graph, 2)
    assert res.status == "extremal"


def planted_extremal(r, n, mixed_edge=False):
    """Extremal row structure for k=3: a two-half heavy row plus one unit
    row, with no off-structure edges except an optional single cross-half
    edge inside the heavy row."""
    size = 3 * n
    g = MultipartiteGraph([size] * r)
    edges = []
    for j1 in range(r):
        for j2 in range(j1 + 1, r):
            for o1 in range(size):
                for o2 in range(size):
                    row1, row2 = o1 >= 2 * n, o2 >= 2 * n
                    if row1 != row2:
                        edges.append(((j1, o1), (j2, o2)))
                    elif not row1 and (o1 < n) == (o2 < n):
                        edges.append(((j1, o1), (j2, o2)))
    g = g.with_edges(edges)
    if mixed_edge:
        g = g.with_edges([((0, 0), (1, n))])
    decomp = offset_decomposition(g, (2, 1), n,
                                  ([range(2 * n)] * r, [range(2 * n, size)] * r))
    pc = {0: row_masks(g, [range(n)] * r)}
    return g, decomp, pc


def test_balance_rows_extremal_parity_fix_via_mixed_edge():
    r, n = 5, 5   # |S| = 25 odd
    g, decomp, pc = planted_extremal(r, n, mixed_edge=True)
    asg = make_assignment(g, decomp, pc=pc)
    assert asg.pc_rows == {0}
    ledger = DeletionLedger(g)
    total_target = r * 3 * n // 3
    balance_rows(g, asg, ledger, total_target, extremal=True)
    assert len(ledger) == 1
    clique = ledger.entries[0].clique
    # the parity-fixing clique crosses the half split
    assert half_hits(asg, clique, 0) % 2 == 1


def test_balance_rows_extremal_candidate_report():
    # Γ(15,5,3) itself: no edge fixes the odd half, and the stage fails
    r, n = 5, 5
    g, decomp, pc = planted_extremal(r, n, mixed_edge=False)
    asg = make_assignment(g, decomp, pc=pc)
    ledger = DeletionLedger(g)
    with pytest.raises(StageFailure) as err:
        balance_rows(g, asg, ledger, r * 3 * n // 3, extremal=True)
    assert (err.value.stage, err.value.reason) == (
        "rows", "no parity-fixing edge exists; structure matches the "
                "extremal construction")


def test_balance_rows_extremal_positive_excess_fails():
    # (0, 0) joins the other half of the two-half row and loses row 1 of
    # class 1, so it is bad and moves to row 1: excesses (-1, +1).  Under
    # the extremal row structure only a zero excess is handled
    r, n = 5, 5
    g, decomp, pc = planted_extremal(r, n)
    g = g.with_edges([((0, 0), (j, o)) for j in range(1, r)
                      for o in range(n, 2 * n)])
    g = g.without_edges([((0, 0), (1, o)) for o in range(2 * n, 3 * n)])
    asg = make_assignment(g, decomp, pc=pc)
    assert asg.bad == g.mask_of([(0, 0)]) and has(asg.w[1][0], g, (0, 0))
    ledger = DeletionLedger(g)
    with pytest.raises(StageFailure) as err:
        balance_rows(g, asg, ledger, r * n, extremal=True)
    assert (err.value.stage, err.value.reason, err.value.detail) == (
        "rows", "row excesses [-1, 1] under the extremal row structure",
        [-1, 1])
    assert len(ledger) == 0


def test_solve_extremal_and_near_extremal_at_pipeline_scale():
    g, _, _ = planted_extremal(5, 5, mixed_edge=False)
    res = solve(g, 3)
    assert res.status == "extremal"

    g2, _, _ = planted_extremal(5, 5, mixed_edge=True)
    res2 = solve(g2, 3)
    assert res2.status == "packed"
    assert res2.packing.verify(g2, perfect=True) == []


def twisted_two_half_row(r, m):
    """Row-sized graph on classes of size 2m with x- and y-sides complete
    except between classes 0 and 1, which are joined crosswise.  It has
    perfect matchings but, for suitable sizes, no balanced one."""
    size = 2 * m
    g = MultipartiteGraph([size] * r)
    edges = []
    for j1 in range(r):
        for j2 in range(j1 + 1, r):
            twisted = {j1, j2} == {0, 1}
            for o1 in range(size):
                for o2 in range(size):
                    same_side = (o1 < m) == (o2 < m)
                    if same_side != twisted:
                        edges.append(((j1, o1), (j2, o2)))
    return g.with_edges(edges)


def test_twisted_row_has_matching_but_no_balanced_one():
    sub = twisted_two_half_row(5, 2)
    assert brute_force_packing(sub, 2).exists
    res = exact_balanced_clique_packing(sub, 2)
    assert res.completed and res.packing is None


def _embed_heavy_row(row_graph, extra_rows, n_prime):
    """Host graph with the given graph as the weight-2 row (first 2n' offsets
    of each class) plus `extra_rows` weight-1 rows, complete diagonals."""
    r = row_graph.r
    size = 2 * n_prime + extra_rows * n_prime
    g = MultipartiteGraph([size] * r)
    edges = []
    for (cu, ou), (cv, ov) in row_graph.edges():
        edges.append((((cu), ou), ((cv), ov)))

    def row_of(o):
        return 0 if o < 2 * n_prime else 1 + (o - 2 * n_prime) // n_prime

    for j1 in range(r):
        for j2 in range(j1 + 1, r):
            for o1 in range(size):
                for o2 in range(size):
                    if row_of(o1) != row_of(o2):
                        edges.append(((j1, o1), (j2, o2)))
    g = g.with_edges(edges)
    weights = (2,) + (1,) * extra_rows
    rows = [[range(2 * n_prime)] * r]
    for t in range(extra_rows):
        base = 2 * n_prime + t * n_prime
        rows.append([range(base, base + n_prime)] * r)
    return g, offset_decomposition(g, weights, n_prime, rows)


def test_rowpack_fails_on_a_row_without_a_balanced_packing():
    # k=3: one twisted weight-2 row plus one weight-1 row; the row has
    # perfect matchings but no balanced one, and rowpack does not repair it
    g, decomp = _embed_heavy_row(twisted_two_half_row(5, 2), 1, 2)
    asg = make_assignment(g, decomp)
    assert asg.bad == 0 and asg.pc_rows == set()
    with pytest.raises(StageFailure) as err:
        fix_row_parity_and_matchability(g, asg, decomp, PipelineParams())
    assert err.value.stage == "rowpack"
    assert err.value.reason == "row 0: balanced packing proven absent"


def test_rowpack_fails_on_an_odd_surviving_half():
    r = 5
    size = 12   # rows (2,1) of unit 4; the surviving region uses unit 3
    g = complete_multipartite([size] * r)
    decomp = offset_decomposition(g, (2, 1), 4, ([range(8)] * r, [range(8, 12)] * r))
    pc = {0: row_masks(g, [{0, 1, 2}] * r)}
    asg = make_assignment(g, decomp, pc=pc)
    assert 0 in asg.pc_rows
    xprime = offset_decomposition(g, (2, 1), 3, ([range(6)] * r, [range(8, 11)] * r))
    # the surviving half holds three vertices of each of five classes
    assert sum(1 for j in range(r) for v in members(g, xprime.rows[0][j])
               if has(asg.half & asg.w[0][j], g, v)) == 15
    with pytest.raises(StageFailure) as err:
        fix_row_parity_and_matchability(g, asg, xprime, PipelineParams())
    assert err.value.stage == "rowpack"
    assert err.value.reason.startswith("two-half row 0: parity obstruction")


def test_rowpack_routes_a_two_half_row_around_missing_edges(monkeypatch):
    # (0,0) misses both X-vertices of class 1, so the first chunking of the
    # X residue has no (0,0)-(1,0) edge and a cyclic rotation must find one,
    # without the exact residue search
    def no_search(*args, **kwargs):
        raise AssertionError("exact residue search ran")

    monkeypatch.setattr(matching, "exact_balanced_clique_packing", no_search)
    g = complete_multipartite([4] * 3).without_edges(
        [((0, 0), (1, 0)), ((0, 0), (1, 1))])
    decomp = offset_decomposition(g, (2,), 2, ([range(4)] * 3,))
    asg = make_assignment(g, decomp, pc={0: row_masks(g, [{0, 1}] * 3)},
                          bad_slack=2)
    assert asg.bad == 0 and asg.pc_rows == {0}
    packs = fix_row_parity_and_matchability(g, asg, decomp, PipelineParams())
    assert named(g, packs[0]).verify(g, perfect=True) == []
    assert len(set(index_counts(g, packs[0]).values())) == 1


def test_extremal_zero_excess_fix_via_unit_row_edge():
    r, n = 5, 5
    g, decomp, pc = planted_extremal(r, n, mixed_edge=False)
    # an edge inside the weight-1 row triggers the two-clique exchange
    g = g.with_edges([((0, 2 * n), (1, 2 * n))])
    asg = make_assignment(g, decomp, pc=pc)
    ledger = DeletionLedger(g)
    balance_rows(g, asg, ledger, r * 3 * n // 3, extremal=True)
    assert len(ledger) == 2
    s_total = sum((asg.half & asg.w[0][j]).bit_count() for j in range(r))
    covered_s = (ledger.covered & asg.half & asg.row_mask(0)).bit_count()
    assert (s_total - covered_s) % 2 == 0


def test_prepare_multirow_two_heavy_rows_and_shortfall(monkeypatch):
    r, n = 5, 3
    size = 4 * n
    g = complete_multipartite([size] * r)
    decomp = offset_decomposition(g, (2, 2), n,
                                  ([range(2 * n)] * r, [range(2 * n, size)] * r))
    asg = make_assignment(g, decomp)
    ledger = DeletionLedger(g)
    total_target = r * size // 4
    assert pipeline.ETA_COUNT == 1
    prepare_multirow(g, asg, ledger)
    spares = ledger.stage_cliques("prepare")
    assert len(spares) == 2
    tags = sorted(e.tag for e in spares)
    assert tags == ["ij:0,1", "ij:1,0"]
    for e in spares:
        i, j = map(int, e.tag.split(":")[1].split(","))
        assert is_ij_distributed(asg, e.clique, i, j)
    # each spare moves one vertex between the two heavy rows, so every row
    # still keeps its weight times the cliques left
    assert asg.bad == 0
    covered = {g.vertex(f) for e in ledger.entries for f in e.clique}
    for i in range(decomp.s):
        left = sum(1 for j in range(r) for v in members(g, decomp.rows[i][j])
                   if v not in covered)
        assert left == decomp.weights[i] * (total_target - len(ledger))

    # a single heavy row: nothing to prepare
    g2, decomp2 = planted_two_row(n=2)
    asg2 = make_assignment(g2, decomp2)
    ledger2 = DeletionLedger(g2)
    monkeypatch.setattr(pipeline, "ETA_COUNT", 5)
    prepare_multirow(g2, asg2, ledger2)
    assert len(ledger2) == 0

    # demanding more spares than the rows can supply fails loudly
    monkeypatch.setattr(pipeline, "ETA_COUNT", 50)
    with pytest.raises(StageFailure):
        prepare_multirow(g, asg, DeletionLedger(g))


def test_balance_columns_fails_on_tiny_skewed_classes():
    # three edges on classes of 8 leave the classes uneven (3, 2, 1)
    r, k, n = 3, 2, 4
    size = k * n
    g = complete_multipartite([size] * r)
    ledger = DeletionLedger(g)
    for u, v in [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (2, 0))]:
        ledger.add((g.flat(u), g.flat(v)), "cover", "proper")
    with pytest.raises(StageFailure) as err:
        balance_columns(g, ledger)
    assert (err.value.stage, err.value.reason, err.value.detail) == (
        "columns", "classes uneven: [3, 2, 1]", [3, 2, 1])


def three_unit_rows():
    """Three weight-1 rows of a complete 3-partite graph with 2% of the
    edges between different rows dropped, and each row packed by single
    vertices: the compatibility hypergraph is genuinely 3-partite."""
    r, n_prime = 3, 6
    size = 3 * n_prime
    g = complete_multipartite([size] * r)
    decomp = offset_decomposition(
        g, (1, 1, 1), n_prime,
        [[range(t * n_prime, (t + 1) * n_prime)] * r for t in range(3)])
    rng = random.Random(9)
    drop = []
    for j1 in range(r):
        for j2 in range(j1 + 1, r):
            for o1 in range(size):
                for o2 in range(size):
                    if o1 // n_prime != o2 // n_prime and rng.random() < 0.02:
                        drop.append(((j1, o1), (j2, o2)))
    g = g.without_edges(drop)
    packs = {i: [(g.flat(v),) for j in range(r)
                 for v in members(g, decomp.rows[i][j])]
             for i in range(3)}
    return g, decomp, packs


def test_glue_three_unit_rows():
    # exercises the multi-way matcher
    g, decomp, packs = three_unit_rows()
    glue = glue_rows(g, decomp, packs)
    assert named(g, glue.packing).verify(g, perfect=True) == []
    assert len(glue.sigma_log) == 6
    for entry in glue.sigma_log:
        assert entry["matched"]


def test_compatibility_graph_matches_the_edge_list_construction(monkeypatch):
    """`_compatibility_graph` sets adjacency rows on flat ids; it must equal
    the graph built from the (class, offset) edge list of the same test, for
    every sigma group glue_rows builds."""
    seen = []
    helper = pipeline._compatibility_graph

    def record(masks, common, n_group):
        seen.append((masks, common, n_group))
        return helper(masks, common, n_group)

    monkeypatch.setattr(pipeline, "_compatibility_graph", record)
    for g, k in [(complete_multipartite([72] * 4), 3),
                 (blow_up(build_gamma(3, 4, 3).graph, 24), 3)]:
        assert solve(g, k).status == "packed"
    g, decomp, packs = three_unit_rows()
    glue_rows(g, decomp, packs)
    assert len(seen) == 24 + 24 + 6
    partial = 0
    for masks, common, n_group in seen:
        s = len(masks)
        want = MultipartiteGraph([n_group] * s, [
            ((i1, t1), (i2, t2))
            for i1 in range(s) for i2 in range(i1 + 1, s)
            for t1 in range(n_group) for t2 in range(n_group)
            if masks[i2][t2] & ~common[i1][t1] == 0])
        got = helper(masks, common, n_group)
        assert got == want
        partial += got.n_edges() < n_group * n_group * s * (s - 1) // 2
    assert partial >= 1   # the dropped edges leave a group family incomplete
