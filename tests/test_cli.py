"""Command-line round trips, exit codes, and determinism."""

import json

from partite_packing import structure
from partite_packing.cli import main
from partite_packing.graphs import (CliquePacking, build_gamma, graph_from_json,
                                    graph_to_json, packing_to_json)
from partite_packing.oracle import check_barrier
from test_oracle import relabeled_copy


def run(argv):
    return main(argv)


def test_gen_gamma_and_solve_exit_extremal(tmp_path):
    g_path = str(tmp_path / "g.json")
    out = str(tmp_path / "res.json")
    assert run(["gen", "gamma", "--n", "3", "--r", "3", "--k", "3",
                "-o", g_path]) == 0
    g, labels = graph_from_json(open(g_path).read())
    assert g.n_vertices == 9 and labels is not None
    assert run(["solve", "--input", g_path, "--k", "3", "-o", out]) == 2
    doc = json.loads(open(out).read())
    assert doc["status"] == "extremal"


def test_solve_gamma_writes_a_checkable_barrier(tmp_path):
    g_path = str(tmp_path / "g.json")
    out = str(tmp_path / "res.json")
    assert run(["gen", "gamma", "--n", "3", "--r", "5", "--k", "3",
                "-o", g_path]) == 0
    assert run(["solve", "--input", g_path, "--k", "3", "-o", out]) == 2
    barrier = json.loads(open(out).read())["diagnosis"]["barrier"]
    assert barrier["gamma"] == [3, 5, 3]
    gam = build_gamma(3, 5, 3)
    assert check_barrier(gam.graph, gam.subparts, barrier) == []


def test_solve_shuffled_gamma_973_exit_extremal(tmp_path):
    # 63 vertices, a pipeline-scale shape: certified before any route runs
    g_path = tmp_path / "g.json"
    out = str(tmp_path / "res.json")
    g_path.write_text(graph_to_json(relabeled_copy(build_gamma(9, 7, 3).graph,
                                                   "cli")))
    assert run(["solve", "--input", str(g_path), "--k", "3", "-o", out]) == 2
    assert json.loads(open(out).read())["status"] == "extremal"


def test_gen_complete_solve_verify_round_trip(tmp_path):
    g_path = str(tmp_path / "g.json")
    res = str(tmp_path / "res.json")
    pk = str(tmp_path / "pk.json")
    ver = str(tmp_path / "v.json")
    assert run(["gen", "complete", "--n", "4", "--r", "3", "-o", g_path]) == 0
    assert run(["solve", "--input", g_path, "--k", "2", "-o", res]) == 0
    doc = json.loads(open(res).read())
    with open(pk, "w") as fh:
        json.dump(doc["packing"], fh)
    assert run(["verify", "--packing", pk, "--graph", g_path, "-o", ver]) == 0
    assert json.loads(open(ver).read())["ok"]


def test_verify_catches_tampering(tmp_path):
    g_path = str(tmp_path / "g.json")
    res = str(tmp_path / "res.json")
    pk = str(tmp_path / "pk.json")
    ver = str(tmp_path / "v.json")
    run(["gen", "complete", "--n", "2", "--r", "3", "-o", g_path])
    run(["solve", "--input", g_path, "--k", "3", "-o", res])
    doc = json.loads(open(res).read())
    packing = doc["packing"]
    packing["cliques"] = packing["cliques"][1:]  # coverage gap
    with open(pk, "w") as fh:
        json.dump(packing, fh)
    assert run(["verify", "--packing", pk, "--graph", g_path, "-o", ver]) == 1
    out = json.loads(open(ver).read())
    assert not out["ok"] and out["violations"]


def test_verify_reports_out_of_range_vertices_and_empty_cliques(tmp_path):
    # a packing naming a vertex outside the graph, or holding an empty
    # clique, gets a written report with ok false and exit 1
    g_path = str(tmp_path / "g.json")
    pk = tmp_path / "pk.json"
    ver = tmp_path / "v.json"
    assert run(["gen", "complete", "--n", "2", "--r", "2", "-o", g_path]) == 0
    pk.write_text(json.dumps({"cliques": [[[0, 0], [1, 5]], [[0, 1], [1, 0]]]}))
    assert run(["verify", "--packing", str(pk), "--graph", g_path,
                "-o", str(ver)]) == 1
    out = json.loads(ver.read_text())
    assert not out["ok"] and "vertex (1, 5) out of range" in out["violations"]
    ver.unlink()
    pk.write_text(json.dumps({"cliques": [[]]}))
    assert run(["verify", "--packing", str(pk), "--graph", g_path, "--partial",
                "-o", str(ver)]) == 1
    assert json.loads(ver.read_text()) == {"ok": False,
                                           "violations": ["clique 0 is empty"]}


def test_verify_rejects_mixed_clique_sizes(tmp_path):
    # one triangle, one edge and four single vertices cover complete 3x3
    g_path = str(tmp_path / "g.json")
    pk = tmp_path / "pk.json"
    ver = str(tmp_path / "v.json")
    assert run(["gen", "complete", "--n", "3", "--r", "3", "-o", g_path]) == 0
    pk.write_text(packing_to_json(CliquePacking(
        [((0, 0), (1, 0), (2, 0)), ((0, 1), (1, 1)), ((0, 2),), ((1, 2),),
         ((2, 1),), ((2, 2),)])))
    assert run(["verify", "--packing", str(pk), "--graph", g_path,
                "-o", ver]) == 1
    out = json.loads(open(ver).read())
    assert not out["ok"] and len(out["violations"]) == 5


def test_random_generation_is_byte_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    for path in (a, b):
        assert run(["gen", "random", "--n", "3", "--r", "3", "--k", "3",
                    "--seed", "42", "-o", path]) == 0
    assert open(a).read() == open(b).read()


def test_one_class_graph_packs_by_singletons(tmp_path):
    g_path = str(tmp_path / "g.json")
    out = str(tmp_path / "res.json")
    assert run(["gen", "complete", "--n", "3", "--r", "1", "-o", g_path]) == 0
    assert run(["solve", "--input", g_path, "--k", "1", "-o", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["status"] == "packed"
    assert doc["packing"]["cliques"] == [[[0, 0]], [[0, 1]], [[0, 2]]]


def test_solve_precondition_exit_code(tmp_path):
    g_path = str(tmp_path / "g.json")
    run(["gen", "random", "--n", "3", "--r", "3", "--k", "3",
         "--seed", "1", "--delete-prob", "1.0", "-o", g_path])
    # degree threshold for k=2 on n=3 is 2; these boundary instances sit at 2,
    # so ask for an impossible k instead
    assert run(["solve", "--input", g_path, "--k", "4", "-o",
                str(tmp_path / "r.json")]) == 1


def test_detect_flags_generated_barriers(tmp_path):
    div = str(tmp_path / "div.json")
    rep = str(tmp_path / "rep.json")
    assert run(["gen", "barrier", "--barrier", "divisibility", "--r", "3",
                "--n", "2", "-o", div]) == 0
    assert run(["detect", "--input", div, "--p", "2",
                "--threshold-d", "1/100", "-o", rep]) == 0
    doc = json.loads(open(rep).read())
    assert doc["pair_complete"] is not None
    assert doc["divisibility"]

    space = str(tmp_path / "space.json")
    rep2 = str(tmp_path / "rep2.json")
    assert run(["gen", "barrier", "--barrier", "space", "--r", "3", "--k", "2",
                "--n", "2", "--j", "1", "-o", space]) == 0
    assert run(["detect", "--input", space, "--p", "2",
                "--threshold-d", "1/4", "-o", rep2]) == 0
    doc2 = json.loads(open(rep2).read())
    assert any(c["violating_cliques"] == 0 for c in doc2["space"])


def test_detect_searches_large_classes_heuristically(tmp_path, monkeypatch):
    # classes of 24 vertices are past the exact searches' reach
    g_path = str(tmp_path / "g.json")
    assert run(["gen", "random", "--r", "3", "--n", "24", "--k", "2",
                "--seed", "1", "-o", g_path]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("exact detection on 24-vertex classes")

    monkeypatch.setattr(structure, "_split_exact", refuse)
    monkeypatch.setattr(structure, "_pc_exact", refuse)
    assert run(["detect", "--input", g_path, "--p", "2", "-o",
                str(tmp_path / "rep.json")]) == 0


def test_solve_packs_800_vertices_with_k2(tmp_path):
    # 400 cliques deep: past the recursion limit for a recursive search
    g_path = str(tmp_path / "g.json")
    out = str(tmp_path / "res.json")
    assert run(["gen", "random", "--r", "2", "--n", "400", "--k", "2",
                "--seed", "1", "-o", g_path]) == 0
    assert run(["solve", "--input", g_path, "--k", "2", "-o", out]) == 0
    g, _ = graph_from_json(open(g_path).read())
    edges = {frozenset(tuple(v) for v in e) for e in g.edges()}
    covered = []
    for u, v in json.loads(open(out).read())["packing"]["cliques"]:
        assert frozenset((tuple(u), tuple(v))) in edges
        covered += [tuple(u), tuple(v)]
    assert sorted(covered) == sorted(g.vertices())


def test_detect_usage_error_on_bad_weight(tmp_path, capsys):
    g_path = str(tmp_path / "g.json")
    run(["gen", "complete", "--n", "3", "--r", "3", "-o", g_path])
    for p in ("2", "0", "-1"):
        assert run(["detect", "--input", g_path, "--p", p, "-o",
                    str(tmp_path / "rep.json")]) == 1, p
        assert capsys.readouterr().err.startswith("error: "), p


def test_detect_on_empty_classes(tmp_path):
    g_path = tmp_path / "empty.json"
    g_path.write_text(json.dumps({"r": 3, "class_sizes": [0, 0, 0],
                                  "edges": []}))
    rep = str(tmp_path / "rep.json")
    assert run(["detect", "--input", str(g_path), "-o", rep]) == 0
    doc = json.loads(open(rep).read())
    # the only set a space barrier could plant is empty, and it bars nothing
    assert doc["splittable"] is None and doc["space"] == []


def test_bad_input_prints_error(tmp_path, capsys):
    # each fails before any output is written: exit 1, `error:` on stderr
    g_path = str(tmp_path / "g.json")
    run(["gen", "complete", "--n", "2", "--r", "2", "-o", g_path])
    missing = str(tmp_path / "missing.json")
    not_json = tmp_path / "bad.json"
    not_json.write_text("not json")
    cases = [
        ["solve", "--input", missing, "--k", "2"],
        ["detect", "--input", missing],
        ["verify", "--graph", missing, "--packing", g_path],
        ["verify", "--graph", g_path, "--packing", missing],
        ["solve", "--input", str(not_json), "--k", "2"],
        ["solve", "--input", g_path, "--k", "2",
         "-o", str(tmp_path / "no-such-dir" / "r.json")],
        ["gen", "random", "--n", "3", "--r", "3", "--k", "0"],
        ["gen", "gamma", "--n", "3", "--r", "3", "--k", "5"],
        ["gen", "blowup"],
    ]
    for argv in cases:
        assert run(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_wrong_shape_json_prints_error(tmp_path, capsys):
    # valid JSON of the wrong shape: exit 1 and `error:`, not a traceback
    g_path = str(tmp_path / "g.json")
    run(["gen", "complete", "--n", "2", "--r", "2", "-o", g_path])
    docs = {"list": [], "no-edges": {"r": 2},
            "flat-edge": {"r": 2, "class_sizes": [2, 2], "edges": [[0, 1]]},
            "text-vertex": {"cliques": [[["a", 0], [1, 0]]]}}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    cases = [["solve", "--input", str(tmp_path / f"{name}.json"), "--k", "2"]
             for name in ("list", "no-edges", "flat-edge")]
    cases += [["verify", "--graph", g_path,
               "--packing", str(tmp_path / f"{name}.json")]
              for name in ("list", "text-vertex")]
    for argv in cases:
        assert run(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_out_of_range_options_print_error(tmp_path, capsys):
    # values outside their domain: exit 1 and `error:`, before any output
    g_path = str(tmp_path / "g.json")
    run(["gen", "complete", "--n", "2", "--r", "2", "-o", g_path])
    out = tmp_path / "out.json"
    solve = ["solve", "--input", g_path, "--k", "2", "-o", str(out)]
    detect = ["detect", "--input", g_path, "-o", str(out)]
    harness = ["harness", "--r", "2", "--k", "2", "--n", "2", "--sample", "1",
               "-o", str(out)]
    cases = [
        solve + ["--budget", "-5"],
        solve + ["--budget", "0"],
        detect + ["--threshold-d", "-1"],
        detect + ["--threshold-d", "2"],
        detect + ["--threshold-beta=-1/4"],
        detect + ["--threshold-beta", "3/2"],
        harness + ["--budget", "0"],
        harness + ["--sample", "0"],
        harness + ["--sample", "-3"],
        ["gen", "random", "--n", "3", "--r", "3", "--k", "2",
         "--delete-prob", "2", "-o", str(out)],
        ["gen", "random", "--n", "3", "--r", "3", "--k", "2",
         "--delete-prob", "-0.5", "-o", str(out)],
    ]
    for argv in cases:
        assert run(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
        assert not out.exists(), argv
    # the ends of each domain are accepted (one node may stop the search)
    assert run(solve + ["--budget", "1"]) in (0, 3)
    assert run(detect + ["--threshold-d", "0", "--threshold-beta", "1"]) == 0
    assert run(harness + ["--budget", "1"]) == 0
    assert run(["gen", "random", "--n", "3", "--r", "3", "--k", "2",
                "--delete-prob", "0", "-o", str(out)]) == 0


def test_harness_report_file(tmp_path):
    out = str(tmp_path / "h.json")
    assert run(["harness", "--r", "2", "--k", "2", "--n", "2",
                "--exhaustive", "-o", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["without_packing"] == 0

    out2 = str(tmp_path / "h2.json")
    assert run(["harness", "--r", "3", "--k", "3", "--n", "3",
                "--sample", "25", "--seed", "1", "-o", out2]) == 0
    doc2 = json.loads(open(out2).read())
    assert doc2["instances"] == 25
    assert doc2["without_packing"] == (doc2["gamma_isomorphic"]
                                       + len(doc2["exceptions"]))


def test_harness_counts_every_graph_when_k_is_1(tmp_path):
    # k = 1 puts the degree bound at 0, so every edge subset is an instance
    # and packs by singletons: one graph for r = 1, 2^4 for two classes of 2
    for r, want in (("1", 1), ("2", 16)):
        out = str(tmp_path / f"h{r}.json")
        assert run(["harness", "--r", r, "--k", "1", "--n", "2",
                    "--exhaustive", "-o", out]) == 0
        doc = json.loads(open(out).read())
        assert (doc["instances"], doc["with_packing"]) == (want, want), doc


def test_harness_usage_error_on_bad_clique_size(tmp_path, capsys):
    out = str(tmp_path / "h.json")
    # k > r, k < 1, and k not dividing r*n = 9
    for r, k in (("2", "3"), ("2", "0"), ("3", "2")):
        assert run(["harness", "--r", r, "--k", k, "--n", "3",
                    "--sample", "2", "-o", out]) == 1, (r, k)
        assert capsys.readouterr().err.startswith("error: "), (r, k)


def test_blowup_command(tmp_path):
    base = str(tmp_path / "base.json")
    big = str(tmp_path / "big.json")
    run(["gen", "gamma", "--n", "3", "--r", "3", "--k", "3", "-o", base])
    assert run(["gen", "blowup", "--input", base, "--factor", "2",
                "-o", big]) == 0
    g, _ = graph_from_json(open(big).read())
    assert g.class_sizes == (6, 6, 6)
