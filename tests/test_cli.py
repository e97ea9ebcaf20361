import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipgroupoid import cli, cover
from flipgroupoid.cover import TwistFrame
from flipgroupoid.exchange import enumerate_graph, graph_from_json, graph_records, graph_to_json
from flipgroupoid.surface import Triangulation, annulus, genus_one, polygon_fan

from oracles import flip_walk, ref_relation_instances


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "flipgroupoid.cli", *args],
        capture_output=True,
        text=True,
    )


def test_surface_new(tmp_path):
    out = tmp_path / "t.json"
    r = run_cli("surface", "new", "--polygon", "6", "--out", str(out))
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert data["surface"] == {"genus": 0, "boundaries": [6]}
    assert len(data["triangles"]) == 4


def test_enumerate_pentagon(tmp_path):
    out = tmp_path / "g.json"
    r = run_cli("enumerate", "--polygon", "5", "--out", str(out))
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 5


@pytest.mark.parametrize("args, message", [
    (["enumerate"], "choose exactly one of --polygon/--annulus/--genus-one/--triangulation"),
    (["enumerate", "--polygon", "6", "--radius", "-1"], "radius must be >= 0"),
    (["enumerate", "--polygon", "6", "--budget", "0"], "budget must be >= 1"),
    (["presentation", "--annulus", "1", "1", "--verify"], "--verify needs a disc surface (braid oracle)"),
    (["braid", "eq", "--strands", "3", "1"], "braid eq needs exactly two words"),
], ids=["no_surface", "negative_radius", "zero_budget", "verify_off_disc", "eq_one_word"])
def test_usage_error_no_surface(args, message):
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr) == {"kind": "usage", "message": message, "status": "error"}


def test_relations_guard_and_pass(tmp_path):
    out = tmp_path / "g.json"
    run_cli("enumerate", "--annulus", "1", "1", "--radius", "4", "--out", str(out))
    r = run_cli("relations", str(out))
    assert r.returncode == 2
    r = run_cli("relations", str(out), "--allow-incomplete")
    assert r.returncode == 0
    full = tmp_path / "g5.json"
    run_cli("enumerate", "--polygon", "5", "--out", str(full))
    r = run_cli("relations", str(full))
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "ok"


def test_relations_checks_a_whole_graph_enumerated_with_a_small_radius(tmp_path, capsys):
    # the pentagon graph has diameter 2, so radius 3 enumerates all of it
    graph = tmp_path / "g.json"
    assert cli.main(["enumerate", "--polygon", "5", "--radius", "3", "--out", str(graph)]) == 0
    assert cli.main(["relations", str(graph)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "status": "ok", "instances": 5, "circuits": 5, "incomplete": 0,
    }


def test_homology_cli(tmp_path):
    out = tmp_path / "g.json"
    run_cli("enumerate", "--polygon", "6", "--out", str(out))
    r = run_cli("homology", str(out))
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["betti1"] == 0 and data["faces"] == {"pentagons": 6, "squares": 3}


def test_braid_eq_and_nf():
    r = run_cli("braid", "eq", "--strands", "3", "1 2 1", "2 1 2")
    assert r.returncode == 0 and r.stdout.strip() == "Equal"
    r = run_cli("braid", "eq", "--strands", "3", "1", "2")
    assert r.stdout.strip() == "Distinct"
    r = run_cli("braid", "nf", "--strands", "4", "1 2 -1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["power"] == -1


def test_presentation_cli():
    r = run_cli("presentation", "--polygon", "6", "--verify")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["verification"]["all_hold"]


def test_presentation_verify_builds_no_graph(tmp_path, monkeypatch, capsys):
    # a polygon-12 flip walk: the whole graph has 58,786 vertices
    rng = random.Random(12)
    t = polygon_fan(12)
    for _ in range(4 * t.n):
        t = t.flip(rng.randrange(1, t.n + 1))
    path = tmp_path / "walk.json"
    path.write_text(t.dumps())
    real = cli.enumerate_graph

    def vertex_0_only(base, radius=None, budget=None):
        assert radius == 0, "presentation --verify enumerated a graph"
        return real(base, radius=radius, budget=budget)

    monkeypatch.setattr(cli, "enumerate_graph", vertex_0_only)
    assert cli.main(["presentation", "--triangulation", str(path), "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)["verification"]
    assert report["all_hold"] and report["checked"] > 0


def test_export_and_budget(tmp_path):
    out = tmp_path / "g.json"
    run_cli("enumerate", "--polygon", "5", "--out", str(out))
    r = run_cli("export", str(out), "--format", "dot")
    assert r.returncode == 0 and r.stdout.startswith("graph exchange {")
    r = run_cli("enumerate", "--annulus", "1", "1", "--budget", "5")
    assert r.returncode == 1
    assert json.loads(r.stdout)["kind"] == "truncation"


def test_determinism_across_runs_and_threads(tmp_path):
    cases = [
        ["surface", "new", "--polygon", "7"],
        ["enumerate", "--polygon", "6"],
        ["enumerate", "--annulus", "2", "1", "--radius", "3"],
        ["presentation", "--polygon", "6"],
        ["cover", "--polygon", "5", "--radius", "4"],
        ["braid", "nf", "--strands", "4", "1 -3 2 2"],
    ]
    for case in cases:
        first = run_cli(*case)
        again = run_cli(*case)
        threaded = run_cli("--threads", "4", *case)
        assert first.returncode == again.returncode == threaded.returncode == 0
        assert first.stdout == again.stdout == threaded.stdout


def test_enumerate_bytes_do_not_depend_on_the_hash_seed():
    # the BFS keys a dict on tuples of c-vectors; no str hash may order it
    outs = []
    for hash_seed in ("0", "1"):
        r = subprocess.run(
            [sys.executable, "-m", "flipgroupoid.cli", "enumerate", "--genus-one", "3", "--radius", "5"],
            capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        )
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert len(outs[0]) > 100_000
    assert outs[0] == outs[1]


# sha256 of stdout, pinned from the ball grown over the voltages: the
# framed closure ball of radius r + 3 cut to depth <= r gives the same
# classes, shadows, depths, frames and moves (test_cover.py), and every
# class over the base is labelled by its group element
COVER_DIGESTS = [
    (["--polygon", "6", "--radius", "5", "--report", "fibers"],
     "1e1720fa5345fa18610d4db3958e30473ccb5618106751f6e69eb30d874d1c3f"),
    (["--annulus", "1", "1", "--radius", "6"],
     "1b82f2bee474d3ab9f7b0dae733f573f51bdeca6915f39bd303b784c9e3fcd56"),
    (["--polygon", "6", "--radius", "6", "--report", "fibers"],
     "a217807a8dcfaae0f622ac9838748e2415b169802e231579fd26f71752c4abcb"),
]


@pytest.mark.parametrize("args, digest", COVER_DIGESTS,
                         ids=["hexagon-r5-fibers", "annulus11-r6", "hexagon-r6-fibers"])
def test_cover_stdout_pinned(args, digest, capsys):
    assert cli.main(["cover", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("shift", range(6))
def test_cover_rotated_fan_stdout_pinned(shift, tmp_path, capsys):
    # the hexagon fan with b0.k renamed b0.(k+shift) is the fan from
    # another corner; it carries sigma_1 .. sigma_n on its arcs in order
    fan = polygon_fan(6)
    turn = {f"b0.{k}": f"b0.{(k + shift) % 6}" for k in range(6)}
    turned = Triangulation(fan.surface, [tuple(turn.get(x, x) for x in t) for t in fan.triangles])
    path = tmp_path / "fan.json"
    path.write_text(turned.dumps())
    args = ["--triangulation", str(path), "--radius", "5", "--report", "fibers"]
    assert cli.main(["cover", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == COVER_DIGESTS[0][1]


def test_cover_enumerates_the_graph_to_the_ball_radius(monkeypatch, capsys):
    # the whole polygon-10 graph has 1,430 vertices; a radius-2 ball sees 35
    real = cli.enumerate_graph

    def to_radius_2(base, radius=None, budget=None):
        assert radius == 2, "cover enumerated past the ball radius"
        return real(base, radius=radius, budget=budget)

    monkeypatch.setattr(cli, "enumerate_graph", to_radius_2)
    assert cli.main(["cover", "--polygon", "10", "--radius", "2", "--report", "fibers"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {c["shadow"] for c in out["classes"]} == set(range(35))
    assert sorted(map(int, out["fibers"])) == list(range(35))


def test_cover_budget_truncation_names_depth(capsys):
    # 2,161 classes lie within depth 6 and 4,911 within depth 7
    code = cli.main(["cover", "--polygon", "6", "--radius", "8", "--budget", "4000"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["kind"] == "truncation"
    assert "depth reached 6" in out["message"]


FACES = {5: (0, 1), 6: (3, 6), 7: (28, 28), 8: (180, 120), 9: (990, 495)}


@pytest.mark.parametrize(
    "m, walk_seed",
    [pytest.param(m, None, id=str(m)) for m in sorted(FACES)]
    + [pytest.param(m, 0, id=f"{m}-walk0") for m in sorted(FACES)],
)
def test_homology_stdout_bytes(m, walk_seed, tmp_path, capsys):
    # from a flip walk the far corner of a square can be its lowest vertex
    graph = tmp_path / "g.json"
    if walk_seed is None:
        start = ["--polygon", str(m)]
    else:
        path = tmp_path / "walk.json"
        path.write_text(flip_walk(m, walk_seed).dumps())
        start = ["--triangulation", str(path)]
    assert cli.main(["enumerate", *start, "--out", str(graph)]) == 0
    assert cli.main(["homology", str(graph)]) == 0
    squares, pentagons = FACES[m]
    want = (
        '{\n"betti1": 0,\n'
        f'"faces": {{"pentagons": {pentagons}, "squares": {squares}}},\n'
        '"status": "ok",\n"torsion": []\n}\n'
    )
    assert capsys.readouterr().out == want


def test_homology_of_a_truncated_graph_is_a_usage_error(tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert cli.main(["enumerate", "--annulus", "1", "1", "--radius", "3", "--out", str(graph)]) == 0
    assert cli.main(["homology", str(graph)]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.err)
    assert captured.out == ""
    assert report["kind"] == "usage"
    assert report["message"] == "homology needs a fully enumerated graph"


@pytest.mark.parametrize("command", ["relations", "homology"])
def test_a_relation_that_does_not_close_is_a_check_failure(tmp_path, capsys, command):
    # a polygon-6 file with the targets of edges 0 and 7 swapped passes the
    # loader, which does not flip edges, but its pentagon at vertex 0 is open
    data = json.loads(json.dumps(graph_to_json(enumerate_graph(polygon_fan(6)))))
    edges = data["edges"]
    edges[0]["ends"][2], edges[7]["ends"][2] = edges[7]["ends"][2], edges[0]["ends"][2]
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(data))
    assert cli.main([command, str(graph)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    # the witness: each side's steps and end, as the reference instance walks them
    inst = next(i for i in ref_relation_instances(graph_from_json(data), 0) if i.arcs == (1, 2))
    assert json.loads(captured.out) == {
        "status": "error",
        "kind": "check",
        "message": "relation instance Pentagon at vertex 0, arcs (1, 2) does not close",
        "detail": {
            "kind": "Pentagon",
            "vertex": 0,
            "arcs": [1, 2],
            "left": {"steps": [list(s) for s in inst.left_steps], "end": inst.left_end},
            "right": {"steps": [list(s) for s in inst.right_steps], "end": inst.right_end},
        },
    }


def _skip_the_conjugation_at_arc_1(monkeypatch):
    # the fault of test_merge_of_unequal_frames_raises: a forward move at
    # arc 1 only relabels the frame, which breaks the voltages' frame rule
    transport = cover.frame_transport_move

    def skips_arc_1(g, frame, v, k, forward=True):
        u, out = transport(g, frame, v, k, forward)
        if k == 1 and forward:
            perm = g.adj[v][k][2]
            entries = [None] * frame.n
            for l in range(1, frame.n + 1):
                entries[perm[l - 1] - 1] = frame.entries[l - 1]
            out = TwistFrame(tuple(entries), frame.oracle)
        return u, out

    monkeypatch.setattr(cover, "frame_transport_move", skips_arc_1)


def _flip_nothing(monkeypatch):
    # a flip that leaves the triangulation as it is disagrees with the mutation
    monkeypatch.setattr(Triangulation, "flip", lambda t, k, perm=None: t)


# the frame-rule witness: the edge 3 --1--> 1, the reverse of a tree edge,
# its voltage, the frame transported across it and the target's frame
# conjugated by the voltage; the two differ at arc 2
FRAME_RULE_DETAIL = {
    "vertex": 3,
    "arc": 1,
    "target": 1,
    "voltage": [-1, -2, -1, 2, 1],
    "transported": [[2], [1]],
    "conjugated": [[2], [-1, -2, -1, 2, 1, 1, 2]],
}


# the flip witness: the hexagon fan left unflipped, and the fan's B
# mutated at arc 1 with its rows and columns in the sorted C's order
FLIP_DETAIL = {
    "vertex": 0,
    "arc": 1,
    "flip": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
    "mutation": [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]],
}


@pytest.mark.parametrize("argv, fault, message, detail", [
    (["cover", "--polygon", "5", "--radius", "4"], _skip_the_conjugation_at_arc_1,
     "the frame rule fails on the edge from vertex 3 at arc 1", FRAME_RULE_DETAIL),
    (["enumerate", "--polygon", "6"], _flip_nothing, "flip/mutation mismatch at vertex 0, arc 1",
     FLIP_DETAIL),
], ids=["cover", "enumerate"])
def test_a_runtime_error_is_a_check_failure(argv, fault, message, detail, tmp_path, monkeypatch,
                                            capsys):
    fault(monkeypatch)
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    want = {"status": "error", "kind": "check", "message": message}
    if detail is not None:
        want["detail"] = detail
    assert json.loads(captured.out) == want
    assert os.listdir(tmp_path) == []


# sha256 of stdout.  Each is the file pinned from the enumeration that
# computed the canonical form twice per mutation, with every vertex's
# "triangulation" cut to its "triangles" and "budget" dropped, then written
# one record per line (the indented text parses to the same value)
ENUMERATE_DIGESTS = [
    (["--polygon", "8"], "29585a2f548ddf78e4d3e80b136417f34d88fc29b2de0b5622b09c25a52c472a"),
    (["--annulus", "2", "2", "--radius", "5"],
     "9e4e287fd59cd5c8098b84597307af6312fd465def9c3f19930d7848db19e983"),
    (["--genus-one", "1", "--radius", "6"],
     "b43b855fd223f7e9b792ea08b1ee282273a204b5c7cae69b36b614f4fc65c03e"),
]
RELATIONS_GENUS_ONE_R6 = "5d6f4f6e65f1c4d901f826f2fe266372e5137f60700fa470b1c6522c55c1dc89"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("args, digest", ENUMERATE_DIGESTS,
                         ids=["polygon8", "annulus22-r5", "genus-one1-r6"])
def test_enumerate_stdout_pinned(args, digest, tmp_path, capsys):
    assert cli.main(["enumerate", *args]) == 0
    out = capsys.readouterr().out
    assert _sha(out) == digest
    if args[0] == "--genus-one":
        graph = tmp_path / "g.json"
        graph.write_text(out)
        assert cli.main(["relations", str(graph), "--allow-incomplete"]) == 0
        assert _sha(capsys.readouterr().out) == RELATIONS_GENUS_ONE_R6


# sha256 of stdout, pinned from the quiver that numbered its arrows by
# (triangle, corner): the verified presentations of the fans and of two
# flip walks (m, seed) of polygons 6-9, and the presentations of an
# annulus and a genus-one surface, which have no braid oracle
PRESENTATION_DIGESTS = [
    pytest.param(["--polygon", "6", "--verify"],
                 "e4828a62e1ac42f1f1aba104abeb04aba508aadde1212f213c8a02705c1d6347", id="polygon6"),
    pytest.param((6, 0), "539ab30e1d9a4e5a42e81ac9480e6e196eecb847321be46ac6ee4a14cc9f9d66",
                 id="polygon6-walk0"),
    pytest.param((6, 1), "539ab30e1d9a4e5a42e81ac9480e6e196eecb847321be46ac6ee4a14cc9f9d66",
                 id="polygon6-walk1"),
    pytest.param(["--polygon", "7", "--verify"],
                 "58bc64f15164ae40742942a4b5f308b69b3e7f94d6466950e7c5a20eb8360970", id="polygon7"),
    pytest.param((7, 0), "3c3b595eb23ff5aca64d5bc6586ca2e615f3ebfee442a7784168f692cd5242c3",
                 id="polygon7-walk0"),
    pytest.param((7, 1), "67fb5eb69edc082c92f11f96655469a661e901c2384996e8df91def5c50cff9d",
                 id="polygon7-walk1"),
    pytest.param(["--polygon", "8", "--verify"],
                 "067df80d876db888472586ac92aaec8920181b7395cbca97ecb12b9be019aa95", id="polygon8"),
    pytest.param((8, 0), "791b16cb051246897d8b87e626a467e4a2f980c66ab3cc9d0491464f971ae372",
                 id="polygon8-walk0"),
    pytest.param((8, 1), "9a009bf54ebd1172beaea28bbd47e8db4ba36b8da9b2805b9fb6b8ead0645947",
                 id="polygon8-walk1"),
    pytest.param(["--polygon", "9", "--verify"],
                 "b02adc4215fc76ee55b2650a7d871e65e0066ce984f0a392ab0f0ca6ac3a818a", id="polygon9"),
    pytest.param((9, 0), "5453dbdab30cf1e6b9d2904fe94d32c9a8b4f32ee4b6266088eb99c640c120c4",
                 id="polygon9-walk0"),
    pytest.param((9, 1), "065df319b0bbe938e6519e920c0c28e432f0f00e737a67c61fadb1c8bc249f1d",
                 id="polygon9-walk1"),
    pytest.param(["--annulus", "2", "1"],
                 "ce45eb95f4d7b3b622683e1938324db2514ff2db46fc5bd725551181186387c7", id="annulus21"),
    pytest.param(["--genus-one", "2"],
                 "8f7dd7e1594a48fc0905188fdd2b00e907abc722748041a4dd35aada8f74adb0", id="genus-one2"),
]


@pytest.mark.parametrize("start, digest", PRESENTATION_DIGESTS)
def test_presentation_stdout_pinned(start, digest, tmp_path, capsys):
    if isinstance(start, tuple):
        path = tmp_path / "walk.json"
        path.write_text(flip_walk(*start).dumps())
        start = ["--triangulation", str(path), "--verify"]
    assert cli.main(["presentation", *start]) == 0
    assert _sha(capsys.readouterr().out) == digest


def _truncate_perm(data):
    data["edges"][0]["perm"].pop()


def _end_out_of_range(data):
    data["edges"][0]["ends"][2] = len(data["vertices"])


def _perm_not_a_permutation(data):
    data["edges"][0]["perm"] = [1, 1]


def _duplicate_vertex(data):
    data["vertices"].append(data["vertices"][0])


def _c_of_another_vertex(data):
    # vertex 2's B, the exchange matrix of its triangles, is not vertex
    # 0's, so only the C repeats
    data["vertices"][2]["C"] = data["vertices"][0]["C"]


def _ends_not_integers(data):
    data["edges"][0]["ends"][0] = "0"


def _arc_out_of_range(data):
    data["edges"][0]["ends"][1] = 3


def _perm_misses_target_arc(data):
    v, k, u, k2 = data["edges"][0]["ends"]
    data["edges"][0]["ends"][3] = 3 - k2


def _slot_used_twice(data):
    data["edges"].append(data["edges"][0])


def _true_in_a_perm_met_before(data):
    # edge 3's perm is edge 0's, [2, 1], which the loader has checked by then
    data["edges"][3]["perm"] = [2, True]


def _float_in_a_perm_met_before(data):
    # edge 2's perm is edge 1's, [1, 2]
    data["edges"][2]["perm"] = [1.0, 2]


def _true_in_a_row_of_b_met_before(data):
    # vertex 1's B is vertex 0's, [[0, 1], [-1, 0]], shared by then
    data["vertices"][1]["B"][0] = [0, True]


def _equal_rows_of_c(data):
    C = data["vertices"][2]["C"]
    C[1] = list(C[0])


def _float_in_b(data):
    data["vertices"][1]["B"][0][1] = 1.4


def _string_in_c(data):
    data["vertices"][2]["C"][0][0] = str(data["vertices"][2]["C"][0][0])


def _bool_in_c(data):
    C = data["vertices"][3]["C"]
    C[0] = [bool(x) if x in (0, 1) else x for x in C[0]]


def _rows_of_c_out_of_order(data):
    C = data["vertices"][4]["C"]
    C[0], C[1] = C[1], C[0]


def _mixed_signs_in_c(data):
    # C is [[1, 1], [0, -1]]; the rows stay distinct and descending
    data["vertices"][2]["C"][0] = [1, -1]


def _missing_edge(data):
    data["edges"].pop(0)


def _radius_a_string(data):
    data["radius"] = "4"


def _perm_an_int(data):
    data["edges"][0]["perm"] = 5


def _triangle_of_ints(data):
    data["vertices"][1]["triangles"][0] = [1, 2, 3]


def _frontier_a_string(data):
    data["vertices"][2]["frontier"] = "no"


def _depth_a_string(data):
    data["vertices"][3]["depth"] = "0"


def _missing_b(data):
    del data["vertices"][4]["B"]


def _wrong_triangle_count(data):
    data["vertices"][2]["triangles"].pop()


def _polygon_4_vertex(data):
    data["vertices"][1]["triangles"] = polygon_fan(4).to_json()["triangles"]


def _unknown_label(data):
    tri = data["vertices"][3]["triangles"][0]
    tri[tri.index("a1")] = "c1"


def _b_off_the_triangles(data):
    B = data["vertices"][0]["B"]
    B[0][1], B[1][0] = B[1][0], B[0][1]


def _parent_format(data):
    # the format that wrote the surface and edges tables into every vertex
    data["budget"] = 10**6
    for vertex in data["vertices"]:
        tri = Triangulation(polygon_fan(5).surface, vertex.pop("triangles"))
        vertex["triangulation"] = tri.to_json()


# (corrupt the polygon 5 graph file, what the error names)
LOADER_PROBES = [
    (_truncate_perm, "graph edge 0: perm"),
    (_end_out_of_range, "graph edge 0: end vertex out of range"),
    (_perm_not_a_permutation, "graph edge 0: perm [1, 1]"),
    (_duplicate_vertex, "graph vertex 5: same seed as vertex 0"),
    (_c_of_another_vertex, "graph vertex 2: same seed as vertex 0"),
    (_ends_not_integers, "graph edge 0: ends and perm must be integers"),
    (_true_in_a_perm_met_before, "graph edge 3: ends and perm must be integers"),
    (_float_in_a_perm_met_before, "graph edge 2: ends and perm must be integers"),
    (_true_in_a_row_of_b_met_before, "graph vertex 1: B and C entries must be integers"),
    (_arc_out_of_range, "graph edge 0: arc out of range"),
    (_perm_misses_target_arc, "graph edge 0: perm sends arc"),
    (_slot_used_twice, "graph edge 5: slot already has an edge"),
    (_equal_rows_of_c, "graph vertex 2: duplicate c-vectors"),
    (_float_in_b, "graph vertex 1: B and C entries must be integers"),
    (_string_in_c, "graph vertex 2: B and C entries must be integers"),
    (_bool_in_c, "graph vertex 3: B and C entries must be integers"),
    (_rows_of_c_out_of_order, "graph vertex 4: rows of C are not in descending order"),
    (_mixed_signs_in_c, "graph vertex 2: c-vector in row 1 has mixed signs"),
    (_missing_edge, "graph vertex 0: not on the frontier but has 1 of 2 edges"),
    (_radius_a_string, "graph file: radius must be null or an integer >= 0"),
    (_perm_an_int, "graph edge 0: ends must be a list of four integers, perm a list"),
    (_triangle_of_ints, "graph vertex 1: triangles must be a list of [str, str, str] lists"),
    (_frontier_a_string, "graph vertex 2: frontier must be true or false"),
    (_depth_a_string, "graph vertex 3: depth must be an integer >= 0"),
    (_missing_b, 'graph vertex 4: no "B"'),
    (_wrong_triangle_count, "graph vertex 2: wrong triangle count"),
    (_polygon_4_vertex, "graph vertex 1: wrong triangle count"),
    (_unknown_label, "graph vertex 3: malformed edge label 'c1'"),
    (_b_off_the_triangles, "graph vertex 0: B is not the exchange matrix of the triangles"),
    (_parent_format, 'graph vertex 0: no "triangles"'),
]


@pytest.mark.parametrize("corrupt, named", LOADER_PROBES,
                         ids=[f.__name__.lstrip("_") for f, _ in LOADER_PROBES])
def test_relations_rejects_a_corrupt_graph_file(corrupt, named, tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert cli.main(["enumerate", "--polygon", "5", "--out", str(graph)]) == 0
    data = json.loads(graph.read_text())
    corrupt(data)
    graph.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["relations", str(graph)]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["kind"] == "usage"
    assert named in report["message"]


@pytest.mark.parametrize("change, named", [
    (lambda e: e.update({"a2": {"kind": "boundary", "component": 0, "position": 0}}),
     "edges table gives edge a2 as"),
    (lambda e: e.pop("a3"), "edges table lacks edge a3"),
    (lambda e: e.update({"b1.0": {"kind": "boundary", "component": 1, "position": 0}}),
     "edges table names 'b1.0'"),
], ids=["wrong-kind", "missing-label", "extra-label"])
def test_triangulation_file_with_a_wrong_edges_table_is_a_usage_error(change, named, tmp_path,
                                                                      capsys):
    data = polygon_fan(7).to_json()
    change(data["edges"])
    path = tmp_path / "t.json"
    path.write_text(json.dumps(data))
    assert cli.main(["surface", "new", "--triangulation", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in json.loads(captured.err)["message"]
    del data["edges"]  # a file without the table is read as before
    path.write_text(json.dumps(data))
    assert cli.main(["surface", "new", "--triangulation", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == polygon_fan(7).to_json()


def _triangles_an_int(data):
    data["triangles"] = 7


def _genus_null(data):
    data["surface"]["genus"] = None


def _boundaries_a_string(data):
    data["surface"]["boundaries"] = "7"


def _boundary_a_float(data):
    data["surface"]["boundaries"] = [7.0]


def _no_surface(data):
    del data["surface"]


def _triangle_of_two_sides(data):
    data["triangles"][2] = data["triangles"][2][:2]


def _a_list_not_an_object(data):
    data["edges"] = list(data["edges"].items())


# (corrupt the heptagon fan's triangulation file, what the error names)
TRIANGULATION_PROBES = [
    (_triangles_an_int, "triangles must be a list of [str, str, str] lists"),
    (_genus_null, "surface: genus must be an integer"),
    (_boundaries_a_string, "surface: boundaries must be a list of integers"),
    (_boundary_a_float, "surface: boundaries must be a list of integers"),
    (_no_surface, 'triangulation: no "surface"'),
    (_triangle_of_two_sides, "triangles must be a list of [str, str, str] lists"),
    (_a_list_not_an_object, "triangulation edges must be a JSON object"),
]


@pytest.mark.parametrize("corrupt, named", TRIANGULATION_PROBES,
                         ids=[f.__name__.lstrip("_") for f, _ in TRIANGULATION_PROBES])
def test_surface_new_rejects_a_corrupt_triangulation_file(corrupt, named, tmp_path, capsys):
    data = polygon_fan(7).to_json()
    corrupt(data)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(data))
    assert cli.main(["surface", "new", "--triangulation", str(path)]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.err)
    assert captured.out == ""
    assert report["kind"] == "usage"
    assert named in report["message"]


def test_graph_load_frees_the_parsed_file():
    text = cli._dump(graph_to_json(enumerate_graph(genus_one(1), radius=10)))
    tracemalloc.start()
    try:
        data = json.loads(text)
        parsed, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        g = graph_from_json(data)
        _, peak = tracemalloc.get_traced_memory()
        assert data["vertices"] == []
        del data
        graph, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.vertex_count() == 4381
    # holding the whole parsed file until the graph is built peaks near their sum
    assert peak < parsed + graph / 2


def test_homology_rejects_a_graph_file_missing_an_edge(tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert cli.main(["enumerate", "--polygon", "6", "--out", str(graph)]) == 0
    data = json.loads(graph.read_text())
    _missing_edge(data)
    graph.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["homology", str(graph)]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["kind"] == "usage"
    assert "graph vertex 0: not on the frontier but has 2 of 3 edges" in report["message"]


@pytest.mark.parametrize("command", [
    ["homology"], ["relations"], ["export"], ["surface", "new", "--triangulation"],
], ids=["homology", "relations", "export", "surface-new"])
def test_deeply_nested_json_is_a_usage_error(command, tmp_path, capsys):
    # the parser recurses once per level and gives up long before 200,000
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert cli.main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    report = json.loads(captured.err)
    assert report["kind"] == "usage"
    assert report["message"] == f"{path}: JSON nested too deeply"


@pytest.mark.parametrize("command", ["homology", "relations", "export"])
def test_a_graph_file_with_no_vertices_is_a_usage_error(command, tmp_path, capsys):
    data = graph_to_json(enumerate_graph(polygon_fan(5)))
    data["vertices"], data["edges"] = [], []
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(data))
    assert cli.main([command, str(graph)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    report = json.loads(captured.err)
    assert report["kind"] == "usage"
    assert report["message"] == "graph file: no vertices"


ESCAPES = ['"', "\\", "/", "\b\f\n\r\t", "\x00\x1f\x7f", "é", "\u2028", "\U0001f600", ""]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(),
    st.text(),
    st.sampled_from(ESCAPES),
)


def _containers(children, keys=st.text()):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=4),
        # bool, None and int keys side by side: sorting None with an int fails
        st.dictionaries(st.one_of(st.booleans(), st.none(), st.integers(-1, 2)), children,
                        max_size=3),
    )


JSON_VALUES = st.recursive(SCALARS, _containers, max_leaves=40)
# values json.dumps rejects, as leaves and as dict keys
UNENCODABLE = st.sampled_from([np.int64(3), {1, 2}, frozenset(), b"x", object()])
BAD_KEYS = st.one_of(st.text(), st.tuples(st.integers()), st.just(frozenset()))
ANY_VALUES = st.recursive(
    st.one_of(SCALARS, UNENCODABLE), lambda kids: _containers(kids, BAD_KEYS), max_leaves=20
)


def _one_record_per_line(obj) -> str:
    """The text _dump promises, built from json.dumps: a dict's members one
    per line in sorted key order, each element of a list or tuple member
    on a line of its own, everything else inline."""
    if type(obj) is not dict or not obj:
        return json.dumps(obj, sort_keys=True) + "\n"
    members = []
    for key, value in sorted(obj.items()):
        if isinstance(value, (list, tuple)):
            name = json.dumps({key: 0})[1:-2]
            body = ",\n".join(json.dumps(x, sort_keys=True) for x in value)
            members.append(f"{name}[\n{body}\n]" if value else f"{name}[]")
        else:
            members.append(json.dumps({key: value}, sort_keys=True)[1:-1])
    return "{\n" + ",\n".join(members) + "\n}\n"


# nested dicts, lists and tuples of unicode strings, ints, bools and None
PLAIN_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(), st.sampled_from(ESCAPES)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(), kids, max_size=4),
    ),
    max_leaves=40,
)


@given(PLAIN_VALUES)
def test_the_reused_encoder_matches_a_fresh_one(obj):
    assert cli._encode(obj) == json.JSONEncoder(sort_keys=True).encode(obj)


def test_the_reused_encoder_recovers_from_a_failed_call():
    # the C encoder raises with the list and the dict it was inside still
    # marked as open; the same objects must encode on the next call
    inner = {"b": [1, "é", None]}
    outer = [inner, {"c": object()}]
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        cli._encode(outer)
    outer[1]["c"] = True
    assert cli._encode(outer) == json.JSONEncoder(sort_keys=True).encode(outer)
    assert cli._encode(inner) == json.dumps(inner, sort_keys=True)


@settings(max_examples=50)
@given(PLAIN_VALUES)
def test_the_encoder_without_the_c_accelerator_writes_the_same_bytes(obj):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(json.encoder, "c_make_encoder", None)
        assert cli._encoder()(obj) == cli._encode(obj)


def test_a_graph_file_without_the_c_accelerator_has_the_same_bytes(monkeypatch):
    g = enumerate_graph(annulus(2, 1), radius=4)
    text = cli._dump(graph_records(g))
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(cli, "_encode", cli._encoder())
    _same_text(cli._dump(graph_records(g)), text)


def _check_writer(obj):
    """_dump(obj) parses to what json.dumps(obj) parses to, in the layout
    of _one_record_per_line; where json.dumps raises TypeError, _dump
    raises it with the same message."""
    try:
        want = json.dumps(obj, sort_keys=True)
    except TypeError as exc:
        with pytest.raises(TypeError) as got:
            cli._dump(obj)
        assert str(got.value) == str(exc)
        return
    text = cli._dump(obj)
    # compared as re-encoded text, so that a NaN compares equal to itself
    assert json.dumps(json.loads(text)) == json.dumps(json.loads(want))
    assert text == _one_record_per_line(obj)


@given(JSON_VALUES)
def test_writer_matches_json_dumps(obj):
    _check_writer(obj)


@given(st.dictionaries(st.text(), JSON_VALUES, max_size=4))
def test_writer_puts_each_element_of_a_list_member_on_its_own_line(obj):
    _check_writer(obj)


@given(ANY_VALUES)
def test_writer_raises_where_json_dumps_does(obj):
    _check_writer(obj)


@functools.cache
def _fuzz_files() -> list[tuple[list[str], str]]:
    """(command, file text) for the loader fuzz: two small graph files for
    ``relations`` and a triangulation file for ``surface new``."""
    graphs = [enumerate_graph(polygon_fan(5)), enumerate_graph(annulus(2, 1), radius=3)]
    files = [(["relations"], cli._dump(graph_to_json(g))) for g in graphs]
    files.append((["surface", "new", "--triangulation"], flip_walk(6, 0).dumps()))
    return files


def _json_paths(value, path=()):
    """The path of every value in a JSON document, the document itself first."""
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _json_paths(v, (*path, k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _json_paths(v, (*path, i))


# random JSON, and values one step from those the files hold
NEAR_VALUES = st.one_of(
    st.integers(-3, 12),
    st.sampled_from(["a1", "a3", "b0.0", "b1.0", "b0.5", "0", True, False, None, [], {}, 1.0]),
)


@settings(max_examples=300)
@given(st.data())
@pytest.mark.parametrize("which", range(3), ids=["polygon5", "annulus21-r3", "triangulation"])
def test_a_file_with_one_value_replaced_is_read_or_refused(which, data):
    command, text = _fuzz_files()[which]
    doc = json.loads(text)
    path = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
    value = data.draw(st.one_of(JSON_VALUES, NEAR_VALUES), label="value")
    if path:
        at = doc
        for key in path[:-1]:
            at = at[key]
        at[path[-1]] = value
    else:
        doc = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = f"{tmp}/in.json"
        with open(file, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*command, file])
    assert code in (0, 2), (code, out.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["kind"] == "usage"
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue())


def test_writer_pieces_are_graph_vertices_and_edges():
    g = enumerate_graph(polygon_fan(6))
    data = graph_to_json(g)
    lines = cli._dump(graph_records(g)).splitlines()
    assert lines == cli._dump(data).splitlines()
    # one line per vertex and per edge, each the encoder's text of the record
    for key in ("vertices", "edges"):
        at = lines.index(f'"{key}": [')
        records = data[key]
        body = lines[at + 1:at + 1 + len(records)]
        assert [line.rstrip(",") for line in body] == [json.dumps(r, sort_keys=True) for r in records]
        assert lines[at + 1 + len(records)].startswith("]")


def _same_text(got: str, want: str) -> None:
    """Fail with a short report: pytest's diff of two long texts takes minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"texts differ at {at}: {got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")


WRITER_GRAPHS = [(polygon_fan(m), None) for m in range(5, 10)]
WRITER_GRAPHS += [(annulus(3, 2), 7), (genus_one(1), 6)]


@pytest.mark.parametrize("base, radius", WRITER_GRAPHS,
                         ids=[f"polygon{m}" for m in range(5, 10)] + ["annulus32-r7", "genus-one1-r6"])
def test_graph_writer_matches_json_dumps(base, radius):
    g = enumerate_graph(base, radius=radius)
    data = graph_to_json(g)
    text = cli._dump(graph_records(g))
    _same_text(text, _one_record_per_line(data))
    assert json.loads(text) == json.loads(json.dumps(data))


def test_no_writer_memo_outlives_a_dump():
    # each graph is dropped after its dump, so the next one's records may be
    # allocated where the last one's were, and no text of them may be reused
    for base, radius in [(polygon_fan(6), None), (annulus(2, 1), 3)] * 3:
        g = enumerate_graph(base, radius=radius)
        _same_text(cli._dump(graph_records(g)), _one_record_per_line(graph_to_json(g)))
        del g


def test_write_streams_the_graph_file(tmp_path):
    g = enumerate_graph(polygon_fan(10))
    path = tmp_path / "g.json"
    tracemalloc.start()
    try:
        with cli._output(str(path)) as fh:
            fh.writelines(cli._chunks(graph_records(g)))
        _, streamed = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        text = cli._dump(graph_to_json(g))
        _, whole = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    _same_text(path.read_text(), text)
    assert size > 1_000_000
    assert streamed < size / 4
    assert whole > size


UNENCODABLE_GRAPH = """
import sys
import numpy as np
from flipgroupoid import cli

real = cli.graph_records


def with_a_numpy_int(g):
    data = real(g)
    vertices = list(data["vertices"])
    vertices[-1]["depth"] = np.int64(vertices[-1]["depth"])
    data["vertices"] = iter(vertices)
    return data


cli.graph_records = with_a_numpy_int
sys.exit(cli.main(sys.argv[1:]))
"""


def test_enumerate_fails_loudly_on_an_unencodable_value(tmp_path):
    out = tmp_path / "g.json"
    cmd = ["enumerate", "--polygon", "6", "--out", str(out)]
    r = subprocess.run(
        [sys.executable, "-c", UNENCODABLE_GRAPH, *cmd],
        capture_output=True,
        text=True,
    )
    assert r.returncode != 0
    assert "TypeError: Object of type int64 is not JSON serializable" in r.stderr
    # the failure came part-way through the vertices, and left no file
    assert list(tmp_path.iterdir()) == []


def test_a_failed_write_leaves_the_old_file_untouched(tmp_path, monkeypatch):
    out = tmp_path / "g.json"
    out.write_text("old\n")
    real = cli.graph_records

    def bad_last_edge(g):
        data = real(g)
        edges = list(data["edges"])
        edges[-1]["perm"] = set(edges[-1]["perm"])
        data["edges"] = iter(edges)
        return data

    monkeypatch.setattr(cli, "graph_records", bad_last_edge)
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        cli.main(["enumerate", "--polygon", "6", "--out", str(out)])
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]
    monkeypatch.setattr(cli, "graph_records", real)
    assert cli.main(["enumerate", "--polygon", "6", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["vertices"]) == 14
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


@pytest.mark.parametrize("command", [
    ["enumerate", "--polygon", "10"],
    ["cover", "--polygon", "6", "--radius", "5"],
    ["presentation", "--polygon", "6", "--verify"],
], ids=["enumerate", "cover", "presentation"])
def test_an_unwritable_out_fails_before_the_work(command, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("enumerated before opening --out")

    monkeypatch.setattr(cli, "enumerate_graph", no_work)
    target = tmp_path / "no such dir" / "g.json"
    assert cli.main([*command, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    report = json.loads(captured.err)
    assert report["kind"] == "usage"
    assert str(target) in report["message"]
    assert list(tmp_path.iterdir()) == []


def _enumerate_pentagon(out) -> str:
    assert cli.main(["enumerate", "--polygon", "5", "--out", str(out)]) == 0
    return cli._dump(graph_records(enumerate_graph(polygon_fan(5))))


def test_out_writes_through_a_symlink(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    text = _enumerate_pentagon(link)
    assert link.is_symlink() and link.resolve() == real.resolve()
    assert real.read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_out_writes_into_a_fifo(tmp_path):
    fifo = tmp_path / "g.fifo"
    os.mkfifo(fifo)
    # a reader that is open already lets the writer's open return; the
    # pentagon's text fits in the pipe's buffer, so the reads come after
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        text = _enumerate_pentagon(fifo)
        chunks = []
        while chunk := os.read(reader, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(reader)
    assert b"".join(chunks).decode() == text
    assert [p.name for p in tmp_path.iterdir()] == ["g.fifo"]


def test_out_keeps_a_files_mode_and_hard_links(tmp_path):
    out = tmp_path / "g.json"
    out.write_text("old\n")
    out.chmod(0o640)
    text = _enumerate_pentagon(out)
    assert out.read_text() == text
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    twin = tmp_path / "twin.json"
    twin.hardlink_to(out)
    out.write_text("old\n")
    _enumerate_pentagon(out)
    assert twin.read_text() == out.read_text() == text
    assert out.stat().st_ino == twin.stat().st_ino


COMPAT_GRAPHS = [(polygon_fan(7), None), (genus_one(1), 6)]


@pytest.mark.parametrize("base, radius", COMPAT_GRAPHS, ids=["polygon7", "genus-one1-r6"])
def test_graph_files_in_every_layout_load_alike(base, radius, tmp_path):
    # the layout written before one record per line, one line, and today's
    g = enumerate_graph(base, radius=radius)
    data = graph_to_json(g)
    layouts = {
        "indented": json.dumps(data, indent=2, sort_keys=True),
        "one-line": json.dumps(data),
        "records": cli._dump(graph_records(g)),
    }
    outputs = {}
    for name, text in layouts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        with open(path) as fh:
            assert graph_to_json(graph_from_json(json.load(fh))) == data
        runs = []
        for command in (["relations", "--allow-incomplete"], ["homology"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command[0], str(path), *command[1:]])
            runs.append((code, out.getvalue(), err.getvalue()))
        outputs[name] = runs
    assert outputs["indented"] == outputs["one-line"] == outputs["records"]
    assert outputs["records"][0][0] == 0


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory) -> dict[str, str]:
    """The paths of graph files of polygons 5 and 8, as "polygon5" and
    "polygon8"."""
    files = {}
    for m in (5, 8):
        path = tmp_path_factory.mktemp("graphs") / f"polygon{m}.json"
        assert cli.main(["enumerate", "--polygon", str(m), "--out", str(path)]) == 0
        files[f"polygon{m}"] = str(path)
    return files


# each command on a small input and on a larger one; "{polygon5}" and
# "{polygon8}" name the files of graph_files
CYCLIC_GARBAGE_COMMANDS = {
    "surface": (["surface", "new", "--polygon", "5"], ["surface", "new", "--genus-one", "6"]),
    "enumerate": (["enumerate", "--polygon", "5"], ["enumerate", "--polygon", "8"]),
    "relations": (["relations", "{polygon5}"], ["relations", "{polygon8}"]),
    "homology": (["homology", "{polygon5}"], ["homology", "{polygon8}"]),
    "presentation": (["presentation", "--polygon", "5", "--verify"],
                     ["presentation", "--polygon", "9", "--verify"]),
    "cover-disc": (["cover", "--polygon", "5", "--radius", "2", "--report", "fibers"],
                   ["cover", "--polygon", "6", "--radius", "5", "--report", "fibers"]),
    "cover-annulus": (["cover", "--annulus", "1", "1", "--radius", "2"],
                      ["cover", "--annulus", "1", "1", "--radius", "6"]),
    "export": (["export", "{polygon5}"], ["export", "{polygon8}", "--format", "json"]),
    "braid": (["braid", "nf", "--strands", "3", "1 2"],
              ["braid", "eq", "--strands", "8", "1 2 3 4 5 6 7 " * 20, "-7 -6 5 4 3 2 1 " * 20]),
}


def _cyclic_garbage(argv) -> int:
    """The objects that gc.collect() finds unreachable after ``cli.main``
    runs ``argv`` from a clean heap, with the collector off throughout."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("command", CYCLIC_GARBAGE_COMMANDS)
def test_no_command_leaves_cyclic_garbage_that_grows_with_its_input(command, graph_files, capsys):
    # cli.main runs with the collector off, so a cycle built per vertex,
    # edge or class would be held to the end of the command
    small, large = ([a.format_map(graph_files) for a in argv]
                    for argv in CYCLIC_GARBAGE_COMMANDS[command])
    _cyclic_garbage(small)  # the first run fills the library's memos
    counts = [_cyclic_garbage(small), _cyclic_garbage(large)]
    capsys.readouterr()
    assert counts[0] == counts[1]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv, code", [
    (["braid", "nf", "--strands", "3", "1 2"], 0),
    (["enumerate", "--polygon", "6"], 1),
    (["relations", "no-such-file.json"], 2),
    (["enumerate", "--polygon", "six"], SystemExit(2)),
    (["--help"], SystemExit(0)),
], ids=["ok", "check", "usage", "argparse", "help"])
def test_main_leaves_the_collector_as_it_found_it(argv, code, enabled, monkeypatch, tmp_path,
                                                  capsys):
    if code == 1:
        _flip_nothing(monkeypatch)
    monkeypatch.chdir(tmp_path)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(code, SystemExit):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == code.code
        else:
            assert cli.main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
