import hashlib
import json
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipgroupoid import cli, homology
from flipgroupoid.exchange import enumerate_graph, graph_from_json, graph_to_json
from flipgroupoid.surface import Triangulation, annulus, genus_one, polygon_fan

from oracles import flip_walk


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


def test_usage_error_no_surface():
    r = run_cli("enumerate")
    assert r.returncode == 2


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


def test_budget_env(tmp_path):
    import os

    env = dict(os.environ, FLIPGROUPOID_BUDGET="5")
    r = subprocess.run(
        [sys.executable, "-m", "flipgroupoid.cli", "enumerate", "--annulus", "1", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
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


# sha256 of stdout, pinned from the builder that transported a frame to
# every tree node; frames per class must give the same bytes
COVER_DIGESTS = [
    (["--polygon", "6", "--radius", "5", "--report", "fibers"],
     "b4055581217a9bcb1d07220ad8cf652685b1721bfa2d8a164ed264426faa8a11"),
    (["--annulus", "1", "1", "--radius", "6"],
     "3a8e5cfa51103a1d98e2e11c6d9eddf6aaf9b5dd505a0e0ea91049cb3f6745f0"),
    (["--polygon", "6", "--radius", "6", "--report", "fibers"],
     "cf21706d64da0e346d272963bec5e4ba08584614c962b5c770493f636c4864bb"),
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
    code = cli.main(["cover", "--polygon", "6", "--radius", "8", "--budget", "20000"])
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
        '{\n  "betti1": 0,\n  "faces": {\n'
        f'    "pentagons": {pentagons},\n    "squares": {squares}\n'
        '  },\n  "status": "ok",\n  "torsion": []\n}\n'
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


def test_homology_builds_two_cells_once(tmp_path, monkeypatch, capsys):
    # face_census and homology_h1 share one build of the 2-cells
    graph = tmp_path / "g.json"
    assert cli.main(["enumerate", "--polygon", "7", "--out", str(graph)]) == 0
    builds = []
    real = homology.all_relation_instances
    monkeypatch.setattr(homology, "all_relation_instances", lambda g: builds.append(g) or real(g))
    assert cli.main(["homology", str(graph)]) == 0
    assert len(builds) == 1


# sha256 of stdout, pinned from the enumeration that computed the
# canonical form twice per mutation
ENUMERATE_DIGESTS = [
    (["--polygon", "8"], "8d755003b80e21c3b2971caaabf8071254977492ca4f446228c688c5835efdf5"),
    (["--annulus", "2", "2", "--radius", "5"],
     "5c3644d667a00e1369c6d3d73e921b3df813e7e215e26611287363b3851976f5"),
    (["--genus-one", "1", "--radius", "6"],
     "0dca60d90a004059f01c1b7c18c05e21256ac57a83183dc6dfb797a0d0f5d785"),
]
RELATIONS_GENUS_ONE_R6 = "aec955fadaf3b406f9913bee561435a369af34a127a2d8d09fbc85baa7801c3d"


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


def _truncate_perm(data):
    data["edges"][0]["perm"].pop()


def _end_out_of_range(data):
    data["edges"][0]["ends"][2] = len(data["vertices"])


def _perm_not_a_permutation(data):
    data["edges"][0]["perm"] = [1, 1]


def _duplicate_vertex(data):
    data["vertices"].append(data["vertices"][0])


def _ends_not_integers(data):
    data["edges"][0]["ends"][0] = "0"


def _arc_out_of_range(data):
    data["edges"][0]["ends"][1] = 3


def _perm_misses_target_arc(data):
    v, k, u, k2 = data["edges"][0]["ends"]
    data["edges"][0]["ends"][3] = 3 - k2


def _slot_used_twice(data):
    data["edges"].append(data["edges"][0])


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


def _missing_edge(data):
    data["edges"].pop(0)


def _vertex_on_another_surface(data):
    from flipgroupoid.surface import polygon_fan

    data["vertices"][1]["triangulation"] = polygon_fan(4).to_json()


def _arc_written_as_a_boundary_segment(data):
    edges = data["vertices"][3]["triangulation"]["edges"]
    edges["a1"] = {"kind": "boundary", "component": 0, "position": 5}


def _edges_table_lacks_a_label(data):
    del data["vertices"][2]["triangulation"]["edges"]["b0.4"]


def _edges_table_has_an_extra_label(data):
    data["vertices"][4]["triangulation"]["edges"]["a3"] = {"kind": "arc"}


# (corrupt the polygon 5 graph file, what the error names)
LOADER_PROBES = [
    (_truncate_perm, "graph edge 0: perm"),
    (_end_out_of_range, "graph edge 0: end vertex out of range"),
    (_perm_not_a_permutation, "graph edge 0: perm [1, 1]"),
    (_duplicate_vertex, "graph vertex 5: same seed as vertex 0"),
    (_ends_not_integers, "graph edge 0: ends and perm must be integers"),
    (_arc_out_of_range, "graph edge 0: arc out of range"),
    (_perm_misses_target_arc, "graph edge 0: perm sends arc"),
    (_slot_used_twice, "graph edge 5: slot already has an edge"),
    (_vertex_on_another_surface, "graph vertex 1: surface differs"),
    (_equal_rows_of_c, "graph vertex 2: duplicate c-vectors"),
    (_float_in_b, "graph vertex 1: B and C entries must be integers"),
    (_string_in_c, "graph vertex 2: B and C entries must be integers"),
    (_bool_in_c, "graph vertex 3: B and C entries must be integers"),
    (_rows_of_c_out_of_order, "graph vertex 4: rows of C are not in descending order"),
    (_missing_edge, "graph vertex 0: not on the frontier but has 1 of 2 edges"),
    (_arc_written_as_a_boundary_segment, "edges table gives edge a1 as"),
    (_edges_table_lacks_a_label, "edges table lacks edge b0.4"),
    (_edges_table_has_an_extra_label, "edges table names 'a3'"),
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


def _check_writer(obj):
    try:
        want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            cli._dump(obj)
        with pytest.raises(TypeError):
            cli._encode(obj, "")
        return
    assert cli._dump(obj) == want
    assert "".join(cli._chunks(obj)) == want
    assert cli._encode(obj, "") + "\n" == want


@given(JSON_VALUES)
def test_writer_matches_json_dumps(obj):
    _check_writer(obj)


@given(ANY_VALUES)
def test_writer_raises_where_json_dumps_does(obj):
    _check_writer(obj)


def test_writer_pieces_are_graph_vertices_and_edges():
    data = graph_to_json(enumerate_graph(polygon_fan(6)))
    pieces = list(cli._chunks(data))
    assert "".join(pieces) == json.dumps(data, indent=2, sort_keys=True) + "\n"
    for vertex in data["vertices"]:
        assert cli._encode(vertex, "    ") in pieces
    for edge in data["edges"]:
        assert cli._encode(edge, "    ") in pieces


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
    data = graph_to_json(enumerate_graph(base, radius=radius))
    _same_text(cli._dump(data), json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_writer_encodes_the_shared_tables_at_most_twice_per_dump(monkeypatch):
    data = graph_to_json(enumerate_graph(polygon_fan(7)))
    tri = data["vertices"][0]["triangulation"]
    shared = (tri["edges"], tri["surface"])
    assert all(v["triangulation"]["edges"] is shared[0] for v in data["vertices"])
    met = []
    real = cli._encode
    monkeypatch.setattr(cli, "_encode",
                        lambda obj, indent: met.append(any(obj is x for x in shared))
                        or real(obj, indent))
    want = json.dumps(data, indent=2, sort_keys=True) + "\n"
    for dumps in (1, 2):
        _same_text(cli._dump(data), want)
        # the first two vertices; after them the text is reused
        assert sum(met) == 4 * dumps


def test_no_writer_memo_outlives_a_dump():
    # each graph is dropped after its dump, so the next one's tables may be
    # allocated where the last one's were
    for base, radius in [(polygon_fan(6), None), (annulus(2, 1), 3)] * 3:
        data = graph_to_json(enumerate_graph(base, radius=radius))
        _same_text(cli._dump(data), json.dumps(data, indent=2, sort_keys=True) + "\n")
        del data


def test_write_streams_the_graph_file(tmp_path):
    data = graph_to_json(enumerate_graph(polygon_fan(9)))
    path = tmp_path / "g.json"
    tracemalloc.start()
    try:
        cli._write(str(path), cli._chunks(data))
        _, streamed = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
        _, whole = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    _same_text(path.read_text(), text)
    assert size > 1_500_000
    assert streamed < size / 4
    assert whole > size


UNENCODABLE_GRAPH = """
import sys
import numpy as np
from flipgroupoid import cli

real = cli.graph_to_json


def with_a_numpy_int(g):
    data = real(g)
    data["vertices"][-1]["depth"] = np.int64(data["vertices"][-1]["depth"])
    return data


cli.graph_to_json = with_a_numpy_int
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
