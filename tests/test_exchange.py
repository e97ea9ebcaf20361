import gc
import json
import random
import tracemalloc

import numpy as np
import pytest

from flipgroupoid import exchange, seeds
from flipgroupoid.exchange import (
    CheckFailure,
    RelationKind,
    TruncationError,
    _relation_pairs,
    enumerate_graph,
    export_dot,
    graph_from_json,
    graph_to_json,
    relation_closure_check,
)
from flipgroupoid.surface import annulus, genus_one, polygon_fan

from oracles import (
    catalan,
    flipped,
    polygon_flip_graph,
    polygon_triangulations,
    ref_enumerate_graph,
    ref_relation_pairs,
    walked_closure_report,
)
from oracles import ref_all_relation_instances as all_relation_instances
from oracles import ref_relation_instances as relation_instances


@pytest.mark.parametrize("m,count", [(5, 5), (6, 14), (7, 42), (8, 132), (9, 429)])
def test_polygon_counts_match_catalan(m, count):
    g = enumerate_graph(polygon_fan(m))
    assert count == catalan(m - 2)
    assert g.vertex_count() == count
    assert len(g.unoriented_edges()) == count * (m - 3) // 2


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_polygon_counts_match_noncrossing_oracle(m):
    g = enumerate_graph(polygon_fan(m))
    oracle = polygon_flip_graph(m)
    assert g.vertex_count() == len(oracle)
    edges = sum(len(mv) for mv in oracle.values()) // 2
    assert len(g.unoriented_edges()) == edges


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_polygon_vertex_set_is_exactly_the_noncrossing_sets(m):
    # seed dedup is injective and complete on discs: the stored
    # triangulations, read back as chord sets, hit every maximal
    # noncrossing diagonal set exactly once
    g = enumerate_graph(polygon_fan(m))
    got = set()
    for vd in g.vertices:
        chords = frozenset(tuple(sorted(c)) for c in vd.triangulation.arc_chords())
        assert chords not in got
        got.add(chords)
    assert got == {frozenset(t) for t in polygon_triangulations(m)}


def test_regularity():
    g = enumerate_graph(polygon_fan(7))
    for v in range(g.vertex_count()):
        assert sum(step is not None for step in g.adj[v]) == g.n


def test_edge_involution():
    # the loader links its edges as enumeration does, so check both graphs
    g = enumerate_graph(polygon_fan(6))
    loaded = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
    for h in (g, loaded):
        for v, row in enumerate(h.adj):
            assert len(row) == h.n + 1 and row[0] is None
            for k, step in enumerate(row):
                if step is None:
                    continue
                u, k2, perm = step
                assert h.adj[u][k2][:2] == (v, k)
                inv = h.adj[u][k2][2]
                assert [inv[perm[i] - 1] for i in range(h.n)] == list(range(1, h.n + 1))


def test_annulus_is_infinite_line():
    g = enumerate_graph(annulus(1, 1), radius=5)
    assert g.vertex_count() == 11
    degrees = sorted(sum(step is not None for step in row) for row in g.adj)
    assert degrees == [1, 1] + [2] * 9
    assert sum(vd.frontier for vd in g.vertices) == 2


def test_budget_truncation_is_loud():
    with pytest.raises(TruncationError):
        enumerate_graph(annulus(1, 1), budget=10)


def test_flip_mutation_commutation_along_enumeration():
    # every stored vertex was cross-checked during enumeration; re-check here
    g = enumerate_graph(polygon_fan(7))
    for vd in g.vertices:
        assert vd.triangulation.quiver().B == vd.seed.B


def test_fan_vertex_instances():
    g = enumerate_graph(polygon_fan(6))
    insts = relation_instances(g, 0)
    kinds = sorted((i.kind.value, i.arcs) for i in insts)
    assert kinds == [("Pentagon", (1, 2)), ("Pentagon", (2, 3)), ("Square", (1, 3))]
    assert all(i.co_terminates() for i in insts)


def test_pentagon_vertex_instances():
    g = enumerate_graph(polygon_fan(5))
    for v in range(5):
        insts = relation_instances(g, v)
        assert [i.kind for i in insts] == [RelationKind.PENTAGON]
        assert insts[0].co_terminates()


def test_annulus_hex_instance():
    g = enumerate_graph(annulus(1, 1), radius=5)
    insts = relation_instances(g, 0)
    assert [i.kind for i in insts] == [RelationKind.HEX_DUMBBELL]
    assert insts[0].co_terminates()
    # both sides end at the flip of the double-arrow source
    assert insts[0].left_end == insts[0].right_end


def test_dumbbell_sides_start_at_opposite_arcs():
    # the left side flips the source of the double arrow first, the right
    # side its target; both sides close either way, so only this tells them apart
    g = enumerate_graph(annulus(2, 1), radius=5)
    hexes = [i for i in all_relation_instances(g) if i.kind is RelationKind.HEX_DUMBBELL]
    assert hexes
    for inst in hexes:
        i, j = inst.arcs
        tail, head = (i, j) if g.vertices[inst.base].seed.B[i - 1][j - 1] == 2 else (j, i)
        assert inst.left_steps[0] == (inst.base, tail)
        assert inst.right_steps[0] == (inst.base, head)
        # the head's two steps go out along an edge and straight back
        assert not inst.complete or (inst.left_end, inst.right_steps[2][0]) == (inst.left_steps[1][0], inst.base)


SQ, PE, HD = RelationKind.SQUARE, RelationKind.PENTAGON, RelationKind.HEX_DUMBBELL
# each graph with the kinds its arc pairs take: a disc has no dumbbell,
# the hexagon and up a square, and only annuli and genus one dumbbells
PAIR_GRAPHS = [
    (polygon_fan(4), None, set()),
    (polygon_fan(5), None, {PE}),
    (polygon_fan(6), None, {SQ, PE}),
    (polygon_fan(7), None, {SQ, PE}),
    (polygon_fan(8), None, {SQ, PE}),
    (annulus(1, 1), 4, {HD}),
    (annulus(2, 1), 4, {PE, HD}),
    (annulus(2, 2), 4, {SQ, PE, HD}),
    (annulus(3, 1), 4, {SQ, PE, HD}),
    (genus_one(1), 4, {PE, HD}),
    (genus_one(2), 4, {SQ, PE, HD}),
]


@pytest.mark.parametrize("base, radius, kinds", PAIR_GRAPHS, ids=[
    "polygon4", "polygon5", "polygon6", "polygon7", "polygon8", "annulus11-r4", "annulus21-r4",
    "annulus22-r4", "annulus31-r4", "genus-one1-r4", "genus-one2-r4"])
def test_relation_pairs_match_the_shared_triangle_reference(base, radius, kinds):
    # kind, (head, tail) and plans from |b_ij| and its sign, at every vertex,
    # against the slot table's shared-triangle counts
    g = enumerate_graph(base, radius=radius)
    seen = set()
    for v in range(g.vertex_count()):
        pairs = list(_relation_pairs(g, v))
        assert pairs == ref_relation_pairs(g, v)
        seen.update((kind, head > tail) for kind, _, head, tail, _ in pairs)
    # every kind met, a pentagon and a dumbbell each with its tail on both sides
    assert seen == {(k, False) for k in kinds} | {(k, True) for k in kinds - {SQ}}


def test_instance_lengths():
    g = enumerate_graph(polygon_fan(6))
    for inst in all_relation_instances(g):
        want = {
            RelationKind.SQUARE: (2, 2),
            RelationKind.PENTAGON: (2, 3),
            RelationKind.HEX_DUMBBELL: (3, 3),
        }[inst.kind]
        assert (len(inst.left_steps), len(inst.right_steps)) == want


def test_relation_instances_stream_one_vertex_at_a_time():
    g = enumerate_graph(polygon_fan(9))
    instances = all_relation_instances(g)
    assert list(instances) == [i for v in range(g.vertex_count()) for i in relation_instances(g, v)]
    # the closure check reads each instance once, so it never holds the
    # graph's 6,435 instances together (4.5 MB as one list)
    tracemalloc.start()
    try:
        report = relation_closure_check(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["instances"] == 6435
    assert peak < 1_000_000


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_closure_polygons(m):
    report = relation_closure_check(enumerate_graph(polygon_fan(m)))
    assert report["incomplete"] == 0


def test_closure_annulus_and_genus_one():
    report = relation_closure_check(enumerate_graph(annulus(1, 1), radius=6))
    assert report["instances"] > 0
    report = relation_closure_check(
        enumerate_graph(genus_one(1), radius=4), allow_incomplete=True
    )
    assert report["instances"] > 0


def _loaded(g):
    return graph_from_json(json.loads(json.dumps(graph_to_json(g))))


@pytest.mark.parametrize("graph, allow_incomplete", [
    *[pytest.param(lambda m=m: enumerate_graph(polygon_fan(m)), False, id=f"polygon{m}")
      for m in (5, 6, 7, 8)],
    pytest.param(lambda: enumerate_graph(annulus(1, 1), radius=6), False, id="annulus11-r6"),
    pytest.param(lambda: enumerate_graph(genus_one(1), radius=4), True, id="genus_one1-r4"),
    pytest.param(lambda: _loaded(enumerate_graph(annulus(2, 1), radius=5)), True,
                 id="loaded-annulus21-r5"),
])
def test_counted_circuits_match_walked_circuits(graph, allow_incomplete):
    g = graph()
    report = relation_closure_check(g, allow_incomplete)
    assert report == walked_closure_report(g, allow_incomplete)


def test_closure_radius_guard():
    g = enumerate_graph(annulus(1, 1), radius=2)
    with pytest.raises(ValueError):
        relation_closure_check(g)


def test_dot_export_deterministic():
    g = enumerate_graph(polygon_fan(5))
    dot = export_dot(g)
    assert dot == export_dot(enumerate_graph(polygon_fan(5)))
    assert dot.startswith("graph exchange {")
    assert dot.count(" -- ") == 5


GOLDEN_PENTAGON_DOT = """graph exchange {
  v0 [label="0"];
  v1 [label="1"];
  v2 [label="2"];
  v3 [label="3"];
  v4 [label="4"];
  v0 -- v1 [label="1"];
  v0 -- v2 [label="2"];
  v1 -- v3 [label="1"];
  v2 -- v4 [label="1"];
  v3 -- v4 [label="2"];
}
"""


def test_dot_export_golden():
    assert export_dot(enumerate_graph(polygon_fan(5))) == GOLDEN_PENTAGON_DOT


def test_json_roundtrip_corpus():
    rng = random.Random(17)
    cases = []
    for m in (4, 5, 6, 7):
        for r in (0, 1, 2, 3, None):
            cases.append((polygon_fan(m), r))
    for pq in ((1, 1), (2, 1), (2, 2), (3, 1)):
        for r in (0, 1, 2, 3, 4):
            cases.append((annulus(*pq), r))
    cases.append((genus_one(1), 2))
    assert len(cases) >= 40
    for base, r in cases:
        g = enumerate_graph(base, radius=r)
        data = json.loads(json.dumps(graph_to_json(g)))
        h = graph_from_json(data)
        assert h.vertex_count() == g.vertex_count()
        assert h.unoriented_edges() == g.unoriented_edges()
        assert graph_to_json(h) == graph_to_json(g)
        v = rng.randrange(g.vertex_count())
        assert h.vertices[v].triangulation == g.vertices[v].triangulation


@pytest.fixture(scope="module")
def genus_one_r10_file() -> str:
    return json.dumps(graph_to_json(enumerate_graph(genus_one(1), radius=10)))


def test_a_loaded_graph_holds_no_slot_table_and_shares_rows(genus_one_r10_file):
    # a vertex's triangulation holds its surface and triangles only (see
    # test_a_triangulation_holds_its_surface_and_triangles_only)
    g = graph_from_json(json.loads(genus_one_r10_file))
    assert g.vertex_count() == 4381
    # equal rows of B and C, equal B and equal permutations are one object
    tuples = [row for vd in g.vertices for row in (*vd.seed.B, *vd.seed.C)]
    tuples += [vd.seed.B for vd in g.vertices]
    tuples += [step[2] for row in g.adj for step in row if step is not None]
    assert len({id(x) for x in tuples}) == len(set(tuples)) < len(tuples) / 10


def test_a_loaded_graph_retains_under_1_kb_per_vertex(genus_one_r10_file):
    data = json.loads(genus_one_r10_file)
    gc.collect()
    tracemalloc.start()
    try:
        g = graph_from_json(data)
        del data
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1024 * g.vertex_count()


def test_an_enumerated_polygon_10_retains_under_1600_bytes_per_vertex():
    gc.collect()
    tracemalloc.start()
    try:
        g = enumerate_graph(polygon_fan(10))
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.vertex_count() == 1430
    assert retained < 1600 * g.vertex_count()


def _memo_hits(g):
    """(u, v, k) of the first vertex u whose triangles an earlier vertex
    holds, then of the first made by a flip (triangles, arc, perm) made
    before; u was made by the flip of v at arc k, v its lowest neighbour
    and k the lowest arc of v to u."""
    held, flips, hits = {g.vertices[0].triangulation.triangles}, set(), [None, None]
    for u in range(1, g.vertex_count()):
        v = min(step[0] for step in g.adj[u] if step is not None)
        k = next(k for k, step in enumerate(g.adj[v]) if step is not None and step[0] == u)
        triangles = g.vertices[u].triangulation.triangles
        flip = (g.vertices[v].triangulation.triangles, k, g.adj[v][k][2])
        for i, met in enumerate((triangles in held, flip in flips)):
            if met and hits[i] is None:
                hits[i] = (u, v, k)
        held.add(triangles)
        flips.add(flip)
    return hits


def test_one_triangulation_and_one_b_per_distinct_triangles(genus_one_r10_file):
    # 4,381 clusters hold 24 distinct triangles: each build keeps one
    # triangulation of each, with the one shared B of its seeds
    for g in (enumerate_graph(genus_one(1), radius=10), graph_from_json(json.loads(genus_one_r10_file))):
        assert g.vertex_count() == 4381
        held = {id(vd.triangulation): vd.triangulation.triangles for vd in g.vertices}
        assert len(held) == len(set(held.values())) == 24
        assert len({(id(vd.triangulation), id(vd.seed.B)) for vd in g.vertices}) == 24


def _negated(B):
    return tuple(tuple(-x for x in row) for row in B)


@pytest.mark.parametrize("corrupt, named", [
    (lambda rec: rec.update(B=[[-x for x in row] for row in rec["B"]]),
     "B is not the exchange matrix of the triangles"),
    (lambda rec: rec["triangles"][0].__setitem__(0, "c1"), "malformed edge label 'c1'"),
], ids=["B", "triangles"])
def test_a_loaded_vertex_that_repeats_triangles_is_checked(corrupt, named):
    g = enumerate_graph(genus_one(1), radius=3)
    (u, _, _), _ = _memo_hits(g)
    data = json.loads(json.dumps(graph_to_json(g)))
    corrupt(data["vertices"][u])
    with pytest.raises(ValueError) as caught:
        graph_from_json(data)
    assert str(caught.value) == f"graph vertex {u}: {named}"


@pytest.mark.parametrize("hit", [0, 1], ids=["triangles-held", "flip-made"])
def test_flip_equals_mutation_is_checked_at_a_memo_hit(hit, monkeypatch):
    g = enumerate_graph(genus_one(1), radius=3)
    u, v, k = _memo_hits(g)[hit]
    mutate, calls = seeds._mutate, []

    def corrupt_at_u(B, k):
        # mutate_seed runs once for each new vertex, so call u makes vertex u
        calls.append(k)
        return _negated(mutate(B, k)) if len(calls) == u else mutate(B, k)

    monkeypatch.setattr(seeds, "_mutate", corrupt_at_u)
    with pytest.raises(CheckFailure) as caught:
        enumerate_graph(genus_one(1), radius=3)
    assert str(caught.value) == f"flip/mutation mismatch at vertex {v}, arc {k}"
    B = g.vertices[u].seed.B
    assert caught.value.detail == {"vertex": v, "arc": k, "flip": B, "mutation": _negated(B)}


def test_the_closure_check_records_no_steps(monkeypatch):
    walk, given = exchange._walk, set()

    def spy(adj, v, a, b, plan, steps):
        given.add(steps is None)
        return walk(adj, v, a, b, plan, steps)

    monkeypatch.setattr(exchange, "_walk", spy)
    assert relation_closure_check(enumerate_graph(polygon_fan(7)))["instances"] == 252
    assert given == {True}


# (base, radius) of the graphs the C-keyed BFS is checked on: fans and
# flip-walk starts of each surface
REFERENCE_SURFACES = [
    *[(f"polygon{m}", lambda m=m: polygon_fan(m), None) for m in range(4, 10)],
    ("annulus11", lambda: annulus(1, 1), 8),
    ("annulus21", lambda: annulus(2, 1), 5),
    ("annulus32", lambda: annulus(3, 2), 5),
    ("genus_one1", lambda: genus_one(1), 6),
    ("genus_one3", lambda: genus_one(3), 4),
]
REFERENCE_GRAPHS = [
    pytest.param(base, walk, radius, id=f"{name}-{'fan' if walk is None else f'walk{walk}'}")
    for name, base, radius in REFERENCE_SURFACES
    for walk in (None, 1, 2)
]


def _start(base, walk):
    return base() if walk is None else flipped(base(), walk)


@pytest.mark.parametrize("base, walk, radius", REFERENCE_GRAPHS)
def test_c_keyed_enumeration_matches_the_b_and_c_keyed_reference(base, walk, radius):
    t = _start(base, walk)
    g, ref = enumerate_graph(t, radius=radius), ref_enumerate_graph(t, radius=radius)
    assert (g.surface, g.radius) == (ref.surface, ref.radius)
    assert [(vd.triangulation, vd.seed, vd.depth, vd.frontier) for vd in g.vertices] == [
        (vd.triangulation, vd.seed, vd.depth, vd.frontier) for vd in ref.vertices
    ]
    assert g.adj == ref.adj


@pytest.mark.parametrize("base, walk, radius", REFERENCE_GRAPHS)
def test_c_determines_b_at_every_vertex(base, walk, radius):
    # B = C B0 C^T, the rows of C the c-vectors, at every vertex
    g = enumerate_graph(_start(base, walk), radius=radius)
    B0 = np.array(g.vertices[0].seed.B)
    for vd in g.vertices:
        C = np.array(vd.seed.C)
        assert (C @ B0 @ C.T == np.array(vd.seed.B)).all()
