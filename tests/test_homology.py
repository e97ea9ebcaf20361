import copy
import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flipgroupoid
from flipgroupoid.exchange import (
    CheckFailure,
    RelationKind,
    _walk_relations,
    enumerate_graph,
    graph_from_json,
    graph_to_json,
    relation_closure_check,
)
from flipgroupoid.homology import SparseMatrix, face_census, homology_h1, invariant_factors, two_cells
from flipgroupoid.surface import annulus, genus_one, polygon_fan

from oracles import (
    decoded_two_cells,
    flip_walk,
    flipped,
    ref_dense_boundary,
    ref_relation_closure_check,
    ref_search_tree,
    ref_smith_normal_form,
    ref_two_cells,
)
from oracles import ref_all_relation_instances as all_relation_instances


def sparse(rows) -> SparseMatrix:
    """Nested int rows as a SparseMatrix that lists only their nonzero entries."""
    return SparseMatrix(len(rows), [{r: x for r, x in enumerate(column) if x} for column in zip(*rows)])


def ref_factors(rows) -> list[int]:
    """The nonzero diagonal of the reference Smith normal form."""
    _, D, _ = ref_smith_normal_form(rows)
    return [d for d in (row[i] for i, row in enumerate(D) if i < len(row)) if d]


def test_snf_identity():
    U, D, V = ref_smith_normal_form(np.eye(3, dtype=int))
    assert np.diag(D).tolist() == [1, 1, 1]
    assert invariant_factors(sparse(np.eye(3, dtype=int).tolist())) == [1, 1, 1]


def test_snf_example():
    M = np.array([[2, 4], [6, 8]], dtype=object)
    U, D, V = ref_smith_normal_form(M)
    assert np.diag(D).tolist() == [2, 4]
    assert (U @ M @ V == D).all()
    assert invariant_factors(sparse(M.tolist())) == [2, 4]


def test_snf_zero():
    U, D, V = (np.array(T, dtype=object) for T in ref_smith_normal_form(np.zeros((2, 3), dtype=int)))
    assert (D == 0).all()
    assert invariant_factors(sparse([[0, 0, 0], [0, 0, 0]])) == []
    assert invariant_factors(SparseMatrix(2, [{}, {0: 0, 1: 0}, {1: 0}])) == []


def test_snf_random_agree_and_unimodular():
    rng = random.Random(7)
    for _ in range(80):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        M = np.array([[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)], dtype=object)
        U, D, V = (np.array(T, dtype=object) for T in ref_smith_normal_form(M))
        assert (U @ M @ V == D).all()
        # divisibility chain
        diag = [int(D[i, i]) for i in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0) or a == 0 and b == 0
        assert invariant_factors(sparse(M.tolist())) == [d for d in diag if d != 0]
        # transforms are unimodular: integer inverse exists iff det = +-1
        for T in (U, V):
            det = int(round(float(np.linalg.det(T.astype(np.float64)))))
            assert det in (-1, 1)


def test_torsion_detected():
    # boundary matrix of RP^2-style gluing has torsion Z/2
    assert invariant_factors(sparse([[2]])) == [2]
    # no unit entry anywhere: the gcd/lcm pass makes [2, 3] a chain
    assert invariant_factors(sparse([[2, 0], [0, 3]])) == [1, 6]
    assert invariant_factors(sparse([[4, 0, 0], [0, 6, 0], [0, 0, 9]])) == [1, 6, 36]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0, 1, -1, 2, -2, 3, -3, 6, -6]), min_size=c, max_size=c),
            min_size=1,
            max_size=6,
        )
    )
)
def test_invariant_factors_match_snf(rows):
    # unit pivots, fill-in, blocks without a unit and torsion all occur
    assert invariant_factors(sparse(rows)) == ref_factors(rows)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9]), min_size=c, max_size=c),
            min_size=1,
            max_size=6,
        )
    )
)
def test_invariant_factors_without_a_unit_entry_match_snf(rows):
    # every pivot is taken by Euclid steps: remainders in the pivot's row
    # and in its column are pivots in turn, and the gcd/lcm pass orders them
    M = sparse(rows)
    before = copy.deepcopy(M.columns)
    assert invariant_factors(M) == ref_factors(rows)
    assert M.columns == before


def test_face_census_hexagon():
    g = enumerate_graph(polygon_fan(6))
    census = face_census(g)
    # derived census of the 3d associahedron: 3 squares, 6 pentagons
    # (the value is authoritative over the introduction's claim of 4 squares)
    assert census == {"squares": 3, "pentagons": 6}
    v, e = g.vertex_count(), len(g.unoriented_edges())
    assert v - e + sum(census.values()) == 2  # sphere


def test_cell_multiplicity_bookkeeping():
    g = enumerate_graph(polygon_fan(6))
    cells = decoded_two_cells(g)
    per_vertex = g.vertex_count() * 3  # C(3,2) pairs per vertex
    squares = sum(c.kind.value == "Square" for c in cells)
    pentagons = sum(c.kind.value == "Pentagon" for c in cells)
    assert squares * 4 + pentagons * 5 == per_vertex


@pytest.mark.parametrize("m", [5, 6, 7, 8, 9])
def test_two_cells_match_corner_dedup_reference(m):
    # one cell from its lowest corner is the first copy the dedup kept;
    # the far corner of a square must count towards "lowest"
    starts = [polygon_fan(m)] + [flip_walk(m, seed) for seed in range(8)]
    for i, t in enumerate(starts):
        g = enumerate_graph(t)
        cells = [(c.kind, c.edges) for c in decoded_two_cells(g)]
        assert len(set(cells)) == len(cells), i
        assert set(cells) == {(c.kind, c.edges) for c in ref_two_cells(g)}, i


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 9), st.one_of(st.none(), st.integers(0, 2**16)))
def test_each_relator_is_a_closed_path(m, walk_seed):
    # a fan, or the start a flip walk reaches
    g = enumerate_graph(polygon_fan(m) if walk_seed is None else flip_walk(m, walk_seed))
    stride = g.n + 1
    cells = two_cells(g)
    assert cells
    for kind, relator in cells:
        assert type(relator) is tuple
        assert len(relator) == {RelationKind.SQUARE: 4, RelationKind.PENTAGON: 5}[kind]
        ids = [abs(d) for d in relator]
        assert len(set(ids)) == len(ids)
        path = []
        for d in relator:
            v, k = divmod(abs(d), stride)
            u, k2, _ = g.adj[v][k]
            assert v * stride + k < u * stride + k2  # the id names the lower end
            path.append((v, u) if d > 0 else (u, v))
        # each step starts where the one before it ends, the last at the first
        for (_, head), (tail, _) in zip(path, path[1:] + path[:1]):
            assert head == tail


def test_h1_of_polygon_10_peaks_under_1400_bytes_per_cell():
    g = enumerate_graph(polygon_fan(10))
    gc.collect()
    tracemalloc.start()
    try:
        assert homology_h1(g) == (0, [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = sum(face_census(g).values())
    assert cells == 7007
    assert peak < 1400 * cells


def test_invariant_factors_of_polygon_10_peaks_under_700_bytes_per_column(monkeypatch):
    # the kernel alone, on the boundary matrix homology_h1 hands it
    boundaries = []
    monkeypatch.setattr(flipgroupoid.homology, "invariant_factors", lambda M: boundaries.append(M) or [])
    homology_h1(enumerate_graph(polygon_fan(10)))
    M, = boundaries
    assert M.shape == (3576, 7007)
    gc.collect()
    tracemalloc.start()
    try:
        assert invariant_factors(M) == [1] * 3576
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 700 * M.shape[1]


@pytest.mark.parametrize("m", [5, 6, 7, 8, 9, 10])
def test_homology_trivial(m):
    betti, torsion = homology_h1(enumerate_graph(polygon_fan(m)))
    assert betti == 0 and torsion == []


@pytest.mark.slow
def test_homology_trivial_polygon_11():
    # the Catalan number C_9 of vertices, one side past the parametrized range
    g = enumerate_graph(polygon_fan(11))
    assert g.vertex_count() == 4862
    assert homology_h1(g) == (0, [])


def test_pentagon_complex_counts():
    g = enumerate_graph(polygon_fan(5))
    assert g.vertex_count() == 5 and len(g.unoriented_edges()) == 5
    assert face_census(g) == {"squares": 0, "pentagons": 1}
    assert homology_h1(g) == (0, [])


def test_homology_requires_complete_graph():
    g = enumerate_graph(annulus(1, 1), radius=3)
    with pytest.raises(ValueError):
        homology_h1(g)


def test_a_disconnected_graph_raises_with_its_witness(monkeypatch):
    # cut the hexagon graph's last vertex off: vertex 0 reaches the 13 others
    g = enumerate_graph(polygon_fan(6))
    last = g.vertex_count() - 1
    adj = [list(row) for row in g.adj]
    for k, (u, k2, _) in enumerate(adj[last][1:], 1):
        adj[last][k] = adj[u][k2] = None
    monkeypatch.setattr(g, "adj", adj)
    with pytest.raises(CheckFailure, match=f"does not reach {last}$") as caught:
        homology_h1(g)
    assert caught.value.detail == {"reached": last, "vertices": last + 1, "unreached": last}
    monkeypatch.undo()
    assert homology_h1(g) == (0, [])


def test_h1_hands_the_tracer_a_sparse_matrix_it_keeps(monkeypatch):
    # perfbench reads shape, (M != 0).sum() after the call returns
    from flipgroupoid import homology

    seen = []
    real = homology.invariant_factors

    def spy(M):
        seen.append((M, copy.deepcopy(M.columns)))
        return real(M)

    monkeypatch.setattr(homology, "invariant_factors", spy)
    g = enumerate_graph(polygon_fan(6))
    assert homology_h1(g) == (0, [])
    [(M, before)] = seen
    cells = decoded_two_cells(g)
    ref = ref_dense_boundary(g, cells, ref_search_tree(g, breadth_first=True))
    assert M.shape == ref.shape == (len(g.unoriented_edges()) - g.vertex_count() + 1, len(two_cells(g)))
    assert int((M != 0).sum()) == np.count_nonzero(ref) > 0
    assert M.columns == before
    dense = np.zeros(M.shape, dtype=np.int8)
    for c, col in enumerate(M.columns):
        for r, x in col.items():
            dense[r, c] = x
    assert (dense == ref).all()
    # H1 does not depend on the tree: the stack-searched tree gives another
    # matrix with the same Smith form
    other = ref_dense_boundary(g, cells, ref_search_tree(g, breadth_first=False))
    assert other.shape == ref.shape and (other != ref).any()
    assert ref_factors(other.tolist()) == ref_factors(ref.tolist()) == invariant_factors(M)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0, None, 1, -1, 2, -2, 3, -3, 6, -6]), min_size=c, max_size=c),
            min_size=1,
            max_size=6,
        )
    )
)
def test_invariant_factors_of_sparse_columns_match_nested_lists(entries):
    # None is a 0 listed in its column, as a cancelled entry would be:
    # the kernel's copy must drop it
    rows = [[x or 0 for x in row] for row in entries]
    cols = [{r: row[c] or 0 for r, row in enumerate(entries) if row[c] != 0} for c in range(len(rows[0]))]
    M = SparseMatrix(len(rows), cols)
    before = copy.deepcopy(cols)
    assert int((M != 0).sum()) == sum(x != 0 for row in rows for x in row)
    assert invariant_factors(M) == ref_factors(rows)
    assert M.columns == before and M.shape == (len(rows), len(rows[0]))


def test_listed_zero_in_a_pivot_column():
    # column 0 is the first pivot and lists a 0 in row 1, which column 1 lacks
    assert invariant_factors(SparseMatrix(3, [{0: 1, 1: 0}, {0: 1, 2: 1}])) == [1, 1]


def test_invariant_factors_leave_their_input_alone():
    M = sparse([[2, 1, 0], [1, 0, 3], [0, 6, -6]])
    before = copy.deepcopy(M.columns)
    assert invariant_factors(M) == [1, 1, 30]
    assert M.columns == before and M.shape == (3, 3)


def test_matrix_entries_must_be_ints():
    with pytest.raises(TypeError):
        invariant_factors(SparseMatrix(1, [{0: 1.0}, {0: 2}]))
    with pytest.raises(TypeError):
        invariant_factors(SparseMatrix(2, [{0: 2}, {1: 0.0}]))
    with pytest.raises(TypeError):
        ref_smith_normal_form(np.array([[0.5]]))
    with pytest.raises(ValueError):
        ref_smith_normal_form([[1, 2], [3]])


def test_no_module_imports_numpy():
    import ast
    from pathlib import Path

    import flipgroupoid

    importers = set()
    for path in Path(flipgroupoid.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                importers.add(path.name)
    assert importers == set()


def test_cli_import_leaves_numpy_unloaded():
    src = str(Path(flipgroupoid.__file__).parents[1])
    code = "import sys, flipgroupoid.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


# -- the int relation walker against the RelationInstance references --------

# (base triangulation, radius): complete polygon graphs, and balls of the
# annuli and the torus, whose frontier leaves instances incomplete
WALKER_STARTS = st.one_of(
    st.tuples(st.sampled_from([polygon_fan(m) for m in range(5, 10)]), st.none()),
    st.tuples(st.sampled_from([annulus(2, 1), annulus(3, 2)]), st.integers(2, 6)),
    st.tuples(st.just(genus_one(1)), st.integers(0, 6)),
)


def _cells(g):
    return [(c.kind, c.edges) for c in decoded_two_cells(g)]


@settings(max_examples=60)
@given(WALKER_STARTS, st.integers(0, 2**32 - 1))
def test_walker_matches_the_instance_references(start, seed):
    base, radius = start
    g = enumerate_graph(flipped(base, seed), radius=radius)
    report = relation_closure_check(g, allow_incomplete=True)
    assert report == ref_relation_closure_check(g, allow_incomplete=True)
    # each walked instance in the reference's order, with both sides' steps
    # and the lowest vertex of its walks (its far corner included), or None
    # for both where it is incomplete
    assert list(_walk_relations(g)) == [
        (i.base, i.kind, i.arcs, (i.left_steps, i.right_steps) if i.complete else None,
         min(i.left_end, *(v for v, _ in i.left_steps + i.right_steps)) if i.complete else None)
        for i in all_relation_instances(g)
    ]
    if g.is_complete():
        cells = _cells(g)
        assert len(set(cells)) == len(cells)
        assert set(cells) == {(c.kind, c.edges) for c in ref_two_cells(g)}


def _outcome(check, g):
    """What ``check(g)`` returns, or the message of the RuntimeError it raises."""
    try:
        return check(g)
    except RuntimeError as exc:
        return str(exc)


@settings(max_examples=60)
@given(st.data())
def test_corrupted_graph_fails_where_the_references_fail(data):
    # swap the targets of two edges that enter the same arc slot, so that
    # the file still loads; the walks then may not close, at any corner
    complete = data.draw(st.booleans(), label="complete")
    if complete:
        base, radius = polygon_fan(data.draw(st.integers(5, 8), label="m")), None
    else:
        base, radius = annulus(2, 1), 5
    # the edges are drawn uniformly, not shrunk towards the first ones, which
    # all meet vertex 0, the lowest corner of every instance there
    rng = data.draw(st.randoms(use_true_random=False))
    g = enumerate_graph(flipped(base, rng.randrange(2**32)), radius)
    d = json.loads(json.dumps(graph_to_json(g)))
    edges = d["edges"]
    i = rng.randrange(len(edges))
    _, _, u, k2 = edges[i]["ends"]
    others = [j for j, e in enumerate(edges) if e["ends"][3] == k2 and e["ends"][2] != u]
    assume(others)
    j = rng.choice(others)
    edges[i]["ends"][2], edges[j]["ends"][2] = edges[j]["ends"][2], u
    try:
        bad = graph_from_json(d)
    except ValueError:
        assume(False)
    closure = _outcome(lambda h: relation_closure_check(h, allow_incomplete=True), bad)
    assert closure == _outcome(lambda h: ref_relation_closure_check(h, allow_incomplete=True), bad)
    if not complete:
        return
    # a polygon has no dumbbell, so the cells fail where the closure fails
    ref_cells = _outcome(ref_two_cells, bad)
    if isinstance(closure, str):
        assert _outcome(two_cells, bad) == closure
        assert ref_cells == "relation instance does not close"
    else:
        assert set(_cells(bad)) == {(c.kind, c.edges) for c in ref_cells}
