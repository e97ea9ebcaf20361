import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipgroupoid.exchange import enumerate_graph
from flipgroupoid.homology import (
    face_census,
    homology_h1,
    invariant_factors,
    smith_normal_form,
    two_cells,
)
from flipgroupoid.surface import annulus, polygon_fan

from oracles import flip_walk, ref_two_cells


def test_snf_identity():
    U, D, V = smith_normal_form(np.eye(3, dtype=int))
    assert np.diag(D).tolist() == [1, 1, 1]


def test_snf_example():
    M = np.array([[2, 4], [6, 8]], dtype=object)
    U, D, V = smith_normal_form(M)
    assert np.diag(D).tolist() == [2, 4]
    assert (U @ M @ V == D).all()


def test_snf_zero():
    U, D, V = smith_normal_form(np.zeros((2, 3), dtype=int))
    assert (D == 0).all()
    assert invariant_factors(np.zeros((2, 3), dtype=int)) == []


def test_snf_random_agree_and_unimodular():
    rng = random.Random(7)
    for _ in range(80):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        M = np.array([[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)], dtype=object)
        U, D, V = smith_normal_form(M)
        assert (U @ M @ V == D).all()
        # divisibility chain
        diag = [int(D[i, i]) for i in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0) or a == 0 and b == 0
        assert invariant_factors(M) == [d for d in diag if d != 0]
        # transforms are unimodular: integer inverse exists iff det = +-1
        for T in (U, V):
            det = int(round(float(np.linalg.det(T.astype(np.float64)))))
            assert det in (-1, 1)


def test_torsion_detected():
    # boundary matrix of RP^2-style gluing has torsion Z/2
    assert invariant_factors([[2]]) == [2]
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]


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
    # unit pivots, fill-in, residual-only and torsion blocks all occur
    M = np.array(rows, dtype=object)
    _, D, _ = smith_normal_form(M)
    assert invariant_factors(M) == [abs(int(d)) for d in np.diag(D) if d != 0]


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
    cells = two_cells(g)
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
        cells = [(c.kind, c.edges) for c in two_cells(g)]
        assert len(set(cells)) == len(cells), i
        assert set(cells) == {(c.kind, c.edges) for c in ref_two_cells(g)}, i


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


def test_h1_hands_invariant_factors_a_2d_array(monkeypatch):
    from flipgroupoid import homology

    seen = []
    real = homology.invariant_factors

    def spy(M):
        seen.append(M)
        return real(M)

    monkeypatch.setattr(homology, "invariant_factors", spy)
    assert homology_h1(enumerate_graph(polygon_fan(6))) == (0, [])
    [M] = seen
    assert isinstance(M, np.ndarray) and M.ndim == 2 and M.dtype == np.int8


def test_only_homology_imports_numpy():
    # the matrix format stays behind one module: seeds hold tuples of int tuples
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
    assert importers == {"homology.py"}
