import random
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipgroupoid.surface import (
    MarkedSurface,
    Triangulation,
    annulus,
    genus_one,
    polygon_fan,
)

from oracles import (
    ref_arc_chords,
    ref_canonical_triangles,
    ref_corner_classes,
    ref_dual_graph,
    ref_exchange_matrix,
    ref_flip,
    ref_quiver,
    ref_relabel,
    ref_shared_count,
    ref_validate,
)


def test_surface_invariants():
    s = MarkedSurface(0, (6,))
    assert (s.b, s.m, s.arc_count, s.triangle_count) == (1, 6, 3, 4)
    assert MarkedSurface(0, (1, 1)).arc_count == 2
    assert MarkedSurface(1, (1,)).arc_count == 4


@pytest.mark.parametrize(
    "bad",
    [
        dict(genus=0, boundaries=()),
        dict(genus=0, boundaries=(0, 2)),
        dict(genus=0, boundaries=(3,)),
        dict(genus=-1, boundaries=(5,)),
    ],
)
def test_surface_rejects(bad):
    with pytest.raises(ValueError):
        MarkedSurface(**bad)


def test_polygon_fan_examples():
    t4 = polygon_fan(4)
    assert t4.n == 1 and len(t4.triangles) == 2
    t6 = polygon_fan(6)
    assert t6.arc_labels() == ["a1", "a2", "a3"]
    assert len(t6.triangles) == 4
    t5 = polygon_fan(5)
    assert t5.n == 2 and len(t5.triangles) == 3
    with pytest.raises(ValueError):
        polygon_fan(3)


def test_flip_hexagon_middle():
    t6 = polygon_fan(6)
    f = t6.flip(2)
    # 03 replaced by 24: the inner triangle (a1,a2,a3) appears
    assert ("a1", "a2", "a3") in f.triangles
    assert f.flip(2) == t6


def test_flip_unknown_arc():
    with pytest.raises(ValueError):
        polygon_fan(5).flip(7)


def test_flip_involution_random():
    rng = random.Random(11)
    bases = [polygon_fan(m) for m in (4, 5, 6, 7, 8)]
    bases += [annulus(1, 1), annulus(2, 1), annulus(2, 2), genus_one(1), genus_one(2)]
    for _ in range(1000):
        t = rng.choice(bases)
        for _ in range(rng.randrange(0, 6)):
            t = t.flip(rng.randrange(1, t.n + 1))
        a = rng.randrange(1, t.n + 1)
        assert t.flip(a).flip(a) == t


def test_flip_validates_on_every_result():
    rng = random.Random(5)
    for base in [polygon_fan(7), annulus(2, 2), genus_one(2)]:
        t = base
        for _ in range(30):
            t = t.flip(rng.randrange(1, t.n + 1))
            t.validate()  # counts and Euler characteristic from vertex cycles


FLIP_BASES = [polygon_fan(m) for m in range(4, 10)]
FLIP_BASES += [annulus(1, 1), annulus(2, 1), annulus(3, 2), genus_one(1), genus_one(3)]


@given(st.sampled_from(FLIP_BASES), st.lists(st.integers(0, 10**6), max_size=20),
       st.integers(0, 10**6), st.randoms(use_true_random=False))
def test_flip_with_perm_is_the_flip_relabelled(base, steps, arc, rng):
    t = base
    for step in steps:
        t = t.flip(1 + step % t.n)
    k = 1 + arc % t.n
    perm = list(range(1, t.n + 1))
    rng.shuffle(perm)
    perm = tuple(perm)
    got = t.flip(k, perm)
    assert got == ref_relabel(t.flip(k), perm) == ref_relabel(ref_flip(t, k), perm)
    assert t.flip(k, tuple(range(1, t.n + 1))) == t.flip(k) == ref_flip(t, k)


@pytest.mark.parametrize("perm", [(1, 1), (1,), (0, 1), (2, 3), (1, 2, 3)])
def test_flip_refuses_a_perm_that_is_not_a_permutation(perm):
    with pytest.raises(ValueError, match="not a permutation of 1..2"):
        polygon_fan(5).flip(1, perm)


def _abs_b(t) -> dict[tuple[int, int], int]:
    """|b_ij| for each pair of arcs i < j with b_ij != 0, every pair's
    |b_ij| checked against the slot reference's shared-triangle count."""
    B = t.exchange_matrix()
    out = {}
    for i in range(1, t.n + 1):
        for j in range(i + 1, t.n + 1):
            assert abs(B[i - 1][j - 1]) == ref_shared_count(t, i, j)
            if B[i - 1][j - 1]:
                out[i, j] = abs(B[i - 1][j - 1])
    return out


def test_classify_pairs():
    # arcs a1, a3 of the hexagon fan share no triangle, a1, a2 one; the
    # two arcs of the once-marked annulus share both its triangles
    assert _abs_b(polygon_fan(6)) == {(1, 2): 1, (2, 3): 1}
    assert _abs_b(annulus(1, 1)) == {(1, 2): 2}


def test_annulus_counts():
    a = annulus(1, 1)
    assert a.n == 2 and len(a.triangles) == 2
    b = annulus(2, 1)
    assert b.n == 3 and len(b.triangles) == 3
    # flipping either arc keeps the shared-triangle count
    for arc in (1, 2):
        f = annulus(1, 1).flip(arc)
        assert _abs_b(f) == {(1, 2): 2}


def test_quadrilateral():
    t6 = polygon_fan(6)
    assert t6.quadrilateral(2) == ("a1", "b0.2", "b0.3", "a3")
    t4 = polygon_fan(4)
    assert t4.quadrilateral(1) == ("b0.0", "b0.1", "b0.2", "b0.3")
    a = annulus(1, 1)
    quad = a.quadrilateral(1)
    assert quad.count("a2") == 2


def test_quiver_fan_is_linear():
    q = polygon_fan(6).quiver()
    assert q.b_entry(1, 2) == 1 and q.b_entry(2, 3) == 1 and q.b_entry(1, 3) == 0
    assert q.terms == ()


def test_quiver_inner_triangle():
    q = polygon_fan(6).flip(2).quiver()
    assert sorted(q.potential_vertex_terms()) == [(1, 3, 2)]
    assert abs(q.b_entry(1, 2)) == 1 and abs(q.b_entry(2, 3)) == 1 and abs(q.b_entry(1, 3)) == 1


def test_quiver_annulus_kronecker():
    q = annulus(1, 1).quiver()
    assert abs(q.b_entry(1, 2)) == 2
    assert q.terms == ()


def test_arrow_shared_triangle_correspondence_samples():
    rng = random.Random(23)
    for base in [polygon_fan(8), annulus(2, 2), genus_one(1)]:
        t = base
        for _ in range(40):
            t = t.flip(rng.randrange(1, t.n + 1))
            q = t.quiver()
            for i in range(1, t.n + 1):
                for j in range(i + 1, t.n + 1):
                    assert abs(q.b_entry(i, j)) == ref_shared_count(t, i, j)


def test_dual_graph():
    assert polygon_fan(6).dual_graph() == ((0, 1, 1), (1, 2, 2), (2, 3, 3))
    assert polygon_fan(4).dual_graph() == ((0, 1, 1),)
    assert annulus(1, 1).dual_graph() == ((0, 1, 1), (0, 1, 2))


def test_genus_one_counts():
    for m in (1, 2, 3):
        t = genus_one(m)
        assert t.n == m + 3
        assert len(t.triangles) == m + 2
        t.validate()


def test_json_roundtrip():
    for t in [polygon_fan(6), annulus(2, 1), genus_one(2)]:
        assert Triangulation.from_json(t.to_json()) == t


def test_json_deterministic():
    t = polygon_fan(6)
    assert t.dumps() == polygon_fan(6).dumps()


def test_edge_sort_key_rejects_malformed_labels_with_a_warm_memo():
    from flipgroupoid import surface

    polygon_fan(7).to_json()  # fills the memo with a1..a4 and b0.0..b0.6
    assert surface._edge_sort_key("a3") == (0, 3, 0)
    assert surface._edge_sort_key("b0.6") == (1, 0, 6)
    size = surface._edge_sort_key.cache_info().currsize
    assert size >= 11
    for bad in ("c1", "a", "b0", "b0.x", "a1 ", ""):
        for _ in range(2):
            with pytest.raises(ValueError, match="malformed edge label"):
                surface._edge_sort_key(bad)
    assert surface._edge_sort_key.cache_info().currsize == size


def test_arc_count_computed_once_per_surface():
    s = MarkedSurface(1, (3,))
    assert s.arc_count == 6
    assert vars(s)["arc_count"] == 6  # kept on the instance after validation
    assert s == MarkedSurface(1, (3,)) and hash(s) == hash(MarkedSurface(1, (3,)))


WALK_BASES = [
    polygon_fan(5),
    polygon_fan(8),
    annulus(1, 1),
    annulus(2, 2),
    annulus(3, 2),
    genus_one(1),
    genus_one(3),
]


def _walk(base, steps):
    t = base
    yield t
    for step in steps:
        t = t.flip(1 + step % t.n)
        yield t


def _partition(class_ids) -> list[int]:
    """Each corner's class named by the first corner in it."""
    first: dict = {}
    return [first.setdefault(c, i) for i, c in enumerate(class_ids)]


@given(st.sampled_from(WALK_BASES), st.lists(st.integers(0, 10**6), max_size=30))
def test_corner_classes_match_tuple_reference(base, steps):
    for t in _walk(base, steps):
        flat = t._corner_classes()
        ref = ref_corner_classes(t)
        assert len(flat) == len(ref) == 3 * len(t.triangles)
        assert _partition(flat) == _partition(ref[(c // 3, c % 3)] for c in range(len(flat)))
        assert t._vertex_count() == len(set(ref.values())) == t.surface.m


@given(st.sampled_from(FLIP_BASES), st.lists(st.integers(0, 10**6), max_size=30))
def test_triangle_facts_match_the_slot_references(base, steps):
    for t in _walk(base, steps):
        if t.surface.is_disc:
            assert t.arc_chords() == ref_arc_chords(t)
        assert t.dual_graph() == ref_dual_graph(t)
        assert set(_abs_b(t).values()) <= {1, 2}
        q, ref = t.quiver(), ref_quiver(t)
        assert (q.B, q.arrows, q.terms) == (ref.B, ref.arrows, ref.terms)


def test_a_triangulation_holds_its_surface_and_triangles_only():
    t = polygon_fan(7).flip(2)
    assert Triangulation.__slots__ == ("surface", "triangles")
    assert not hasattr(t, "__dict__")
    assert hash(t) == hash((t.surface, t.triangles))


# gluings with every label used the right number of times but the wrong
# marked points, each with the message validate gave on tuple-keyed corners
BAD_GLUINGS = [
    (polygon_fan(5), [("b0.0", "b0.4", "b0.2"), ("b0.1", "a1", "a2"), ("a1", "b0.3", "a2")],
     "map has 6 vertices, surface has m=5"),
    (annulus(1, 1), [("a1", "b1.0", "a2"), ("b0.0", "a1", "a2")],
     "map has 3 vertices, surface has m=2"),
    (genus_one(1), [("b0.0", "a1", "a3"), ("a2", "a4", "a1"), ("a3", "a4", "a2")],
     "map has 3 vertices, surface has m=1"),
]


@pytest.mark.parametrize("base, triangles, message", BAD_GLUINGS,
                         ids=["polygon5", "annulus11", "genus-one1"])
def test_bad_gluing_message(base, triangles, message):
    with pytest.raises(ValueError) as info:
        Triangulation(base.surface, triangles)
    assert str(info.value) == message


@given(st.sampled_from(WALK_BASES), st.randoms(use_true_random=False))
def test_shuffled_gluings_rejected_as_by_the_reference(base, rng):
    labels = [lab for tri in base.triangles for lab in tri]
    rng.shuffle(labels)
    triangles = [labels[i:i + 3] for i in range(0, len(labels), 3)]
    if any(len(set(tri)) < 3 for tri in triangles):
        return  # rejected by the constructor before any corner is read
    t = Triangulation(base.surface, triangles, validate=False)
    v = len(set(ref_corner_classes(t).values()))
    m = base.surface.m
    if v == m:  # then the Euler characteristic matches too
        t.validate()
        return
    with pytest.raises(ValueError) as info:
        t.validate()
    assert str(info.value) == f"map has {v} vertices, surface has m={m}"


REF_BASES = [polygon_fan(m) for m in range(5, 10)]
REF_BASES += [annulus(1, 1), annulus(3, 2), genus_one(1), genus_one(3)]


@given(st.sampled_from(REF_BASES), st.lists(st.integers(0, 10**6), max_size=30),
       st.randoms(use_true_random=False))
def test_triangulations_match_the_reference(base, steps, rng):
    for t in _walk(base, steps):
        # the same triangles in another order, each turned by a random offset
        scrambled = [tri[k:] + tri[:k] for tri in t.triangles for k in [rng.randrange(3)]]
        rng.shuffle(scrambled)
        u = Triangulation(t.surface, scrambled)
        assert u.triangles == t.triangles == ref_canonical_triangles(scrambled)
        assert u == t and hash(u) == hash(t)
        ref_validate(u)
        assert u.exchange_matrix() == ref_exchange_matrix(u) == u.quiver().B


def _outcome(check, t):
    try:
        check(t)
    except ValueError as exc:
        return str(exc)
    return None


@given(st.sampled_from(REF_BASES), st.randoms(use_true_random=False),
       st.sampled_from(["shuffle", "rename", "drop"]))
def test_validate_matches_the_reference_on_bad_gluings(base, rng, how):
    labels = [lab for tri in base.triangles for lab in tri]
    surf = base.surface
    if how == "shuffle":
        rng.shuffle(labels)
    elif how == "rename":
        # one side takes another label of the surface, or one it lacks
        others = sorted(set(labels)) + [f"a{surf.arc_count + 1}", f"b0.{surf.m}", f"b{surf.b}.0"]
        labels[rng.randrange(len(labels))] = rng.choice(others)
    triangles = [labels[i:i + 3] for i in range(0, len(labels), 3)]
    if how == "drop":
        del triangles[rng.randrange(len(triangles))]
    if any(len(set(tri)) < 3 for tri in triangles):
        return  # rejected by the constructor before validate runs
    t = Triangulation(surf, triangles, validate=False)
    assert _outcome(Triangulation.validate, t) == _outcome(ref_validate, t)


# how _corrupted spoils a walked triangulation's triangles
CORRUPTIONS = ["none", "swap", "drop", "repeat", "repeat-over", "reglue"]


def _corrupted(base, steps, rng, how):
    """The triangulation walked from ``base`` by ``steps``, unvalidated,
    with its triangles spoilt ``how``: two sides swapped, a triangle
    dropped, a triangle repeated (added, or in place of another), or one
    triangle turned over, which keeps every label's count but re-glues
    its corners.  None when a triangle then repeats a side, which the
    constructor refuses before ``validate`` runs."""
    *_, t = _walk(base, steps)
    triangles = [list(tri) for tri in t.triangles]
    if how == "swap":
        sides = [lab for tri in triangles for lab in tri]
        i, j = rng.sample(range(len(sides)), 2)
        sides[i], sides[j] = sides[j], sides[i]
        triangles = [sides[k:k + 3] for k in range(0, len(sides), 3)]
    elif how == "drop":
        del triangles[rng.randrange(len(triangles))]
    elif how == "repeat":
        triangles.append(rng.choice(triangles))
    elif how == "repeat-over":
        i, j = rng.sample(range(len(triangles)), 2)
        triangles[i] = triangles[j]
    elif how == "reglue":
        rng.choice(triangles).reverse()
    if any(len(set(tri)) < 3 for tri in triangles):
        return None
    return Triangulation(t.surface, triangles, validate=False)


@given(st.sampled_from(REF_BASES), st.lists(st.integers(0, 10**6), max_size=20),
       st.randoms(use_true_random=False), st.sampled_from(CORRUPTIONS))
def test_validate_matches_the_slot_table_reference(base, steps, rng, how):
    t = _corrupted(base, steps, rng, how)
    if t is None:
        return
    assert _outcome(Triangulation.validate, t) == _outcome(ref_validate, t)


def _corner_classes_one_corner_off(self):
    # Triangulation._corner_classes with one union moved: an arc's second
    # slot is joined to the corner where its first slot starts, not to the
    # corner after it
    parent = list(range(3 * len(self.triangles)))
    first = {}
    for c, lab in enumerate(chain.from_iterable(self.triangles)):
        if lab[0] != "a":
            continue
        c1 = first.pop(lab, None)
        if c1 is None:
            first[lab] = c
            continue
        after = c + 1 if c % 3 != 2 else c - 2
        for x, y in ((c1, after), (c, c1)):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            parent[y] = x
    for c in range(len(parent)):
        root = c
        while parent[root] != root:
            root = parent[root]
        parent[c] = root
    return parent


def test_a_corner_class_mutant_fails_the_reference_comparison(monkeypatch):
    cases = [_corrupted(base, [seed, 7 * seed + 1], random.Random(seed), how)
             for seed in range(8) for base in REF_BASES for how in CORRUPTIONS]
    cases = [t for t in cases if t is not None]
    want = [_outcome(ref_validate, t) for t in cases]
    # the corpus reaches every stage: accepted, miscounted and mis-glued
    assert None in want
    assert any(w and w.startswith("edge ") for w in want)
    assert any(w and w.startswith("map has") for w in want)
    assert [_outcome(Triangulation.validate, t) for t in cases] == want
    monkeypatch.setattr(Triangulation, "_corner_classes", _corner_classes_one_corner_off)
    assert [_outcome(Triangulation.validate, t) for t in cases] != want


def test_triangle_memo_keeps_no_malformed_triangle():
    from flipgroupoid import surface

    base = polygon_fan(6)
    Triangulation(base.surface, base.triangles)
    size = surface._keyed_triangle.cache_info().currsize
    bad = [
        (("a1", "a1", "b0.0"), "three distinct sides"),
        (("a1", "b0.0"), "three distinct sides"),
        (("a1", "b0.1", "b0.2", "a2"), "three distinct sides"),
        (("a1", "c1", "b0.0"), "malformed edge label"),
    ]
    for tri, message in bad:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                Triangulation(base.surface, [tri, *base.triangles[1:]], validate=False)
    assert surface._keyed_triangle.cache_info().currsize == size


def test_edges_table_is_the_surface_s():
    t = genus_one(2)
    assert t.to_json()["edges"] == {
        "a1": {"kind": "arc"}, "a2": {"kind": "arc"}, "a3": {"kind": "arc"},
        "a4": {"kind": "arc"}, "a5": {"kind": "arc"},
        "b0.0": {"kind": "boundary", "component": 0, "position": 0},
        "b0.1": {"kind": "boundary", "component": 0, "position": 1},
    }
    assert t.to_json()["edges"] is not t.to_json()["edges"]  # a fresh copy each time

