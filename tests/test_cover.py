import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipgroupoid import cover
from flipgroupoid.braid import BraidWord, equal, is_identity
from flipgroupoid.cover import (
    BraidOracle,
    FreeGroupOracle,
    TwistFrame,
    base_frame,
    build_cover_ball,
    disc_start_frame,
    frame_at,
    frame_transport_move,
    inverse_word,
    oracle_for_surface,
    transport_frame,
)
from flipgroupoid.exchange import all_relation_instances, enumerate_graph, relation_instances
from flipgroupoid.surface import MarkedSurface, annulus, genus_one, polygon_fan

# shared across hypothesis examples, so later examples meet a filled memo
ORACLES = [BraidOracle(4), BraidOracle(5), FreeGroupOracle(3)]


def test_oracle_selection():
    assert oracle_for_surface(MarkedSurface(0, (6,))).kind == "braid"
    assert oracle_for_surface(MarkedSurface(0, (1, 1))).kind == "free"
    assert oracle_for_surface(MarkedSurface(1, (1,))) is None


def test_base_frame_is_standard_generators():
    f = base_frame(MarkedSurface(0, (6,)))
    assert f.entries == ((1,), (2,), (3,))


def test_frame_entry_shape_guard():
    o = BraidOracle(3)
    with pytest.raises(ValueError):
        TwistFrame(((1, 1),), o)


def test_transport_a1_trivial():
    f = base_frame(MarkedSurface(0, (4,)))
    q = polygon_fan(4).quiver()
    assert transport_frame(f, q, 1) == f


def test_transport_hexagon_middle_flip():
    # arrows 1->2->3; flipping 2 conjugates entry 1 by entry 2, fixes the rest
    f = base_frame(MarkedSurface(0, (6,)))
    out = transport_frame(f, polygon_fan(6).quiver(), 2)
    o = f.oracle
    assert out.entries[0] == o.canon((-2, 1, 2))
    assert out.entries[1] == (2,)
    assert out.entries[2] == (3,)


def test_conjugation_formula_direction():
    """Pin the direction of the transport formula via its defining checks.

    Crossing one forward mutation at k: the entry at the mutated edge and
    every entry with no arrow into k pass through unchanged (the t_j and
    t_i checks of the formula), an entry with an arrow into k is
    conjugated by the entry at k.  Around the full 2-cycle loop at k the
    frame is conjugated entrywise by the entry at k, matching a deck
    label equal to its inverse (the negative twist)."""
    g = enumerate_graph(polygon_fan(6))
    frame_c = frame_at(g, 0)  # (s1, s2, s3), arrows 1 -> 2 -> 3
    o = frame_c.oracle
    u, frame_u = frame_transport_move(g, frame_c, 0, 2, forward=True)
    perm = g.edge_perm[(0, 2)]
    # entry at the mutated edge: unchanged
    assert frame_u.entries[perm[1] - 1] == frame_c.entries[1]
    # no arrow 3 -> 2: unchanged
    assert frame_u.entries[perm[2] - 1] == frame_c.entries[2]
    # arrow 1 -> 2: conjugated by the entry at 2
    assert frame_u.entries[perm[0] - 1] == o.conj(frame_c.entries[0], frame_c.entries[1])
    # around the loop t_2: whole frame conjugated by entry 2, deck = entry^-1
    v1, f1 = frame_transport_move(g, frame_c, 0, 2, forward=True)
    v2, f2 = frame_transport_move(g, f1, v1, g.nbr[0][2][1], forward=True)
    assert v2 == 0
    gamma = frame_c.entries[1]
    assert f2.entries == tuple(o.conj(e, gamma) for e in frame_c.entries)


def frames_for_graph(g):
    return {v: frame_at(g, v) for v in range(g.vertex_count())}


@pytest.mark.parametrize("m", [5, 6, 7])
def test_functoriality_polygons(m):
    g = enumerate_graph(polygon_fan(m))
    frames = frames_for_graph(g)
    for inst in all_relation_instances(g):
        assert inst.complete
        left = frames[inst.base]
        v = inst.base
        for (w, k) in inst.left_steps:
            v, left = frame_transport_move(g, left, w, k, forward=True)
        right = frames[inst.base]
        v2 = inst.base
        for (w, k) in inst.right_steps:
            v2, right = frame_transport_move(g, right, w, k, forward=True)
        assert v == v2 and left == right


def test_functoriality_annulus():
    g = enumerate_graph(annulus(1, 1), radius=5)
    frames = {0: base_frame(g.surface)}
    for inst in all_relation_instances(g):
        if not inst.complete:
            continue
        left = frame_at(g, inst.base, frames[0])
        right = left
        for (w, k) in inst.left_steps:
            _, left = frame_transport_move(g, left, w, k, forward=True)
        for (w, k) in inst.right_steps:
            _, right = frame_transport_move(g, right, w, k, forward=True)
        assert left == right


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9])
def test_disc_start_frame_on_a_fan_is_the_base_frame(m, monkeypatch):
    g = enumerate_graph(polygon_fan(m))

    def no_fan_graph(*args, **kwargs):
        raise AssertionError("the fan graph was enumerated")

    monkeypatch.setattr(cover, "enumerate_graph", no_fan_graph)
    assert disc_start_frame(g) == base_frame(g.surface)


def test_backward_transport_inverts_forward():
    g = enumerate_graph(polygon_fan(6))
    f0 = frame_at(g, 0)
    for k in (1, 2, 3):
        u, f1 = frame_transport_move(g, f0, 0, k, forward=True)
        k2 = g.nbr[0][k][1]
        v, f2 = frame_transport_move(g, f1, u, k2, forward=False)
        assert v == 0 and f2 == f0


def test_a1_ball_is_line():
    g = enumerate_graph(polygon_fan(4))
    ball = build_cover_ball(g, radius=6)
    classes = ball.classes()
    assert len(classes) == 13  # 2r + 1
    cg = ball.class_graph()
    degs = sorted(len(set(mv.values())) for mv in cg.values())
    assert degs == [1, 1] + [2] * 11
    interior = [c for c in classes if ball.interior(c)]
    assert len(interior) == 7


def test_a1_double_flip_distinct():
    g = enumerate_graph(polygon_fan(4))
    ball = build_cover_ball(g, radius=6)
    tw = ball.lift_twist_word([(1, 1)])
    assert ball.same_vertex(0, tw) == "Distinct"
    assert ball.label(tw) == (-1,)
    fib = ball.fiber_report(0)
    assert len(fib) >= 3


def test_forward_backward_cancel():
    g = enumerate_graph(polygon_fan(5))
    ball = build_cover_ball(g, radius=4)
    n1 = ball.lift(0, [(1, 1)])
    k2 = g.nbr[0][1][1]
    n0 = ball.lift(n1, [(k2, -1)])
    assert ball.same_vertex(0, n0) == "Equal"


def test_a2_ball_regular_and_braid_loops_close():
    g = enumerate_graph(polygon_fan(5))
    ball = build_cover_ball(g, radius=6)
    cg = ball.class_graph()
    for c in ball.classes():
        if ball.interior(c):
            moves = cg[c]
            assert sorted(moves) == [(1, -1), (1, 1), (2, -1), (2, 1)]
    e1 = ball.lift_twist_word([(1, 1), (2, 1), (1, 1)])
    e2 = ball.lift_twist_word([(2, 1), (1, 1), (2, 1)])
    assert ball.same_vertex(e1, e2) == "Equal"
    o = ball.frames[0].oracle
    assert o.eq(ball.label(e1), ball.label(e2))


def test_a2_pentagon_sides_equal():
    g = enumerate_graph(polygon_fan(5))
    ball = build_cover_ball(g, radius=6)
    inst = relation_instances(g, 0)[0]
    e1 = ball.lift(0, [(k, 1) for (_, k) in inst.left_steps])
    e2 = ball.lift(0, [(k, 1) for (_, k) in inst.right_steps])
    assert ball.same_vertex(e1, e2) == "Equal"


def test_a2_fiber_labels_distinct():
    g = enumerate_graph(polygon_fan(5))
    ball = build_cover_ball(g, radius=6)
    fib = ball.fiber_report(0)
    assert len(fib) == 5  # identity and the four twist lifts at depth <= 2
    assert not ball.label_conflicts


def test_annulus_ball_hexagons_close_squares_dont():
    g = enumerate_graph(annulus(1, 1), radius=8)
    ball = build_cover_ball(g, radius=5)
    inst = relation_instances(g, 0)[0]
    e1 = ball.lift(0, [(k, 1) for (_, k) in inst.left_steps])
    e2 = ball.lift(0, [(k, 1) for (_, k) in inst.right_steps])
    assert ball.same_vertex(e1, e2) == "Equal"
    # negative control: x^2 vs y^2 (no square relation on the Kronecker quiver)
    a1 = ball.lift_twist_word([(1, 1)])
    a2 = ball.lift_twist_word([(2, 1)])
    assert ball.same_vertex(a1, a2) == "Distinct"
    assert ball.label(a1) != ball.label(a2)


def test_free_action_small_products():
    g = enumerate_graph(polygon_fan(5))
    ball = build_cover_ball(g, radius=6)
    o = ball.frames[0].oracle
    f0 = ball.frames[0]
    words = []
    gens = [(arc, s) for arc in (1, 2) for s in (1, -1)]
    for a in gens:
        words.append([a])
        for b in gens:
            words.append([a, b])
            for c in gens:
                words.append([a, b, c])
    for word in words:
        tgt = ball.lift_twist_word(word)
        if tgt is None:
            continue
        image = o.canon(())
        for arc, s in word:
            e = f0.entry(arc)
            image = o.mul(image, o.inv(e) if s > 0 else e)
        if ball.find(tgt) == ball.find(0):
            assert o.is_id(image), word
        elif ball.interior(tgt):
            assert not o.is_id(image), word


@pytest.mark.parametrize("m", [4, 5, 6])
def test_double_flip_realizes_inverse_twist(m):
    """Lifting the 2-loop at an arc lands on the fiber element labelled by
    the inverse braid twist, and transports the frame by conjugation."""
    g = enumerate_graph(polygon_fan(m))
    for base in range(g.vertex_count()):
        ball = build_cover_ball(g, radius=5, base=base)
        f0 = ball.frames[0]
        o = f0.oracle
        for arc in range(1, g.n + 1):
            tw = ball.lift_twist_word([(arc, 1)])
            assert ball.same_vertex(0, tw) == "Distinct"
            assert o.eq(ball.label(tw), o.inv(f0.entry(arc)))
            got = ball.frame(tw)
            gamma = f0.entry(arc)
            want = tuple(o.mul(o.inv(gamma), e, gamma) for e in f0.entries)
            assert got.entries == want


def test_pentagon_loop_conjugates_frame_by_deck_label():
    """Going once around the A2 pentagon with forward flips returns the
    initial frame conjugated by the braid image of the loop."""
    g = enumerate_graph(polygon_fan(5))
    ball = build_cover_ball(g, radius=6)
    inst = relation_instances(g, 0)[0]
    moves = [(k, 1) for (_, k) in inst.left_steps]
    moves += [(g.nbr[v][k][1], 1) for (v, k) in reversed(inst.right_steps)]
    end = ball.lift(0, moves)
    assert ball.shadow(end) == 0
    beta = ball.label(end)
    assert beta is not None and beta != ()
    f0 = ball.frames[0]
    o = f0.oracle
    transported = ball.frame(end)
    want = tuple(o.mul(beta, e, o.inv(beta)) for e in f0.entries)
    assert all(o.eq(a, b) for a, b in zip(transported.entries, want))


BALLS = [
    pytest.param(lambda: polygon_fan(5), None, 5, id="polygon5-r5"),
    pytest.param(lambda: polygon_fan(6), None, 5, id="hexagon-r5"),
    pytest.param(lambda: annulus(1, 1), 6, 6, id="annulus11-r6"),
]


@pytest.mark.parametrize("surface, graph_radius, radius", BALLS)
def test_class_frames_commute_with_lifted_moves(surface, graph_radius, radius):
    # every lifted move of the quotient, not only the tree moves the
    # builder crossed, carries the frame of its source class to the frame
    # of its target class
    g = enumerate_graph(surface(), radius=graph_radius)
    ball = build_cover_ball(g, radius=radius)
    checked = 0
    for cls, moves in ball.class_graph().items():
        for (arc, d), tgt in moves.items():
            v, fr = frame_transport_move(g, ball.frame(cls), ball.shadow(cls), arc, forward=d > 0)
            assert v == ball.shadow(tgt)
            assert fr == ball.frame(tgt), (cls, arc, d)
            checked += 1
    assert checked > len(ball.classes())


def _uncached(oracle):
    plain = copy.copy(oracle)
    plain.conj = lambda word, by: oracle.canon(inverse_word(by) + tuple(word) + tuple(by))
    return plain


@pytest.mark.parametrize("surface, graph_radius, radius", BALLS)
def test_class_frame_is_transport_along_representative_path(surface, graph_radius, radius):
    g = enumerate_graph(surface(), radius=graph_radius)
    ball = build_cover_ball(g, radius=radius)
    o = _uncached(ball.frames[0].oracle)
    root = TwistFrame(frame_at(g, 0).entries, o)
    for cls in ball.classes():
        path = []
        x = cls
        while ball.nodes[x].parent >= 0:
            parent = ball.nodes[x].parent
            (move,) = [mv for mv, child in ball.moves[parent].items() if child == x]
            path.append((parent, move))
            x = parent
        frame = root
        for parent, (arc, d) in reversed(path):
            _, frame = frame_transport_move(g, frame, ball.nodes[parent].shadow, arc, forward=d > 0)
        assert frame == ball.frame(cls), cls


def test_class_frames_need_representative_parents():
    g = enumerate_graph(polygon_fan(5))
    ball = build_cover_ball(g, radius=3, with_frames=False)
    child = next(c for c in ball.classes() if ball.nodes[c].parent > 0)
    ball._uf[ball.nodes[child].parent] = 0  # fold the parent into the root class
    with pytest.raises(RuntimeError, match="not a class representative"):
        ball._transport_class_frames(frame_at(g, 0))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_conj_memo_matches_uncached(data):
    o = data.draw(st.sampled_from(ORACLES))
    top = o.strands - 1 if o.kind == "braid" else o.rank
    letter = st.integers(1, top).flatmap(lambda i: st.sampled_from([i, -i]))
    word = tuple(data.draw(st.lists(letter, max_size=8)))
    by = tuple(data.draw(st.lists(letter, max_size=6)))
    want = o.canon(inverse_word(by) + word + by)
    assert o.conj(word, by) == want
    canon = o.canon
    calls = []
    o.canon = lambda w: calls.append(w) or canon(w)
    try:
        assert o.conj(list(word), by) == want  # a repeated call hits the memo
    finally:
        del o.canon
    assert calls == []


def test_path_class_identity_beats_frame_equality():
    # A1 line: every fiber class over the base carries the same frame, yet
    # the classes are distinct -- identity is by path class, never by frame
    g = enumerate_graph(polygon_fan(4))
    ball = build_cover_ball(g, radius=6)
    fiber = [r["class"] for r in ball.fiber_report(0)]
    assert len(fiber) >= 3
    frames = {ball.frame(c).entries for c in fiber}
    assert frames == {((1,),)}
    for i, a in enumerate(fiber):
        for b in fiber[i + 1:]:
            assert ball.same_vertex(a, b) == "Distinct"


@pytest.mark.parametrize("m", [5, 6])
def test_local_bijectivity_of_lifted_edges(m):
    # each interior cover vertex carries exactly 2n lifted directed moves,
    # matching the 2n oriented edges at its shadow
    g = enumerate_graph(polygon_fan(m))
    ball = build_cover_ball(g, radius=4, with_frames=False)
    n = g.n
    expected = sorted((k, d) for k in range(1, n + 1) for d in (1, -1))
    cg = ball.class_graph()
    checked = 0
    for c in ball.classes():
        if ball.interior(c):
            assert sorted(cg[c]) == expected
            checked += 1
    assert checked > 0


def test_cover_nonoracle_surface_runs():
    g = enumerate_graph(genus_one(1), radius=3)
    ball = build_cover_ball(g, radius=2)
    assert ball.frames is None
    n1 = ball.lift(0, [(1, 1)])
    assert ball.same_vertex(0, n1) in {"Distinct", "Inconclusive"}
    assert ball.label(n1) is None


def test_cover_ball_refuses_shallow_graph():
    g = enumerate_graph(annulus(1, 1), radius=2)
    with pytest.raises(ValueError):
        build_cover_ball(g, radius=5, with_frames=False)


def test_cover_json_deterministic():
    g = enumerate_graph(polygon_fan(5))
    b1 = build_cover_ball(g, radius=4)
    b2 = build_cover_ball(enumerate_graph(polygon_fan(5)), radius=4)
    assert b1.to_json() == b2.to_json()
