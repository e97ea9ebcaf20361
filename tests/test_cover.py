import copy
import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipgroupoid import braid, cover, exchange
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
from flipgroupoid.exchange import TruncationError, enumerate_graph, graph_from_json, graph_to_json
from flipgroupoid.presentation import presentation_from_qp, verify_sound
from flipgroupoid.surface import MarkedSurface, Triangulation, annulus, genus_one, polygon_fan

from oracles import (
    cut_ball,
    flip_walk,
    framed_closure_ball,
    ref_conj,
    ref_fiber_report,
    tree_cover_ball,
)
from oracles import ref_all_relation_instances as all_relation_instances
from oracles import ref_relation_instances as relation_instances

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
    assert transport_frame(f, polygon_fan(4).exchange_matrix(), 1) == f


def test_transport_hexagon_middle_flip():
    # arrows 1->2->3; flipping 2 conjugates entry 1 by entry 2, fixes the rest
    f = base_frame(MarkedSurface(0, (6,)))
    out = transport_frame(f, polygon_fan(6).exchange_matrix(), 2)
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
    perm = g.adj[0][2][2]
    # entry at the mutated edge: unchanged
    assert frame_u.entries[perm[1] - 1] == frame_c.entries[1]
    # no arrow 3 -> 2: unchanged
    assert frame_u.entries[perm[2] - 1] == frame_c.entries[2]
    # arrow 1 -> 2: conjugated by the entry at 2
    assert frame_u.entries[perm[0] - 1] == o.conj(frame_c.entries[0], frame_c.entries[1])
    # around the loop t_2: whole frame conjugated by entry 2, deck = entry^-1
    v1, f1 = frame_transport_move(g, frame_c, 0, 2, forward=True)
    v2, f2 = frame_transport_move(g, f1, v1, g.adj[0][2][1], forward=True)
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
    for inst in all_relation_instances(g):
        if not inst.complete:
            continue
        left = frame_at(g, inst.base)
        right = left
        for (w, k) in inst.left_steps:
            _, left = frame_transport_move(g, left, w, k, forward=True)
        for (w, k) in inst.right_steps:
            _, right = frame_transport_move(g, right, w, k, forward=True)
        assert left == right


def _no_graph_builds(monkeypatch):
    def no_fan_graph(*args, **kwargs):
        raise AssertionError("the fan graph was enumerated")

    monkeypatch.setattr(cover, "enumerate_graph", no_fan_graph, raising=False)
    monkeypatch.setattr(exchange, "enumerate_graph", no_fan_graph)


def _holds_all_relations(g, frame):
    images = {i: BraidWord(frame.oracle.strands, e) for i, e in enumerate(frame.entries, 1)}
    pres = presentation_from_qp(g.vertices[0].triangulation.quiver())
    return verify_sound(pres, images)["all_hold"]


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9])
def test_disc_start_frame_on_a_fan_is_the_base_frame(m, monkeypatch):
    g = enumerate_graph(polygon_fan(m))
    walks = [enumerate_graph(flip_walk(m, seed), radius=0) for seed in range(1, 9)]
    _no_graph_builds(monkeypatch)
    assert disc_start_frame(g) == base_frame(g.surface)
    # a walk start reaches a fan in n - deg(c) flips and takes its frame back
    for seed, w in enumerate(walks, 1):
        assert _holds_all_relations(w, disc_start_frame(w)), f"seed {seed}"


def _turned(t, shift, perm):
    """Triangulation ``t`` with b0.k renamed b0.(k+shift) and a<j> renamed a<perm[j]>."""
    m = t.surface.m

    def label(x):
        if x.startswith("b0."):
            return f"b0.{(int(x[3:]) + shift) % m}"
        return f"a{perm[int(x[1:])]}"

    return Triangulation(t.surface, [tuple(label(x) for x in tri) for tri in t.triangles])


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_disc_start_frame_on_any_fan_corner(m, monkeypatch):
    # the fan from corner s with shuffled arc labels: the arc on chord
    # {s, s+j+1} carries sigma_j, and no graph is built
    rng = random.Random(m)
    graphs = []
    for shift in range(m):
        arcs = list(range(1, m - 2))
        rng.shuffle(arcs)
        perm = dict(zip(range(1, m - 2), arcs))
        graphs.append((perm, enumerate_graph(_turned(polygon_fan(m), shift, perm))))
    _no_graph_builds(monkeypatch)
    for perm, g in graphs:
        want = [None] * g.n
        for j, arc in perm.items():
            want[arc - 1] = (j,)
        assert disc_start_frame(g).entries == tuple(want)


@pytest.mark.parametrize("m", [6, 7, 8, 9, 10])
def test_frame_at_is_the_cover_root_frame_from_flip_walks(m):
    # one start-frame rule: frame_at and the cover ball read the same frame
    fans = 0
    for seed in range(1, 9):
        t = flip_walk(m, seed)
        fans += any(all(c in ch for ch in t.arc_chords()) for c in range(m))
        g = enumerate_graph(t, radius=1)
        frame = frame_at(g, 0)
        assert build_cover_ball(g, radius=1).frames[0] == frame, f"seed {seed}"
        assert _holds_all_relations(g, frame), f"seed {seed}"
    assert fans <= 5  # most starts take their frame back along a flip walk


@pytest.mark.parametrize("m", [6, 7])
def test_cover_root_frame_holds_relations_from_flip_walks(m):
    for seed in range(1, 9):
        g = enumerate_graph(flip_walk(m, seed))
        frame = build_cover_ball(g, radius=1).frames[0]
        images = {i: BraidWord(frame.oracle.strands, e) for i, e in enumerate(frame.entries, 1)}
        report = verify_sound(presentation_from_qp(g.vertices[0].triangulation.quiver()), images)
        assert report["all_hold"], f"seed {seed}"


def test_backward_transport_inverts_forward():
    g = enumerate_graph(polygon_fan(6))
    f0 = frame_at(g, 0)
    for k in (1, 2, 3):
        u, f1 = frame_transport_move(g, f0, 0, k, forward=True)
        k2 = g.adj[0][k][1]
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
    k2 = g.adj[0][1][1]
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


def test_equal_fiber_labels_raise_with_their_witness(monkeypatch):
    # two classes over one vertex with one deck label would be one cover vertex
    ball = build_cover_ball(enumerate_graph(polygon_fan(5)), radius=6)
    first, second = [r["class"] for r in ball.fiber_report(0)][-2:]
    label = ball.label(first)
    assert label is not None and ball.label(second) not in (None, label)
    monkeypatch.setitem(ball._labels, second, label)
    with pytest.raises(exchange.CheckFailure, match=f"fiber elements {first} and {second} ") as caught:
        ball.fiber_report(0)
    assert caught.value.detail == {"shadow": 0, "classes": [first, second], "label": list(label)}


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
        if tgt == 0:
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
    moves += [(g.adj[v][k][1], 1) for (v, k) in reversed(inst.right_steps)]
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


def _shortlex_paths(ball):
    """Each class's breadth-first path in the class graph, moves taken
    arcs ascending, forward first: its shortlex-least move word."""
    paths = {0: []}
    order = [0]
    cg = ball.class_graph()
    for cls in order:
        for mv in sorted(cg[cls], key=lambda mv: (mv[0], -mv[1])):
            tgt = cg[cls][mv]
            if tgt not in paths:
                paths[tgt] = paths[cls] + [(cls, mv)]
                order.append(tgt)
    return paths


@pytest.mark.parametrize("surface, graph_radius, radius", BALLS)
def test_class_frame_is_transport_along_representative_path(surface, graph_radius, radius):
    g = enumerate_graph(surface(), radius=graph_radius)
    ball = build_cover_ball(g, radius=radius)
    o = _uncached(ball.frames[0].oracle)
    root = TwistFrame(ball.frames[0].entries, o)
    paths = _shortlex_paths(ball)
    assert sorted(paths) == ball.classes()
    for cls, path in paths.items():
        assert len(path) == ball.class_depth(cls)
        frame = root
        for parent, (arc, d) in path:
            _, frame = frame_transport_move(g, frame, ball.shadow(parent), arc, forward=d > 0)
        assert frame == ball.frame(cls), cls


def test_merge_of_unequal_frames_raises(monkeypatch):
    # a transport that skips the conjugation at arc 1 breaks functoriality:
    # the voltages' frame rule names an edge whose transported frame is not
    # the target's frame conjugated by the edge's voltage
    g = enumerate_graph(polygon_fan(5))
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
    with pytest.raises(exchange.CheckFailure, match="the frame rule fails on the edge") as caught:
        build_cover_ball(g, radius=4)
    detail = caught.value.detail
    assert set(detail) == {"vertex", "arc", "target", "voltage", "transported", "conjugated"}
    v, k = detail["vertex"], detail["arc"]
    assert k == 1 and g.adj[v][k][0] == detail["target"]
    moved, want = detail["transported"], detail["conjugated"]
    assert moved != want and len(moved) == len(want) == g.n
    # the conjugated frame is the target's frame conjugated by the voltage
    o = oracle_for_surface(g.surface)
    x = tuple(detail["voltage"])
    target = frame_at(g, detail["target"])
    assert [list(o.mul(x, e, o.inv(x))) for e in target.entries] == want


def test_transport_checks_every_conjugated_entry():
    # frames of a move skip the check of the entries they copy, so a
    # conjugation that yields a non-twist must still fail, in both directions
    g = enumerate_graph(polygon_fan(6))
    f0 = frame_at(g, 0)
    u, f1 = frame_transport_move(g, f0, 0, 2, forward=True)
    o = BraidOracle(f0.oracle.strands)
    o.conj = lambda word, by: (1, 1)
    for frame, v, k, forward in ((f0, 0, 2, True), (f1, u, g.adj[0][2][1], False)):
        with pytest.raises(ValueError, match="not a twist-shaped word"):
            frame_transport_move(g, TwistFrame(frame.entries, o), v, k, forward)


def _with_targets_swapped(g, i, j):
    """``g`` written and loaded with the targets of edges i and j swapped:
    the loader, which does not flip edges, takes it."""
    data = json.loads(json.dumps(graph_to_json(g)))
    edges = data["edges"]
    edges[i]["ends"][2], edges[j]["ends"][2] = edges[j]["ends"][2], edges[i]["ends"][2]
    return graph_from_json(data)


@pytest.mark.parametrize("base, graph_radius, i, j, radius", [
    (polygon_fan(6), None, 0, 7, 1),
    (polygon_fan(6), None, 0, 7, 3),
    (genus_one(1), 5, 0, 2, 5),
], ids=["polygon6-r1", "polygon6-r3", "genus_one1-r5"])
def test_the_cover_names_a_relation_that_does_not_close(base, graph_radius, i, j, radius):
    # the closure rewrites only by instances that close, so the open
    # pentagon at vertex 0 is named before any class is merged
    bad = _with_targets_swapped(enumerate_graph(base, radius=graph_radius), i, j)
    with pytest.raises(RuntimeError) as caught:
        build_cover_ball(bad, radius=radius)
    assert str(caught.value) == "relation instance Pentagon at vertex 0, arcs (1, 2) does not close"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_conj_memo_matches_uncached(data):
    o = data.draw(st.sampled_from(ORACLES))
    top = o.strands - 1 if o.kind == "braid" else o.rank
    letter = st.integers(1, top).flatmap(lambda i: st.sampled_from([i, -i]))
    word = tuple(data.draw(st.lists(letter, max_size=8)))
    by = tuple(data.draw(st.lists(letter, max_size=6)))
    want = ref_conj(o, word, by)
    assert o.conj(word, by) == want
    # a memo miss multiplies inv(by), word and by; a repeated call must not
    mul = o.mul
    calls = []
    o.mul = lambda *words: calls.append(words) or mul(*words)
    try:
        assert o.conj(list(word), by) == want  # a repeated call hits the memo
    finally:
        del o.mul
    assert calls == []


def test_hexagon_ball_normalises_few_letters(monkeypatch):
    # conjugation multiplies remembered Garside forms: the ball and its
    # fibre reports hand normal_form only words never met before
    letters = []
    normal_form = braid.normal_form
    monkeypatch.setattr(braid, "normal_form", lambda w: letters.append(len(w.letters))
                        or normal_form(w))
    g = enumerate_graph(polygon_fan(6))
    ball = build_cover_ball(g, radius=6)
    for v in range(g.vertex_count()):
        ball.fiber_report(v)
    assert len(ball.classes()) == 2161
    assert sum(letters) <= 8000


@settings(max_examples=200)
@given(st.data())
def test_entry_ok_memo_matches_uncached(data):
    o = data.draw(st.sampled_from(ORACLES))
    top = o.strands - 1 if o.kind == "braid" else o.rank
    letter = st.integers(1, top).flatmap(lambda i: st.sampled_from([i, -i]))
    by = tuple(data.draw(st.lists(letter, max_size=5)))
    twist = inverse_word(by) + (data.draw(st.integers(1, top)),) + by
    word = data.draw(st.one_of(st.just(twist), st.lists(letter, max_size=9).map(tuple)))
    want = type(o)._entry_ok(o, word)
    assert o.entry_ok(word) is want
    calls = []
    o._entry_ok = lambda w: calls.append(w) or type(o)._entry_ok(o, w)
    try:
        assert o.entry_ok(list(word)) is want  # true and false results both hit the memo
    finally:
        del o._entry_ok
    assert calls == []


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: f"{o.kind}")
def test_bad_frame_entry_raises_on_every_construction(oracle):
    bad = (1, 1)  # exponent sum 2: never a twist
    good = oracle.generator(1)
    for _ in range(3):
        with pytest.raises(ValueError, match="not a twist-shaped word"):
            TwistFrame((good, bad), oracle)
    assert TwistFrame((good, good), oracle).entries == (good, good)


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
    ball = build_cover_ball(g, radius=4)
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
    assert ball.same_vertex(0, n1) == "Distinct"  # over another graph vertex
    assert ball.label(n1) is None


@pytest.mark.parametrize("surface", [genus_one(1), annulus(2, 1)], ids=["genus_one1", "annulus21"])
def test_label_conflicts_is_a_list_on_every_surface(surface):
    # neither surface has an oracle group: no labels, and so no conflict to raise
    ball = build_cover_ball(enumerate_graph(surface, radius=4), 3)
    assert ball.frames is None
    assert len(ball.classes()) > 1
    assert all(ball.label(c) is None for c in ball.classes())


def _twist_words(n: int, length: int):
    letters = [(arc, sign) for arc in range(1, n + 1) for sign in (1, -1)]
    return [list(w) for size in range(length + 1) for w in product(letters, repeat=size)]


@pytest.mark.parametrize("surface, graph_radius, radius, labelled", [
    (lambda: polygon_fan(6), None, 6, 163),
    (lambda: annulus(1, 1), 8, 8, 161),
], ids=["hexagon-r6", "annulus11-r8"])
def test_twist_word_labels_match_the_keys(surface, graph_radius, radius, labelled):
    # a twist word lifts to the class labelled by its product of inverse
    # entries: the deck label that the search gave that class's key
    g = enumerate_graph(surface(), radius=graph_radius)
    ball = build_cover_ball(g, radius=radius)
    f0 = ball.frames[0]
    o = f0.oracle
    seen = {}
    for word in _twist_words(g.n, 4):
        tgt = ball.lift_twist_word(word)
        if tgt is None:
            continue
        want = o.mul(*(o.inv(f0.entry(arc)) if sign > 0 else f0.entry(arc) for arc, sign in word))
        assert ball.label(tgt) == want, word
        seen[tgt] = want
    assert len(seen) == labelled
    # every class over the base has a label, and no two share one
    over_base = [c for c in ball.classes() if ball.shadow(c) == 0]
    assert all(ball.label(c) is not None for c in over_base)
    assert len({ball.label(c) for c in over_base}) == len(over_base)
    assert all(ball.label(c) is None for c in ball.classes() if ball.shadow(c) != 0)


VOLTAGE_CASES = [
    pytest.param(lambda m=m: polygon_fan(m), None, r, id=f"polygon{m}-fan")
    for m, r in ((5, 6), (6, 5), (7, 3))
] + [
    pytest.param(lambda m=m, seed=seed: flip_walk(m, seed), None, r, id=f"polygon{m}-walk{seed}")
    for m, r in ((5, 6), (6, 5), (7, 3)) for seed in (3, 5)
] + [pytest.param(lambda: annulus(1, 1), 9, 6, id="annulus11")]


def _records(ball):
    graph = ball.class_graph()
    return {c: {"shadow": ball.shadow(c), "depth": ball.class_depth(c),
                "frame": ball.frame(c).entries, "moves": graph[c]} for c in ball.classes()}


@pytest.mark.parametrize("surface, graph_radius, top", VOLTAGE_CASES)
def test_voltage_ball_is_the_closure_ball_cut_below_its_rim(surface, graph_radius, top):
    # the closure quotient agrees with the cover to depth R - 3, so the
    # framed closure ball of radius r + 3 cut to depth <= r is the r-ball
    g = enumerate_graph(surface(), radius=graph_radius)
    ref = framed_closure_ball(g, top + 3)
    for radius in range(1, top + 1):
        assert _records(build_cover_ball(g, radius=radius)) == cut_ball(ref, radius), radius


def _solved_by_a_relation(g):
    """An edge whose voltage and whose reverse's voltage a relation solves."""
    parent = cover._bfs_tree(g)[1]
    tree = {(w, k) for u, (w, k) in parent.items() if u}
    return next((v, k) for v, row in enumerate(g.adj) for k, step in enumerate(row)
                if step is not None and (v, k) not in tree and step[:2] not in tree)


def test_a_voltage_times_the_full_twist_fails_the_relation_check(monkeypatch):
    # Delta^2 is central: on an edge and, inverted, on its reverse it keeps
    # the 2-cycle and the frame rule, and only the relations can refuse it
    g = enumerate_graph(polygon_fan(6))
    v, k = _solved_by_a_relation(g)
    u, k2, _ = g.adj[v][k]
    full_twist = braid.delta_word(4) * 2
    solve = cover._solve_voltages

    def with_full_twist(g, o, *args):
        vol = solve(g, o, *args)
        vol[v][k] = o.mul(vol[v][k], full_twist)
        vol[u][k2] = o.mul(vol[u][k2], o.inv(full_twist))
        return vol

    monkeypatch.setattr(cover, "_solve_voltages", with_full_twist)
    with pytest.raises(exchange.CheckFailure, match="carries different voltages") as caught:
        build_cover_ball(g, radius=2)
    detail = caught.value.detail
    assert set(detail) == {"kind", "vertex", "arcs", "left", "right"}
    left, right = detail["left"], detail["right"]
    assert left["voltage"] != right["voltage"]
    assert (v, k) in left["steps"] + right["steps"]


def test_the_two_cycle_rule_with_its_entry_uninverted_fails_its_check(monkeypatch):
    g = enumerate_graph(polygon_fan(6))
    monkeypatch.setattr(cover, "_reverse_voltage", lambda o, entry, x: o.inv(o.mul(o.inv(entry), x)))
    with pytest.raises(exchange.CheckFailure, match="the 2-cycle at vertex 0, arc 1 ") as caught:
        build_cover_ball(g, radius=2)
    detail = caught.value.detail
    o = BraidOracle(4)
    x, y = map(tuple, detail["voltages"])
    assert o.mul(x, y) == tuple(detail["entry"]) != o.inv(tuple(detail["entry"]))


def test_an_edge_no_relation_solves_raises_with_its_witness(monkeypatch):
    # with no relation instance, only the tree edges and their reverses are solved
    g = enumerate_graph(polygon_fan(6))
    monkeypatch.setattr(cover, "_walk_relations", lambda g: iter(()))
    with pytest.raises(exchange.CheckFailure,
                       match="no relation solves the voltage of vertex 3, arc 1") as caught:
        cover.voltages(g, oracle_for_surface(g.surface))
    assert caught.value.detail == {"vertex": 3, "arc": 1, "target": 5}


@pytest.mark.parametrize("surface, graph_radius", [
    (polygon_fan(6), None), (polygon_fan(7), None), (annulus(1, 1), 6),
], ids=["hexagon", "heptagon", "annulus11"])
def test_voltages_do_not_depend_on_the_order_of_the_instances(surface, graph_radius, monkeypatch):
    # taken in reverse, an instance can meet two unknown edges and wait for a
    # later pass (on the heptagon, instances wait 133 times over 3 passes)
    g = enumerate_graph(surface, radius=graph_radius)
    solve = cover._solve_voltages
    solved = []

    def both_orders(g, o, frames, parent, instances):
        solved.append(solve(g, o, frames, parent, instances[::-1]))
        solved.append(solve(g, o, frames, parent, instances))
        return solved[-1]

    monkeypatch.setattr(cover, "_solve_voltages", both_orders)
    cover.voltages(g, oracle_for_surface(g.surface))
    backward, forward = solved
    assert backward == forward


@pytest.mark.parametrize("m, radius", [(6, 6), (7, 4)])
def test_fiber_report_matches_the_scan_of_every_class(m, radius):
    g = enumerate_graph(polygon_fan(m))
    ball = build_cover_ball(g, radius=radius)
    for v in [*range(g.vertex_count()), g.vertex_count()]:
        assert ball.fiber_report(v) == ref_fiber_report(ball, v), v


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_ball_on_a_radius_deep_graph_matches_the_full_graph(m):
    # a ball of radius r reaches no graph vertex past distance r
    for t in (polygon_fan(m), flip_walk(m, 1)):
        full = enumerate_graph(t)
        for radius in range(1, 6):
            want = build_cover_ball(full, radius).to_json()
            assert build_cover_ball(enumerate_graph(t, radius=radius), radius).to_json() == want


def test_cover_ball_refuses_shallow_graph():
    g = enumerate_graph(annulus(1, 1), radius=2)
    with pytest.raises(ValueError):
        build_cover_ball(g, radius=5)


@pytest.mark.parametrize("surface, graph_radius", [(polygon_fan(5), None), (genus_one(1), 3)],
                         ids=["pentagon", "genus_one1"])
def test_cover_ball_refuses_a_base_that_is_not_a_graph_vertex(surface, graph_radius, monkeypatch):
    # base -1 used to grow a ball over the last vertex with the base's
    # frame, and base V to raise an IndexError; both are refused before
    # any voltage is solved
    g = enumerate_graph(surface, radius=graph_radius)
    monkeypatch.setattr(cover, "voltages", lambda g, oracle: pytest.fail("voltages solved"))
    last = g.vertex_count() - 1
    for bad in (-1, last + 1):
        with pytest.raises(ValueError, match=rf"^base {bad} is not a graph vertex 0\.\.{last}$"):
            build_cover_ball(g, radius=2, base=bad)


def test_cover_json_deterministic():
    g = enumerate_graph(polygon_fan(5))
    b1 = build_cover_ball(g, radius=4)
    b2 = build_cover_ball(enumerate_graph(polygon_fan(5)), radius=4)
    assert b1.to_json() == b2.to_json()


REFERENCE_BALLS = [
    pytest.param(lambda m=m: polygon_fan(m), None, range(1, top + 1), id=f"polygon{m}-fan")
    for m, top in ((4, 5), (5, 5), (6, 3), (7, 2))
] + [
    pytest.param(lambda m=m: flip_walk(m, 3), None, range(1, top + 1), id=f"polygon{m}-walk")
    for m, top in ((4, 5), (5, 5), (6, 3), (7, 2))
] + [
    pytest.param(lambda: annulus(1, 1), 9, range(1, 7), id="annulus11"),
    pytest.param(lambda: annulus(2, 2), 5, range(1, 6), id="annulus22"),
    pytest.param(lambda: genus_one(1), 5, range(1, 6), id="genus_one1"),
]


@pytest.mark.parametrize("surface, graph_radius, radii", REFERENCE_BALLS)
def test_cover_ball_matches_tree_reference(surface, graph_radius, radii):
    # without an oracle group the ball is the tree's closure quotient; with
    # one it is the quotient of radius r + 3 cut to depth <= r, and each
    # label of a twist word there is the class's label
    g = enumerate_graph(surface(), radius=graph_radius)
    for radius in radii:
        ball = build_cover_ball(g, radius=radius)
        if ball.frames is None:
            ref = tree_cover_ball(g, radius)
            assert ball.to_json() == ref.to_json(), radius
            for v in range(g.vertex_count()):
                assert ball.fiber_report(v) == ref.fiber_report(v), (radius, v)
            assert len(ball.nodes) == len(ref.nodes)
            continue
        ref = tree_cover_ball(g, radius + 3)
        assert _records(ball) == cut_ball(_records(ref), radius), radius
        for c in ball.classes():
            assert ref.label(c) in (None, ball.label(c)), (radius, c)
        assert len(ball.nodes) == 1 + sum(2 * g.n * (2 * g.n - 1) ** L for L in range(radius))


def test_hexagon_radius_8_fits_a_class_budget():
    g = enumerate_graph(polygon_fan(6))
    ball = build_cover_ball(g, radius=8, budget=60_000)
    assert len(ball.classes()) == 10_677
    assert len(ball.nodes) == 585_937


def test_truncation_names_depth_and_finished_layers():
    g = enumerate_graph(polygon_fan(6))
    with pytest.raises(TruncationError) as err:
        build_cover_ball(g, radius=6, budget=500)
    # the budget runs out while depth 5 is born; depths 0-4 hold the
    # classes of the radius-4 ball
    ball4 = build_cover_ball(g, radius=4)
    layers = [sum(ball4.class_depth(c) == d for c in ball4.classes()) for d in range(5)]
    assert f"depth reached 4, classes per finished layer {layers}" in str(err.value)


def test_closure_ball_truncation_names_depth_and_finished_layers():
    g = enumerate_graph(genus_one(1), radius=4)
    with pytest.raises(TruncationError, match=(
            r"cover class budget 100 exceeded while growing depth 3; "
            r"depth reached 2, classes per finished layer \[1, 8, 56\]")):
        build_cover_ball(g, radius=4, budget=100)


def test_closure_merge_of_different_shadows_raises_with_its_witness(monkeypatch):
    # a fake square at vertex 0 whose sides flip arc 1 and arc 2 alone ends
    # at two different vertices, so its closure merges two shadows
    g = enumerate_graph(genus_one(1), radius=3)
    walk = cover._walk_relations

    def with_a_fake_square(g):
        yield from walk(g)
        yield 0, exchange.RelationKind.SQUARE, (1, 2), (((0, 1),), ((0, 2),)), 0

    monkeypatch.setattr(cover, "_walk_relations", with_a_fake_square)
    with pytest.raises(exchange.CheckFailure, match="tried to merge different shadows") as caught:
        build_cover_ball(g, radius=3)
    assert caught.value.detail == {
        "depth": 1, "classes": [1, 3], "shadows": [1, 2], "words": [[[1, 1]], [[2, 1]]]}


def test_closure_ball_leaves_same_shadow_pairs_inconclusive():
    # at radius 3 only the base is interior, so a closure ball cannot tell
    # two classes over one graph vertex apart
    g = enumerate_graph(genus_one(1), radius=3)
    ball = build_cover_ball(g, radius=3)
    classes = ball.classes()
    pairs = [(a, b) for i, a in enumerate(classes) for b in classes[i + 1:]
             if ball.shadow(a) == ball.shadow(b)]
    assert len(pairs) == 2578
    assert {ball.same_vertex(a, b) for a, b in pairs} == {"Inconclusive"}


def test_queries_take_class_ids_only():
    g = enumerate_graph(polygon_fan(5))
    ball = build_cover_ball(g, radius=4)
    classes = set(ball.classes())
    bad = next(i for i in ball.nodes if i not in classes)
    for query in (
        lambda: ball.same_vertex(0, bad),
        lambda: ball.same_vertex(bad, 0),
        lambda: ball.lift(bad, [(1, 1)]),
        lambda: ball.label(bad),
        lambda: ball.frame(bad),
    ):
        with pytest.raises(ValueError, match="not a class id"):
            query()
