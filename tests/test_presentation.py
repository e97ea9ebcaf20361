import json
import random

import numpy as np
import pytest

from flipgroupoid import cli
from flipgroupoid.braid import BraidWord
from flipgroupoid.exchange import enumerate_graph
from flipgroupoid.presentation import (
    GroupPresentation,
    Relation,
    local_twist_relation_report,
    presentation_from_qp,
    verify_sound,
)
from flipgroupoid.surface import QuiverWithPotential, annulus, genus_one, polygon_fan


def make_qp(n, arrows, terms):
    B = np.zeros((n, n), dtype=np.int64)
    for (t, h) in arrows:
        B[t - 1, h - 1] += 1
        B[h - 1, t - 1] -= 1
    return QuiverWithPotential(n, B, tuple(arrows), tuple(terms))


def words(p):
    return {r.key() for r in p.relations}


def test_a2_braid_relation():
    p = presentation_from_qp(enumerate_graph(polygon_fan(5)).vertices[0].triangulation.quiver())
    assert [r.case for r in p.relations] == [2]
    assert p.relations[0].words == ((1, 2, 1), (2, 1, 2))


def test_a1xa1_commutation():
    q = make_qp(2, [], [])
    p = presentation_from_qp(q)
    assert [r.case for r in p.relations] == [1]
    assert p.relations[0].words == ((1, 2), (2, 1))


def test_three_cycle_with_potential():
    q = polygon_fan(6).flip(2).quiver()
    p = presentation_from_qp(q)
    cases = sorted(r.case for r in p.relations)
    assert cases == [2, 2, 2, 3, 3, 3]  # Brel per edge pair + Crel(a^b,c) per rotation


def test_kronecker_has_no_relations():
    p = presentation_from_qp(annulus(1, 1).quiver())
    assert p.relations == ()


def test_multiplicity_guard():
    # multiplicity-3 patterns are unsupported, starting at the type level
    with pytest.raises(ValueError):
        presentation_from_qp(make_qp(2, [(1, 2)] * 3, []))


def test_case4_fixture():
    q = make_qp(3, [(1, 2), (2, 3), (2, 3), (3, 1)], [(0, 1, 3)])
    p = presentation_from_qp(q)
    assert sorted(r.case for r in p.relations) == [2, 2, 4]
    rel4 = next(r for r in p.relations if r.case == 4)
    # Brel(a^b, c) with a=1, b=2, c=3
    assert rel4.words[0] == (-2, 1, 2, 3, -2, 1, 2)


def test_case5_fixture():
    arrows = [(3, 1), (1, 2), (3, 4), (4, 2), (2, 3), (2, 3)]
    q = make_qp(4, arrows, [(1, 4, 0), (3, 5, 2)])
    p = presentation_from_qp(q)
    by_case = {}
    for r in p.relations:
        by_case.setdefault(r.case, []).append(r)
    assert len(by_case[5]) == 2  # Crel(c^{ae}, b) and Crel(c^{ea}, b)
    assert 1 in by_case and 2 in by_case


def test_case6_fixture():
    arrows = [(3, 1), (1, 2), (3, 4), (4, 2), (2, 3), (2, 3), (1, 4)]
    q = make_qp(4, arrows, [(1, 4, 0), (3, 5, 2)])
    p = presentation_from_qp(q)
    sixes = [r for r in p.relations if r.case == 6]
    assert len(sixes) == 2
    assert not any(r.case == 5 for r in p.relations)


def test_case7_fixture():
    arrows = [(3, 1), (1, 2), (3, 4), (4, 2), (2, 3), (2, 3), (1, 4), (4, 5), (5, 1)]
    q = make_qp(5, arrows, [(1, 4, 0), (3, 5, 2), (6, 7, 8)])
    p = presentation_from_qp(q)
    sevens = [r for r in p.relations if r.case == 7]
    assert len(sevens) == 1
    # Crel(e, f^{abc}) with (a,b,c,e,f) = (1,2,3,4,5)
    assert sevens[0].vertices == (1, 2, 3, 4, 5)


def test_case5_requires_distinct_double_arrows():
    # both terms running through the same copy of the double arrow: no match
    arrows = [(3, 1), (1, 2), (3, 4), (4, 2), (2, 3), (2, 3)]
    q = make_qp(4, arrows, [(1, 4, 0), (3, 4, 2)])
    p = presentation_from_qp(q)
    assert not any(r.case in (5, 6, 7) for r in p.relations)


def test_relations_freely_reduced_and_distinct():
    for base in [polygon_fan(7), polygon_fan(8)]:
        g = enumerate_graph(base)
        for vd in g.vertices:
            presentation_from_qp(vd.triangulation.quiver())  # validates on build


def test_scanner_case_coverage_corpus():
    # polygons m <= 8 and annuli p+q <= 4 exercise cases 1, 2 and 3
    seen = set()
    graphs = [enumerate_graph(polygon_fan(m)) for m in range(4, 9)]
    graphs += [
        enumerate_graph(annulus(p, q), radius=3)
        for (p, q) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]
    ]
    for g in graphs:
        for vd in g.vertices:
            for r in presentation_from_qp(vd.triangulation.quiver()).relations:
                seen.add(r.case)
    assert {1, 2, 3} <= seen


def test_relabeling_equivariance():
    # relabel generators of the inner-triangle quiver by a cycle and compare
    q = polygon_fan(6).flip(2).quiver()
    perm = {1: 2, 2: 3, 3: 1}
    arrows = tuple((perm[t], perm[h]) for (t, h) in q.arrows)
    B = np.zeros((3, 3), dtype=np.int64)
    for (t, h) in arrows:
        B[t - 1, h - 1] += 1
        B[h - 1, t - 1] -= 1
    q2 = QuiverWithPotential(3, B, arrows, q.terms)
    p1 = presentation_from_qp(q)
    p2 = presentation_from_qp(q2)

    def mapped(word):
        return tuple((1 if x > 0 else -1) * perm[abs(x)] for x in word)

    w1 = {(min(mapped(a), mapped(b)), max(mapped(a), mapped(b))) for (a, b) in words(p1)}
    assert w1 == words(p2)


def test_verify_sound_a2():
    p = presentation_from_qp(enumerate_graph(polygon_fan(5)).vertices[0].triangulation.quiver())
    rep = verify_sound(p, {1: BraidWord(3, (1,)), 2: BraidWord(3, (2,))})
    assert rep["all_hold"] and rep["checked"] == 1


def test_verify_sound_detects_failure():
    p = GroupPresentation((1, 2), (Relation(1, (1, 2), ((1, 2), (2, 1))),))
    rep = verify_sound(p, {1: BraidWord(3, (1,)), 2: BraidWord(3, (2,))})
    assert not rep["all_hold"]
    assert rep["relations"][0]["witness"] is not None


def test_fan_report_hexagon():
    g = enumerate_graph(polygon_fan(6))
    rep = local_twist_relation_report(g, 0)
    assert rep["all_hold"]
    cases = sorted(r["case"] for r in rep["relations"])
    assert cases == [1, 2, 2]  # Crel(1,3) and two Brels


def test_pentagon_reports_symmetric():
    g = enumerate_graph(polygon_fan(5))
    profiles = set()
    for v in range(g.vertex_count()):
        rep = local_twist_relation_report(g, v)
        profiles.add((rep["all_hold"], rep["checked"]))
    assert profiles == {(True, 1)}


def test_inner_triangle_case3_passes():
    g = enumerate_graph(polygon_fan(6))
    inner = next(
        v
        for v in range(g.vertex_count())
        if g.vertices[v].triangulation.quiver().terms
    )
    rep = local_twist_relation_report(g, inner)
    assert rep["all_hold"]
    assert any(r["case"] == 3 for r in rep["relations"])


def test_report_needs_disc():
    g = enumerate_graph(genus_one(1), radius=2)
    with pytest.raises(ValueError):
        local_twist_relation_report(g, 0)


@pytest.mark.parametrize("m", [6, 7, 8])
def test_cli_verify_holds_from_flip_walks(m, tmp_path, capsys):
    # the frame at a non-fan start is transported from the fan, not read
    # off as sigma_1 .. sigma_n by arc label
    for seed in range(1, 6):
        rng = random.Random(seed)
        t = polygon_fan(m)
        for _ in range(4 * t.n):
            t = t.flip(rng.randrange(1, t.n + 1))
        path = tmp_path / f"walk{seed}.json"
        path.write_text(json.dumps(t.to_json()))
        code = cli.main(["presentation", "--triangulation", str(path), "--verify"])
        report = json.loads(capsys.readouterr().out)["verification"]
        assert code == 0 and report["all_hold"] and report["vertex"] == 0, f"seed {seed}"
