"""Tests of the benchmark itself: tracer, answer checks, inputs, isolation.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
if importlib.util.find_spec("flipgroupoid") is None:
    sys.path.insert(0, str(REPO / "src"))

import answers  # noqa: E402
import jobs  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402

SMALL_DISC = jobs._graph_job("polygon6", ("--polygon", "6"), homology=True)
SMALL_COVER = jobs._cover_job("pentagon", ("--polygon", "5"), radius=6, fibers=True,
                              start="rotation")


def _triangle_sets(tri: dict) -> frozenset:
    return frozenset(frozenset(s) for s in tri["triangles"])


def _snapshot():
    """Every attribute of every flipgroupoid module and of their classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "flipgroupoid" or name.startswith("flipgroupoid.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def _run_small(tmp_path, monkeypatch, job, seed=1, traced=False):
    monkeypatch.chdir(REPO)
    work = tmp_path / f"seed{seed}"
    work.mkdir()
    env = bench.child_env()
    deadline = time.perf_counter() + 120
    starts = bench.make_inputs((job,), seed, work, env, deadline)
    results = bench.run_pass((job,), starts, work, env, deadline, traced, 0)
    return starts, results, work


def test_tracer_restores_every_attribute(tmp_path):
    import flipgroupoid.cli as cli

    before = _snapshot()
    graph = tmp_path / "g.json"
    with tracer.Tracer() as tr:
        assert cli.enumerate_graph is not before[("flipgroupoid.exchange", "enumerate_graph")]
        assert tr.call(cli.main, ["enumerate", "--polygon", "6", "--out", str(graph)]) == 0
        assert tr.call(cli.main, ["homology", str(graph)]) == 0
        assert tr.call(cli.main, ["cover", "--polygon", "5", "--radius", "4"]) == 0
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    calls, _ = tracer.self_times(tr.spans)
    assert calls["cli"] == 3
    assert calls["homology.two_cells"] == 2
    for name in ("exchange.enumerate", "seeds.mutate_seed", "surface.flip",
                 "homology.invariant_factors", "cover.frame_transport", "braid.normal_form"):
        assert calls[name] > 0, name
    assert tr.counts["exchange.vertices"] == 14 + 5


def test_tracer_reports_a_layer_that_is_gone(monkeypatch):
    import flipgroupoid.cli  # noqa: F401  (loads every module the tracer patches)

    gone = ("homology.gone", "flipgroupoid.homology", "no_such_function")
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (gone,))
    before = _snapshot()
    with pytest.raises(LookupError, match="homology.gone"):
        tracer.Tracer().install()
    assert all(_snapshot()[key] is value for key, value in before.items())


def test_self_time_subtracts_children():
    spans = [("cli", 0.0, 10.0, -1, 0), ("a", 1.0, 5.0, 0, 0), ("b", 2.0, 3.0, 1, 0),
             ("b", 6.0, 7.0, 0, 0)]
    calls, own = tracer.self_times(spans)
    assert calls == {"cli": 1, "a": 1, "b": 2}
    assert own == pytest.approx({"cli": 5.0, "a": 3.0, "b": 2.0})
    assert tracer.inclusive_time(spans, "b") == pytest.approx(2.0)
    assert tracer.calls_inside(spans, "b", "a") == 1


def test_known_answers_pass_and_a_wrong_one_fails(tmp_path, monkeypatch):
    _, results, _ = _run_small(tmp_path, monkeypatch, SMALL_DISC)
    assert [r.problems for r in results] == [[], [], []]
    monkeypatch.setattr(answers, "catalan", lambda k: 13)
    _, results, _ = _run_small(tmp_path, monkeypatch, SMALL_DISC, seed=2)
    failed = sum(bool(r.problems) for r in results)
    assert failed / len(results) > 0
    assert "Catalan" in results[0].problems[0]


def test_seeds_change_the_start_not_the_answers(tmp_path, monkeypatch):
    outputs = []
    starts = []
    for seed in (1, 2):
        start, results, work = _run_small(tmp_path, monkeypatch, SMALL_DISC, seed=seed)
        assert all(not r.problems for r in results)
        starts.append(_triangle_sets(start["polygon6"]))
        outputs.append([(work / f"polygon6-{i}.out").read_text() for i in (1, 2)])
    assert starts[0] != starts[1]
    assert outputs[0] == outputs[1]


@pytest.mark.xfail(reason="the CLI builds disc twist frames as sigma_1 .. sigma_n by arc "
                          "label, which is right only on a fan; the benchmark's presentation "
                          "job starts from a fan for this reason", strict=False)
def test_presentation_verifies_from_a_flip_walk(tmp_path, monkeypatch):
    job = jobs.Job("polygon6", ("--polygon", "6"),
                   (jobs.Command("presentation",
                                 ("presentation", "--triangulation", jobs.TRI, "--verify")),))
    assert job.start == "walk"
    for seed in (1, 2, 3, 4):
        _, results, _ = _run_small(tmp_path, monkeypatch, job, seed=seed)
        assert results[0].problems == [], f"seed {seed}"


def test_every_command_has_its_own_interpreter(tmp_path, monkeypatch):
    _, disc, _ = _run_small(tmp_path, monkeypatch, SMALL_DISC)
    _, cover, _ = _run_small(tmp_path, monkeypatch, SMALL_COVER, seed=2)
    results = disc + cover
    assert all(not r.problems for r in results)
    pids = [r.meta["pid"] for r in results]
    assert len(set(pids)) == len(pids) and os.getpid() not in pids
    spans = sorted((r.meta["spawned"], r.meta["end"]) for r in results)
    assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))


def test_traced_pass_reports_every_layer_metric(tmp_path, monkeypatch):
    _, results, _ = _run_small(tmp_path, monkeypatch, SMALL_COVER, traced=True)
    assert all(not r.problems for r in results)
    metrics = bench.layer_metrics(results)
    names = set(bench.metric_units("per_layer")) - {"trace.overhead_s"}
    assert names <= set(metrics)
    assert metrics["cover.frame_transport.calls"] > 0
    assert 0 < metrics["cover.fold_ratio"] < 1


def test_predictions_cover_every_layer_metric():
    with open(REPO / "perfbench" / "predictions.json") as fh:
        layers = json.load(fh)["layers"]
    predicted = [m for layer in layers for m in layer["metrics"]]
    assert sorted(predicted) == sorted(bench.metric_units("per_layer"))


def test_dissection_count_matches_known_faces():
    assert answers.face_census(6) == {"squares": 3, "pentagons": 6}
    assert answers.face_census(9) == {"squares": 990, "pentagons": 495}


def test_flip_is_an_involution():
    base = {"surface": {"genus": 0, "boundaries": [5]},
            "triangles": [["b0.0", "b0.1", "a1"], ["a1", "b0.2", "a2"], ["a2", "b0.3", "b0.4"]],
            "edges": {}}
    once = jobs.flip(base, "a1")
    assert _triangle_sets(once) != _triangle_sets(base)
    assert _triangle_sets(jobs.flip(once, "a1")) == _triangle_sets(base)
