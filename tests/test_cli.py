import hashlib
import json
import subprocess
import sys

import pytest

from flipgroupoid import cli, homology


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


FACES = {5: (0, 1), 6: (3, 6), 7: (28, 28), 8: (180, 120), 9: (990, 495)}


@pytest.mark.parametrize("m", sorted(FACES))
def test_homology_stdout_bytes(m, tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert cli.main(["enumerate", "--polygon", str(m), "--out", str(graph)]) == 0
    assert cli.main(["homology", str(graph)]) == 0
    squares, pentagons = FACES[m]
    want = (
        '{\n  "betti1": 0,\n  "faces": {\n'
        f'    "pentagons": {pentagons},\n    "squares": {squares}\n'
        '  },\n  "status": "ok",\n  "torsion": []\n}\n'
    )
    assert capsys.readouterr().out == want


def test_homology_builds_two_cells_once(tmp_path, monkeypatch, capsys):
    # face_census and homology_h1 share one build of the 2-cells
    graph = tmp_path / "g.json"
    assert cli.main(["enumerate", "--polygon", "7", "--out", str(graph)]) == 0
    builds = []
    real = homology.all_relation_instances
    monkeypatch.setattr(homology, "all_relation_instances", lambda g: builds.append(g) or real(g))
    assert cli.main(["homology", str(graph)]) == 0
    assert len(builds) == 1
