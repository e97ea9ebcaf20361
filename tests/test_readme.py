"""The README's examples run as written: each command of its CLI block
exits 0, and its library tour executes."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import flipgroupoid

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(flipgroupoid.__file__).resolve().parents[1])


def _block(after: str, lang: str) -> str:
    """The first ``lang`` code block after the heading ``after``."""
    text = README.read_text()
    start = text.index(f"\n{after}\n")
    return re.search(rf"```{lang}\n(.*?)```", text[start:], re.S).group(1)


def test_readme_cli_block_runs(tmp_path):
    lines = [line for line in _block("## CLI", "sh").splitlines() if line.startswith("flipgroupoid ")]
    assert len(lines) >= 9
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        r = subprocess.run([sys.executable, "-m", "flipgroupoid.cli", *argv],
                           cwd=tmp_path, env=env, capture_output=True, text=True)
        assert r.returncode == 0, (line, r.stdout[-2000:], r.stderr[-2000:])
        assert r.stdout or "--out" in argv, line


def test_readme_library_tour_runs():
    namespace: dict = {}
    exec(_block("## Library tour", "python"), namespace)
    assert namespace["g"].vertex_count() == 14
