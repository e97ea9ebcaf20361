"""Workloads of the benchmark and the seeded inputs they run on.

A workload is a list of jobs.  A job is one surface, a starting
triangulation drawn for it from the seed, and the CLI commands run on it
in order.  The seed only picks the starting triangulation, written as the
file passed to ``--triangulation``.  It is one of:

- ``walk``: a walk of random flips from the constructor's triangulation.
  Every answer checked in ``answers.py`` is the same from any start.
- ``rotation``: the constructor's fan with its boundary labels turned by
  a random offset, i.e. the fan from another corner of the polygon.  Disc
  twist frames start as sigma_1 .. sigma_n on the arcs of a fan; from
  other triangulations the CLI pairs those generators with the wrong
  arcs, so ``presentation --verify`` reports false failures and the cover
  frames are not the twist frames.  Every fan gives the same work, so
  the seed does not change how much these jobs compute.
- ``relabel``: the constructor's triangulation with its arc labels
  shuffled.  A truncated ball's size depends on its centre: from seeds
  1-6 of a walk, ``genus_one(3)`` at radius 6 has 1229 to 1537 vertices
  and ``annulus(3, 2)`` at radius 7 has 306 to 519.  A relabelled
  triangulation is the same triangulation, so its ball is the same size
  from every seed.

Starts are made here on the triangulation JSON, without the library, so a
fault in the library's flip cannot shape its own inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TRI = "{tri}"
GRAPH = "{graph}"


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``{tri}`` and ``{graph}`` in argv name job files."""

    kind: str
    argv: tuple[str, ...]

    def radius(self) -> int | None:
        if "--radius" not in self.argv:
            return None
        return int(self.argv[self.argv.index("--radius") + 1])


@dataclass(frozen=True)
class Job:
    name: str
    surface: tuple[str, ...]  # flags of `flipgroupoid surface new`
    commands: tuple[Command, ...]
    start: str = "walk"  # or "rotation" or "relabel"; see the module docstring

    def polygon(self) -> int | None:
        """Marked points of a disc job, None for other surfaces."""
        return int(self.surface[1]) if self.surface[0] == "--polygon" else None


def _graph_job(name: str, surface: tuple[str, ...], radius: int | None = None,
               homology: bool = False) -> Job:
    enum = ["enumerate", "--triangulation", TRI, "--out", GRAPH]
    rel = ["relations", GRAPH]
    if radius is not None:
        enum += ["--radius", str(radius)]
        rel.append("--allow-incomplete")
    cmds = [Command("enumerate", tuple(enum)), Command("relations", tuple(rel))]
    if homology:
        cmds.append(Command("homology", ("homology", GRAPH)))
    return Job(name, surface, tuple(cmds), "walk" if radius is None else "relabel")


def _cover_job(name: str, surface: tuple[str, ...], radius: int, fibers: bool,
               start: str) -> Job:
    argv = ["cover", "--triangulation", TRI, "--radius", str(radius)]
    if fibers:
        argv += ["--report", "fibers"]
    return Job(name, surface, (Command("cover", tuple(argv)),), start)


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # Complete disc graphs through relations and H1: the dense Smith form
    # of homology dominates, enumeration and seeds do little.
    "disc-complex": tuple(
        _graph_job(f"polygon{m}", ("--polygon", str(m)), homology=True) for m in (7, 8, 9)
    ),
    # Enumeration and relation closure only: one dedup-heavy complete graph
    # and three frontier-heavy truncated ones.  Homology, braid and cover
    # never run, so this is the no-change control for those layers.
    "open-surfaces": (
        _graph_job("polygon10", ("--polygon", "10")),
        _graph_job("genus_one1", ("--genus-one", "1"), radius=10),
        _graph_job("genus_one3", ("--genus-one", "3"), radius=6),
        _graph_job("annulus3x2", ("--annulus", "3", "2"), radius=7),
    ),
    # Frame transport and Garside normal forms: braid-oracle frames on the
    # hexagon, free-group frames on annulus(1,1), presentation soundness.
    "twist-cover": (
        _cover_job("hexagon", ("--polygon", "6"), radius=6, fibers=True, start="rotation"),
        _cover_job("annulus1x1", ("--annulus", "1", "1"), radius=8, fibers=False,
                   start="walk"),
        Job("polygon8", ("--polygon", "8"),
            (Command("presentation", ("presentation", "--triangulation", TRI, "--verify")),),
            start="rotation"),
    ),
}


def arcs(tri: dict) -> list[str]:
    return [lab for lab, e in tri["edges"].items() if e["kind"] == "arc"]


def flip(tri: dict, arc: str) -> dict:
    """Swap the diagonal ``arc`` of its quadrilateral for the other one.

    Triangles list their sides anticlockwise.  With x1, x2 following the
    arc in one triangle and y1, y2 in the other, the quadrilateral reads
    x1 x2 y1 y2 anticlockwise; the new diagonal cuts off x2 y1 and y2 x1.
    """
    where = [(t, tri_sides.index(arc)) for t, tri_sides in enumerate(tri["triangles"])
             if arc in tri_sides]
    if len(where) != 2:
        raise ValueError(f"arc {arc} lies in {len(where)} triangles, expected 2")
    (t1, p1), (t2, p2) = where
    s1, s2 = tri["triangles"][t1], tri["triangles"][t2]
    x1, x2 = s1[(p1 + 1) % 3], s1[(p1 + 2) % 3]
    y1, y2 = s2[(p2 + 1) % 3], s2[(p2 + 2) % 3]
    rest = [s for t, s in enumerate(tri["triangles"]) if t not in (t1, t2)]
    return {**tri, "triangles": rest + [[arc, x2, y1], [arc, y2, x1]]}


def rotate(tri: dict, offset: int) -> dict:
    """Turn the labels of a disc's boundary segments by ``offset`` places."""
    m = tri["surface"]["boundaries"][0]
    turn = {f"b0.{k}": f"b0.{(k + offset) % m}" for k in range(m)}
    return {**tri, "triangles": [[turn.get(e, e) for e in s] for s in tri["triangles"]]}


def relabel(tri: dict, names: dict) -> dict:
    """Rename arcs by ``names``, a permutation of the arc labels."""
    return {**tri,
            "edges": {names.get(lab, lab): e for lab, e in tri["edges"].items()},
            "triangles": [[names.get(e, e) for e in s] for s in tri["triangles"]]}


def seeded_start(base: dict, seed: int, job: Job) -> dict:
    """The job's start drawn from ``seed``; the same seed gives the same start."""
    rng = random.Random(f"{seed}/{job.name}")
    if job.start == "rotation":
        return rotate(base, rng.randrange(base["surface"]["boundaries"][0]))
    labels = sorted(arcs(base))
    if job.start == "relabel":
        return relabel(base, dict(zip(labels, rng.sample(labels, len(labels)))))
    tri = base
    for _ in range(4 * len(labels)):
        tri = flip(tri, rng.choice(labels))
    return tri
