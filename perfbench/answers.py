"""Known answers for every benchmark command, checked without the library.

Each check reads what the command printed or wrote and returns a list of
problems; an empty list means the answer is right.  The expected values
come from closed formulas and brute-force counts here, never from
flipgroupoid itself:

- complete disc graphs have Catalan(m - 2) vertices;
- ``relations`` checks one instance per arc pair at every inner vertex and
  one braid circuit per pair with |B| <= 1, so on a complete disc graph
  instances = circuits = V n (n - 1) / 2 and nothing is incomplete;
- H1 of the square/pentagon complex is 0 with no torsion (the paper);
- the squares and pentagons are the dissections of the m-gon into two
  quadrilaterals or one pentagon plus triangles, counted by brute force;
- covering balls have the criterion-9 structure from any base;
- every relation of the twist presentation holds under the braid oracle.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from math import comb


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


@lru_cache(maxsize=None)
def _dissections(k: int) -> Counter:
    """Dissections of a convex k-gon into cells of 3 to 5 sides.

    Keys are sorted tuples of cell sizes, values how many dissections have
    them.  The cell on the edge (0, k-1) picks 1 to 3 of the other k - 2
    corners; each gap between picked corners is a smaller polygon.
    """
    if k == 2:
        return Counter({(): 1})
    out: Counter = Counter()
    inner = range(1, k - 1)

    def pick(chosen: list[int], nxt: int):
        if chosen:
            corners = [0, *chosen, k - 1]
            parts = [Counter({(len(corners),): 1})]
            parts += [_dissections(b - a + 1) for a, b in zip(corners, corners[1:])]
            acc = Counter({(): 1})
            for part in parts:
                combined: Counter = Counter()
                for x, n in acc.items():
                    for y, m in part.items():
                        combined[tuple(sorted(x + y))] += n * m
                acc = combined
            out.update(acc)
        if len(chosen) < 3:
            for c in range(nxt, k - 1):
                pick(chosen + [c], c + 1)

    pick([], inner.start)
    return out


def face_census(m: int) -> dict:
    """Squares and pentagons of the m-gon's flip graph, by dissection count."""
    cells = _dissections(m)
    triangles = m - 6
    return {
        "squares": cells.get((3,) * triangles + (4, 4), 0),
        "pentagons": cells.get((3,) * (triangles + 1) + (5,), 0),
    }


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def arc_count(tri: dict) -> int:
    return sum(e["kind"] == "arc" for e in tri["edges"].values())


# -- per command ------------------------------------------------------------


def check(job, command, code: int, stdout_path: str, ctx: dict) -> list[str]:
    """Problems with one command's answer; ``ctx`` holds the job's files."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return CHECKS[command.kind](job, command, stdout_path, ctx)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_enumerate(job, command, stdout_path, ctx) -> list[str]:
    g = ctx["graph"] = _json(ctx["graph_path"])
    n = arc_count(ctx["tri"])
    verts = g["vertices"]
    bad = []
    if verts[0]["depth"] != 0:
        bad.append("vertex 0 is not the start")
    slots = [set() for _ in verts]
    for e in g["edges"]:
        v, k, u, k2 = e["ends"]
        slots[v].add(k)
        slots[u].add(k2)
    if any(len(s) != n for s, vd in zip(slots, verts) if not vd["frontier"]):
        bad.append("an inner vertex lacks one of its n flips")
    radius = command.radius()
    if radius is None:
        want = catalan(job.polygon() - 2)
        if len(verts) != want:
            bad.append(f"{len(verts)} vertices, Catalan says {want}")
        if g["radius"] is not None or any(vd["frontier"] for vd in verts):
            bad.append("complete graph has a frontier")
    else:
        if g["radius"] != radius:
            bad.append(f"radius {g['radius']} != {radius}")
        if any(vd["depth"] > radius or vd["frontier"] != (vd["depth"] == radius)
               for vd in verts):
            bad.append("frontier is not exactly the vertices at the radius")
        if not any(vd["frontier"] for vd in verts):
            bad.append("truncated graph of an infinite exchange graph has no frontier")
    return bad


def _check_relations(job, command, stdout_path, ctx) -> list[str]:
    rep = _json(stdout_path)
    g = ctx.get("graph") or _json(ctx["graph_path"])
    n = arc_count(ctx["tri"])
    inner = [vd for vd in g["vertices"] if not vd["frontier"]]
    want = sum(
        comb(n, 2) + sum(abs(vd["B"][i][j]) <= 1 for i in range(n) for j in range(i + 1, n))
        for vd in inner
    )
    got = rep["instances"] + rep["circuits"] + rep["incomplete"]
    bad = []
    if rep["status"] != "ok":
        bad.append(f"status {rep['status']}")
    if got != want:
        bad.append(f"{got} instances + circuits + incomplete, expected {want}")
    if "--allow-incomplete" not in command.argv:
        pairs = len(inner) * comb(n, 2)
        if (rep["instances"], rep["circuits"], rep["incomplete"]) != (pairs, pairs, 0):
            bad.append(f"complete graph: {rep} != {pairs} instances and circuits")
    elif rep["instances"] == 0 or rep["circuits"] == 0:
        bad.append("no relation instance or circuit closed")
    return bad


def _check_homology(job, command, stdout_path, ctx) -> list[str]:
    rep = _json(stdout_path)
    bad = []
    if (rep["status"], rep["betti1"], rep["torsion"]) != ("ok", 0, []):
        bad.append(f"H1 is betti1={rep['betti1']} torsion={rep['torsion']}, expected 0")
    census = face_census(job.polygon())
    if rep["faces"] != census:
        bad.append(f"faces {rep['faces']} != dissection count {census}")
    return bad


def _twist(moves: dict, cls: int, arc: int) -> int | None:
    """Lift the local twist at ``arc``: two forward flips around one edge."""
    mid = moves[cls].get(f"{arc}+")
    if mid is None:
        return None
    back = [mv[:-1] for mv, tgt in moves[mid].items() if mv.endswith("-") and tgt == cls]
    if len(back) != 1:
        raise ValueError(f"class {mid} has {len(back)} backward moves to class {cls}")
    return moves[mid].get(f"{back[0]}+")


def _lift(moves: dict, cls: int, arcs) -> int | None:
    for arc in arcs:
        cls = _twist(moves, cls, arc)
        if cls is None:
            return None
    return cls


def _check_cover(job, command, stdout_path, ctx) -> list[str]:
    ball = _json(stdout_path)
    tri = ctx["tri"]
    n = arc_count(tri)
    radius = command.radius()
    classes = {c["id"]: c for c in ball["classes"]}
    moves = {cid: c["moves"] for cid, c in classes.items()}
    all_moves = {f"{k}{d}" for k in range(1, n + 1) for d in "+-"}
    bad = []
    root = classes.get(0)
    if (ball["base"], ball["radius"]) != (0, radius) or root is None:
        return [f"ball base/radius {ball['base']}/{ball['radius']} or root class missing"]
    if (root["depth"], root["shadow"], root["label"]) != (0, 0, []):
        bad.append("root class is not depth 0 over the base with the identity label")
    if root["frame"] != [[k] for k in range(1, n + 1)]:
        bad.append("root frame is not the generators in order")
    for cid, c in classes.items():
        if c["interior"] != (c["depth"] + 3 <= radius):
            bad.append(f"class {cid}: interior flag disagrees with depth")
        if c["interior"] and set(c["moves"]) != all_moves:
            bad.append(f"interior class {cid} lacks some of the 2n moves")
        if c["frame"] is None or len(c["frame"]) != n or not all(c["frame"]):
            bad.append(f"class {cid}: frame missing or with an empty entry")
        for mv, t in c["moves"].items():
            back = "-" if mv.endswith("+") else "+"
            if t not in classes or abs(classes[t]["depth"] - c["depth"]) > 1:
                bad.append(f"class {cid}: move {mv} leaves the ball or skips a layer")
            elif not any(m.endswith(back) and tt == cid for m, tt in moves[t].items()):
                bad.append(f"class {cid}: move {mv} has no reverse move")
        if len(bad) > 5:
            return bad
    if "fibers" in ball:
        bad += _check_fibers(ball["fibers"], classes, job)
    if job.polygon() is not None:
        bad += _check_braid_loops(moves, tri, n)
    else:
        t1, t2 = _twist(moves, 0, 1), _twist(moves, 0, 2)
        if t1 is None or t2 is None or t1 == t2:
            bad.append("the two local twists at the base do not lift to distinct classes")
    return bad


def _check_fibers(fibers: dict, classes: dict, job) -> list[str]:
    bad = []
    want_keys = {str(v) for v in range(catalan(job.polygon() - 2))}
    if set(fibers) != want_keys:
        bad.append("fiber report does not cover every graph vertex once")
    seen = []
    for shadow, rows in fibers.items():
        labels = [tuple(r["label"]) for r in rows if r["label"] is not None]
        if len(set(labels)) != len(labels):
            bad.append(f"fiber over {shadow} repeats a deck label")
        for r in rows:
            c = classes.get(r["class"])
            seen.append(r["class"])
            if c is None or (str(c["shadow"]), c["depth"], c["size"], c["label"]) != (
                shadow, r["depth"], r["size"], r["label"]
            ):
                bad.append(f"fiber row {r} disagrees with its class")
    interior = sorted(cid for cid, c in classes.items() if c["interior"])
    if sorted(seen) != interior:
        bad.append("fibers are not exactly the interior classes")
    return bad


def _check_braid_loops(moves: dict, tri: dict, n: int) -> list[str]:
    """Twists of arcs sharing a triangle braid, of disjoint arcs commute."""
    tris = [set(s) for s in tri["triangles"]]
    closed = 0
    bad = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            share = any({f"a{i}", f"a{j}"} <= s for s in tris)
            w1, w2 = ([i, j, i], [j, i, j]) if share else ([i, j], [j, i])
            e1, e2 = _lift(moves, 0, w1), _lift(moves, 0, w2)
            if e1 is None or e2 is None:
                continue
            if e1 != e2:
                bad.append(f"twist relation of arcs {i}, {j} does not close at the base")
            closed += 1
    if closed == 0:
        bad.append("no twist relation could be lifted from the base")
    return bad


def _check_presentation(job, command, stdout_path, ctx) -> list[str]:
    out = _json(stdout_path)
    ver = out["verification"]
    rels = out["presentation"]["relations"]
    bad = []
    if not ver["all_hold"] or not all(r["holds"] for r in ver["relations"]):
        bad.append("a presentation relation fails under the braid oracle")
    if not rels or ver["checked"] != len(rels) or len(ver["relations"]) != len(rels):
        bad.append(f"checked {ver['checked']} of {len(rels)} relations")
    if ver["vertex"] != 0:
        bad.append("verification ran at another vertex than the start")
    return bad


CHECKS = {
    "enumerate": _check_enumerate,
    "relations": _check_relations,
    "homology": _check_homology,
    "cover": _check_cover,
    "presentation": _check_presentation,
}
