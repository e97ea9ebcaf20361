"""Command line front end.

Exit codes: 0 success, 1 mathematical check failure (with a JSON report on
stdout), 2 usage error.  All artifacts are byte-deterministic for a given
invocation; the --threads flag is accepted for interface compatibility and
never changes output bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import braid
from .braid import BraidWord
from .cover import build_cover_ball
from .exchange import (
    TruncationError,
    enumerate_graph,
    export_dot,
    graph_from_json,
    graph_to_json,
    relation_closure_check,
)
from .homology import face_census, homology_h1
from .presentation import local_twist_relation_report, presentation_from_qp
from .surface import Triangulation, annulus, genus_one, polygon_fan


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fail(kind: str, message: str, code: int = 1, **detail) -> int:
    report = {"status": "error", "kind": kind, "message": message}
    if detail:
        report["detail"] = detail
    stream = sys.stderr if code == 2 else sys.stdout
    stream.write(_dump(report))
    return code


def _surface_args(sub):
    sub.add_argument("--polygon", type=int, metavar="M")
    sub.add_argument("--annulus", type=int, nargs=2, metavar=("P", "Q"))
    sub.add_argument("--genus-one", type=int, metavar="M", dest="genus_one")
    sub.add_argument("--triangulation", metavar="FILE", help="explicit JSON triangulation")


def _base_triangulation(args) -> Triangulation:
    picks = [
        args.polygon is not None,
        args.annulus is not None,
        args.genus_one is not None,
        getattr(args, "triangulation", None) is not None,
    ]
    if sum(picks) != 1:
        raise SystemExit(
            _fail("usage", "choose exactly one of --polygon/--annulus/--genus-one/--triangulation", 2)
        )
    if args.polygon is not None:
        return polygon_fan(args.polygon)
    if args.annulus is not None:
        return annulus(*args.annulus)
    if args.genus_one is not None:
        return genus_one(args.genus_one)
    with open(args.triangulation) as fh:
        return Triangulation.from_json(json.load(fh))


def _load_graph(path: str):
    with open(path) as fh:
        return graph_from_json(json.load(fh))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="flipgroupoid")
    ap.add_argument("--threads", type=int, default=1, help="wall-time only; outputs are identical")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("surface", help="construct triangulations")
    sp.add_argument("action", choices=["new"])
    _surface_args(sp)
    sp.add_argument("--out", default=None)

    ep = sub.add_parser("enumerate", help="enumerate the exchange graph")
    _surface_args(ep)
    ep.add_argument("--radius", type=int, default=None)
    ep.add_argument("--budget", type=int, default=None)
    ep.add_argument("--out", default=None)

    rp = sub.add_parser("relations", help="check relation/braid circuit closure")
    rp.add_argument("graph", metavar="GRAPH_JSON")
    rp.add_argument("--allow-incomplete", action="store_true")

    hp = sub.add_parser("homology", help="H1 of the square+pentagon 2-complex")
    hp.add_argument("graph", metavar="GRAPH_JSON")

    pp = sub.add_parser("presentation", help="emit (and verify) the braid twist presentation")
    _surface_args(pp)
    pp.add_argument("--verify", action="store_true")
    pp.add_argument("--out", default=None)

    cp = sub.add_parser("cover", help="build a covering ball")
    _surface_args(cp)
    cp.add_argument("--radius", type=int, required=True)
    cp.add_argument("--graph-radius", type=int, default=None)
    cp.add_argument("--budget", type=int, default=None)
    cp.add_argument("--report", choices=["fibers"], default=None)
    cp.add_argument("--out", default=None)

    bp = sub.add_parser("braid", help="braid word utilities")
    bp.add_argument("action", choices=["nf", "eq"])
    bp.add_argument("--strands", type=int, required=True)
    bp.add_argument("words", nargs="+", help="whitespace-separated signed generator indices")

    xp = sub.add_parser("export", help="convert a graph file")
    xp.add_argument("graph", metavar="GRAPH_JSON")
    xp.add_argument("--format", choices=["dot", "json"], default="dot")
    xp.add_argument("--out", default=None)

    args = ap.parse_args(argv)
    try:
        return _run(args)
    except TruncationError as exc:
        return _fail("truncation", str(exc))
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        return _fail("usage", str(exc), 2)


def _run(args) -> int:
    cmd = args.command

    if cmd == "surface":
        t = _base_triangulation(args)
        _write(args.out, _dump(t.to_json()))
        return 0

    if cmd == "enumerate":
        t = _base_triangulation(args)
        g = enumerate_graph(t, radius=args.radius, budget=args.budget)
        _write(args.out, _dump(graph_to_json(g)))
        return 0

    if cmd == "relations":
        g = _load_graph(args.graph)
        if not g.is_complete() and not args.allow_incomplete:
            return _fail("usage", "graph is truncated; pass --allow-incomplete", 2)
        try:
            report = relation_closure_check(g, allow_incomplete=args.allow_incomplete)
        except RuntimeError as exc:
            return _fail("check", str(exc))
        sys.stdout.write(_dump({"status": "ok", **report}))
        return 0

    if cmd == "homology":
        g = _load_graph(args.graph)
        if not g.is_complete():
            return _fail("usage", "homology needs a fully enumerated graph", 2)
        betti, torsion = homology_h1(g)
        census = face_census(g)
        report = {
            "status": "ok" if betti == 0 and not torsion else "nontrivial",
            "betti1": betti,
            "torsion": torsion,
            "faces": census,
        }
        sys.stdout.write(_dump(report))
        return 0 if betti == 0 and not torsion else 1

    if cmd == "presentation":
        t = _base_triangulation(args)
        pres = presentation_from_qp(t.quiver())
        out = {"presentation": pres.to_json()}
        code = 0
        if args.verify:
            if not t.surface.is_disc:
                return _fail("usage", "--verify needs a disc surface (braid oracle)", 2)
            g = enumerate_graph(t)
            report = local_twist_relation_report(g, 0)
            out["verification"] = report
            code = 0 if report["all_hold"] else 1
        _write(args.out, _dump(out))
        return code

    if cmd == "cover":
        t = _base_triangulation(args)
        graph_radius = args.graph_radius
        if graph_radius is None:
            graph_radius = None if t.surface.is_disc else args.radius
        g = enumerate_graph(t, radius=graph_radius, budget=args.budget)
        ball = build_cover_ball(g, radius=args.radius, budget=args.budget)
        out = ball.to_json()
        if args.report == "fibers":
            out["fibers"] = {str(v): ball.fiber_report(v) for v in range(g.vertex_count())}
        _write(args.out, _dump(out))
        return 0

    if cmd == "braid":
        words = [BraidWord.parse(args.strands, w) for w in args.words]
        if args.action == "nf":
            for w in words:
                nf = braid.normal_form(w)
                sys.stdout.write(
                    _dump(
                        {
                            "power": nf.power,
                            "factors": [list(f) for f in nf.factors],
                            "word": list(nf.word().letters),
                        }
                    )
                )
            return 0
        if len(words) != 2:
            return _fail("usage", "braid eq needs exactly two words", 2)
        same = braid.equal(words[0], words[1])
        sys.stdout.write("Equal\n" if same else "Distinct\n")
        return 0

    if cmd == "export":
        g = _load_graph(args.graph)
        if args.format == "dot":
            _write(args.out, export_dot(g))
        else:
            _write(args.out, _dump(graph_to_json(g)))
        return 0

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
