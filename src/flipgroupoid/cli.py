"""Command line front end.

Exit codes: 0 success, 1 mathematical check failure (any RuntimeError of
the library, with a JSON report on stdout that carries the error's witness
under "detail" when it has one), 2 usage error.  Every JSON output,
reports and graph files alike, is written one record per line (see
:func:`_chunks`) by the standard library's C encoder, and is
byte-deterministic for a given invocation; the --threads flag is accepted
for interface compatibility and never changes output bytes.  A path named
by --out is opened before the command's work starts; a regular file there
changes only when the command has written all of it, and a symlink, device
or pipe is written through.

A command runs with the cyclic garbage collector off, argument parsing
included, and :func:`main` turns it back on if it was on.  A command is a
short batch job that builds some 10^5 containers (parsed JSON,
triangles, seeds, adjacency tuples) and holds most of them to its end.
None of them is in a reference cycle that grows with the input, so the
collector's repeated passes over them free nothing, and reference
counting frees what the command drops.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import stat
import sys
from collections.abc import Iterator

from . import braid
from .braid import BraidWord
from .cover import build_cover_ball
from .exchange import (
    TruncationError,
    enumerate_graph,
    export_dot,
    graph_from_json,
    graph_records,
    relation_closure_check,
)
from .homology import face_census, homology_h1
from .presentation import local_twist_relation_report, presentation_from_qp
from .surface import Triangulation, annulus, genus_one, polygon_fan


def _encoder():
    """``json.JSONEncoder(sort_keys=True).encode``, with the C encoder it
    would build for each call built once.  Its ``markers`` dict, the
    circular-reference check's, is cleared before each call, since the C
    encoder leaves entries behind when it raises.  Without the C
    accelerator this is the encoder's own ``encode``."""
    enc = json.JSONEncoder(sort_keys=True)
    make = json.encoder.c_make_encoder
    if make is None:
        return enc.encode
    markers: dict = {}
    run = make(markers, enc.default, json.encoder.encode_basestring_ascii, enc.indent,
               enc.key_separator, enc.item_separator, enc.sort_keys, enc.skipkeys, enc.allow_nan)
    clear, join = markers.clear, "".join

    def encode(obj) -> str:
        clear()
        return join(run(obj, 0))

    return encode


_encode = _encoder()


def _chunks(obj):
    """The CLI's JSON text of ``obj`` in pieces, ending in a newline.

    The members of a top-level object go one per line, in sorted key
    order.  Each element of a list or tuple member goes on a line of its
    own, and so does each element of a member that is an iterator, written
    as it is consumed.  Everything else is written inline by
    ``json.JSONEncoder(sort_keys=True)``, which raises the TypeError
    ``json.dumps`` raises on a value it cannot write.
    """
    if type(obj) is not dict or not obj:
        yield _encode(obj) + "\n"
        return
    sep = "{\n"
    # sorted as the encoder sorts a dict's items, so that errors match too
    for key, value in sorted(obj.items()):
        if isinstance(value, (list, tuple, Iterator)):
            # '{"key": []}' cut to '"key": ', the key written by the encoder
            yield sep + _encode({key: ()})[1:-3] + "["
            lead = "\n"
            for x in value:
                yield lead + _encode(x)
                lead = ",\n"
            yield "]" if lead == "\n" else "\n]"
        else:
            yield sep + _encode({key: value})[1:-1]
        sep = ",\n"
    yield "\n}\n"


def _dump(obj) -> str:
    return "".join(_chunks(obj))


@contextlib.contextmanager
def _output(path: str | None):
    """The text stream a command writes, opened before the command's work
    starts so that an unwritable place fails at once: stdout when ``path``
    is None or '-'.  A ``path`` that is absent, or a regular file with one
    link, is written as a file beside it that takes its mode, replaces it
    when the block ends and is removed if the block raises, so ``path`` is
    never left half written.  Any other ``path`` (a symlink, a device, a
    pipe, a file with hard links) is opened and written in place."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        with open(path, "w") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            if st is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _fail(kind: str, message: str, code: int = 1, detail: dict | None = None) -> int:
    report = {"status": "error", "kind": kind, "message": message}
    if detail is not None:
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
    return Triangulation.from_json(_read_json(args.triangulation))


def _read_json(path: str):
    """The JSON value in the file at ``path``.  Nesting too deep for the
    parser is a ValueError that names the file, as a syntax error is; the
    parser's RecursionError would otherwise read as a check failure."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
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
    cp.add_argument("--budget", type=int, default=None, help="graph vertices and cover classes born")
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
    except TruncationError as exc:  # a RuntimeError, so caught first
        return _fail("truncation", str(exc))
    except RuntimeError as exc:
        return _fail("check", str(exc), detail=getattr(exc, "detail", None))
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        return _fail("usage", str(exc), 2)


def _run(args) -> int:
    cmd = args.command

    if cmd == "surface":
        t = _base_triangulation(args)
        with _output(args.out) as fh:
            fh.writelines(_chunks(t.to_json()))
        return 0

    if cmd == "enumerate":
        t = _base_triangulation(args)
        with _output(args.out) as fh:
            g = enumerate_graph(t, radius=args.radius, budget=args.budget)
            fh.writelines(_chunks(graph_records(g)))
        return 0

    if cmd == "relations":
        g = graph_from_json(_read_json(args.graph))
        if not g.is_complete() and not args.allow_incomplete:
            return _fail("usage", "graph is truncated; pass --allow-incomplete", 2)
        report = relation_closure_check(g, allow_incomplete=args.allow_incomplete)
        sys.stdout.write(_dump({"status": "ok", **report}))
        return 0

    if cmd == "homology":
        g = graph_from_json(_read_json(args.graph))
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
        if args.verify and not t.surface.is_disc:
            return _fail("usage", "--verify needs a disc surface (braid oracle)", 2)
        with _output(args.out) as fh:
            pres = presentation_from_qp(t.quiver())
            out = {"presentation": pres.to_json()}
            code = 0
            if args.verify:
                # the twist frame needs vertex 0 only; it walks to a fan itself
                report = local_twist_relation_report(enumerate_graph(t, radius=0), 0)
                out["verification"] = report
                code = 0 if report["all_hold"] else 1
            fh.writelines(_chunks(out))
        return code

    if cmd == "cover":
        t = _base_triangulation(args)
        with _output(args.out) as fh:
            g = enumerate_graph(t, radius=args.radius, budget=args.budget)
            ball = build_cover_ball(g, radius=args.radius, budget=args.budget)
            out = ball.to_json()
            if args.report == "fibers":
                out["fibers"] = {str(v): ball.fiber_report(v) for v in range(g.vertex_count())}
            fh.writelines(_chunks(out))
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
        with _output(args.out) as fh:
            g = graph_from_json(_read_json(args.graph))
            fh.writelines([export_dot(g)] if args.format == "dot" else _chunks(graph_records(g)))
        return 0

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
