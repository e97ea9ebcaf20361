"""Spans and counts around the public functions of each flipgroupoid layer.

The tracer times the library from outside: it replaces each traced
function by a wrapper, both on the module that defines it and on every
module that imported it by name (``flipgroupoid.cli.enumerate_graph`` is
the same object as ``flipgroupoid.exchange.enumerate_graph``).  Methods
are wrapped on their class.  ``uninstall`` puts every original back.

A span is ``(name, start, end, parent, command)``, with ``parent`` the
index of the enclosing span (-1 for the command's root span).  Spans stay
in memory until the command ends.  A layer's self time is its spans'
durations minus the time covered by their child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer name, defining module, attribute path on that module)
TARGETS = (
    ("surface.flip", "flipgroupoid.surface", "Triangulation.flip"),
    ("surface.quiver", "flipgroupoid.surface", "Triangulation.quiver"),
    ("seeds.mutate_seed", "flipgroupoid.seeds", "mutate_seed"),
    ("seeds.canonical_form", "flipgroupoid.seeds", "canonical_form"),
    ("exchange.enumerate", "flipgroupoid.exchange", "enumerate_graph"),
    ("exchange.closure", "flipgroupoid.exchange", "relation_closure_check"),
    ("exchange.to_json", "flipgroupoid.exchange", "graph_to_json"),
    ("exchange.from_json", "flipgroupoid.exchange", "graph_from_json"),
    ("homology.two_cells", "flipgroupoid.homology", "two_cells"),
    ("homology.h1", "flipgroupoid.homology", "homology_h1"),
    ("homology.invariant_factors", "flipgroupoid.homology", "invariant_factors"),
    ("braid.normal_form", "flipgroupoid.braid", "normal_form"),
    ("presentation.from_qp", "flipgroupoid.presentation", "presentation_from_qp"),
    ("presentation.verify_sound", "flipgroupoid.presentation", "verify_sound"),
    ("cover.build", "flipgroupoid.cover", "build_cover_ball"),
    ("cover.frame_transport", "flipgroupoid.cover", "frame_transport_move"),
    ("cover.frame_at", "flipgroupoid.cover", "frame_at"),
    ("cover.fiber_report", "flipgroupoid.cover", "CoverBall.fiber_report"),
    ("cover.to_json", "flipgroupoid.cover", "CoverBall.to_json"),
)

ROOT = "cli"

# counts read at layer boundaries by _count_sizes
COUNTS = (
    "exchange.vertices", "exchange.new_vertices", "exchange.frontier",
    "exchange.instances", "exchange.circuits", "exchange.incomplete",
    "homology.cells", "homology.matrix_rows", "homology.matrix_cols",
    "homology.matrix_nnz", "homology.dense_bytes", "braid.letters_in",
    "presentation.relations_checked", "cover.tree_nodes", "cover.classes",
)


def _count_sizes(counts: dict, name: str, args: tuple, result) -> None:
    """Sizes read at a layer boundary, outside the span's time."""
    if name == "exchange.enumerate":
        counts["exchange.vertices"] += len(result.vertices)
        counts["exchange.new_vertices"] += len(result.vertices) - 1
        counts["exchange.frontier"] += sum(v.frontier for v in result.vertices)
    elif name == "exchange.closure":
        for key in ("instances", "circuits", "incomplete"):
            counts[f"exchange.{key}"] += result[key]
    elif name == "homology.two_cells":
        # face_census and homology_h1 each build the same cells
        counts["homology.cells"] = max(counts["homology.cells"], len(result))
    elif name == "homology.invariant_factors":
        matrix = args[0]
        rows, cols = matrix.shape
        counts["homology.matrix_rows"] += rows
        counts["homology.matrix_cols"] += cols
        counts["homology.matrix_nnz"] += int((matrix != 0).sum())
        counts["homology.dense_bytes"] += rows * cols * 8
    elif name == "braid.normal_form":
        counts["braid.letters_in"] += len(args[0].letters)
    elif name == "presentation.verify_sound":
        counts["presentation.relations_checked"] += result["checked"]
    elif name == "cover.build":
        counts["cover.tree_nodes"] += len(getattr(result, "nodes", ()))
        counts["cover.classes"] += len(result.classes())


class Tracer:
    """Collects spans and counts for one command; not reentrant."""

    def __init__(self, command: int = 0):
        self.command = command
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        command = self.command
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, command)
            _count_sizes(counts, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` under the root span of the command."""
        return self._wrap(ROOT, fn)(*args, **kwargs)

    # -- patching ------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target; raise LookupError naming any that is gone.

        A layer renamed or removed would otherwise read as 0 calls and 0 s,
        the largest gain a metric can show.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "flipgroupoid" or key.startswith("flipgroupoid."))]
        found, missing = [], []
        for name, modname, path in TARGETS:
            owner = sys.modules.get(modname)
            *cls_name, attr = path.split(".")
            if cls_name:
                owner = getattr(owner, cls_name[0], None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                missing.append(f"{name} ({modname}.{path})")
            else:
                found.append((name, owner, attr, original, bool(cls_name)))
        if missing:
            raise LookupError("tracer targets not found: " + ", ".join(missing))
        for name, owner, attr, original, is_method in found:
            wrapper = self._wrap(name, original)
            if is_method:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for mod_attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, mod_attr, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- aggregation -------------------------------------------------------------


def self_times(spans) -> tuple[dict, dict]:
    """Per-name call counts and self seconds of one command's spans."""
    calls: dict = defaultdict(int)
    own: dict = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - child_time[i]
    return calls, own


def _inside(spans, parent: int, name: str) -> bool:
    """Whether a span with this parent index lies inside a span of ``name``."""
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent >= 0


def inclusive_time(spans, name: str) -> float:
    """Seconds inside spans of ``name``, counting nested ones once."""
    return sum(end - start for n, start, end, parent, _ in spans
               if n == name and not _inside(spans, parent, name))


def calls_inside(spans, name: str, outer: str) -> int:
    """Spans of ``name`` that run inside a span of ``outer``."""
    return sum(n == name and _inside(spans, parent, outer) for n, _, _, parent, _ in spans)
