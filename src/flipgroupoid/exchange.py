"""BFS enumeration of exchange graphs and their relation instances.

Vertices are clusters: triangulations deduplicated by the canonical seed
key of :mod:`flipgroupoid.seeds`.  Each vertex stores its triangulation
with arcs relabelled into the canonical order of its seed, so arcs,
matrix indices and edge labels all agree.  Every unoriented edge stands
for the 2-cycle of forward mutations joining its endpoints; a directed
edge (v, k) carries the index transport permutation identifying arcs of v
with arcs of the target.

Relation instances follow the three local shapes at a vertex: a pair of
arcs sharing no triangle gives a square (x^2 = y^2), sharing one triangle
a pentagon (x^2 = y^3), sharing two triangles a hexagonal dumbbell
(x^2 y = y x^2), with x the forward mutation at the source of the arrows
between the pair.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .seeds import Seed, canonical_form, canonical_key, mutate_seed
from .surface import PairClass, Triangulation, arc_label

__all__ = [
    "TruncationError",
    "ExchangeGraph",
    "enumerate_graph",
    "RelationKind",
    "RelationInstance",
    "relation_instances",
    "all_relation_instances",
    "relation_closure_check",
    "export_dot",
    "graph_to_json",
    "graph_from_json",
]

DEFAULT_BUDGET = 10**6


def _budget_default() -> int:
    env = os.environ.get("FLIPGROUPOID_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


class TruncationError(RuntimeError):
    """Raised when enumeration would exceed the vertex budget."""


def _relabel(t: Triangulation, perm: tuple[int, ...]) -> Triangulation:
    """Relabel arc ids by perm (1-based old -> new)."""
    mapping = {arc_label(i + 1): arc_label(perm[i]) for i in range(len(perm))}
    tris = [tuple(mapping.get(e, e) for e in tri) for tri in t.triangles]
    return Triangulation(t.surface, tris, validate=False)


@dataclass
class GraphVertex:
    triangulation: Triangulation
    seed: Seed
    key: bytes
    depth: int
    frontier: bool


@dataclass
class ExchangeGraph:
    surface: object
    vertices: list[GraphVertex]
    nbr: list[dict[int, tuple[int, int]]]
    edge_perm: dict[tuple[int, int], tuple[int, ...]]
    radius: int | None
    budget: int
    # homology.two_cells keeps its result here; a graph is not changed once built
    cell_cache: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.surface.arc_count

    def vertex_count(self) -> int:
        return len(self.vertices)

    def unoriented_edges(self) -> list[tuple[int, int, int, int]]:
        """Canonical unoriented edges as (u, k_u, v, k_v), u-side minimal."""
        out = []
        for v, nb in enumerate(self.nbr):
            for k, (u, k2) in nb.items():
                if (v, k) <= (u, k2):
                    out.append((v, k, u, k2))
        out.sort()
        return out

    def edge_id(self, v: int, k: int) -> tuple[int, int]:
        u, k2 = self.nbr[v][k]
        return min((v, k), (u, k2))

    def is_complete(self) -> bool:
        return all(not v.frontier for v in self.vertices)

    def step(self, v: int, k: int) -> tuple[int, tuple[int, ...]]:
        """Follow the forward mutation at arc k; returns (target, index map)."""
        u, _ = self.nbr[v][k]
        return u, self.edge_perm[(v, k)]


def enumerate_graph(
    base: Triangulation,
    radius: int | None = None,
    budget: int | None = None,
) -> ExchangeGraph:
    """BFS over flips from ``base``, deduplicating by canonical seed key.

    ``radius=None`` means full enumeration (only sensible when the graph is
    finite; the vertex budget turns runaway enumerations into a loud
    :class:`TruncationError`).
    """
    if radius is not None and radius < 0:
        raise ValueError("radius must be >= 0")
    budget = _budget_default() if budget is None else budget
    if budget < 1:
        raise ValueError("budget must be >= 1")

    n = base.surface.arc_count
    seed0 = Seed.initial(base.quiver().B)
    B0, C0, perm0 = canonical_form(seed0)
    v0 = GraphVertex(_relabel(base, perm0), Seed(B0, C0), canonical_key(seed0), 0, False)

    vertices = [v0]
    index = {v0.key: 0}
    nbr: list[dict] = [{}]
    edge_perm: dict[tuple[int, int], tuple[int, ...]] = {}

    queue = [0]
    qpos = 0
    while qpos < len(queue):
        v = queue[qpos]
        qpos += 1
        vd = vertices[v]
        if radius is not None and vd.depth >= radius:
            vd.frontier = True
            continue
        for k in range(1, n + 1):
            if k in nbr[v]:
                continue
            mutated = mutate_seed(vd.seed, k)
            B2, C2, perm = canonical_form(mutated)
            key = canonical_key(mutated)
            u = index.get(key)
            if u is None:
                if len(vertices) >= budget:
                    raise TruncationError(
                        f"vertex budget {budget} exceeded while enumerating"
                    )
                tri = _relabel(vd.triangulation.flip(k), perm)
                seed_u = Seed(B2, C2)
                if (tri.quiver().B != B2).any():
                    raise RuntimeError("flip/mutation mismatch: implementation bug")
                u = len(vertices)
                vertices.append(GraphVertex(tri, seed_u, key, vd.depth + 1, False))
                nbr.append({})
                index[key] = u
                queue.append(u)
            k2 = perm[k - 1]
            nbr[v][k] = (u, k2)
            edge_perm[(v, k)] = perm
            # the reverse direction is the inverse permutation
            inv = [0] * n
            for i in range(n):
                inv[perm[i] - 1] = i + 1
            nbr[u][k2] = (v, k)
            edge_perm[(u, k2)] = tuple(inv)
    return ExchangeGraph(base.surface, vertices, nbr, edge_perm, radius, budget)


class RelationKind(Enum):
    SQUARE = "Square"
    PENTAGON = "Pentagon"
    HEX_DUMBBELL = "HexDumbbell"


@dataclass(frozen=True)
class RelationInstance:
    kind: RelationKind
    base: int
    arcs: tuple[int, int]
    left_steps: tuple[tuple[int, int], ...]
    right_steps: tuple[tuple[int, int], ...]
    left_end: int | None
    right_end: int | None
    left_pair: tuple[int, int] | None = field(default=None, compare=False)
    right_pair: tuple[int, int] | None = field(default=None, compare=False)
    complete: bool = True

    def co_terminates(self) -> bool:
        """Both sides end at the same vertex with consistent slot transport.

        Squares and hexagonal dumbbells carry the (head, tail) slots to the
        same positions along both sides; the two sides of a pentagon swap
        them (each side flips the pair an odd total number of times).
        """
        if not (self.complete and self.left_end == self.right_end):
            return False
        if self.kind is RelationKind.PENTAGON:
            return self.left_pair == (self.right_pair[1], self.right_pair[0])
        return self.left_pair == self.right_pair


def _pair_walk(g: ExchangeGraph, v: int, a: int, b: int, plan: str):
    """Walk forward mutations; 'a'/'b' in plan flips the transported slot."""
    steps = []
    for ch in plan:
        k = a if ch == "a" else b
        if k not in g.nbr[v]:
            return tuple(steps), None, None
        steps.append((v, k))
        u, _ = g.nbr[v][k]
        perm = g.edge_perm[(v, k)]
        a, b = perm[a - 1], perm[b - 1]
        v = u
    return tuple(steps), v, (a, b)


def relation_instances(g: ExchangeGraph, v: int) -> list[RelationInstance]:
    """One instance per unordered arc pair at vertex v."""
    vd = g.vertices[v]
    tri = vd.triangulation
    B = vd.seed.B
    out = []
    n = g.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            cls = tri.classify_pair(i, j)
            bij = int(B[i - 1, j - 1])
            if cls is PairClass.DISJOINT:
                if bij != 0:
                    raise RuntimeError("disjoint arcs must have B entry 0")
                kind, head, tail = RelationKind.SQUARE, i, j
                left_plan, right_plan = "ba", "ab"
            elif cls is PairClass.ONE_SHARED_TRIANGLE:
                if abs(bij) != 1:
                    raise RuntimeError("one shared triangle must give |B| = 1")
                tail, head = (i, j) if bij > 0 else (j, i)
                kind = RelationKind.PENTAGON
                left_plan, right_plan = "ba", "aba"
            else:
                if abs(bij) != 2:
                    raise RuntimeError("two shared triangles must give |B| = 2")
                tail, head = (i, j) if bij > 0 else (j, i)
                kind = RelationKind.HEX_DUMBBELL
                left_plan, right_plan = "baa", "aab"
            ls, le, lp = _pair_walk(g, v, head, tail, left_plan)
            rs, re, rp = _pair_walk(g, v, head, tail, right_plan)
            out.append(
                RelationInstance(
                    kind=kind,
                    base=v,
                    arcs=(i, j),
                    left_steps=ls,
                    right_steps=rs,
                    left_end=le,
                    right_end=re,
                    left_pair=lp,
                    right_pair=rp,
                    complete=le is not None and re is not None,
                )
            )
    return out


def all_relation_instances(g: ExchangeGraph) -> list[RelationInstance]:
    out = []
    for v in range(g.vertex_count()):
        if not g.vertices[v].frontier:
            out.extend(relation_instances(g, v))
    return out


def _twist_walk(g: ExchangeGraph, v: int, arcs: list[int]):
    """Walk the 2-cycle loops t_{arc} in sequence; returns end vertex or None.

    Each completed 2-cycle returns to its start with identity index
    transport, so consecutive twists may reuse the original arc indices.
    """
    cur = v
    for a in arcs:
        slot = a
        for _ in range(2):
            if slot not in g.nbr[cur]:
                return None
            cur, slot = g.nbr[cur][slot]
        if cur != v:
            raise RuntimeError("local twist did not return to its vertex")
    return cur


def relation_closure_check(g: ExchangeGraph, allow_incomplete: bool = False) -> dict:
    """Walk both sides of every relation instance and the braid-relation
    circuits of the local twists; any non-closing circuit is a hard failure.
    """
    if g.radius is not None and g.radius < 4 and not allow_incomplete:
        raise ValueError("closure check needs radius >= 4")
    checked = incomplete = 0
    for inst in all_relation_instances(g):
        if not inst.complete:
            incomplete += 1
            continue
        if not inst.co_terminates():
            raise RuntimeError(
                f"relation instance {inst.kind.value} at vertex {inst.base}, "
                f"arcs {inst.arcs} does not close"
            )
        checked += 1
    circuits = 0
    for v in range(g.vertex_count()):
        vd = g.vertices[v]
        if vd.frontier:
            continue
        B = vd.seed.B
        for i in range(1, g.n + 1):
            for j in range(i + 1, g.n + 1):
                entry = abs(int(B[i - 1, j - 1]))
                if entry == 0:
                    pair = [_twist_walk(g, v, [i, j]), _twist_walk(g, v, [j, i])]
                elif entry == 1:
                    pair = [
                        _twist_walk(g, v, [i, j, i]),
                        _twist_walk(g, v, [j, i, j]),
                    ]
                else:
                    continue
                if None in pair:
                    incomplete += 1
                    continue
                if pair[0] != v or pair[1] != v:
                    raise RuntimeError(
                        f"braid-relation circuit at vertex {v}, arcs ({i},{j}) "
                        "does not close"
                    )
                circuits += 1
    return {"instances": checked, "circuits": circuits, "incomplete": incomplete}


# -- serialization -----------------------------------------------------------


def export_dot(g: ExchangeGraph) -> str:
    lines = ["graph exchange {"]
    for v, vd in enumerate(g.vertices):
        shape = ' shape="box"' if vd.frontier else ""
        lines.append(f'  v{v} [label="{v}"{shape}];')
    for (v, k, u, _k2) in g.unoriented_edges():
        lines.append(f'  v{v} -- v{u} [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: ExchangeGraph) -> dict:
    return {
        "surface": g.surface.to_json(),
        "radius": g.radius,
        "budget": g.budget,
        "vertices": [
            {
                "triangulation": vd.triangulation.to_json(),
                "B": vd.seed.B.tolist(),
                "C": vd.seed.C.tolist(),
                "depth": vd.depth,
                "frontier": vd.frontier,
            }
            for vd in g.vertices
        ],
        "edges": [
            {
                "ends": [v, k, u, k2],
                "perm": list(g.edge_perm[(v, k)]),
            }
            for (v, k, u, k2) in g.unoriented_edges()
        ],
    }


def graph_from_json(data: dict) -> ExchangeGraph:
    from .surface import MarkedSurface

    surface = MarkedSurface.from_json(data["surface"])
    vertices = []
    for vd in data["vertices"]:
        seed = Seed(np.array(vd["B"], dtype=np.int64), np.array(vd["C"], dtype=np.int64))
        vertices.append(
            GraphVertex(
                Triangulation.from_json(vd["triangulation"]),
                seed,
                canonical_key(seed),
                vd["depth"],
                vd["frontier"],
            )
        )
    nbr: list[dict] = [{} for _ in vertices]
    edge_perm = {}
    n = surface.arc_count
    for e in data["edges"]:
        v, k, u, k2 = e["ends"]
        perm = tuple(e["perm"])
        inv = [0] * n
        for i in range(n):
            inv[perm[i] - 1] = i + 1
        nbr[v][k] = (u, k2)
        edge_perm[(v, k)] = perm
        nbr[u][k2] = (v, k)
        edge_perm[(u, k2)] = tuple(inv)
    return ExchangeGraph(surface, vertices, nbr, edge_perm, data["radius"], data["budget"])
