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
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

from .seeds import Seed, canonical_form, canonical_key, form_key, mutate_seed
from .surface import MarkedSurface, Triangulation, json_fields, triangles_json

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


class TruncationError(RuntimeError):
    """Raised when enumeration would exceed the vertex budget."""


def _relabel(t: Triangulation, perm: tuple[int, ...]) -> Triangulation:
    """Relabel arc ids by perm (1-based old -> new)."""
    labels = t.surface._arc_labels
    mapping = dict(zip(labels, [labels[p - 1] for p in perm]))
    get = mapping.get
    tris = [(get(x, x), get(y, y), get(z, z)) for x, y, z in t.triangles]
    return Triangulation(t.surface, tris, validate=False)


@dataclass
class GraphVertex:
    triangulation: Triangulation
    seed: Seed
    depth: int
    frontier: bool


@dataclass
class ExchangeGraph:
    surface: object
    vertices: list[GraphVertex]
    nbr: list[dict[int, tuple[int, int]]]
    edge_perm: dict[tuple[int, int], tuple[int, ...]]
    radius: int | None
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


def _link(nbr, edge_perm, v: int, k: int, u: int, k2: int, perm: tuple[int, ...]) -> None:
    """Insert the edge v --k--> u and its reverse u --k2--> v, whose index
    transport is the inverse permutation."""
    inv = [0] * len(perm)
    for i, p in enumerate(perm, 1):
        inv[p - 1] = i
    nbr[v][k] = (u, k2)
    edge_perm[(v, k)] = perm
    nbr[u][k2] = (v, k)
    edge_perm[(u, k2)] = tuple(inv)


def enumerate_graph(
    base: Triangulation,
    radius: int | None = None,
    budget: int | None = None,
) -> ExchangeGraph:
    """BFS over flips from ``base``, deduplicating by canonical seed key.

    Each mutation gets one :func:`canonical_form`: its permutation relabels
    the flipped triangulation and its (B', C') gives the key.

    ``radius=None`` means full enumeration (only sensible when the graph is
    finite; the vertex budget turns runaway enumerations into a loud
    :class:`TruncationError`).
    """
    if radius is not None and radius < 0:
        raise ValueError("radius must be >= 0")
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 1:
        raise ValueError("budget must be >= 1")

    n = base.surface.arc_count
    seed0 = Seed.initial(base.exchange_matrix())  # canonical already: C is the identity
    vertices = [GraphVertex(base, seed0, 0, False)]
    index = {canonical_key(seed0): 0}
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
            key = form_key(B2, C2)
            u = index.get(key)
            if u is None:
                if len(vertices) >= budget:
                    raise TruncationError(
                        f"vertex budget {budget} exceeded while enumerating"
                    )
                tri = _relabel(vd.triangulation.flip(k), perm)
                if tri.exchange_matrix() != B2:
                    raise RuntimeError("flip/mutation mismatch: implementation bug")
                u = len(vertices)
                vertices.append(GraphVertex(tri, Seed.trusted(B2, C2), vd.depth + 1, False))
                nbr.append({})
                index[key] = u
                queue.append(u)
            _link(nbr, edge_perm, v, k, u, perm[k - 1], perm)
    return ExchangeGraph(base.surface, vertices, nbr, edge_perm, radius)


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
    shared = tri.shared_triangle_counts()
    out = []
    n = g.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            count = shared.get((i, j), 0)
            bij = B[i - 1][j - 1]
            if count == 0:
                if bij != 0:
                    raise RuntimeError("disjoint arcs must have B entry 0")
                kind, head, tail = RelationKind.SQUARE, i, j
                left_plan, right_plan = "ba", "ab"
            elif count == 1:
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


def all_relation_instances(g: ExchangeGraph) -> Iterator[RelationInstance]:
    """Instances of each vertex off the frontier, in vertex order, generated
    one vertex at a time: nothing holds those of the whole graph."""
    for v in range(g.vertex_count()):
        if not g.vertices[v].frontier:
            yield from relation_instances(g, v)


def relation_closure_check(g: ExchangeGraph, allow_incomplete: bool = False) -> dict:
    """Walk both sides of every relation instance; one that does not close
    is a hard failure.

    ``circuits`` counts the braid-relation circuits of the local twists,
    t_i t_j = t_j t_i on a square and t_i t_j t_i = t_j t_i t_j on a
    pentagon.  Each is a product of 2-cycles, and a 2-cycle from a vertex
    off the frontier closes by construction: every edge is stored with its
    reverse, and such a vertex has all n edges.
    """
    if g.radius is not None and g.radius < 4 and not allow_incomplete:
        raise ValueError("closure check needs radius >= 4")
    checked = incomplete = circuits = 0
    for inst in all_relation_instances(g):
        circuits += inst.kind is not RelationKind.HEX_DUMBBELL
        if not inst.complete:
            incomplete += 1
            continue
        if not inst.co_terminates():
            raise RuntimeError(
                f"relation instance {inst.kind.value} at vertex {inst.base}, "
                f"arcs {inst.arcs} does not close"
            )
        checked += 1
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
    """The graph file's data: the surface once, then each vertex's
    triangles, seed, depth and frontier flag, then each unoriented edge
    with its index transport."""
    return {
        "surface": g.surface.to_json(),
        "radius": g.radius,
        "vertices": [
            {
                "triangles": [list(t) for t in vd.triangulation.triangles],
                "B": vd.seed.B,
                "C": vd.seed.C,
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


def graph_from_json(data) -> ExchangeGraph:
    """Load a graph file, rejecting inconsistent edges and vertices.

    Bad input raises ``ValueError`` naming the vertex, edge or field.  The
    file and each record must have every key :func:`graph_to_json`
    writes; ``radius`` is null or an int >= 0.  A vertex's ``triangles``
    is a list of [str, str, str] lists that, on the file's ``surface``,
    passes :meth:`Triangulation.validate`; its ``depth`` is an int >= 0
    and ``frontier`` a bool.  B and C must be n x n lists of ints, B the
    exchange matrix of the triangles, and the rows of C sign-coherent,
    distinct and in the descending order ``enumerate`` writes, so (B, C)
    is its own canonical form and gives the key as it stands.  A vertex
    off the frontier must have all n edges.  Not checked, because each
    costs a flip or a determinant per vertex or edge: that C is
    unimodular, and that an edge's flip and relabelling give its target.

    Each record of ``data["vertices"]`` is freed once it is read, so that
    the parsed file and the graph are not held at once: the list is empty
    when this returns, and partly cleared when it raises.
    """
    surface, radius, records, edges = json_fields(
        data, ("surface", "radius", "vertices", "edges"), "graph file"
    )
    surface = MarkedSurface.from_json(surface)
    if radius is not None and not (type(radius) is int and radius >= 0):
        raise ValueError("graph file: radius must be null or an integer >= 0")
    if type(records) is not list or type(edges) is not list:
        raise ValueError("graph file: vertices and edges must be lists")
    n = surface.arc_count
    vertices = []
    index: dict[bytes, int] = {}
    for i, vd in enumerate(records):
        records[i] = None
        triangles, B, C, depth, frontier = json_fields(
            vd, ("triangles", "B", "C", "depth", "frontier"), f"graph vertex {i}"
        )
        try:
            tri = Triangulation(surface, triangles_json(triangles))
        except ValueError as exc:
            raise ValueError(f"graph vertex {i}: {exc}") from None
        if not (type(B) is type(C) is list
                and all(type(row) is list and len(row) == n for row in (B, C, *B, *C))):
            raise ValueError(f"graph vertex {i}: B and C must be {n} x {n}")
        if not all(type(x) is int for row in (*B, *C) for x in row):
            raise ValueError(f"graph vertex {i}: B and C entries must be integers")
        B, C = tuple(map(tuple, B)), tuple(map(tuple, C))
        if B != tri.exchange_matrix():
            raise ValueError(f"graph vertex {i}: B is not the exchange matrix of the triangles")
        if len(set(C)) != n:
            raise ValueError(f"graph vertex {i}: duplicate c-vectors; C cannot be unimodular")
        if any(a < b for a, b in zip(C, C[1:])):
            raise ValueError(f"graph vertex {i}: rows of C are not in descending order")
        for j, row in enumerate(C, 1):
            if min(row) < 0 < max(row):
                raise ValueError(f"graph vertex {i}: c-vector in row {j} has mixed signs")
        if type(depth) is not int or depth < 0:
            raise ValueError(f"graph vertex {i}: depth must be an integer >= 0")
        if type(frontier) is not bool:
            raise ValueError(f"graph vertex {i}: frontier must be true or false")
        key = form_key(B, C)
        if key in index:
            raise ValueError(f"graph vertex {i}: same seed as vertex {index[key]}")
        index[key] = i
        vertices.append(GraphVertex(tri, Seed.trusted(B, C), depth, frontier))
    records.clear()
    nbr: list[dict] = [{} for _ in vertices]
    edge_perm = {}
    arcs = range(1, n + 1)
    for idx, e in enumerate(edges):
        ends, perm = json_fields(e, ("ends", "perm"), f"graph edge {idx}")
        if not (type(ends) is type(perm) is list and len(ends) == 4):
            raise ValueError(f"graph edge {idx}: ends must be a list of four integers, perm a list")
        if not all(type(x) is int for x in (*ends, *perm)):
            raise ValueError(f"graph edge {idx}: ends and perm must be integers")
        v, k, u, k2 = ends
        perm = tuple(perm)
        if len(perm) != n or sorted(perm) != list(arcs):
            raise ValueError(f"graph edge {idx}: perm {list(perm)} is not a permutation of 1..{n}")
        if not (0 <= v < len(vertices) and 0 <= u < len(vertices)):
            raise ValueError(f"graph edge {idx}: end vertex out of range 0..{len(vertices) - 1}")
        if k not in arcs or k2 not in arcs:
            raise ValueError(f"graph edge {idx}: arc out of range 1..{n}")
        if perm[k - 1] != k2:
            raise ValueError(f"graph edge {idx}: perm sends arc {k} to {perm[k - 1]}, not {k2}")
        if k in nbr[v] or k2 in nbr[u] or (v, k) == (u, k2):
            raise ValueError(f"graph edge {idx}: slot already has an edge")
        _link(nbr, edge_perm, v, k, u, k2, perm)
    for i, nb in enumerate(nbr):
        if not vertices[i].frontier and len(nb) != n:
            raise ValueError(
                f"graph vertex {i}: not on the frontier but has {len(nb)} of {n} edges"
            )
    return ExchangeGraph(surface, vertices, nbr, edge_perm, radius)
