"""BFS enumeration of exchange graphs and their relation instances.

Vertices are clusters: triangulations deduplicated by the canonical C of
their seeds, the rows of the c-matrix sorted (C determines the cluster,
and B = C B0 C^T; see :mod:`flipgroupoid.seeds`), held as a tuple of int
tuples and compared as it stands.  Each vertex stores its triangulation
with arcs relabelled into the canonical order of its seed, so arcs,
matrix indices and edge labels all agree.  A graph build, enumerated or
loaded, keeps one copy of each distinct triangulation.  Off the disc,
clusters that differ by a mapping class can hold the same labelled
triangles: B is read from them (and, when loading, they are validated)
at the first vertex that holds them, and each later one shares that
triangulation and B and checks its own B against it.  Every unoriented
edge stands for the 2-cycle of forward mutations joining its endpoints;
a directed edge (v, k) carries the index transport permutation
identifying arcs of v with arcs of the target.

Relation instances follow the three local shapes at a vertex, read off B
alone.  Write x for the forward mutation at the tail of arcs i < j (i when
b_ij > 0, else j) and y for the one at its head, each side in walk order.
|b_ij| = 0, 1, 2 (the triangles the arcs share) gives a square (x y = y
x), a pentagon (x y = y x y) or a hexagonal dumbbell (x y y = y y x).
On a graph stored with its reverses
the head's two steps go out along an edge and straight back, so a
dumbbell's closure check cannot fail.  :func:`_walk_relations` is the
one enumeration of instances: it walks both sides of each once on the
graph's adjacency table and yields their (vertex, arc) steps, for the
relator stream of :func:`flipgroupoid.homology.two_cells` and the
voltages and closure of :mod:`flipgroupoid.cover`, or records none for
:func:`relation_closure_check`, which only counts, and raises
:class:`CheckFailure`, with both step paths as its witness, at an
instance that does not close.
:func:`_bfs_tree` is the one spanning tree, which H1 contracts and along
which the cover transports frames.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .seeds import Seed, _mutate_c, _permuted, _sort_c, mutate_seed
from .surface import MarkedSurface, Triangulation, json_fields, triangles_json

__all__ = [
    "TruncationError",
    "CheckFailure",
    "ExchangeGraph",
    "enumerate_graph",
    "RelationKind",
    "relation_closure_check",
    "export_dot",
    "graph_records",
    "graph_to_json",
    "graph_from_json",
]

DEFAULT_BUDGET = 10**6


class TruncationError(RuntimeError):
    """Raised when enumeration would exceed the vertex budget."""


class CheckFailure(RuntimeError):
    """Raised when a check of the paper's facts fails on a graph;
    ``detail`` is its witness, as data the CLI writes in JSON."""

    def __init__(self, message: str, detail: dict):
        super().__init__(message)
        self.detail = detail


@dataclass(slots=True)
class GraphVertex:
    triangulation: Triangulation
    seed: Seed
    depth: int
    frontier: bool


@dataclass
class ExchangeGraph:
    """``adj[v]`` is a list of n + 1 slots: ``adj[v][k] = (target, k2,
    perm)`` for the edge v --k--> target, whose reverse is target --k2-->
    v, and None where v has no edge k; slot 0 is always None.  ``perm`` is the
    edge's index transport, 1-based: arc l of v is arc perm[l - 1] of the
    target."""

    surface: object
    vertices: list[GraphVertex]
    adj: list[list]
    radius: int | None

    @property
    def n(self) -> int:
        return self.surface.arc_count

    def vertex_count(self) -> int:
        return len(self.vertices)

    def unoriented_edges(self) -> list[tuple[int, int, int, int]]:
        """Canonical unoriented edges as (u, k_u, v, k_v), u-side minimal."""
        return list(self._edges_in_order())

    def _edges_in_order(self) -> Iterator[tuple[int, int, int, int]]:
        """The edges of :meth:`unoriented_edges`, in its sorted order,
        generated one at a time."""
        for v, row in enumerate(self.adj):
            for k, step in enumerate(row):
                if step is not None and (v, k) <= step[:2]:
                    yield v, k, step[0], step[1]

    def is_complete(self) -> bool:
        return all(not v.frontier for v in self.vertices)


def _link(adj: list[list], v: int, k: int, u: int, k2: int, pair: tuple[tuple, tuple]) -> None:
    """Insert the edge v --k--> u and its reverse u --k2--> v.  ``pair`` is
    the edge's index transport and its inverse, as :func:`_perm_pair`
    gives them."""
    adj[v][k] = (u, k2, pair[0])
    adj[u][k2] = (v, k, pair[1])


def _perm_pair(pairs: dict, perm: tuple[int, ...], share) -> tuple[tuple, tuple]:
    """(perm, its inverse), as ``pairs`` holds them.  ``pairs`` is one
    graph build's table from each permutation met to its pair, and
    ``share`` the build's :func:`_sharer`: a permutation not in the table
    is inverted, and its pair and its inverse's are stored as ``share``'s
    copies, so every edge that carries a permutation or its inverse stores
    the same two tuples."""
    pair = pairs.get(perm)
    if pair is None:
        inv = [0] * len(perm)
        for i, p in enumerate(perm, 1):
            inv[p - 1] = i
        perm, inv = share(perm), share(tuple(inv))
        # the table holds a permutation's inverse exactly when it holds it
        pairs[inv] = (inv, perm)
        pairs[perm] = pair = (perm, inv)
    return pair


def _sharer():
    """``share(x)``: the first tuple equal to ``x`` that this sharer was
    given.  One graph build stores each distinct row of B and C, each B
    and each permutation once, as these copies; the table is freed with
    the build."""
    seen: dict[tuple, tuple] = {}
    setdefault = seen.setdefault
    return lambda x: setdefault(x, x)


def _shared_seed(share, B, C) -> Seed:
    """The seed (B, C), B and C given as sequences of int tuples, built
    from ``share``'s copies of B and of each row."""
    return Seed.trusted(share(tuple([share(row) for row in B])), tuple([share(row) for row in C]))


def enumerate_graph(
    base: Triangulation,
    radius: int | None = None,
    budget: int | None = None,
) -> ExchangeGraph:
    """BFS over flips from ``base``, deduplicating by canonical C.

    Each mutation mutates and sorts C alone: the sorted C' is the key, and
    the sort's permutation labels the edge.  Only a C' not met before gets
    its B', as :func:`mutate_seed` and the permutation the sort found give
    it, and its triangulation, flipped and relabelled in one pass, whose B
    must equal B' (else a :class:`CheckFailure` with both matrices).  The
    build keeps one triangulation of each distinct triangles, with its B:
    a flip (triangles, arc, permutation) made before is not made again,
    and a flip that gives triangles met before is not read again, but B'
    is built and compared at every new vertex.

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
    share = _sharer()
    pairs: dict = {}  # see _perm_pair
    # the build's memo of triangulations: ``held`` maps each distinct
    # triangles to the first vertex that holds them, and ``flips`` each
    # (triangles, arc, perm) flipped to the vertex that holds the result
    held = {base.triangles: 0}
    flips: dict = {}
    seed0 = Seed.initial(base.exchange_matrix())  # canonical already: C is the identity
    seed0 = _shared_seed(share, seed0.B, seed0.C)
    vertices = [GraphVertex(base, seed0, 0, False)]
    index = {seed0.C: 0}  # canonical C -> vertex
    adj = [[None] * (n + 1)]

    queue = [0]
    qpos = 0
    while qpos < len(queue):
        v = queue[qpos]
        qpos += 1
        vd = vertices[v]
        if radius is not None and vd.depth >= radius:
            vd.frontier = True
            continue
        B, C = vd.seed.B, vd.seed.C
        for k in range(1, n + 1):
            if adj[v][k] is not None:
                continue
            C2 = _mutate_c(B, C, k)
            key, order, perm = _sort_c(C2)
            pair = _perm_pair(pairs, perm, share)
            u = index.get(key)
            if u is None:
                if len(vertices) >= budget:
                    raise TruncationError(
                        f"vertex budget {budget} exceeded while enumerating"
                    )
                B2 = _permuted(mutate_seed(vd.seed, k).B, order)
                u = len(vertices)
                flip = (vd.triangulation.triangles, k, pair[0])
                w = flips.get(flip)
                if w is None:
                    tri = vd.triangulation.flip(k, perm)
                    w = flips[flip] = held.setdefault(tri.triangles, u)
                if w == u:
                    Bt = tri.exchange_matrix()
                else:  # triangles met before: u shares w's triangulation and B
                    tri, Bt = vertices[w].triangulation, vertices[w].seed.B
                if Bt != B2:
                    raise CheckFailure(f"flip/mutation mismatch at vertex {v}, arc {k}", {
                        "vertex": v, "arc": k, "flip": Bt, "mutation": B2})
                seed = _shared_seed(share, B2, key)
                vertices.append(GraphVertex(tri, seed, vd.depth + 1, False))
                adj.append([None] * (n + 1))
                index[seed.C] = u
                queue.append(u)
            _link(adj, v, k, u, perm[k - 1], pair)
    return ExchangeGraph(base.surface, vertices, adj, radius)


def _bfs_tree(g: ExchangeGraph) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Breadth-first order from vertex 0, and each vertex's (parent, arc)
    in the tree, arcs scanned in order; vertex 0's parent is (-1, 0).  The
    library's one spanning tree: :mod:`flipgroupoid.homology` contracts
    it, and :mod:`flipgroupoid.cover` transports frames along it."""
    parent: dict[int, tuple[int, int]] = {0: (-1, 0)}
    order = [0]
    for w in order:
        for k, step in enumerate(g.adj[w]):
            if step is not None and step[0] not in parent:
                parent[step[0]] = (w, k)
                order.append(step[0])
    return order, parent


class RelationKind(Enum):
    SQUARE = "Square"
    PENTAGON = "Pentagon"
    HEX_DUMBBELL = "HexDumbbell"


# the kinds as module names: the walker below compares them once per arc pair
_SQUARE, _PENTAGON, _HEX_DUMBBELL = RelationKind.SQUARE, RelationKind.PENTAGON, RelationKind.HEX_DUMBBELL

# each arc pair's kind and plans, indexed by |b_ij|
_RELATIONS = ((_SQUARE, ("ba", "ab")), (_PENTAGON, ("ba", "aba")), (_HEX_DUMBBELL, ("baa", "aab")))


def _relation_pairs(g: ExchangeGraph, v: int) -> Iterator[tuple]:
    """(kind, arcs, head, tail, plans) for each arc pair i < j at vertex v.

    The kind and plans are ``_RELATIONS[|b_ij|]``; the tail is the source
    of the arrows between the pair, j on a square.  A plan spells one
    side's flips: 'a' flips the head's transported slot, 'b' the tail's.
    """
    B = g.vertices[v].seed.B
    n = len(B)
    for i in range(1, n + 1):
        row = B[i - 1]
        for j in range(i + 1, n + 1):
            bij = row[j - 1]
            kind, plans = _RELATIONS[abs(bij)]
            head, tail = (j, i) if bij > 0 else (i, j)
            yield kind, (i, j), head, tail, plans


def _walk(adj: list[list], v: int, a: int, b: int, plan: str, steps: list | None):
    """Walk forward mutations from v on the adjacency table: 'a' in
    ``plan`` flips the head's transported slot, 'b' the tail's.  Returns
    (end, a, b, lowest vertex of the walk), or None at a missing edge;
    each step, the (vertex, arc) it leaves from, is appended to ``steps``
    unless that is None."""
    lo = v
    for ch in plan:
        k = a if ch == "a" else b
        step = adj[v][k]
        if step is None:
            return None
        if steps is not None:
            steps.append((v, k))
        v, _, perm = step
        a, b = perm[a - 1], perm[b - 1]
        if v < lo:
            lo = v
    return v, a, b, lo


def _walk_relations(g: ExchangeGraph, steps: bool = True) -> Iterator[tuple]:
    """(v, kind, arcs, sides, lo) for each relation instance at each
    vertex v off the frontier, in vertex order and at each vertex in the
    order of :func:`_relation_pairs`: the library's one enumeration of
    instances, walked once each on ints.

    ``sides`` is (left, right), each side a tuple of its (vertex, arc)
    steps in walk order, or None when ``steps`` is false; ``lo`` is the
    lowest vertex on either side, ends included.  ``sides`` and ``lo`` are
    both None when a side meets a missing edge.  An instance closes
    when both sides end at the same vertex with the head and tail slots
    carried to the same positions, or swapped on a pentagon, whose sides
    flip the pair an odd total number of times.  One whose sides are
    complete but do not close raises :class:`CheckFailure` naming it,
    with each side's steps, walked again for them, and end as its witness.
    """
    adj = g.adj
    for v in range(len(adj)):
        if g.vertices[v].frontier:
            continue
        for kind, arcs, head, tail, plans in _relation_pairs(g, v):
            left, right = ([], []) if steps else (None, None)
            ends = _walk(adj, v, head, tail, plans[0], left)
            ends2 = _walk(adj, v, head, tail, plans[1], right)
            if ends is None or ends2 is None:
                yield v, kind, arcs, None, None
                continue
            end, a, b, lo = ends
            if kind is _PENTAGON:
                a, b = b, a
            end2, a2, b2, lo2 = ends2
            if end != end2 or a != a2 or b != b2:
                left, right = [], []
                _walk(adj, v, head, tail, plans[0], left)
                _walk(adj, v, head, tail, plans[1], right)
                message = f"relation instance {kind.value} at vertex {v}, arcs {arcs} does not close"
                raise CheckFailure(message, {
                    "kind": kind.value, "vertex": v, "arcs": arcs,
                    "left": {"steps": tuple(left), "end": end},
                    "right": {"steps": tuple(right), "end": end2}})
            sides = (tuple(left), tuple(right)) if steps else (None, None)
            yield v, kind, arcs, sides, lo if lo < lo2 else lo2


def relation_closure_check(g: ExchangeGraph, allow_incomplete: bool = False) -> dict:
    """Walk both sides of every relation instance; one that does not close
    is a hard failure.

    ``circuits`` counts the braid-relation circuits of the local twists,
    t_i t_j = t_j t_i on a square and t_i t_j t_i = t_j t_i t_j on a
    pentagon.  Each is a product of 2-cycles, and a 2-cycle from a vertex
    off the frontier closes by construction: every edge is stored with its
    reverse, and such a vertex has all n edges.

    A truncated graph of radius below 4 is refused unless
    ``allow_incomplete``: few of its instances are complete.  A graph
    enumerated with a radius but found whole is checked as it stands.
    """
    if g.radius is not None and g.radius < 4 and not allow_incomplete and not g.is_complete():
        raise ValueError("closure check needs radius >= 4")
    checked = incomplete = circuits = 0
    for _, kind, _, sides, _ in _walk_relations(g, steps=False):
        circuits += kind is not _HEX_DUMBBELL
        if sides is None:
            incomplete += 1
        else:
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


def graph_records(g: ExchangeGraph) -> dict:
    """The graph file's members: the surface once, then each vertex's
    triangles, seed, depth and frontier flag, then each unoriented edge
    with its index transport.  ``vertices`` and ``edges`` are generators
    of records that hold the graph's own tuples, so that a writer can
    stream them without a list of the whole graph."""
    adj = g.adj
    return {
        "surface": g.surface.to_json(),
        "radius": g.radius,
        "vertices": (
            {
                "triangles": vd.triangulation.triangles,
                "B": vd.seed.B,
                "C": vd.seed.C,
                "depth": vd.depth,
                "frontier": vd.frontier,
            }
            for vd in g.vertices
        ),
        "edges": ({"ends": e, "perm": adj[e[0]][e[1]][2]} for e in g._edges_in_order()),
    }


def graph_to_json(g: ExchangeGraph) -> dict:
    """The records of :func:`graph_records` as plain data: lists of
    vertex and edge records, with triangles, edge ends and permutations as
    lists (B and C stay tuples of int tuples)."""
    data = graph_records(g)
    data["vertices"] = [
        {**rec, "triangles": [list(t) for t in rec["triangles"]]} for rec in data["vertices"]
    ]
    data["edges"] = [{"ends": list(rec["ends"]), "perm": list(rec["perm"])} for rec in data["edges"]]
    return data


def graph_from_json(data) -> ExchangeGraph:
    """Load a graph file, rejecting inconsistent edges and vertices.

    Bad input raises ``ValueError`` naming the vertex, edge or field.  The
    file and each record must have every key :func:`graph_to_json`
    writes; ``radius`` is null or an int >= 0, and ``vertices`` is not
    empty.  A vertex's ``triangles`` is a list of [str, str, str] lists
    that, on the file's ``surface``, passes
    :meth:`Triangulation.validate`; its ``depth`` is an int >= 0 and
    ``frontier`` a bool.  B and C must be n x n lists of ints, B the
    exchange matrix of the triangles, and the rows of C sign-coherent,
    distinct and in the descending order ``enumerate`` writes, so C is
    its own canonical form and is the key as it stands: no two vertices
    have the same C.  A vertex off the frontier must have all n edges.
    Not checked, because each costs a flip or a determinant per vertex or
    edge: that C is unimodular, and that an edge's flip and relabelling
    give its target.

    Each record of ``data["vertices"]`` is freed once it is read, so that
    the parsed file and the graph are not held at once: the list is empty
    when this returns, and partly cleared when it raises.  The graph keeps
    one copy of each distinct row of B and C, of each B and of each
    permutation, and one triangulation of each distinct ``triangles``
    list: it is validated, and its B read, at the first vertex that lists
    it, and a later vertex listing it shares that triangulation and must
    have the same B.  Each distinct permutation is checked and inverted
    once, at the first edge that carries it; every edge's ends and
    permutation are checked to be integers first, since True and 1.0
    would find the entry of a permutation that holds 1.
    """
    surface, radius, records, edges = json_fields(
        data, ("surface", "radius", "vertices", "edges"), "graph file"
    )
    surface = MarkedSurface.from_json(surface)
    if radius is not None and not (type(radius) is int and radius >= 0):
        raise ValueError("graph file: radius must be null or an integer >= 0")
    if type(records) is not list or type(edges) is not list:
        raise ValueError("graph file: vertices and edges must be lists")
    if not records:
        raise ValueError("graph file: no vertices")
    n = surface.arc_count
    vertices = []
    index: dict[tuple, int] = {}  # C -> vertex
    held: dict[tuple, int] = {}  # the triangles' sides in turn -> the first vertex listing them
    share = _sharer()
    for i, vd in enumerate(records):
        records[i] = None
        triangles, B, C, depth, frontier = json_fields(
            vd, ("triangles", "B", "C", "depth", "frontier"), f"graph vertex {i}"
        )
        try:
            flat = tuple(chain.from_iterable(triangles_json(triangles)))
            w = held.get(flat)
            tri = Triangulation(surface, triangles) if w is None else vertices[w].triangulation
        except ValueError as exc:
            raise ValueError(f"graph vertex {i}: {exc}") from None
        if not (type(B) is type(C) is list and len(B) == len(C) == n
                and set(map(type, chain(B, C))) == {list}
                and set(map(len, chain(B, C))) == {n}):
            raise ValueError(f"graph vertex {i}: B and C must be {n} x {n}")
        # before B and C are shared: True and 1.0 hash as 1 does
        if set(map(type, chain.from_iterable(chain(B, C)))) != {int}:
            raise ValueError(f"graph vertex {i}: B and C entries must be integers")
        seed = _shared_seed(share, map(tuple, B), map(tuple, C))
        B, C = seed.B, seed.C
        if B != (tri.exchange_matrix() if w is None else vertices[w].seed.B):
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
        if C in index:
            raise ValueError(f"graph vertex {i}: same seed as vertex {index[C]}")
        index[C] = i
        if w is None:
            held[flat] = i
        vertices.append(GraphVertex(tri, seed, depth, frontier))
    records.clear()
    adj = [[None] * (n + 1) for _ in vertices]
    arcs = range(1, n + 1)
    pairs: dict = {}  # see _perm_pair; it holds checked permutations only
    for idx, e in enumerate(edges):
        ends, perm = json_fields(e, ("ends", "perm"), f"graph edge {idx}")
        if not (type(ends) is type(perm) is list and len(ends) == 4):
            raise ValueError(f"graph edge {idx}: ends must be a list of four integers, perm a list")
        # before the lookup in pairs: True and 1.0 hash as 1 does
        if set(map(type, chain(ends, perm))) != {int}:
            raise ValueError(f"graph edge {idx}: ends and perm must be integers")
        v, k, u, k2 = ends
        perm = tuple(perm)
        pair = pairs.get(perm)
        if pair is None:
            if len(perm) != n or sorted(perm) != list(arcs):
                raise ValueError(f"graph edge {idx}: perm {list(perm)} is not a permutation of 1..{n}")
            pair = _perm_pair(pairs, perm, share)
        if not (0 <= v < len(vertices) and 0 <= u < len(vertices)):
            raise ValueError(f"graph edge {idx}: end vertex out of range 0..{len(vertices) - 1}")
        if k not in arcs or k2 not in arcs:
            raise ValueError(f"graph edge {idx}: arc out of range 1..{n}")
        if perm[k - 1] != k2:
            raise ValueError(f"graph edge {idx}: perm sends arc {k} to {perm[k - 1]}, not {k2}")
        if adj[v][k] is not None or adj[u][k2] is not None or (v, k) == (u, k2):
            raise ValueError(f"graph edge {idx}: slot already has an edge")
        _link(adj, v, k, u, k2, pair)
    for i, row in enumerate(adj):
        degree = n + 1 - row.count(None)
        if not vertices[i].frontier and degree != n:
            raise ValueError(f"graph vertex {i}: not on the frontier but has {degree} of {n} edges")
    return ExchangeGraph(surface, vertices, adj, radius)
