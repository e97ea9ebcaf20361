"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own machinery: polygon
triangulations are maximal noncrossing diagonal sets found by
backtracking, and their flip graph is built directly on chord sets.
The seed references are the numpy mutation and canonical form that
``flipgroupoid.seeds`` replaced with code on tuples of int tuples; the corner
reference is the union-find on ``(t, k)`` tuples that
``Triangulation._corner_classes`` replaced with flat corner indices.
The triangulation references are the code that the memo of rotated
triangles, the slot-free ``validate`` and the B reader replaced:
canonical triangles rotated and keyed anew for every triangulation, slots
gathered in lists, ``validate`` comparing the slot table's counts and
classing corners through it, and B read off the arrows of the full quiver.
The slot-table readers are the ``Triangulation`` methods that looked up
each arc's two (triangle, position) slots before every fact became a
scan of the triangles: chords, the dual graph and the shared-triangle
count; the quiver reference numbers its arrows by (triangle, corner).
The closure reference walks every braid-relation circuit of the local
twists, as ``relation_closure_check`` did before it counted them.
The relation instance references are the ``RelationInstance`` objects
that ``flipgroupoid.exchange`` built, one per arc pair at every vertex,
each side's steps, end and transported slots walked and stored, before
``_walk_relations`` became the library's one enumeration of instances.
They classify each arc pair by the triangles it shares, through the slot
table, as ``_relation_pairs`` did before it read the kind off |b_ij|.
The relation closure reference is the ``relation_closure_check`` that
built a ``RelationInstance`` for every arc pair at every vertex, before
the walk on the adjacency table of ints.
The 2-cell reference is the ``two_cells`` that built a ``TwoCell`` of
``((v, k), sign)`` pairs at every corner and kept the first copy of each
edge set; ``decoded_two_cells`` reads the library's int relators back
into those cells, so that the two compare.  The boundary reference
is the dense int8 matrix that ``homology_h1`` filled before it built
sparse columns, on a spanning tree searched breadth-first or from a
stack, as ``homology_h1`` searched its own tree before it contracted the
BFS tree of ``flipgroupoid.exchange``.  The Smith form reference is the
dense elimination, with its unimodular transforms, that
``invariant_factors`` ran on the columns left without a unit entry
before its sparse elimination took any pivot.
The tree cover reference is the builder that ``CoverBall`` replaced: it
materialises the tree of every reduced flip word up to the radius, folds
it by union-find relation closure, and then transports one frame per
class from the class of its representative's tree parent.  The framed
closure reference is the builder that the voltage search replaced on
surfaces with an oracle group: the same quotient grown one depth at a
time with a frame transported to every class born.  The fibre reference
is the ``fiber_report`` that scanned every class per call.
The enumeration reference is the ``enumerate_graph`` that keyed its BFS
on the canonical (B', C') of every mutated seed, and built each new
vertex's triangulation as a flip through the slot table followed by a
relabelling (``ref_flip`` and ``ref_relabel``).
The conjugation reference is the word-level route ``BraidOracle.conj``
took before it multiplied Garside forms: by^{-1} word by joined as one
word and normalised letter by letter.  The normal-form reference is
that letter-by-letter pass, which ``normal_form`` ran before it became
the product of its letters' forms.
"""

import operator
import random
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from math import comb

import numpy as np

from flipgroupoid.braid import BraidWord, GarsideNF, _normalize, _tab, _tau, mult
from flipgroupoid.cover import (
    BWD,
    FWD,
    TwistFrame,
    frame_at,
    frame_transport_move,
    inverse_word,
    oracle_for_surface,
)
from flipgroupoid.exchange import (
    ExchangeGraph,
    GraphVertex,
    RelationKind,
    DEFAULT_BUDGET,
    TruncationError,
    _link,
    _perm_pair,
    _shared_seed,
    _sharer,
    relation_closure_check,
)
from flipgroupoid.homology import two_cells
from flipgroupoid.seeds import Seed, canonical_form, mutate_seed
from flipgroupoid.surface import (
    _BOUNDARY_RE,
    QuiverWithPotential,
    Triangulation,
    _edge_sort_key,
    polygon_fan,
)


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def diagonals(m: int) -> list[tuple[int, int]]:
    out = []
    for i in range(m):
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            out.append((i, j))
    return out


def crosses(d1, d2) -> bool:
    (i, j), (k, l) = sorted([d1, d2])
    return i < k < j < l


def polygon_triangulations(m: int) -> list[frozenset]:
    """All maximal noncrossing diagonal sets of the convex m-gon."""
    diags = diagonals(m)
    target = m - 3
    out = []

    def backtrack(start, chosen):
        if len(chosen) == target:
            out.append(frozenset(chosen))
            return
        # prune: not enough candidates left
        if len(chosen) + (len(diags) - start) < target:
            return
        for idx in range(start, len(diags)):
            d = diags[idx]
            if all(not crosses(d, c) for c in chosen):
                chosen.append(d)
                backtrack(idx + 1, chosen)
                chosen.pop()

    backtrack(0, [])
    return out


def flipped(t, seed: int):
    """``t`` after 4n flips of arcs drawn by ``random.Random(seed)``."""
    rng = random.Random(seed)
    for _ in range(4 * t.n):
        t = t.flip(rng.randrange(1, t.n + 1))
    return t


def flip_walk(m: int, seed: int):
    """The m-gon fan after 4n flips of arcs drawn by ``random.Random(seed)``."""
    return flipped(polygon_fan(m), seed)


def polygon_flip_graph(m: int) -> dict[frozenset, dict[tuple, frozenset]]:
    """Flip moves on chord sets: d -> resulting triangulation."""
    sides = {(i, (i + 1) % m) for i in range(m)}

    def is_edge(tri, a, b):
        a, b = min(a, b), max(a, b)
        return (a, b) in tri or (a, b) in sides or (b, a) in sides

    graph = {}
    for tri in polygon_triangulations(m):
        moves = {}
        for d in tri:
            i, j = d
            corners = [
                k
                for k in range(m)
                if k not in (i, j) and is_edge(tri, i, k) and is_edge(tri, k, j)
            ]
            # the two triangles adjacent to d give exactly two corners
            assert len(corners) == 2, (m, tri, d, corners)
            k, l = sorted(corners)
            new = (tri - {d}) | {(k, l)}
            moves[d] = new
        graph[tri] = moves
    return graph


def ref_mutate_matrix(B, k: int) -> np.ndarray:
    """Skew-symmetric matrix mutation at vertex k (1-based) on an int64 array."""
    B = np.asarray(B, dtype=np.int64)
    n = B.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"mutation index {k} out of range 1..{n}")
    k -= 1
    col = B[:, k]
    row = B[k, :]
    out = B + np.sign(col)[:, None] * np.maximum(np.outer(col, row), 0)
    out[k, :] = -B[k, :]
    out[:, k] = -B[:, k]
    return out


def ref_mutate_seed(seed, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, C) of the seed mutated at vertex k (1-based), as int64 arrays."""
    B = np.asarray(seed.B, dtype=np.int64)
    C = np.asarray(seed.C, dtype=np.int64)
    k0 = k - 1
    ck = C[k0]
    coef = np.maximum(B[:, k0], 0) if (ck >= 0).all() else np.maximum(-B[:, k0], 0)
    C2 = C + coef[:, None] * ck[None, :]
    C2[k0] = -ck
    return ref_mutate_matrix(B, k), C2


def ref_canonical_form(seed):
    """Sort C rows (descending lex) entry by entry on numpy scalars."""
    n = seed.n
    B = np.asarray(seed.B, dtype=np.int64)
    C = np.asarray(seed.C, dtype=np.int64)
    rows = [tuple(-int(x) for x in C[i]) for i in range(n)]
    if len(set(rows)) != n:
        raise RuntimeError("duplicate c-vectors; C cannot be unimodular")
    order = sorted(range(n), key=lambda i: rows[i])
    new_index = [0] * n
    for pos, old in enumerate(order):
        new_index[old] = pos
    B2 = B[np.ix_(order, order)]
    C2 = C[order]
    return B2, C2, tuple(i + 1 for i in new_index)


def ref_canonical_triangles(triangles) -> tuple:
    """Each triple rotated to start at its smallest side, the triples sorted."""
    rotated = []
    for tri in triangles:
        tri = tuple(tri)
        if len(tri) != 3 or len(set(tri)) != 3:
            raise ValueError(f"triangle {tri} must have three distinct sides")
        k = min(range(3), key=lambda i: _edge_sort_key(tri[i]))
        rotated.append(tri[k:] + tri[:k])
    rotated.sort(key=lambda t: tuple(_edge_sort_key(e) for e in t))
    return tuple(rotated)


def ref_slots(triangles) -> dict[str, tuple]:
    """The (triangle, position) slots of each edge label."""
    slots: dict[str, list] = {}
    for t, tri in enumerate(triangles):
        for pos, lab in enumerate(tri):
            slots.setdefault(lab, []).append((t, pos))
    return {lab: tuple(v) for lab, v in slots.items()}


def ref_validate(tri) -> None:
    """Every check of a triangulation against its surface, in order, as
    ``Triangulation.validate`` ran them on a slot table: the slot counts
    compared with the surface's, each edge-label check run only when they
    differ, and the corners classed by ``ref_slot_corner_classes``."""
    surf = tri.surface
    if len(tri.triangles) != surf.triangle_count:
        raise ValueError("wrong triangle count")
    slots = ref_slots(tri.triangles)
    if {lab: len(sl) for lab, sl in slots.items()} != surf._slot_counts:
        _ref_name_label_fault(surf, slots)
    v = len(set(ref_slot_corner_classes(tri, slots)))
    if v != surf.m:
        raise ValueError(f"map has {v} vertices, surface has m={surf.m}")
    chi = v - (surf.arc_count + surf.m) + len(tri.triangles)
    if chi != surf.euler_characteristic:
        raise ValueError(f"Euler characteristic {chi} != {surf.euler_characteristic}")


def _ref_name_label_fault(surf, slots: dict) -> None:
    """The edge-label checks of ``ref_validate``, in order, on slots whose
    counts are known to differ from the surface's."""
    arcs = [lab for lab in slots if lab.startswith("a")]
    bnds = [lab for lab in slots if lab.startswith("b")]
    if sorted(arcs, key=_edge_sort_key) != [f"a{i}" for i in range(1, surf.arc_count + 1)]:
        raise ValueError("arc labels must be exactly a1..aN")
    if len(bnds) != surf.m:
        raise ValueError("wrong boundary segment count")
    per_comp: dict[int, set] = {}
    for lab in bnds:
        m = _BOUNDARY_RE.match(lab)
        comp, pos = int(m.group(1)), int(m.group(2))
        per_comp.setdefault(comp, set()).add(pos)
    if sorted(per_comp) != list(range(surf.b)):
        raise ValueError("boundary component labels must be 0..b-1")
    for comp, positions in per_comp.items():
        if positions != set(range(surf.boundaries[comp])):
            raise ValueError(f"boundary component {comp} has wrong segments")
    for lab, sl in slots.items():
        want = 2 if lab.startswith("a") else 1
        if len(sl) != want:
            raise ValueError(f"edge {lab} used by {len(sl)} slots, expected {want}")
    raise ValueError("edge labels differ from the surface's")


def ref_slot_corner_classes(tri, slots: dict) -> list[int]:
    """Root corner of each flat corner ``3*t + k``, by a union-find over
    the ``slots`` of each arc: for an arc's slots (t1, p1) and (t2, p2),
    the corner where one starts is joined to the corner after the other."""
    parent = list(range(3 * len(tri.triangles)))
    for lab, sl in slots.items():
        if not lab.startswith("a"):
            continue
        (t1, p1), (t2, p2) = sl
        for x, y in (
            (3 * t1 + p1, 3 * t2 + (p2 + 1) % 3),
            (3 * t2 + p2, 3 * t1 + (p1 + 1) % 3),
        ):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            parent[y] = x
    for c in range(len(parent)):
        root = c
        while parent[root] != root:
            root = parent[root]
        parent[c] = root
    return parent


def ref_exchange_matrix(tri) -> tuple:
    """B from the arrows: one per angle between two arcs, from the arc
    ``tri[k]`` to the side ``tri[k - 1]`` before it."""
    n = tri.surface.arc_count
    B = [[0] * n for _ in range(n)]
    for t in tri.triangles:
        for k in range(3):
            tail, head = t[k], t[(k - 1) % 3]
            if tail.startswith("a") and head.startswith("a"):
                ti, hi = int(tail[1:]), int(head[1:])
                B[ti - 1][hi - 1] += 1
                B[hi - 1][ti - 1] -= 1
    return tuple(map(tuple, B))


def ref_corner_classes(tri) -> dict[tuple[int, int], int]:
    """Marked-point class of each corner (t, k), by union-find on tuples."""
    slots = ref_slots(tri.triangles)
    corners = [(t, k) for t in range(len(tri.triangles)) for k in range(3)]
    idx = {c: i for i, c in enumerate(corners)}
    parent = list(range(len(corners)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for (t, k) in corners:
        out = tri.triangles[t][k]
        if out.startswith("a"):
            (t1, p1), (t2, p2) = slots[out]
            other = (t2, p2) if (t1, p1) == (t, k) else (t1, p1)
            union(idx[(t, k)], idx[(other[0], (other[1] + 1) % 3)])
        inc = tri.triangles[t][(k - 1) % 3]
        if inc.startswith("a"):
            sl = slots[inc]
            other = sl[1] if sl[0] == (t, (k - 1) % 3) else sl[0]
            union(idx[(t, k)], idx[other])
    return {c: find(idx[c]) for c in corners}


def ref_arc_chords(tri) -> tuple:
    """For a disc, the chord {i, j} of each arc a1 .. aN, read at the first
    slot of the arc: boundary segment b0.j starts at marked point j."""
    slots = ref_slots(tri.triangles)
    classes = ref_slot_corner_classes(tri, slots)
    m = tri.surface.m
    label_of_class = {}
    for lab, sl in slots.items():
        match = _BOUNDARY_RE.match(lab)
        if not match:
            continue
        j = int(match.group(2))
        ((t, p),) = sl
        label_of_class[classes[3 * t + p]] = j
        label_of_class[classes[3 * t + (p + 1) % 3]] = (j + 1) % m
    chords = []
    for i in range(1, tri.surface.arc_count + 1):
        (t, p), _ = slots[f"a{i}"]
        u = label_of_class[classes[3 * t + p]]
        v = label_of_class[classes[3 * t + (p + 1) % 3]]
        chords.append(frozenset((u, v)))
    return tuple(chords)


def ref_dual_graph(tri) -> tuple:
    """One edge (t1, t2, i), t1 < t2, per arc, from its two slots."""
    slots = ref_slots(tri.triangles)
    edges = []
    for i in range(1, tri.surface.arc_count + 1):
        (t1, _), (t2, _) = slots[f"a{i}"]
        if t1 == t2:
            raise ValueError(f"arc a{i} is self-folded; unpunctured surfaces forbid this")
        edges.append((min(t1, t2), max(t1, t2), i))
    return tuple(sorted(edges))


def ref_shared_count(tri, i: int, j: int) -> int:
    """How many triangles hold a slot of arc i and a slot of arc j."""
    slots = ref_slots(tri.triangles)
    return len({t for t, _ in slots[f"a{i}"]} & {t for t, _ in slots[f"a{j}"]})


def ref_quiver(tri) -> QuiverWithPotential:
    """The quiver with one arrow per angle between two arcs, numbered by
    (triangle, corner), and a 3-cycle per all-arc triangle."""
    arrows = []
    arrow_at = {}
    for t, tri_ in enumerate(tri.triangles):
        for k in range(3):
            tail, head = tri_[k], tri_[(k - 1) % 3]
            if tail.startswith("a") and head.startswith("a"):
                arrow_at[(t, k)] = len(arrows)
                arrows.append((int(tail[1:]), int(head[1:])))
    terms = []
    for t, tri_ in enumerate(tri.triangles):
        if all(e.startswith("a") for e in tri_):
            # arrows run s0 -> s2 -> s1 -> s0; record them along the cycle
            cyc = (arrow_at[(t, 0)], arrow_at[(t, 2)], arrow_at[(t, 1)])
            k = min(range(3), key=lambda i: arrows[cyc[i]][0])
            terms.append(cyc[k:] + cyc[:k])
    terms.sort(key=lambda cyc: tuple(arrows[i] for i in cyc))
    return QuiverWithPotential(tri.surface.arc_count, ref_exchange_matrix(tri), tuple(arrows),
                               tuple(terms))


def ref_flip(tri, arc: int):
    """The flip of ``arc`` through the slot table of ``tri``'s triangles,
    as ``Triangulation.flip`` found the quadrilateral before it scanned."""
    label = f"a{arc}"
    (t1, p1), (t2, p2) = ref_slots(tri.triangles)[label]
    tri1, tri2 = tri.triangles[t1], tri.triangles[t2]
    x1, x2 = tri1[(p1 + 1) % 3], tri1[(p1 + 2) % 3]
    y1, y2 = tri2[(p2 + 1) % 3], tri2[(p2 + 2) % 3]
    new = [t for i, t in enumerate(tri.triangles) if i not in (t1, t2)]
    new += [(label, x2, y1), (label, y2, x1)]
    return Triangulation(tri.surface, new, validate=False)


def ref_relabel(tri, perm: tuple[int, ...]):
    """Relabel arc ids by perm (1-based old -> new)."""
    labels = tri.surface._arc_labels
    mapping = dict(zip(labels, [labels[p - 1] for p in perm]))
    get = mapping.get
    tris = [(get(x, x), get(y, y), get(z, z)) for x, y, z in tri.triangles]
    return Triangulation(tri.surface, tris, validate=False)


def ref_enumerate_graph(base, radius: int | None = None, budget: int | None = None) -> ExchangeGraph:
    """BFS over flips keyed on the canonical (B', C') of every mutated
    seed: each mutation mutates B and C and sorts both, and a new vertex's
    triangulation is flipped through its slot table, then relabelled."""
    if radius is not None and radius < 0:
        raise ValueError("radius must be >= 0")
    budget = DEFAULT_BUDGET if budget is None else budget
    n = base.surface.arc_count
    share = _sharer()
    pairs: dict = {}
    seed0 = Seed.initial(base.exchange_matrix())
    seed0 = _shared_seed(share, seed0.B, seed0.C)
    vertices = [GraphVertex(base, seed0, 0, False)]
    index = {(seed0.B, seed0.C): 0}
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
        for k in range(1, n + 1):
            if adj[v][k] is not None:
                continue
            B2, C2, perm = canonical_form(mutate_seed(vd.seed, k))
            u = index.get((B2, C2))
            if u is None:
                if len(vertices) >= budget:
                    raise TruncationError(f"vertex budget {budget} exceeded while enumerating")
                tri = ref_relabel(ref_flip(vd.triangulation, k), perm)
                if tri.exchange_matrix() != B2:
                    raise RuntimeError("flip/mutation mismatch: implementation bug")
                u = len(vertices)
                seed = _shared_seed(share, B2, C2)
                vertices.append(GraphVertex(tri, seed, vd.depth + 1, False))
                adj.append([None] * (n + 1))
                index[(seed.B, seed.C)] = u
                queue.append(u)
            _link(adj, v, k, u, perm[k - 1], _perm_pair(pairs, perm, share))
    return ExchangeGraph(base.surface, vertices, adj, radius)


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


def _ref_pair_walk(g: ExchangeGraph, v: int, a: int, b: int, plan: str):
    """Walk forward mutations; 'a'/'b' in plan flips the transported slot.
    Returns (steps, end, (a, b)), each step a (vertex, arc), with end and
    pair None at a missing edge."""
    adj = g.adj
    steps = []
    for ch in plan:
        k = a if ch == "a" else b
        step = adj[v][k]
        if step is None:
            return tuple(steps), None, None
        steps.append((v, k))
        v, _, perm = step
        a, b = perm[a - 1], perm[b - 1]
    return tuple(steps), v, (a, b)


def ref_relation_pairs(g: ExchangeGraph, v: int) -> list[tuple]:
    """(kind, arcs, head, tail, plans) for each arc pair i < j at vertex v,
    read off the triangulation: the kind is the number of triangles the
    pair shares, by the slot table, and the tail the source of the arrows
    between the pair, by the sign of b_ij (j on a square)."""
    vd = g.vertices[v]
    t, B = vd.triangulation, vd.seed.B
    out = []
    for i in range(1, t.n + 1):
        for j in range(i + 1, t.n + 1):
            count = ref_shared_count(t, i, j)
            tail, head = (i, j) if B[i - 1][j - 1] > 0 else (j, i)
            if count == 0:
                out.append((RelationKind.SQUARE, (i, j), i, j, ("ba", "ab")))
            elif count == 1:
                out.append((RelationKind.PENTAGON, (i, j), head, tail, ("ba", "aba")))
            else:
                out.append((RelationKind.HEX_DUMBBELL, (i, j), head, tail, ("baa", "aab")))
    return out


def ref_relation_instances(g: ExchangeGraph, v: int) -> list[RelationInstance]:
    """One instance per unordered arc pair at vertex v, classified by
    :func:`ref_relation_pairs`."""
    out = []
    for kind, arcs, head, tail, (left_plan, right_plan) in ref_relation_pairs(g, v):
        ls, le, lp = _ref_pair_walk(g, v, head, tail, left_plan)
        rs, re, rp = _ref_pair_walk(g, v, head, tail, right_plan)
        out.append(
            RelationInstance(
                kind=kind,
                base=v,
                arcs=arcs,
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


def ref_all_relation_instances(g: ExchangeGraph) -> Iterator[RelationInstance]:
    """Instances of each vertex off the frontier, in vertex order, generated
    one vertex at a time: nothing holds those of the whole graph."""
    for v in range(g.vertex_count()):
        if not g.vertices[v].frontier:
            yield from ref_relation_instances(g, v)


def ref_relation_closure_check(g: ExchangeGraph, allow_incomplete: bool = False) -> dict:
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
    for inst in ref_all_relation_instances(g):
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


@dataclass(frozen=True)
class TwoCell:
    kind: RelationKind
    edges: tuple  # signed canonical edge ids around the cycle


def _edge_id(g: ExchangeGraph, v: int, k: int) -> tuple[int, int]:
    """The canonical id of the edge v --k-->: its end (vertex, arc) pair
    that is least."""
    return min((v, k), g.adj[v][k][:2])


def decoded_two_cells(g: ExchangeGraph) -> list[TwoCell]:
    """The library's ``two_cells``, each relator entry ``±(v * (n + 1) + k)``
    read back as the pair ``((v, k), ±1)``."""
    stride = g.n + 1
    return [
        TwoCell(kind, tuple((divmod(abs(d), stride), 1 if d > 0 else -1) for d in relator))
        for kind, relator in two_cells(g)
    ]


def _cycle_of(instance, g: ExchangeGraph):
    """Signed canonical edges around left path then reversed right path."""
    cyc = []
    for (v, k) in instance.left_steps:
        eid = _edge_id(g, v, k)
        cyc.append((eid, 1 if eid == (v, k) else -1))
    for (v, k) in reversed(instance.right_steps):
        eid = _edge_id(g, v, k)
        cyc.append((eid, -1 if eid == (v, k) else 1))
    return tuple(cyc)


def ref_two_cells(g: ExchangeGraph) -> list[TwoCell]:
    """Each square and pentagon built at every corner, the copies folded
    by their unoriented edge sets, the first copy kept."""
    seen = {}
    for inst in ref_all_relation_instances(g):
        if inst.kind is RelationKind.HEX_DUMBBELL:
            continue
        if not inst.co_terminates():
            raise RuntimeError("relation instance does not close")
        cyc = _cycle_of(inst, g)
        seen.setdefault(frozenset(e for e, _ in cyc), TwoCell(inst.kind, cyc))
    return [seen[k] for k in sorted(seen, key=sorted)]


def ref_search_tree(g: ExchangeGraph, breadth_first: bool) -> set[tuple[int, int]]:
    """The edge ids of a spanning tree searched from vertex 0, each vertex
    joined along the first edge that reaches it, arcs scanned in order:
    taken from a queue, the BFS tree that ``exchange._bfs_tree`` gives,
    or from a stack, the tree that ``homology_h1`` contracted before it
    contracted that one."""
    tree = set()
    seen = {0}
    todo = deque([0])
    while todo:
        v = todo.popleft() if breadth_first else todo.pop()
        for k, step in enumerate(g.adj[v]):
            if step is not None and step[0] not in seen:
                seen.add(step[0])
                tree.add(_edge_id(g, v, k))
                todo.append(step[0])
    return tree


def ref_dense_boundary(g: ExchangeGraph, cells: list[TwoCell], tree: set[tuple[int, int]]) -> np.ndarray:
    """Dense int8 (non-tree edges x cells) boundary matrix on a spanning
    tree, given by its edge ids as :func:`ref_search_tree` gives them."""
    edges = g.unoriented_edges()
    eindex = {(v, k): i for i, (v, k, _, _) in enumerate(edges)}
    nontree = [i for i, (v, k, _, _) in enumerate(edges) if (v, k) not in tree]
    pos = {i: r for r, i in enumerate(nontree)}
    M = np.zeros((len(nontree), len(cells)), dtype=np.int8)
    for c, cell in enumerate(cells):
        for eid, sign in cell.edges:
            r = pos.get(eindex[eid])
            if r is not None:
                M[r, c] += sign
    return M


def _rows(M) -> list[list[int]]:
    """A 2-D nested sequence or array as a list of int lists; floats raise TypeError."""
    rows = [list(map(operator.index, row)) for row in M]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("expected a 2-D matrix")
    return rows


def ref_smith_normal_form(M) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Exact integer Smith normal form: returns (U, D, V) as lists of int
    lists, with D = U M V, U and V unimodular, D diagonal with
    d1 | d2 | ... >= 0.  M is any 2-D nested sequence or array of ints."""
    A = _rows(M)
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(r1, r2, q):  # A[r1] -= q * A[r2]
        A[r1] = [a - q * b for a, b in zip(A[r1], A[r2])]
        U[r1] = [a - q * b for a, b in zip(U[r1], U[r2])]

    def col_op(c1, c2, q):  # A[:,c1] -= q * A[:,c2]
        for r in range(rows):
            A[r][c1] -= q * A[r][c2]
        for r in range(cols):
            V[r][c1] -= q * V[r][c2]

    def swap_rows(r1, r2):
        A[r1], A[r2] = A[r2], A[r1]
        U[r1], U[r2] = U[r2], U[r1]

    def swap_cols(c1, c2):
        for r in range(rows):
            A[r][c1], A[r][c2] = A[r][c2], A[r][c1]
        for r in range(cols):
            V[r][c1], V[r][c2] = V[r][c2], V[r][c1]

    t = 0
    while t < min(rows, cols):
        # smallest nonzero entry of the trailing block as pivot
        best = None
        for r in range(t, rows):
            for c in range(t, cols):
                if A[r][c] != 0 and (best is None or abs(A[r][c]) < abs(A[best[0]][best[1]])):
                    best = (r, c)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            p = A[t][t]
            done = True
            for r in range(t + 1, rows):
                if A[r][t] != 0:
                    q = A[r][t] // p
                    row_op(r, t, q)
                    if A[r][t] != 0:  # remainder becomes the better pivot
                        swap_rows(t, r)
                        done = False
                        break
            if not done:
                continue
            for c in range(t + 1, cols):
                if A[t][c] != 0:
                    q = A[t][c] // p
                    col_op(c, t, q)
                    if A[t][c] != 0:
                        swap_cols(t, c)
                        done = False
                        break
            if done:
                break
        # divisibility: pivot must divide the whole trailing block
        p = A[t][t]
        offender = None
        for r in range(t + 1, rows):
            for c in range(t + 1, cols):
                if A[r][c] % p != 0:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # A[t] += A[offender], restart this pivot
            continue
        if p < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, A, V


def ref_normal_form(w: BraidWord) -> GarsideNF:
    """Left-greedy Garside normal form by one pass over the letters, as
    ``normal_form`` ran before it became the product of its letters' forms:
    sigma_i^{-1} is written Delta^{-1} (Delta sigma_i^{-1}), each factor is
    conjugated by Delta once for every inverse letter after it, and the
    factor list is left-weighted once."""
    k = w.strands
    tab = _tab(k)
    power = 0
    factors: list = []
    phase = 0          # pending conjugations by Delta, applied lazily
    births: list[int] = []
    for x in w.letters:
        if x > 0:
            factors.append(tab.gens[x - 1])
        else:
            power -= 1
            phase += 1
            factors.append(mult(tab.w0, tab.gens[-x - 1]))
        births.append(phase)
    mat = [_tau(f) if (phase - b) % 2 else f for f, b in zip(factors, births)]
    extra, fs = _normalize(k, mat)
    return GarsideNF(k, power + extra, fs)


def ref_canon(o, word) -> tuple[int, ...]:
    """Canonical word of ``word`` in the oracle's group, normalised letter by
    letter: a braid never goes through the oracle's remembered forms."""
    if o.kind == "braid":
        return ref_normal_form(BraidWord(o.strands, tuple(word))).word().letters
    return o.canon(word)


def ref_conj(o, word, by) -> tuple[int, ...]:
    """by^{-1} . word . by in the oracle group, normalised as one word."""
    return ref_canon(o, inverse_word(by) + tuple(word) + tuple(by))


def _twist_walk(g: ExchangeGraph, v: int, arcs: list[int]):
    """Walk the 2-cycle loops t_{arc} in sequence; returns end vertex or None.

    Each completed 2-cycle returns to its start with identity index
    transport, so consecutive twists may reuse the original arc indices.
    """
    cur = v
    for a in arcs:
        slot = a
        for _ in range(2):
            if g.adj[cur][slot] is None:
                return None
            cur, slot = g.adj[cur][slot][:2]
        if cur != v:
            raise RuntimeError("local twist did not return to its vertex")
    return cur


def walked_closure_report(g: ExchangeGraph, allow_incomplete: bool = False) -> dict:
    """The closure report with every braid-relation circuit walked: t_i t_j
    both ways on |B_ij| = 0 and t_i t_j t_i both ways on |B_ij| = 1."""
    report = relation_closure_check(g, allow_incomplete)
    incomplete = report["incomplete"]
    circuits = 0
    for v in range(g.vertex_count()):
        vd = g.vertices[v]
        if vd.frontier:
            continue
        B = vd.seed.B
        for i in range(1, g.n + 1):
            for j in range(i + 1, g.n + 1):
                entry = abs(B[i - 1][j - 1])
                if entry == 0:
                    pair = [_twist_walk(g, v, [i, j]), _twist_walk(g, v, [j, i])]
                elif entry == 1:
                    pair = [_twist_walk(g, v, [i, j, i]), _twist_walk(g, v, [j, i, j])]
                else:
                    continue
                if None in pair:
                    incomplete += 1
                    continue
                if pair[0] != v or pair[1] != v:
                    raise RuntimeError(
                        f"braid-relation circuit at vertex {v}, arcs ({i},{j}) does not close"
                    )
                circuits += 1
    return {**report, "circuits": circuits, "incomplete": incomplete}


@dataclass
class _Node:
    shadow: int
    depth: int
    parent: int
    inv_move: tuple[int, int] | None  # move cancelling back to the parent


class TreeCoverBall:
    """Radius-truncated quotient of the flip path tree by relation closure.

    ``nodes`` is the tree; a class is named by its representative, its
    lowest tree node.  ``frames`` maps each class to its twist frame (None
    without an oracle group): the tree is folded first, then one frame per
    class is transported from the parent class.
    """

    def __init__(self, graph: ExchangeGraph, base: int, radius: int,
                 frame0: TwistFrame | None, budget: int):
        if radius < 1:
            raise ValueError("radius must be >= 1")
        self.graph = graph
        self.base = base
        self.radius = radius
        self.budget = budget
        self.nodes: list[_Node] = []
        self.moves: list[dict] = []
        self.frames: dict[int, TwistFrame] | None = None
        self._uf: list[int] = []
        self._depth: dict[int, int] = {}
        self._size: dict[int, int] = {}
        self._build_tree()
        self._size = {i: 1 for i in range(len(self.nodes))}
        self._classmoves: dict[int, dict] = {}
        self._fold_and_close()
        self._labels: dict[int, tuple] = {}
        if frame0 is not None:
            self._transport_class_frames(frame0)
            self._discover_labels()

    # -- tree ---------------------------------------------------------------

    def _new_node(self, shadow, depth, parent, inv_move):
        if len(self.nodes) >= self.budget:
            raise TruncationError(f"cover node budget {self.budget} exceeded")
        self.nodes.append(_Node(shadow, depth, parent, inv_move))
        self.moves.append({})
        self._uf.append(len(self.nodes) - 1)
        self._depth[len(self.nodes) - 1] = depth
        return len(self.nodes) - 1

    def _build_tree(self):
        g = self.graph
        root = self._new_node(self.base, 0, -1, None)
        queue = [root]
        qpos = 0
        while qpos < len(queue):
            x = queue[qpos]
            qpos += 1
            node = self.nodes[x]
            if node.depth >= self.radius:
                continue
            v = node.shadow
            if g.vertices[v].frontier:
                raise ValueError(
                    "cover ball reaches the exchange graph's truncation frontier; "
                    "enumerate the graph at least as deep as the ball radius"
                )
            for k, step in enumerate(g.adj[v]):
                if step is None:
                    continue
                u, k2 = step[:2]
                for d in (FWD, BWD):
                    if node.inv_move == (k, d):
                        continue
                    child = self._new_node(u, node.depth + 1, x, (k2, -d))
                    self.moves[x][(k, d)] = child
                    self.moves[child][(k2, -d)] = x
                    queue.append(child)

    # -- quotient -----------------------------------------------------------

    def find(self, x: int) -> int:
        uf = self._uf
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def _union(self, a: int, b: int, pending: list) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.nodes[ra].shadow != self.nodes[rb].shadow:
            raise RuntimeError("relation closure tried to merge different shadows")
        lo, hi = min(ra, rb), max(ra, rb)
        self._uf[hi] = lo
        self._depth[lo] = min(self._depth[lo], self._depth.pop(hi))
        self._size[lo] = self._size[lo] + self._size.pop(hi)
        mlo, mhi = self._classmoves[lo], self._classmoves.pop(hi)
        for mv, tgt in mhi.items():
            cur = mlo.get(mv)
            if cur is None:
                mlo[mv] = tgt
            elif self.find(cur) != self.find(tgt):
                pending.append((cur, tgt))
        return True

    def _walk(self, cls: int, moves) -> int | None:
        cur = self.find(cls)
        for mv in moves:
            nxt = self._classmoves[cur].get(mv)
            if nxt is None:
                return None
            cur = self.find(nxt)
        return cur

    def _fold_and_close(self):
        self._classmoves = {i: dict(m) for i, m in enumerate(self.moves)}
        g = self.graph
        plans: dict[int, list] = {}
        for v in range(g.vertex_count()):
            plans[v] = []
        for inst in ref_all_relation_instances(g):
            if not inst.complete:
                continue
            left = [(k, FWD) for (_, k) in inst.left_steps]
            right = [(k, FWD) for (_, k) in inst.right_steps]
            plans[inst.base].append((left, right))
        changed = True
        while changed:
            changed = False
            pending: list = []
            for cls in sorted(self._classmoves):
                if self.find(cls) != cls:
                    continue
                for left, right in plans[self.nodes[cls].shadow]:
                    e1 = self._walk(cls, left)
                    e2 = self._walk(cls, right)
                    if e1 is not None and e2 is not None and e1 != e2:
                        pending.append((e1, e2))
            while pending:
                a, b = pending.pop()
                if self._union(a, b, pending):
                    changed = True

    # -- frames -------------------------------------------------------------

    def _transport_class_frames(self, frame0: TwistFrame):
        """One frame per class, across the tree move into its representative.

        The tree parent of a representative is a representative: its class
        lifts the same move, and breadth-first order numbers the child of a
        lower node first.  So in class order every parent frame is ready,
        and each class frame is the transport along its representative's
        tree path, the frame every node of the class carries.
        """
        g = self.graph
        frames = {0: frame0}
        for cls in self.classes()[1:]:
            node = self.nodes[cls]
            if self.find(node.parent) != node.parent:
                raise RuntimeError(
                    f"class {cls}: tree parent {node.parent} is not a class representative"
                )
            k2, back = node.inv_move
            k = g.adj[node.shadow][k2][1]
            _, frames[cls] = frame_transport_move(
                g, frames[node.parent], self.nodes[node.parent].shadow, k, forward=(back == BWD)
            )
        self.frames = frames

    # -- labels (deck elements discovered from lifted twist loops) ----------

    def _twist_moves(self, arc: int, sign: int):
        k2 = self.graph.adj[self.base][arc][1]
        return [(arc, FWD), (k2, FWD)] if sign > 0 else [(arc, BWD), (k2, BWD)]

    def _discover_labels(self, max_len: int = 4):
        o = self.frames[0].oracle
        f0 = self.frames[0]
        root = self.find(0)
        self._labels = {root: o.canon(())}
        self.label_conflicts: list[int] = []
        frontier = [(root, o.canon(()))]
        n = self.graph.n
        for _ in range(max_len):
            new_frontier = []
            for cls, word in frontier:
                for arc in range(1, n + 1):
                    for sign in (1, -1):
                        tgt = self._walk(cls, self._twist_moves(arc, sign))
                        if tgt is None:
                            continue
                        ent = f0.entry(arc)
                        lab = o.mul(word, o.inv(ent) if sign > 0 else ent)
                        known = self._labels.get(tgt)
                        if known is None:
                            self._labels[tgt] = lab
                            new_frontier.append((tgt, lab))
                        elif known != lab and not o.eq(known, lab):
                            self.label_conflicts.append(tgt)
            frontier = new_frontier

    # -- queries ------------------------------------------------------------

    def classes(self) -> list[int]:
        return sorted(self._classmoves)

    def class_depth(self, cls: int) -> int:
        return self._depth[self.find(cls)]

    def interior(self, cls: int) -> bool:
        return self.class_depth(cls) + 3 <= self.radius

    def shadow(self, cls: int) -> int:
        return self.nodes[self.find(cls)].shadow

    def lift(self, start: int, moves) -> int | None:
        """Walk a move sequence [(arc, +1/-1), ...] in the quotient."""
        return self._walk(self.find(start), moves)

    def lift_twist_word(self, word) -> int | None:
        """Lift a product of local twists [(arc, sign), ...] from the base."""
        cur = self.find(0)
        for arc, sign in word:
            cur = self._walk(cur, self._twist_moves(arc, sign))
            if cur is None:
                return None
        return cur

    def label(self, cls: int):
        return self._labels.get(self.find(cls))

    def frame(self, cls: int) -> TwistFrame | None:
        if self.frames is None:
            return None
        return self.frames[self.find(cls)]

    def same_vertex(self, a: int, b: int) -> str:
        """Equal / Distinct / Inconclusive for two ball nodes (or classes)."""
        if not (0 <= a < len(self.nodes) and 0 <= b < len(self.nodes)):
            raise ValueError("nodes outside this ball")
        ca, cb = self.find(a), self.find(b)
        if ca == cb:
            return "Equal"
        if self.interior(ca) and self.interior(cb):
            return "Distinct"
        la, lb = self._labels.get(ca), self._labels.get(cb)
        if la is not None and lb is not None and self.frames is not None:
            o = self.frames[0].oracle
            if self.nodes[ca].shadow == self.nodes[cb].shadow:
                return "Equal" if o.eq(la, lb) else "Distinct"
        return "Inconclusive"

    def fiber_report(self, shadow: int) -> list[dict]:
        """Interior cover vertices over a graph vertex, with deck labels."""
        out = []
        for cls in self.classes():
            if self.shadow(cls) != shadow or not self.interior(cls):
                continue
            out.append(
                {
                    "class": cls,
                    "depth": self.class_depth(cls),
                    "size": self._size[cls],
                    "label": list(self._labels[cls]) if cls in self._labels else None,
                }
            )
        labels = [tuple(r["label"]) for r in out if r["label"] is not None]
        if self.frames is not None:
            o = self.frames[0].oracle
            for i in range(len(labels)):
                for j in range(i + 1, len(labels)):
                    if o.eq(labels[i], labels[j]):
                        raise RuntimeError("fiber elements with equal deck labels")
        return out

    def class_graph(self) -> dict[int, dict]:
        """Quotient adjacency: class -> {(arc, dir) -> class}."""
        return {
            cls: {mv: self.find(t) for mv, t in self._classmoves[cls].items()}
            for cls in self.classes()
        }

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "radius": self.radius,
            "classes": [
                {
                    "id": cls,
                    "shadow": self.shadow(cls),
                    "depth": self.class_depth(cls),
                    "size": self._size[cls],
                    "interior": self.interior(cls),
                    "label": list(self._labels[cls]) if cls in self._labels else None,
                    "frame": None
                    if self.frames is None
                    else [list(e) for e in self.frames[cls].entries],
                    "moves": {
                        f"{arc}{'+' if d > 0 else '-'}": self.find(t)
                        for (arc, d), t in sorted(self._classmoves[cls].items())
                    },
                }
                for cls in self.classes()
            ],
        }


def tree_cover_ball(
    graph: ExchangeGraph,
    radius: int,
    base: int = 0,
    frame0: TwistFrame | None = None,
    budget: int | None = None,
    with_frames: bool = True,
) -> TreeCoverBall:
    """Rooted relation-closure quotient of the flip path tree.

    Frames are attached when the surface has an oracle group (disc or
    once-marked annulus) unless ``with_frames`` is False.  They are
    transported once per class after the tree is folded, not per tree node.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    if frame0 is None and with_frames and oracle_for_surface(graph.surface) is not None:
        frame0 = frame_at(graph, base)
    return TreeCoverBall(graph, base, radius, frame0, budget)


def framed_closure_ball(g: ExchangeGraph, radius: int, base: int = 0) -> dict[int, dict]:
    """The ball that ``CoverBall`` grew on every surface before it grew
    oracle-surface balls from voltages: a quotient grown one depth at a time,
    each class born with the frame transported from its parent class, the
    relation closure run after each layer, and a merge of unequal frames
    refused.  Returns each class by id (the breadth-first path-tree index of
    its shortlex-least move word) as its shadow, depth, frame entries and
    moves."""
    shadow, frames, moves, uf = [base], [frame_at(g, base)], [{}], [0]
    start = [0]

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def walk(cls, word):
        for mv in word:
            cls = moves[cls].get(mv)
            if cls is None:
                return None
            cls = find(cls)
        return cls

    def union(a, b, pending):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        if shadow[ra] != shadow[rb] or frames[ra] != frames[rb]:
            raise RuntimeError("relation closure tried to merge different shadows or frames")
        lo, hi = min(ra, rb), max(ra, rb)
        uf[hi] = lo
        for mv, tgt in moves[hi].items():
            cur = moves[lo].setdefault(mv, tgt)
            if find(cur) != find(tgt):
                pending.append((cur, tgt))
        moves[hi] = None
        return True

    plans: dict[int, list] = {v: [] for v in range(g.vertex_count())}
    for inst in ref_all_relation_instances(g):
        if inst.complete:
            plans[inst.base].append(tuple([(k, FWD) for _, k in steps]
                                          for steps in (inst.left_steps, inst.right_steps)))
    for d in range(radius):
        start.append(len(uf))
        for cls in range(start[d], start[d + 1]):
            if uf[cls] != cls:
                continue
            v = shadow[cls]
            for k, step in enumerate(g.adj[v]):
                if step is None:
                    continue
                u, k2, _ = step
                for sign in (FWD, BWD):
                    if (k, sign) in moves[cls]:
                        continue
                    moves[cls][(k, sign)] = len(uf)
                    moves.append({(k2, -sign): cls})
                    uf.append(len(uf))
                    shadow.append(u)
                    frames.append(frame_transport_move(g, frames[cls], v, k, forward=sign == FWD)[1])
        changed = True
        while changed:
            changed = False
            pending: list = []
            for cls in range(len(uf)):
                if uf[cls] == cls:
                    for left, right in plans[shadow[cls]]:
                        e1, e2 = walk(cls, left), walk(cls, right)
                        if e1 is not None and e2 is not None and e1 != e2:
                            pending.append((e1, e2))
            while pending:
                a, b = pending.pop()
                changed = union(a, b, pending) or changed
    two_n = 2 * g.n
    first = [0, 1]
    for L in range(1, radius):
        first.append(first[-1] + two_n * (two_n - 1) ** (L - 1))
    index, depth, back = {0: 0}, {0: 0}, {0: None}
    order = [0]
    for cls in order:
        L = depth[cls]
        if L == radius:
            continue
        pos = 0
        for k, step in enumerate(g.adj[shadow[cls]]):
            if step is None:
                continue
            for sign in (FWD, BWD):
                if (k, sign) == back[cls]:
                    continue
                tgt = find(moves[cls][(k, sign)])
                if tgt not in index:
                    index[tgt] = first[L + 1] + (index[cls] - first[L]) * (two_n - 1) + pos
                    depth[tgt] = L + 1
                    back[tgt] = (step[1], -sign)
                    order.append(tgt)
                pos += 1
    return {index[c]: {"shadow": shadow[c], "depth": depth[c], "frame": frames[c].entries,
                       "moves": {mv: index[find(t)] for mv, t in moves[c].items()}}
            for c in sorted(order, key=index.__getitem__)}


def cut_ball(ball: dict[int, dict], radius: int) -> dict[int, dict]:
    """The classes of ``ball`` at depth <= radius, a class at depth radius
    keeping only its moves to the layer below."""
    out = {}
    for cls, c in ball.items():
        if c["depth"] <= radius:
            moves = c["moves"]
            if c["depth"] == radius:
                moves = {mv: t for mv, t in moves.items() if ball[t]["depth"] == radius - 1}
            out[cls] = {**c, "moves": moves}
    return out


def ref_fiber_report(ball, shadow: int) -> list[dict]:
    """``CoverBall.fiber_report`` as it was before classes were indexed by
    shadow: a scan of every class, in id order, per call."""
    out = []
    for cls in ball.classes():
        if ball.shadow(cls) != shadow or not ball.interior(cls):
            continue
        lab = ball.label(cls)
        out.append({"class": cls, "depth": ball.class_depth(cls), "size": ball._size[cls],
                    "label": None if lab is None else list(lab)})
    return out
