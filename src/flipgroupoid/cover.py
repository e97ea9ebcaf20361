"""Twist-frame transport and bounded truncations of the decorated cover.

A twist frame attaches to each arc of a triangulation the braid twist of
its dual closed arc, as an element of an oracle group where the word
problem is decidable: the classical braid group B_aleph for discs (via
Garside normal forms) and the free group for the once-marked annulus,
whose twist group has no relations.  At the fan base of a disc the
entries are sigma_1 .. sigma_n in order.

Crossing a forward mutation at arc k, an entry l with at least one arrow
l -> k in the source quiver is conjugated by the entry at k,

    entry_l  ->  entry_k^{-1} . entry_l . entry_k,

all other entries are unchanged.  This is the cluster braid groupoid
conjugation formula written on the braid-twist side; the local twist
images are the entrywise inverses and transform by the mirrored rule,
which is pinned down by a unit test re-deriving the two defining checks
of the formula.

The covering ball is the tree of reduced forward/backward flip words from
a base vertex, truncated at a radius and folded by union-find closure
under the square, pentagon and hexagonal-dumbbell rewrites.  Inside the
interior (depth <= radius - 3, the longest relation side being 3) the
quotient agrees with the covering graph of decorated triangulations.
The tree is built and folded without frames; the decoration is added
after folding, one frame per class, transported from the parent class
across the tree move that created the class representative.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import braid
from .braid import BraidWord
from .exchange import ExchangeGraph, TruncationError, all_relation_instances, enumerate_graph
from .surface import polygon_fan

__all__ = [
    "BraidOracle",
    "FreeGroupOracle",
    "oracle_for_surface",
    "TwistFrame",
    "base_frame",
    "transport_frame",
    "frame_transport_move",
    "frame_at",
    "disc_start_frame",
    "CoverBall",
    "build_cover_ball",
]


def free_reduce(word) -> tuple[int, ...]:
    """Free reduction of a word in signed generator indices."""
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse_word(word) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


class _WordOracle:
    """Word arithmetic on letter tuples; subclasses define ``canon`` and
    ``_entry_ok``.

    ``conj`` and ``entry_ok`` are memoised per oracle instance: frame
    transport conjugates a few hundred distinct (word, by) pairs many
    thousands of times, every frame built checks each of its entries, and
    an oracle lives as long as the frames of one build.
    """

    def __init__(self):
        self._conj_memo: dict = {}
        self._entry_memo: dict = {}

    def generator(self, i: int) -> tuple[int, ...]:
        return (i,)

    def inv(self, word) -> tuple[int, ...]:
        return inverse_word(word)

    def mul(self, *words) -> tuple[int, ...]:
        return self.canon(tuple(x for w in words for x in w))

    def conj(self, word, by) -> tuple[int, ...]:
        """by^{-1} . word . by, renormalized."""
        key = (tuple(word), tuple(by))
        out = self._conj_memo.get(key)
        if out is None:
            out = self._conj_memo[key] = self.mul(self.inv(by), word, by)
        return out

    def entry_ok(self, word) -> bool:
        """Whether ``word`` has the shape of a twist; failures are kept too."""
        key = tuple(word)
        ok = self._entry_memo.get(key)
        if ok is None:
            ok = self._entry_memo[key] = self._entry_ok(key)
        return ok

    def is_id(self, word) -> bool:
        return not self.canon(word)

    def eq(self, w1, w2) -> bool:
        return self.canon(w1) == self.canon(w2)


class BraidOracle(_WordOracle):
    """Garside-backed word arithmetic in B_strands."""

    kind = "braid"

    def __init__(self, strands: int):
        super().__init__()
        self.strands = strands

    def canon(self, word) -> tuple[int, ...]:
        return braid.normal_form(BraidWord(self.strands, word)).word().letters

    def _entry_ok(self, word) -> bool:
        return braid.looks_like_band_generator(BraidWord(self.strands, word))


class FreeGroupOracle(_WordOracle):
    """Free group on ``rank`` generators; canonical form is free reduction."""

    kind = "free"

    def __init__(self, rank: int):
        super().__init__()
        self.rank = rank

    def canon(self, word) -> tuple[int, ...]:
        return free_reduce(word)

    def _entry_ok(self, word) -> bool:
        w = self.canon(word)
        if len(w) % 2 == 0:
            return False
        mid = len(w) // 2
        if w[mid] <= 0:
            return False
        return all(w[i] == -w[-1 - i] for i in range(mid))


def oracle_for_surface(surface):
    """Braid oracle for discs, free oracle for the once-marked annulus,
    None otherwise (no faithful normal form is implemented)."""
    if surface.is_disc:
        return BraidOracle(surface.triangle_count)
    if surface.genus == 0 and surface.boundaries == (1, 1):
        return FreeGroupOracle(surface.arc_count)
    return None


@dataclass(frozen=True)
class TwistFrame:
    """Braid twists of the dual arcs, indexed by arc id (1-based)."""

    entries: tuple[tuple[int, ...], ...]
    oracle: object

    def __post_init__(self):
        for e in self.entries:
            if not self.oracle.entry_ok(e):
                raise ValueError(f"frame entry {e} is not a twist-shaped word")

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, arc: int) -> tuple[int, ...]:
        return self.entries[arc - 1]

    def __eq__(self, other):
        return (
            isinstance(other, TwistFrame)
            and self.entries == other.entries
            and self.oracle.kind == other.oracle.kind
        )

    def __hash__(self):
        return hash(self.entries)


def base_frame(surface, oracle=None) -> TwistFrame:
    oracle = oracle or oracle_for_surface(surface)
    if oracle is None:
        raise ValueError("no oracle group for this surface")
    n = surface.arc_count
    return TwistFrame(tuple(oracle.generator(i) for i in range(1, n + 1)), oracle)


def transport_frame(frame: TwistFrame, q, k: int) -> TwistFrame:
    """Push the frame across the forward mutation at arc k.

    ``q`` is the quiver (or exchange matrix) at the source vertex; arc ids
    are stable here, as in the raw triangulation world.
    """
    B = getattr(q, "B", q)
    n = frame.n
    if len(B) != n:
        raise ValueError("frame and quiver sizes differ")
    if not (1 <= k <= n):
        raise ValueError(f"arc {k} out of range")
    g = frame.entry(k)
    o = frame.oracle
    entries = list(frame.entries)
    for l in range(1, n + 1):
        if l != k and B[l - 1][k - 1] > 0:
            entries[l - 1] = o.conj(entries[l - 1], g)
    return TwistFrame(tuple(entries), o)


def frame_transport_move(g: ExchangeGraph, frame: TwistFrame, v: int, k: int, forward: bool = True):
    """Transport across one cover move from graph vertex v at arc k.

    Returns (target vertex, frame indexed by the target's canonical arcs).
    Backward moves invert the transport of the forward edge into v.
    """
    o = frame.oracle
    u, k2 = g.nbr[v][k]
    n = frame.n
    if forward:
        moved = transport_frame(frame, g.vertices[v].seed.B, k)
        perm = g.edge_perm[(v, k)]
        entries = [None] * n
        for l in range(1, n + 1):
            entries[perm[l - 1] - 1] = moved.entries[l - 1]
        return u, TwistFrame(tuple(entries), o)
    # inverse of the forward edge u ->(k2) v
    rho = g.edge_perm[(u, k2)]
    Bu = g.vertices[u].seed.B
    gamma = frame.entry(k)
    entries = [None] * n
    for l in range(1, n + 1):
        e = frame.entries[rho[l - 1] - 1]
        if l != k2 and Bu[l - 1][k2 - 1] > 0:
            e = o.conj(e, o.inv(gamma))
        entries[l - 1] = e
    return u, TwistFrame(tuple(entries), o)


def frame_at(g: ExchangeGraph, v: int, frame0: TwistFrame | None = None) -> TwistFrame:
    """Frame at graph vertex v, transported from the base along the BFS tree."""
    if frame0 is None:
        frame0 = base_frame(g.surface)
    path = _bfs_path(g, v)
    frame = frame0
    cur = 0
    for k in path:
        cur, frame = frame_transport_move(g, frame, cur, k, forward=True)
    return frame


def disc_start_frame(g: ExchangeGraph) -> TwistFrame:
    """Twist frame at vertex 0 of a disc graph started anywhere.

    The base frame sigma_1 .. sigma_n by arc label holds on the fan only, so
    the frame is transported from the fan to the triangulation with vertex
    0's chords and its entries are matched to vertex 0's arcs by chord.
    When vertex 0 already has the fan's chords the fan graph is not built.
    """
    t0 = g.vertices[0].triangulation
    chords = t0.disc_chords()
    fan = polygon_fan(g.surface.m)
    if fan.disc_chords() == chords:
        frame, arcs = base_frame(g.surface), fan.arc_chords()
    else:
        fg = enumerate_graph(fan)
        w = next(u for u, vx in enumerate(fg.vertices) if vx.triangulation.disc_chords() == chords)
        frame, arcs = frame_at(fg, w), fg.vertices[w].triangulation.arc_chords()
    arc_of = {c: arc for arc, c in enumerate(arcs, 1)}
    return TwistFrame(tuple(frame.entry(arc_of[c]) for c in t0.arc_chords()), frame.oracle)


def _bfs_path(g: ExchangeGraph, v: int) -> list[int]:
    """Deterministic flip path 0 -> v (BFS tree, arcs scanned in order)."""
    parent: dict[int, tuple[int, int]] = {0: (-1, 0)}
    order = [0]
    qpos = 0
    while qpos < len(order):
        w = order[qpos]
        qpos += 1
        if w == v:
            break
        for k in sorted(g.nbr[w]):
            u, _ = g.nbr[w][k]
            if u not in parent:
                parent[u] = (w, k)
                order.append(u)
    if v not in parent:
        raise ValueError(f"vertex {v} not reachable")
    path = []
    cur = v
    while cur != 0:
        p, k = parent[cur]
        path.append(k)
        cur = p
    return path[::-1]


# -- covering balls ----------------------------------------------------------

FWD, BWD = 1, -1


@dataclass
class _Node:
    shadow: int
    depth: int
    parent: int
    inv_move: tuple[int, int] | None  # move cancelling back to the parent


class CoverBall:
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
            for k in sorted(g.nbr[v]):
                u, k2 = g.nbr[v][k]
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
        for inst in all_relation_instances(g):
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
            k = g.nbr[node.shadow][k2][1]
            _, frames[cls] = frame_transport_move(
                g, frames[node.parent], self.nodes[node.parent].shadow, k, forward=(back == BWD)
            )
        self.frames = frames

    # -- labels (deck elements discovered from lifted twist loops) ----------

    def _twist_moves(self, arc: int, sign: int):
        k2 = self.graph.nbr[self.base][arc][1]
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


def build_cover_ball(
    graph: ExchangeGraph,
    radius: int,
    base: int = 0,
    frame0: TwistFrame | None = None,
    budget: int | None = None,
    with_frames: bool = True,
) -> CoverBall:
    """Rooted relation-closure quotient of the flip path tree.

    Frames are attached when the surface has an oracle group (disc or
    once-marked annulus) unless ``with_frames`` is False.  They are
    transported once per class after the tree is folded, not per tree node.
    """
    from .exchange import _budget_default

    if budget is None:
        budget = _budget_default()
    if frame0 is None and with_frames and oracle_for_surface(graph.surface) is not None:
        frame0 = frame_at(graph, base)
    return CoverBall(graph, base, radius, frame0, budget)
