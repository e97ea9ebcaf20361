"""Twist-frame transport and bounded truncations of the decorated cover.

A twist frame attaches to each arc of a triangulation the braid twist of
its dual closed arc, as an element of an oracle group where the word
problem is decidable: the classical braid group B_aleph for discs (via
Garside normal forms) and the free group for the once-marked annulus,
whose twist group has no relations.  On the fan of a disc from corner c
the arc on chord {c, c+i+1} carries sigma_i; any other disc start takes
the frame carried back along a flip walk to such a fan, and the
once-marked annulus starts from the generators in arc order.

Crossing a forward mutation at arc k, an entry l with at least one arrow
l -> k in the source quiver is conjugated by the entry at k,

    entry_l  ->  entry_k^{-1} . entry_l . entry_k,

all other entries are unchanged.  This is the cluster braid groupoid
conjugation formula written on the braid-twist side; the local twist
images are the entrywise inverses and transform by the mirrored rule,
which is pinned down by a unit test re-deriving the two defining checks
of the formula.  A move builds one frame and checks only the entries it
conjugated: the others were checked in the frame it started from.

Every word an oracle returns is canonical.  The braid oracle keeps the
Garside form of each canonical word it meets, and conjugates by
multiplying forms (``braid.product`` of the inverse of the form of
``by``, the form of the word and the form of ``by``), so normal forms are
computed from words only for words it has not met.  Deck labels are
canonical words too, and are compared as tuples.

On a disc and on the once-marked annulus the decorated cover is a
regular cover with the oracle group as deck group, so it is the derived
graph of a voltage assignment (Gross and Tucker, *Topological Graph
Theory*, ch. 2).  :func:`voltages` solves one group element per directed
edge of the exchange graph, from the BFS tree of
:mod:`flipgroupoid.exchange`, the 2-cycle rule and the relations, each
read off the steps the relation walker yields, and checks the relations,
the 2-cycles and the frame rule on every edge.  The covering ball of
radius r is then a breadth-first search over (graph vertex, group
element), the element keyed by its Garside form on a disc and its
reduced word on the annulus: each cover vertex is born once, with the
frame transported from its parent, and a cover vertex over the base is
labelled by the canonical word of its group element.

Without an oracle group the ball is the tree of reduced forward/backward
flip words from a base vertex modulo closure under the square, pentagon
and hexagonal-dumbbell rewrites.  Inside the interior (depth <= r - 3,
the longest relation side being 3) it agrees with the covering graph of
decorated triangulations.  It is grown one depth at a time from class
representatives, by coset enumeration with folding over the walker's
steps, and the tree is never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import braid
from .braid import BraidWord
from .exchange import (
    DEFAULT_BUDGET,
    CheckFailure,
    ExchangeGraph,
    TruncationError,
    _bfs_tree,
    _walk_relations,
)

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
    "voltages",
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
    ``_entry_ok``.  Every word an oracle returns is canonical.

    ``conj`` and ``entry_ok`` are memoised per oracle instance: frame
    transport conjugates a few hundred distinct (word, by) pairs many
    thousands of times, every frame built checks its new entries, and an
    oracle lives as long as the frames of one build.
    """

    def __init__(self):
        self._conj_memo: dict = {}
        self._entry_memo: dict = {}

    def generator(self, i: int) -> tuple[int, ...]:
        return (i,)

    def inv(self, word) -> tuple[int, ...]:
        return self.canon(inverse_word(word))

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

    # group elements as hashable keys: the canonical word here, the Garside
    # form in the braid oracle, which multiplies forms without reading words
    def element(self, word):
        return self.canon(word)

    def times(self, a, b):
        return self.mul(a, b)

    def word(self, a) -> tuple[int, ...]:
        return a


class BraidOracle(_WordOracle):
    """Garside-backed word arithmetic in B_strands.

    The oracle keeps the Garside form of every canonical word it meets, so
    ``inv``, ``mul`` and ``conj`` multiply and invert forms
    (:func:`flipgroupoid.braid.product`, :meth:`GarsideNF.inverse`) and
    normalise a word only the first time they see it.  Inverses are
    memoised too: every backward move inverts the entry it crosses.
    """

    kind = "braid"

    def __init__(self, strands: int):
        super().__init__()
        self.strands = strands
        self._forms: dict = {}
        self._inverses: dict = {}

    def element(self, word) -> braid.GarsideNF:
        """The Garside form of a word, normalised the first time it is met."""
        nf = self._forms.get(tuple(word))
        if nf is None:
            nf = braid.normal_form(BraidWord(self.strands, word))
            self.word(nf)
        return nf

    def times(self, a: braid.GarsideNF, b: braid.GarsideNF) -> braid.GarsideNF:
        return braid.product(a, b)

    def word(self, nf: braid.GarsideNF) -> tuple[int, ...]:
        """The canonical word of a form, remembered with it."""
        word = nf.word().letters
        self._forms.setdefault(word, nf)
        return word

    def canon(self, word) -> tuple[int, ...]:
        return self.word(self.element(word))

    def inv(self, word) -> tuple[int, ...]:
        key = tuple(word)
        out = self._inverses.get(key)
        if out is None:
            out = self._inverses[key] = self.word(self.element(key).inverse())
        return out

    def mul(self, *words) -> tuple[int, ...]:
        if not words:
            return ()
        return self.word(braid.product(*map(self.element, words)))

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


def _twist(o, word) -> tuple[int, ...]:
    if not o.entry_ok(word):
        raise ValueError(f"frame entry {word} is not a twist-shaped word")
    return word


@dataclass(frozen=True)
class TwistFrame:
    """Braid twists of the dual arcs, indexed by arc id (1-based)."""

    entries: tuple[tuple[int, ...], ...]
    oracle: object

    def __post_init__(self):
        for e in self.entries:
            _twist(self.oracle, e)

    @classmethod
    def trusted(cls, entries: tuple, oracle) -> "TwistFrame":
        """Frame of entries the caller has already checked, with no check."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "entries", entries)
        object.__setattr__(frame, "oracle", oracle)
        return frame

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


def base_frame(surface) -> TwistFrame:
    oracle = oracle_for_surface(surface)
    if oracle is None:
        raise ValueError("no oracle group for this surface")
    n = surface.arc_count
    return TwistFrame(tuple(oracle.generator(i) for i in range(1, n + 1)), oracle)


def _conjugated(o, entries, B, k: int, by) -> list:
    """``entries`` with each l != k that has an arrow l -> k in B conjugated
    by ``by``; only the conjugated entries are checked."""
    out = list(entries)
    col = k - 1
    for l, row in enumerate(B):
        if l != col and row[col] > 0:
            out[l] = _twist(o, o.conj(out[l], by))
    return out


def transport_frame(frame: TwistFrame, B, k: int) -> TwistFrame:
    """Push the frame across the forward mutation at arc k.

    ``B`` is the exchange matrix at the source vertex; arc ids are stable
    here, as in the raw triangulation world.
    """
    if len(B) != frame.n:
        raise ValueError("frame and exchange matrix sizes differ")
    if not (1 <= k <= frame.n):
        raise ValueError(f"arc {k} out of range")
    o = frame.oracle
    return TwistFrame.trusted(tuple(_conjugated(o, frame.entries, B, k, frame.entry(k))), o)


def frame_transport_move(g: ExchangeGraph, frame: TwistFrame, v: int, k: int, forward: bool = True):
    """Transport across one cover move from graph vertex v at arc k.

    Returns (target vertex, frame indexed by the target's canonical arcs).
    Backward moves invert the transport of the forward edge into v.  The
    entries the move leaves as they are were checked in ``frame``, so only
    the conjugated ones are checked again.
    """
    o = frame.oracle
    u, k2, perm = g.adj[v][k]
    if forward:
        moved = _conjugated(o, frame.entries, g.vertices[v].seed.B, k, frame.entry(k))
        entries = [None] * frame.n
        for l, e in zip(perm, moved):
            entries[l - 1] = e
    else:
        # inverse of the forward edge u ->(k2) v
        rho = g.adj[u][k2][2]
        entries = _conjugated(o, [frame.entries[r - 1] for r in rho], g.vertices[u].seed.B,
                              k2, o.inv(frame.entry(k)))
    return u, TwistFrame.trusted(tuple(entries), o)


def frame_at(g: ExchangeGraph, v: int) -> TwistFrame:
    """Frame at graph vertex v, transported along the BFS tree from
    :func:`_start_frame`."""
    frame = _start_frame(g)
    cur = 0
    for k in _bfs_path(g, v):
        cur, frame = frame_transport_move(g, frame, cur, k, forward=True)
    return frame


def _start_frame(g: ExchangeGraph) -> TwistFrame:
    """The frame at vertex 0: :func:`disc_start_frame` on a disc, the base
    frame on the once-marked annulus."""
    return disc_start_frame(g) if g.surface.is_disc else base_frame(g.surface)


def disc_start_frame(g: ExchangeGraph) -> TwistFrame:
    """Twist frame at vertex 0 of a disc graph started anywhere.

    Take the corner c with the most arcs (the lowest on ties) and flip,
    one at a time, the lowest arc not at c whose flip lands at c, until the
    triangulation is the fan at c; arc ids are kept.  On that fan the arc
    on chord {c, c+i+1} carries sigma_i, and the frame is transported back
    along the walk, forward at each flipped arc.  A fan is the walk of no
    flips, and no graph is built.
    """
    t = g.vertices[0].triangulation
    m = g.surface.m
    chords = t.arc_chords()
    c = max(range(m), key=lambda x: (sum(x in ch for ch in chords), -x))
    sides = {frozenset((i, (i + 1) % m)) for i in range(m)}
    walk = []
    while any(c not in ch for ch in chords):
        # an arc {x, y} in a triangle (c, x, y) flips to a chord at c
        edges = sides.union(chords)
        k = next(a for a, ch in enumerate(chords, 1)
                 if c not in ch and all(frozenset((c, x)) in edges for x in ch))
        t = t.flip(k)
        chords = t.arc_chords()
        walk.append((t, k))
    o = oracle_for_surface(g.surface)
    frame = TwistFrame(tuple(o.generator((x - c) % m - 1) for ch in chords for x in ch - {c}), o)
    for t, k in reversed(walk):
        frame = transport_frame(frame, t.exchange_matrix(), k)
    return frame


def _bfs_path(g: ExchangeGraph, v: int) -> list[int]:
    """Deterministic flip path 0 -> v (BFS tree, arcs scanned in order)."""
    parent = _bfs_tree(g)[1]
    if v not in parent:
        raise ValueError(f"vertex {v} not reachable")
    path = []
    while v != 0:
        v, k = parent[v]
        path.append(k)
    return path[::-1]


# -- voltages ----------------------------------------------------------------


def _reverse_voltage(o, entry, x) -> tuple[int, ...]:
    """vol(u, k2) by the 2-cycle rule vol(v, k) . vol(u, k2) = entry^{-1},
    for x = vol(v, k) and ``entry`` the entry at k of F_v."""
    return o.inv(o.mul(entry, x))


def voltages(g: ExchangeGraph, oracle) -> tuple[list[TwistFrame], list[list]]:
    """Solve the decorated cover as a voltage graph over the oracle group.

    Returns ``(frames, vol)``.  ``frames[v]`` is F_v, the frame transported
    from :func:`_start_frame` along the BFS tree of
    :func:`flipgroupoid.exchange._bfs_tree`, which is built once.
    ``vol[v][k]`` is the canonical word of the group element on the edge
    v --k--> u, None where v has no edge k: cover vertex (v, x) moves
    forward at k to (u, x . vol(v, k)), and its frame is x F_v x^{-1}.

    The voltages are solved in three steps: the identity on the tree's
    edges; the 2-cycle rule vol(v, k) . vol(u, k2) = (entry k of F_v)^{-1};
    then passes over the sides of the complete instances that
    :func:`flipgroupoid.exchange._walk_relations` yields, each solving the
    one unknown edge of an instance, until a pass solves none.  Then each edge
    must carry the frame rule frame_transport_move(F_v, v, k) = x F_u x^{-1}
    with x = vol(v, k) and its 2-cycle's rule, and each complete instance
    equal products on its two sides.  A failure, and an edge that no pass
    solves, raises :class:`CheckFailure` with a witness; an instance that
    does not close raises first, as the walker names it.
    """
    instances = [(v, kind, arcs, *sides) for v, kind, arcs, sides, _ in _walk_relations(g) if sides]
    order, parent = _bfs_tree(g)
    frames = [None] * g.vertex_count()
    frames[0] = TwistFrame.trusted(_start_frame(g).entries, oracle)
    for u in order[1:]:
        w, k = parent[u]
        frames[u] = frame_transport_move(g, frames[w], w, k)[1]
    vol = _solve_voltages(g, oracle, frames, parent, instances)
    _check_voltages(g, oracle, frames, instances, vol)
    return frames, vol


def _solve_voltages(g, o, frames, parent, instances) -> list[list]:
    adj = g.adj
    vol = [[None] * len(row) for row in adj]

    def put(v, k, x):
        vol[v][k] = x
        u, k2, _ = adj[v][k]
        if vol[u][k2] is None:
            vol[u][k2] = _reverse_voltage(o, frames[v].entry(k), x)

    one = o.canon(())
    for u, (w, k) in parent.items():
        if u:
            put(w, k, one)
    pending, solved = instances, True
    while solved:
        solved, left = False, []
        for inst in pending:
            sides = inst[3:]
            unknown = [(s, i) for s, side in enumerate(sides)
                       for i, (w, k) in enumerate(side) if vol[w][k] is None]
            if len(unknown) != 1:
                if unknown:
                    left.append(inst)
                continue
            (s, i), = unknown
            words = [vol[w][k] for w, k in sides[s]]
            other = o.mul(*(vol[w][k] for w, k in sides[1 - s]))
            put(*sides[s][i], o.mul(o.inv(o.mul(*words[:i])), other, o.inv(o.mul(*words[i + 1:]))))
            solved = True
        pending = left
    for v, row in enumerate(adj):
        for k, step in enumerate(row):
            if step is not None and vol[v][k] is None:
                raise CheckFailure(f"no relation solves the voltage of vertex {v}, arc {k}",
                                   {"vertex": v, "arc": k, "target": step[0]})
    return vol


def _check_voltages(g, o, frames, instances, vol) -> None:
    for v, row in enumerate(g.adj):
        for k, step in enumerate(row):
            if step is None:
                continue
            u, k2, _ = step
            x, entry = vol[v][k], frames[v].entry(k)
            moved = frame_transport_move(g, frames[v], v, k)[1].entries
            back = o.inv(x)
            want = tuple(o.conj(e, back) for e in frames[u].entries)
            if moved != want:
                raise CheckFailure(f"the frame rule fails on the edge from vertex {v} at arc {k}", {
                    "vertex": v, "arc": k, "target": u, "voltage": list(x),
                    "transported": [list(e) for e in moved],
                    "conjugated": [list(e) for e in want]})
            if o.mul(x, vol[u][k2]) != o.inv(entry):
                raise CheckFailure(f"the 2-cycle at vertex {v}, arc {k} does not carry the "
                                   "inverse of its frame entry", {
                                       "vertex": v, "arc": k, "entry": list(entry),
                                       "voltages": [list(x), list(vol[u][k2])]})
    for v, kind, arcs, *sides in instances:
        products = [o.mul(*(vol[w][k] for w, k in side)) for side in sides]
        if products[0] != products[1]:
            detail = {"kind": kind.value, "vertex": v, "arcs": arcs}
            for name, side, product in zip(("left", "right"), sides, products):
                detail[name] = {"steps": side, "voltage": list(product)}
            raise CheckFailure(f"relation instance {kind.value} at vertex {v}, arcs {arcs} "
                               "carries different voltages on its sides", detail)


# -- covering balls ----------------------------------------------------------

FWD, BWD = 1, -1


class CoverBall:
    """Radius-truncated covering ball.

    Given the surface's oracle group, the ball is grown from
    :func:`voltages` by a breadth-first search over (shadow, group
    element): classes are taken in id order, which is their birth order,
    and moves in :meth:`_number`'s order, each class is born once with the frame
    :func:`frame_transport_move` gives from its parent, classes at depth
    ``radius`` are not expanded, and a class (base, x) gets x as its deck
    label.  Equal keys are one cover vertex.

    Without an oracle group the ball is a quotient grown layer by layer:
    each class at depth d < radius gets its missing (arc, +-1) moves as
    newly born classes at depth d + 1, and the relation closure then runs
    over the classes a relation side could newly reach.  Its outer layers
    can hold copies no relation inside the ball merges.  Merging classes
    with different shadows raises
    :class:`~flipgroupoid.exchange.CheckFailure`; its detail names the depth
    of the layer being closed, the two classes by birth order (the base is
    0), their shadows and their move words from the base.

    A class's id is the breadth-first path-tree index of its
    shortlex-least move word; ``size`` counts the reduced words of length
    <= radius that reach it, and ``nodes`` ranges over the tree indices
    all classes stand for.  ``frames`` maps each class to its twist frame
    (None without an oracle group).  Queries take class ids only and raise
    ``ValueError`` on any other id.
    """

    def __init__(self, graph: ExchangeGraph, base: int, radius: int, budget: int, oracle=None):
        if radius < 1:
            raise ValueError("radius must be >= 1")
        if not 0 <= base < graph.vertex_count():
            raise ValueError(f"base {base} is not a graph vertex 0..{graph.vertex_count() - 1}")
        self.graph = graph
        self.base = base
        self.radius = radius
        self.budget = budget
        self._number(*(self._grow() if oracle is None else self._grow_voltages(*voltages(graph, oracle))))
        self._count_sizes()
        self.nodes = range(sum(self._size.values()))

    def _refuse_frontier(self, v: int) -> None:
        if self.graph.vertices[v].frontier:
            raise ValueError(
                "cover ball reaches the exchange graph's truncation frontier; "
                "enumerate the graph at least as deep as the ball radius"
            )

    def _over_budget(self, d: int, layers: list[int]) -> TruncationError:
        return TruncationError(
            f"cover class budget {self.budget} exceeded while growing depth "
            f"{d + 1}; depth reached {d}, classes per finished layer {layers}"
        )

    def _grow_voltages(self, frames, vol):
        """Born classes in id order, with their frames and the labels of
        those over the base."""
        g, base = self.graph, self.base
        o = frames[base].oracle
        steps = []  # per vertex: (move, target, move back, voltage crossed)
        for v, row in enumerate(g.adj):
            steps.append([])
            for k, step in enumerate(row):
                if step is not None:
                    u, k2, _ = step
                    steps[v].append(((k, FWD), u, (k2, BWD), o.element(vol[v][k])))
                    steps[v].append(((k, BWD), u, (k2, FWD), o.element(o.inv(vol[u][k2]))))
        one = o.element(())
        key = {(base, one): 0}
        shadow, element, depth, moves, born = [base], [one], [0], [{}], [frames[base]]
        labels = {0: o.word(one)}
        for cls, v in enumerate(shadow):
            d = depth[cls]
            if d == self.radius:
                break
            self._refuse_frontier(v)
            mine, x = moves[cls], element[cls]
            for mv, u, back, step in steps[v]:
                if mv in mine:
                    continue
                y = o.times(x, step)
                tgt = key.get((u, y))
                if tgt is None:
                    tgt = len(shadow)
                    if tgt >= self.budget:
                        raise self._over_budget(d, [depth.count(i) for i in range(d + 1)])
                    key[u, y] = tgt
                    shadow.append(u)
                    element.append(y)
                    depth.append(d + 1)
                    moves.append({})
                    born.append(frame_transport_move(g, born[cls], v, mv[0], mv[1] == FWD)[1])
                    if u == base:
                        labels[tgt] = o.word(y)
                mine[mv] = tgt
                moves[tgt][back] = cls
        return shadow, moves, int, born, labels  # int: each class is its own root

    def _grow(self):
        """Born classes by birth order, each kept under its first-born
        member, so a kept class of layer d has depth d."""
        g = self.graph
        shadow, moves, uf = [self.base], [{}], [0]
        start = [0]  # first born id of each layer

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

        def word(cls):
            """The move word from the base to ``cls``, read back along the
            move to its parent that each born class keeps first."""
            out = []
            while cls:
                (k2, back), parent = next(iter(moves[cls].items()))
                out.insert(0, [g.adj[shadow[cls]][k2][1], -back])
                cls = find(parent)
            return out

        def union(a, b, pending):
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            if shadow[ra] != shadow[rb]:
                raise CheckFailure("relation closure tried to merge different shadows", {
                    "depth": d + 1,  # the layer whose closure is running
                    "classes": [ra, rb],
                    "shadows": [shadow[ra], shadow[rb]],
                    "words": [word(ra), word(rb)],
                })
            lo, hi = min(ra, rb), max(ra, rb)
            uf[hi] = lo
            for mv, tgt in moves[hi].items():
                cur = moves[lo].setdefault(mv, tgt)
                if find(cur) != find(tgt):
                    pending.append((cur, tgt))
            moves[hi] = None
            return True

        plans: dict[int, list] = {v: [] for v in range(g.vertex_count())}
        for v, _, _, sides, _ in _walk_relations(g):
            if sides:
                plans[v].append(tuple([(k, FWD) for _, k in side] for side in sides))
        reach = max((len(side) for p in plans.values() for pair in p for side in pair), default=0)
        for d in range(self.radius):
            start.append(len(uf))
            for cls in range(start[d], start[d + 1]):
                if uf[cls] != cls:
                    continue
                v = shadow[cls]
                self._refuse_frontier(v)
                for k, step in enumerate(g.adj[v]):
                    if step is None:
                        continue
                    u, k2, _ = step
                    for sign in (FWD, BWD):
                        if (k, sign) in moves[cls]:
                            continue
                        if len(uf) >= self.budget:
                            raise self._over_budget(d, [
                                sum(uf[c] == c for c in range(start[i], start[i + 1]))
                                for i in range(d + 1)])
                        moves[cls][(k, sign)] = len(uf)
                        moves.append({(k2, -sign): cls})
                        uf.append(len(uf))
                        shadow.append(u)
            # a side walked from a shallower class crosses only earlier
            # layers, and the closures after those layers joined its ends
            first = start[max(0, d + 1 - reach)]
            changed = True
            while changed:
                changed = False
                pending: list = []
                for cls in range(first, len(uf)):
                    if uf[cls] == cls:
                        for left, right in plans[shadow[cls]]:
                            e1, e2 = walk(cls, left), walk(cls, right)
                            if e1 is not None and e2 is not None and e1 != e2:
                                pending.append((e1, e2))
                while pending:
                    a, b = pending.pop()
                    changed = union(a, b, pending) or changed
        return shadow, moves, find, None, {}

    def _number(self, shadow, moves, find, frames, labels):
        """Number each class by the breadth-first path-tree index of its
        shortlex-least move word (arcs ascending, forward first).  Tree depth
        L starts at index first[L]; children skip the move back to the
        parent, so child p of node i at depth L is first[L+1] + (i - first[L]) (2n-1) + p.
        """
        g = self.graph
        two_n = 2 * g.n
        first = [0, 1]
        for L in range(1, self.radius):
            first.append(first[-1] + two_n * (two_n - 1) ** (L - 1))
        index, depth, back = {0: 0}, {0: 0}, {0: None}
        order = [0]
        for cls in order:
            L = depth[cls]
            if L == self.radius:
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
        order.sort(key=index.__getitem__)
        self._shadow = {index[c]: shadow[c] for c in order}
        self._depth = {index[c]: depth[c] for c in order}
        self._moves = {index[c]: {mv: index[find(t)] for mv, t in moves[c].items()} for c in order}
        self.frames = None if frames is None else {index[c]: frames[c] for c in order}
        self._labels = {index[c]: label for c, label in labels.items()}

    def _count_sizes(self):
        """Reduced words of length <= radius per class, by length over (class, move back)."""
        g = self.graph
        self._size = dict.fromkeys(self._moves, 0)
        layer = {(0, None): 1}
        for L in range(self.radius + 1):
            nxt: dict = {}
            for (cls, back), count in layer.items():
                self._size[cls] += count
                for (k, sign), tgt in self._moves[cls].items():
                    if L < self.radius and (k, sign) != back:
                        key = (tgt, (g.adj[self._shadow[cls]][k][1], -sign))
                        nxt[key] = nxt.get(key, 0) + count
            layer = nxt

    def _walk(self, cls: int, moves) -> int | None:
        for mv in moves:
            cls = self._moves[cls].get(mv)
            if cls is None:
                return None
        return cls

    def _class(self, cls: int) -> int:
        if cls not in self._moves:
            raise ValueError(f"{cls} is not a class id of this ball")
        return cls

    def _twist_moves(self, arc: int, sign: int):
        k2 = self.graph.adj[self.base][arc][1]
        return [(arc, FWD), (k2, FWD)] if sign > 0 else [(arc, BWD), (k2, BWD)]

    # -- queries ------------------------------------------------------------

    def classes(self) -> list[int]:
        return list(self._moves)  # filled in id order

    def class_depth(self, cls: int) -> int:
        return self._depth[cls]

    def interior(self, cls: int) -> bool:
        return self.class_depth(cls) + 3 <= self.radius

    def shadow(self, cls: int) -> int:
        return self._shadow[cls]

    def lift(self, start: int, moves) -> int | None:
        """Walk a move sequence [(arc, +1/-1), ...] from class ``start``."""
        return self._walk(self._class(start), moves)

    def lift_twist_word(self, word) -> int | None:
        """Lift a product of local twists [(arc, sign), ...] from the base."""
        return self._walk(0, [mv for arc, sign in word for mv in self._twist_moves(arc, sign)])

    def label(self, cls: int):
        """Deck label of a class id over the base, None elsewhere and
        without an oracle group."""
        return self._labels.get(self._class(cls))

    def frame(self, cls: int) -> TwistFrame | None:
        """Twist frame of a class id, None without an oracle group."""
        return None if self.frames is None else self.frames[self._class(cls)]

    def same_vertex(self, a: int, b: int) -> str:
        """Equal / Distinct / Inconclusive for two class ids.  With an oracle
        group each class is one cover vertex.  On a closure ball, classes
        over different exchange-graph vertices, or both interior, are
        distinct, and two others over one vertex are Inconclusive."""
        if self._class(a) == self._class(b):
            return "Equal"
        if (self.frames is not None or self._shadow[a] != self._shadow[b]
                or (self.interior(a) and self.interior(b))):
            return "Distinct"
        return "Inconclusive"

    @cached_property
    def _fibers(self) -> dict[int, list[int]]:
        """Interior class ids by shadow, in id order."""
        out: dict[int, list[int]] = {}
        for cls in self._moves:
            if self.interior(cls):
                out.setdefault(self._shadow[cls], []).append(cls)
        return out

    def fiber_report(self, shadow: int) -> list[dict]:
        """Interior cover vertices over a graph vertex, with deck labels.

        Labels are canonical words, so equal deck labels are equal tuples;
        two classes with one label raise :class:`CheckFailure`.
        """
        out = []
        seen: dict[tuple, int] = {}
        for cls in self._fibers.get(shadow, ()):
            lab = self._labels.get(cls)
            if lab is not None and (first := seen.setdefault(lab, cls)) != cls:
                raise CheckFailure(f"fiber elements {first} and {cls} have equal deck labels", {
                    "shadow": shadow, "classes": [first, cls], "label": list(lab)})
            out.append(
                {
                    "class": cls,
                    "depth": self.class_depth(cls),
                    "size": self._size[cls],
                    "label": None if lab is None else list(lab),
                }
            )
        return out

    def class_graph(self) -> dict[int, dict]:
        """Ball adjacency: class -> {(arc, dir) -> class}."""
        return {cls: dict(moves) for cls, moves in self._moves.items()}

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
                        f"{arc}{'+' if d > 0 else '-'}": t
                        for (arc, d), t in sorted(self._moves[cls].items())
                    },
                }
                for cls in self.classes()
            ],
        }


def build_cover_ball(graph: ExchangeGraph, radius: int, base: int = 0,
                     budget: int | None = None) -> CoverBall:
    """Covering ball of the given radius around graph vertex ``base``.

    On a disc and on the once-marked annulus the ball is grown over the
    :func:`voltages` of the graph, whose checks run first; frames start
    from :func:`disc_start_frame` on a disc and from the base frame on the
    annulus.  Other surfaces get no frames, and a ball grown by relation
    closure.  Either way a graph with a relation instance that does not
    close raises its :class:`CheckFailure`.  ``budget`` bounds the classes
    born (default ``DEFAULT_BUDGET``, 10^6).  A radius below 1 or a
    ``base`` outside 0..V-1 raises ``ValueError`` before any voltage is
    solved.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    return CoverBall(graph, base, radius, budget, oracle_for_surface(graph.surface))
