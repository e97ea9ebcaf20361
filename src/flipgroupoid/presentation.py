"""Finite presentations of braid twist groups from quivers with potential.

The generators are the arcs of the triangulation; relations come from
scanning full sub-quivers against seven local patterns: commutation and
braid relations for pairs (no arrow / one arrow), and conjugated versions
for the 3-, 4- and 5-vertex patterns built around potential 3-cycles and
a double arrow.  Formal conjugation a^b is expanded to b^-1 a b at
emission time, so a relation is just a pair of freely reduced words in
the generators and their inverses.

Soundness is checked by substituting braid words for the generators and
asking the Garside oracle whether every relation maps to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import braid
from .braid import BraidWord
from .cover import TwistFrame, frame_at, free_reduce, inverse_word
from .exchange import ExchangeGraph
from .surface import QuiverWithPotential

__all__ = [
    "Relation",
    "GroupPresentation",
    "presentation_from_qp",
    "verify_sound",
    "local_twist_relation_report",
]

Word = tuple[int, ...]


def _conj(word, by) -> Word:
    """word^by = by^-1 . word . by"""
    return free_reduce(inverse_word(by) + tuple(word) + tuple(by))


def _crel(u: Word, w: Word) -> tuple[Word, Word]:
    return free_reduce(u + w), free_reduce(w + u)


def _brel(u: Word, w: Word) -> tuple[Word, Word]:
    return free_reduce(u + w + u), free_reduce(w + u + w)


@dataclass(frozen=True)
class Relation:
    case: int                      # pattern case tag 1..7
    vertices: tuple[int, ...]      # arcs in role order (a, b, ...)
    words: tuple[Word, Word]

    def key(self):
        w1, w2 = self.words
        return (min(w1, w2), max(w1, w2))


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[int, ...]
    relations: tuple[Relation, ...]

    def __post_init__(self):
        for rel in self.relations:
            w1, w2 = rel.words
            if w1 == w2:
                raise ValueError(f"degenerate relation {rel}")
            if free_reduce(w1) != w1 or free_reduce(w2) != w2:
                raise ValueError(f"relation words must be freely reduced: {rel}")

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relations": [
                {
                    "case": r.case,
                    "vertices": list(r.vertices),
                    "left": list(r.words[0]),
                    "right": list(r.words[1]),
                }
                for r in self.relations
            ],
        }


def _term_edges(q: QuiverWithPotential, cyc) -> dict[tuple[int, int], int]:
    """Map (tail, head) -> arrow index used by this potential term."""
    return {q.arrows[i]: i for i in cyc}


def presentation_from_qp(q: QuiverWithPotential) -> GroupPresentation:
    """Emit the relations of all matching sub-quiver patterns.

    Deterministic: patterns are scanned in sorted vertex order and
    duplicate word pairs are dropped.
    """
    n = q.n
    b = q.b_entry
    gens = tuple(range(1, n + 1))
    out: list[Relation] = []
    seen = set()

    def emit(case, vertices, words):
        rel = Relation(case, tuple(vertices), words)
        if rel.key() not in seen:
            seen.add(rel.key())
            out.append(rel)

    # cases 1 and 2: pairs
    for i in gens:
        for j in gens:
            if i < j:
                e = abs(b(i, j))
                if e == 0:
                    emit(1, (i, j), _crel((i,), (j,)))
                elif e == 1:
                    emit(2, (i, j), _brel((i,), (j,)))

    # potential terms, as vertex triples with their arrow identities
    terms = [(q.term_vertices(cyc), cyc) for cyc in q.terms]

    # case 3 and 4: one term on a triangle
    for (verts, cyc) in terms:
        for r in range(3):
            a, bb, c = verts[r:] + verts[:r]
            # arrows a->b, b->c, c->a with the (b,c) side possibly doubled
            if b(a, bb) == 1 and b(c, a) == 1:
                mult_bc = b(bb, c)
                others = [t for (t, _) in terms if set(t) == {a, bb, c}]
                if mult_bc == 1:
                    emit(3, (a, bb, c), _crel(_conj((a,), (bb,)), (c,)))
                elif mult_bc == 2 and len(others) == 1:
                    emit(4, (a, bb, c), _brel(_conj((a,), (bb,)), (c,)))

    # cases 5-7 need a double arrow b -> c supporting two terms with
    # different copies of that arrow
    doubles = [(i, j) for i in gens for j in gens if b(i, j) == 2]
    for (bb, c) in doubles:
        support = [
            (t, cyc) for (t, cyc) in terms if bb in t and c in t
        ]
        for x in range(len(support)):
            for y in range(len(support)):
                if x == y:
                    continue
                (t1, cyc1), (t2, cyc2) = support[x], support[y]
                a = next(v for v in t1 if v not in (bb, c))
                e = next(v for v in t2 if v not in (bb, c))
                if a == e:
                    continue
                arrow1 = _term_edges(q, cyc1).get((bb, c))
                arrow2 = _term_edges(q, cyc2).get((bb, c))
                if arrow1 is None or arrow2 is None or arrow1 == arrow2:
                    continue
                # full sub-quiver on {a, e, b, c}: c->a, a->b, c->e, e->b
                if not (b(c, a) == 1 and b(a, bb) == 1 and b(c, e) == 1 and b(e, bb) == 1):
                    continue
                ae = b(a, e)
                if ae == 0 and a < e:
                    # symmetric pattern: both orderings arise from the scan
                    emit(5, (a, e, bb, c), _crel(_conj((c,), (a, e)), (bb,)))
                    emit(5, (e, a, bb, c), _crel(_conj((c,), (e, a)), (bb,)))
                elif ae == 1:
                    emit(6, (a, e, bb, c), _brel(_conj((c,), (a, e)), (bb,)))
                    emit(6, (e, a, bb, c), _brel(_conj((c,), (e, a)), (bb,)))
                    # case 7: a unique potential 3-cycle on {a, e, f}
                    for f in gens:
                        if f in (a, bb, c, e):
                            continue
                        if not (b(e, f) == 1 and b(f, a) == 1):
                            continue
                        if b(f, bb) != 0 or b(f, c) != 0:
                            continue
                        fterms = [t for (t, _) in terms if set(t) == {a, e, f}]
                        if len(fterms) == 1:
                            emit(7, (a, bb, c, e, f), _crel((e,), _conj((f,), (a, bb, c))))
    out.sort(key=lambda r: (r.case, r.vertices))
    return GroupPresentation(gens, tuple(out))


def verify_sound(p: GroupPresentation, images: dict[int, BraidWord]) -> dict:
    """Substitute braid images for generators; each relation must map to 1."""
    strands = {w.strands for w in images.values()}
    if len(strands) != 1:
        raise ValueError("images must share a strand count")
    k = strands.pop()

    def braid_of(word: Word) -> BraidWord:
        out: list[int] = []
        for x in word:
            img = images[abs(x)]
            out.extend(img.letters if x > 0 else img.inverse().letters)
        return BraidWord(k, tuple(out))

    results = []
    for rel in p.relations:
        lhs, rhs = rel.words
        ok = braid.is_identity(braid_of(lhs) * braid_of(rhs).inverse())
        results.append(
            {
                "case": rel.case,
                "vertices": list(rel.vertices),
                "holds": ok,
                "witness": None if ok else [list(lhs), list(rhs)],
            }
        )
    return {
        "all_hold": all(r["holds"] for r in results),
        "checked": len(results),
        "relations": results,
    }


def _frame_images(frame: TwistFrame) -> dict[int, BraidWord]:
    k = frame.oracle.strands
    return {i: BraidWord(k, frame.entries[i - 1]) for i in range(1, frame.n + 1)}


def local_twist_relation_report(g: ExchangeGraph, v: int) -> dict:
    """Evaluate every pattern relation at graph vertex v on the twist frame
    :func:`frame_at` gives; disc surfaces only (they carry the Garside oracle).
    """
    if not g.surface.is_disc:
        raise ValueError("oracle unavailable: relation reports need a disc surface")
    frame = frame_at(g, v)
    q = g.vertices[v].triangulation.quiver()
    pres = presentation_from_qp(q)
    report = verify_sound(pres, _frame_images(frame))
    report["vertex"] = v
    return report
