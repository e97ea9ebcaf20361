r"""Unpunctured marked surfaces and their ideal triangulations.

A triangulation is stored as an oriented combinatorial map: a tuple of
triangles, each an anticlockwise-ordered triple of edge labels, plus an
edge table that distinguishes internal arcs from boundary segments.
Internal arcs are labelled ``a1 .. aN`` (ids are stable: a flipped arc
keeps its label), boundary segments ``b<component>.<position>`` and are
never touched by any operation.

The flip of an internal arc replaces the diagonal of the quadrilateral
formed by its two adjacent triangles::

             +-----y1----+                +-----y1----+
             |          /|                |\          |
             |        /  |                |  \        |
            x2    arc    y2    ---->     x2    arc    y2
             |    /      |                |      \    |
             |  /        |                |        \  |
             +----x1-----+                +----x1-----+

with ``x1, x2`` the sides following the arc inside one adjacent triangle
and ``y1, y2`` the sides inside the other.  Sides of the quadrilateral may
repeat an edge (self-glued quadrilaterals occur e.g. on the annulus); the
flip below is insensitive to that.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from operator import itemgetter

from .seeds import Matrix, as_matrix, is_skew_symmetric

__all__ = [
    "MarkedSurface",
    "QuiverWithPotential",
    "Triangulation",
    "polygon_fan",
    "annulus",
    "genus_one",
]


@dataclass(frozen=True)
class MarkedSurface:
    """Genus plus the partition of marked points over boundary components."""

    genus: int
    boundaries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "boundaries", tuple(int(x) for x in self.boundaries))
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if self.b < 1:
            raise ValueError("surface must have non-empty boundary")
        if any(x < 1 for x in self.boundaries):
            raise ValueError("every boundary component needs a marked point")
        if self.genus == 0 and self.b == 1 and self.m < 4:
            raise ValueError("disc needs at least 4 marked points")
        if self.arc_count < 1:
            raise ValueError("surface admits no arcs (n < 1)")
        if (2 * self.arc_count + self.m) % 3 != 0:
            raise ValueError("inconsistent counts: (2n+m)/3 not an integer")

    @property
    def b(self) -> int:
        return len(self.boundaries)

    @property
    def m(self) -> int:
        return sum(self.boundaries)

    @cached_property
    def arc_count(self) -> int:
        """Number n of arcs in any ideal triangulation: 6g - 6 + 3b + m."""
        return 6 * self.genus - 6 + 3 * self.b + self.m

    @property
    def triangle_count(self) -> int:
        return (2 * self.arc_count + self.m) // 3

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - self.b

    @property
    def is_disc(self) -> bool:
        return self.genus == 0 and self.b == 1

    @cached_property
    def _arc_labels(self) -> tuple[str, ...]:
        """``a1 .. aN``."""
        return tuple(arc_label(i) for i in range(1, self.arc_count + 1))

    @cached_property
    def _edges(self) -> dict[str, dict]:
        """The ``edges`` table of every triangulation of the surface: arcs
        a1 .. aN, then each boundary component's segments.  Built once and
        shared; read it, never change it."""
        edges = {lab: {"kind": "arc"} for lab in self._arc_labels}
        for comp, count in enumerate(self.boundaries):
            for pos in range(count):
                edges[f"b{comp}.{pos}"] = {"kind": "boundary", "component": comp, "position": pos}
        return edges

    @cached_property
    def _slot_counts(self) -> dict[str, int]:
        """Triangle sides each edge fills: two per arc, one per boundary segment."""
        return {lab: 2 if e["kind"] == "arc" else 1 for lab, e in self._edges.items()}

    def edges_json(self) -> dict[str, dict]:
        """A fresh copy of the ``edges`` table every triangulation writes."""
        return {lab: dict(e) for lab, e in self._edges.items()}

    def check_edges_json(self, edges) -> None:
        """Raise ValueError naming the first label at which a triangulation
        file's ``edges`` table differs from :meth:`edges_json`."""
        want = self._edges
        if edges == want:
            return
        if not isinstance(edges, dict):
            raise ValueError("triangulation edges must be a JSON object")
        for lab, entry in want.items():
            if lab not in edges:
                raise ValueError(f"edges table lacks edge {lab}")
            if edges[lab] != entry:
                raise ValueError(f"edges table gives edge {lab} as {edges[lab]!r}, not {entry!r}")
        extra = next(lab for lab in edges if lab not in want)
        raise ValueError(f"edges table names {extra!r}, not an edge of the surface")

    def to_json(self) -> dict:
        return {"genus": self.genus, "boundaries": list(self.boundaries)}

    @classmethod
    def from_json(cls, data) -> "MarkedSurface":
        genus, boundaries = json_fields(data, ("genus", "boundaries"), "surface")
        if type(genus) is not int:
            raise ValueError("surface: genus must be an integer")
        if type(boundaries) is not list or not all(type(x) is int for x in boundaries):
            raise ValueError("surface: boundaries must be a list of integers")
        return cls(genus=genus, boundaries=tuple(boundaries))


def json_fields(data, keys, what: str) -> list:
    """The values of ``keys`` in the JSON object ``data``.  The ValueError
    raised when ``data`` is not an object, or lacks a key, names ``what``
    and the first key missing."""
    if type(data) is not dict:
        raise ValueError(f"{what}: not a JSON object")
    try:
        return [data[key] for key in keys]
    except KeyError as exc:
        raise ValueError(f'{what}: no "{exc.args[0]}"') from None


def triangles_json(triangles) -> list:
    """``triangles`` if it is a list of [side, side, side] lists of str."""
    if not (type(triangles) is list
            and set(map(type, triangles)) <= {list}
            and set(map(len, triangles)) <= {3}
            and set(map(type, chain.from_iterable(triangles))) <= {str}):
        raise ValueError("triangles must be a list of [str, str, str] lists")
    return triangles


_BOUNDARY_RE = re.compile(r"^b(\d+)\.(\d+)$")
_ARC_RE = re.compile(r"^a(\d+)$")


def arc_label(i: int) -> str:
    return f"a{i}"


@cache  # labels are a1..aN and b<c>.<p>; a malformed label raises, and is not cached
def _edge_sort_key(label: str) -> tuple[int, int, int]:
    m = _ARC_RE.match(label)
    if m:
        return (0, int(m.group(1)), 0)
    m = _BOUNDARY_RE.match(label)
    if m:
        return (1, int(m.group(1)), int(m.group(2)))
    raise ValueError(f"malformed edge label {label!r}")


# Memo of _keyed_triangle: it grows only with the distinct triangles seen
# (422 after the whole polygon-10 exchange graph), and a malformed
# triangle raises before anything is stored, so errors are not cached.
@cache
def _keyed_triangle(tri: tuple) -> tuple[tuple, tuple]:
    """The sort key of ``tri`` and ``tri`` rotated to start at its smallest side."""
    if len(tri) != 3 or len(set(tri)) != 3:
        raise ValueError(f"triangle {tri} must have three distinct sides")
    keys = tuple(map(_edge_sort_key, tri))
    k = keys.index(min(keys))
    return keys[k:] + keys[:k], tri[k:] + tri[:k]


# Memo of what B and the quiver read of a triangle, kept like
# _keyed_triangle's: one entry per distinct triangle, so that labels are
# parsed once, not at every vertex that holds the triangle.
@cache
def _triangle_angles(tri: tuple) -> tuple:
    """The angles of ``tri`` between two arcs, as 0-based (tail, head)
    indices, tail followed by head."""
    return tuple(
        (int(tri[k][1:]) - 1, int(tri[k - 1][1:]) - 1)
        for k in range(3)
        if tri[k][0] == "a" and tri[k - 1][0] == "a"
    )


def _canonical_triangles(triangles):
    keyed = [_keyed_triangle(tuple(tri)) for tri in triangles]
    keyed.sort(key=itemgetter(0))
    return tuple([tri for _, tri in keyed])


class Triangulation:
    """An ideal triangulation as a labelled combinatorial map.

    ``triangles`` is canonicalised on construction (each triple rotated so
    its smallest side comes first, triples sorted), so equality is labelled
    combinatorial-map equality.  A triangulation holds its surface and its
    triangles and nothing else: every fact about it (corners, chords, the
    dual graph, the quiver) is read by a scan of the triangles.
    """

    __slots__ = ("surface", "triangles")

    def __init__(self, surface: MarkedSurface, triangles, validate: bool = True):
        self.surface = surface
        self.triangles = _canonical_triangles(triangles)
        if validate:
            self.validate()

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.surface.arc_count

    def arc_labels(self) -> list[str]:
        return list(self.surface._arc_labels)

    def _arc(self, arc: int) -> str:
        if not (1 <= arc <= self.n):
            raise ValueError(f"arc id {arc} out of range 1..{self.n}")
        return arc_label(arc)

    def validate(self) -> None:
        """Raise ValueError unless the triangles glue into the surface: the
        sides are counted per label and the corners classed."""
        surf = self.surface
        if len(self.triangles) != surf.triangle_count:
            raise ValueError("wrong triangle count")
        counts = Counter(chain.from_iterable(self.triangles))
        if counts != surf._slot_counts:
            self._name_label_fault(counts)
        # Euler characteristic from the vertex cycles of the map.
        v = self._vertex_count()
        if v != surf.m:
            raise ValueError(f"map has {v} vertices, surface has m={surf.m}")
        chi = v - (self.n + surf.m) + len(self.triangles)
        if chi != surf.euler_characteristic:
            raise ValueError(f"Euler characteristic {chi} != {surf.euler_characteristic}")

    def _name_label_fault(self, counts: Counter) -> None:
        """Raise the ValueError that names how the edge labels or their slot
        ``counts``, in the order the triangles first name them, differ from
        the surface's; called once they are known to."""
        surf = self.surface
        arcs = [lab for lab in counts if lab.startswith("a")]
        bnds = [lab for lab in counts if lab.startswith("b")]
        if sorted(arcs, key=_edge_sort_key) != self.arc_labels():
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
        for lab, count in counts.items():
            want = 2 if lab.startswith("a") else 1
            if count != want:
                raise ValueError(f"edge {lab} used by {count} slots, expected {want}")
        raise ValueError("edge labels differ from the surface's")

    def _corner_classes(self) -> list[int]:
        """Marked-point class of each corner of the combinatorial map.

        Corner ``3*t + k`` sits between incoming side t[k-1] and outgoing
        t[k].  Crossing an arc keeps us at the same marked point: the corner
        where a slot of the arc starts is the corner where its other slot
        ends.  An arc's two slots are paired as the scan of the triangles
        meets the second, each arc having exactly two (as :meth:`validate`
        checks first).  Entry c is the root corner of c's class.
        """
        parent = list(range(3 * len(self.triangles)))
        first: dict[str, int] = {}  # arc -> the corner its first slot starts
        for c, lab in enumerate(chain.from_iterable(self.triangles)):
            if lab[0] != "a":
                continue
            c1 = first.pop(lab, None)
            if c1 is None:
                first[lab] = c
                continue
            # the corners after c1 and after c in their triangles
            after1 = c1 + 1 if c1 % 3 != 2 else c1 - 2
            after = c + 1 if c % 3 != 2 else c - 2
            for x, y in ((c1, after), (c, after1)):
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

    def _vertex_count(self) -> int:
        return len(set(self._corner_classes()))

    def arc_chords(self) -> tuple[frozenset, ...]:
        """For a disc, the chord {i, j} between labelled boundary marked
        points of each arc a1 .. aN in order (two disc triangulations are
        equal iff their chord sets are)."""
        if not self.surface.is_disc:
            raise ValueError("chord readback needs a disc")
        m = self.surface.m
        classes = self._corner_classes()
        point = {}  # corner class -> marked point
        ends = {}  # arc -> the corner classes at the ends of its first side
        for c, lab in enumerate(chain.from_iterable(self.triangles)):
            ends_at = classes[c], classes[c + 1 if c % 3 != 2 else c - 2]
            if lab[0] == "a":
                ends.setdefault(lab, ends_at)
            else:  # b0.j runs from marked point j to j + 1
                j = int(lab[3:])
                point[ends_at[0]], point[ends_at[1]] = j, (j + 1) % m
        return tuple(frozenset((point[u], point[v]))
                     for u, v in map(ends.__getitem__, self.surface._arc_labels))

    # -- operations --------------------------------------------------------

    def _quad(self, label: str):
        """The triangles away from arc ``label``, and the sides x1, x2 and
        y1, y2 following it in its two triangles, found by a scan of the
        triangles."""
        rest, sides = [], []
        for tri in self.triangles:
            if label in tri:
                p = tri.index(label)
                sides += (tri[p - 2], tri[p - 1])
            else:
                rest.append(tri)
        x1, x2, y1, y2 = sides
        return rest, x1, x2, y1, y2

    def flip(self, arc: int, perm: tuple[int, ...] | None = None) -> "Triangulation":
        """Replace the diagonal of the quadrilateral around ``arc``.

        The new arc reuses the old arc's id; the result is again canonical.
        Involutive: ``t.flip(a).flip(a) == t``.  With ``perm``, a
        permutation of 1..n, arc i of the flip is then relabelled as arc
        perm[i - 1], in the same pass: the result is canonicalised once.
        """
        label = self._arc(arc)
        new, x1, x2, y1, y2 = self._quad(label)
        new.append((label, x2, y1))
        new.append((label, y2, x1))
        if perm is not None:
            labels = self.surface._arc_labels
            if sorted(perm) != list(range(1, len(labels) + 1)):
                raise ValueError(f"perm {perm!r} is not a permutation of 1..{len(labels)}")
            get = dict(zip(labels, [labels[p - 1] for p in perm])).get
            new = [(get(x, x), get(y, y), get(z, z)) for x, y, z in new]
        return Triangulation(self.surface, new, validate=False)

    def quadrilateral(self, arc: int) -> tuple[str, str, str, str]:
        """The four sides around ``arc``, anticlockwise from the lowest-id side."""
        sides = self._quad(self._arc(arc))[1:]
        k = min(range(4), key=lambda i: (_edge_sort_key(sides[i]), i))
        return sides[k:] + sides[:k]

    def exchange_matrix(self) -> Matrix:
        """B of the quiver as tuple rows: ``B[i][j]`` counts the angles
        from arc i+1 to arc j+1 (see :meth:`quiver`) minus those back."""
        n = self.n
        B = [[0] * n for _ in range(n)]
        for tri in self.triangles:
            for ti, hi in _triangle_angles(tri):
                B[ti][hi] += 1
                B[hi][ti] -= 1
        return tuple(map(tuple, B))

    def quiver(self) -> "QuiverWithPotential":
        """Quiver with potential read off the triangulation.

        One arrow per angle between two arcs, directed toward the arc that
        is the anticlockwise rotation of the other inside the triangle (the
        angles :meth:`exchange_matrix` counts); a potential 3-cycle per
        triangle whose sides are all arcs.
        """
        arrows, terms = [], []
        for tri in self.triangles:
            angles = _triangle_angles(tri)
            base = len(arrows)
            arrows += [(ti + 1, hi + 1) for ti, hi in angles]
            if len(angles) == 3:
                # the angles at sides 0, 1, 2 run s0 -> s2 -> s1 -> s0;
                # record them along the cycle
                cyc = (base, base + 2, base + 1)
                k = min(range(3), key=lambda i: arrows[cyc[i]][0])
                terms.append(cyc[k:] + cyc[:k])
        terms.sort(key=lambda cyc: tuple(arrows[i] for i in cyc))
        return QuiverWithPotential(self.n, self.exchange_matrix(), tuple(arrows), tuple(terms))

    def dual_graph(self) -> tuple[tuple[int, int, int], ...]:
        """One edge (t1, t2, i), t1 < t2, per arc a<i> joining the two
        triangles it sides (multi-edges kept; no triangle repeats a side)."""
        first: dict[str, int] = {}  # arc -> the triangle of its first side
        edges = []
        for c, lab in enumerate(chain.from_iterable(self.triangles)):
            if lab[0] == "a" and first.setdefault(lab, c // 3) != c // 3:
                edges.append((first[lab], c // 3, int(lab[1:])))
        return tuple(sorted(edges))

    # -- serialization and equality ----------------------------------------

    def to_json(self) -> dict:
        return {
            "surface": self.surface.to_json(),
            "triangles": [list(t) for t in self.triangles],
            "edges": self.surface.edges_json(),
        }

    @classmethod
    def from_json(cls, data) -> "Triangulation":
        """Read and validate a triangulation.  An ``edges`` table, when
        present, must be the surface's."""
        surface, triangles = json_fields(data, ("surface", "triangles"), "triangulation")
        surface = MarkedSurface.from_json(surface)
        if "edges" in data:
            surface.check_edges_json(data["edges"])
        return cls(surface, triangles_json(triangles))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def __eq__(self, other):
        return (
            isinstance(other, Triangulation)
            and self.surface == other.surface
            and self.triangles == other.triangles
        )

    def __hash__(self):
        return hash((self.surface, self.triangles))

    def __repr__(self):
        return f"Triangulation({self.surface!r}, {len(self.triangles)} triangles)"


@dataclass(frozen=True)
class QuiverWithPotential:
    """Exchange matrix plus potential of a triangulation.

    ``B[i][j]`` counts arrows i+1 -> j+1 minus arrows j+1 -> i+1 (arc ids
    are 1-based, matrix storage 0-based).  ``arrows`` keeps every angle as
    an individual (tail, head) pair so the presentation scanner can tell
    which arrow a potential term uses; ``terms`` are 3-cycles stored as
    triples of arrow indices following the cycle.
    """

    n: int
    B: Matrix
    arrows: tuple[tuple[int, int], ...]
    terms: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        B = as_matrix(self.B)
        object.__setattr__(self, "B", B)
        if len(B) != self.n or not is_skew_symmetric(B):
            raise ValueError("B must be skew-symmetric n x n")
        if max(map(max, B), default=0) > 2:  # B is skew, so this bounds |B|
            raise ValueError("triangulation quivers have |B| <= 2")
        for cyc in self.terms:
            for i in range(3):
                tail, head = self.arrows[cyc[i]]
                if B[tail - 1][head - 1] < 1:
                    raise ValueError("potential term must follow arrows")
                if head != self.arrows[cyc[(i + 1) % 3]][0]:
                    raise ValueError("potential term arrows must form a 3-cycle")

    def term_vertices(self, cyc) -> tuple[int, int, int]:
        return tuple(self.arrows[i][0] for i in cyc)

    def potential_vertex_terms(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(self.term_vertices(c) for c in self.terms)

    def b_entry(self, i: int, j: int) -> int:
        return self.B[i - 1][j - 1]


# -- constructors -----------------------------------------------------------


def polygon_fan(m: int) -> Triangulation:
    """Fan triangulation of the labelled m-gon from vertex 0.

    Arc ``a<i>`` is the diagonal from vertex 0 to vertex i+1; boundary
    segment ``b0.<j>`` joins vertices j and j+1 (mod m).
    """
    if m < 4:
        raise ValueError("polygon needs m >= 4")
    surf = MarkedSurface(0, (m,))
    # Triangle (0, k, k+1) has sides (0,k), (k,k+1), (k+1,0); the side (0,j)
    # is the boundary segment b0.<..> when j is adjacent to 0, else arc a<j-1>.
    tri = []
    for k in range(1, m - 1):
        first = "b0.0" if k == 1 else arc_label(k - 1)
        last = f"b0.{m - 1}" if k + 1 == m - 1 else arc_label(k)
        tri.append((first, f"b0.{k}", last))
    return Triangulation(surf, tri)


def annulus(p: int, q: int) -> Triangulation:
    """Annulus with p marked points on the outer and q on the inner boundary.

    Realised as the fan triangulation of the (p+q+2)-gon fundamental domain
    with left and right vertical sides glued into arc ``a1``.
    """
    if p < 1 or q < 1:
        raise ValueError("annulus needs p, q >= 1")
    surf = MarkedSurface(0, (p, q))
    total = p + q + 2  # polygon vertices A0, B0..Bq, Ap..A1

    def side(i):
        # polygon side from P[i] to P[i+1]
        if i == 0 or i == q + 1:
            return arc_label(1)
        if 1 <= i <= q:
            return f"b1.{i - 1}"
        return f"b0.{i - (q + 2)}"

    tri = []
    for k in range(1, total - 1):
        first = side(0) if k == 1 else arc_label(k)
        last = side(total - 1) if k + 1 == total - 1 else arc_label(k + 1)
        tri.append((first, side(k), last))
    return Triangulation(surf, tri)


def genus_one(m: int) -> Triangulation:
    """Genus-1 surface with one boundary component carrying m marked points.

    Fundamental polygon a b a' b' c1..cm, fan-triangulated; the a/b sides
    glue into arcs ``a1``/``a2`` and the diagonals are ``a3..a<m+3>``.
    """
    if m < 1:
        raise ValueError("need at least one marked point")
    surf = MarkedSurface(1, (m,))
    total = 4 + m

    def side(i):
        if i in (0, 2):
            return arc_label(1)
        if i in (1, 3):
            return arc_label(2)
        return f"b0.{i - 4}"

    tri = []
    for k in range(1, total - 1):
        first = side(0) if k == 1 else arc_label(k + 1)
        last = side(total - 1) if k + 1 == total - 1 else arc_label(k + 2)
        tri.append((first, side(k), last))
    return Triangulation(surf, tri)
