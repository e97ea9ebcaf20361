"""Integer homology of the square/pentagon 2-complex on an exchange graph.

The 2-cells are the geometric squares and pentagons, each unoriented
relation cycle taken once, at its lowest corner, and read as a relator:
a tuple of signed int edge ids around the cycle (:func:`two_cells`).
H_1 is computed exactly over the integers: the cycle lattice of the
graph has the fundamental cycles of the edges off the breadth-first tree
of :mod:`flipgroupoid.exchange` as a basis, and in
that basis a cell boundary is simply its restriction to non-tree
coordinates, a relator summed through a flat list from edge id to row,
so the first homology is read off the Smith normal form of one integer
matrix.

That matrix has at most five nonzeros per column, and it is built as
sparse columns, a :class:`SparseMatrix`; no dense matrix is ever filled.
One exact kernel, :func:`invariant_factors`, reduces it by sparse
elimination: a +-1 pivot in each column in turn, then Euclid steps on
whatever is left (nothing, on every polygon tried, 5 to 12 sides).  All
arithmetic is on Python ints.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from itertools import chain

from .exchange import CheckFailure, ExchangeGraph, RelationKind, _bfs_tree, _walk_relations

__all__ = [
    "SparseMatrix", "invariant_factors", "two_cells", "homology_h1", "face_census",
]


class SparseMatrix:
    """An integer matrix held as columns ``{row: entry}``; rows not listed
    are 0, and a listed 0 (a cancelled entry) is allowed.

    It has only what is read of a boundary matrix from outside the kernel:
    ``shape``, elementwise ``M != 0`` and ``sum()``.
    """

    __slots__ = ("shape", "columns")

    def __init__(self, rows: int, columns: list[dict[int, int]]):
        self.shape = (rows, len(columns))
        self.columns = columns

    def __ne__(self, other):
        if other != 0:
            raise ValueError("a SparseMatrix compares elementwise with 0 only")
        return SparseMatrix(self.shape[0], [{r: x != 0 for r, x in col.items()} for col in self.columns])

    def sum(self) -> int:
        return sum(sum(col.values()) for col in self.columns)


def _pivot(cols: list, where: dict[int, set[int]], r: int, c: int) -> int:
    """Reduce at the pivot (r, c) until it is alone in its row and column,
    drop both, and return the pivot's absolute value.

    Column operations take every other entry of row r to its remainder
    mod the pivot p.  Once the row is clear, row operations change column
    c only: they take its entries mod p, which clears it when p is a unit.
    A remainder left in the row or the column is smaller than p and is
    the next pivot.
    """
    while True:
        col = cols[c]
        cols[c] = None
        for r2 in col:
            where[r2].discard(c)
        p = col.pop(r)
        left = {c}  # columns with a nonzero in row r
        for c2 in where.pop(r):
            col2 = cols[c2]
            y = col2.pop(r)
            q = y // p  # col2 -= q * col
            y -= q * p
            if y:
                col2[r] = y
                left.add(c2)
            if not q:
                continue
            for r2, x in col.items():
                y = col2.get(r2, 0) - q * x
                if y:
                    col2[r2] = y
                    where[r2].add(c2)
                else:
                    del col2[r2]
                    where[r2].discard(c2)
        if len(left) == 1:
            col = {} if p in (1, -1) else {r2: y for r2, x in col.items() if (y := x % p)}
            if not col:
                return abs(p)
        col[r] = p
        where[r] = left
        cols[c] = col
        for r2 in col:
            where[r2].add(c)
        if len(left) > 1:
            c = min(left, key=lambda c2: abs(cols[c2][r]))
        else:
            r = min(col, key=lambda r2: abs(col[r2]))


def invariant_factors(M: SparseMatrix) -> list[int]:
    """Nonzero diagonal d1 | d2 | ... (all positive) of the Smith normal form.

    Sparse exact elimination in two passes.  First, in column order, each
    column that still holds a +-1 entry pivots on it (of several, the one
    whose row lies in the fewest columns).  Then, while any column is
    nonempty, the entry of least absolute value is the pivot.
    :func:`_pivot` clears each pivot's row and column by Euclid steps, and
    a gcd/lcm pass turns the pivots into a divisibility chain.  All
    arithmetic is in Python ints; an entry that is not an int raises
    TypeError.

    M is read, never changed: the elimination works on a copy of its
    nonzero entries.
    """
    for _ in map(operator.index, chain.from_iterable(col.values() for col in M.columns)):
        pass  # raises TypeError on an entry that is not an int
    cols: list[dict[int, int] | None] = [{r: x for r, x in col.items() if x} for col in M.columns]
    where: dict[int, set[int]] = defaultdict(set)  # row -> columns with a nonzero in it
    for c, col in enumerate(cols):
        for r in col:
            where[r].add(c)
    pivots = []
    for c, col in enumerate(cols):
        units = [r for r, x in col.items() if x in (1, -1)]
        if units:
            pivots.append(_pivot(cols, where, min(units, key=lambda r: len(where[r])), c))
    while any(cols):
        _, r, c = min((abs(x), r, c) for c, col in enumerate(cols) if col for r, x in col.items())
        pivots.append(_pivot(cols, where, r, c))
    factors = [d for d in pivots if d != 1]
    for i in range(len(factors)):  # gcd/lcm pass: factors[i] divides factors[j] for j > i
        for j in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return [1] * (len(pivots) - len(factors)) + factors


def two_cells(g: ExchangeGraph) -> list[tuple[RelationKind, tuple[int, ...]]]:
    """Distinct unoriented squares and pentagons as ``(kind, relator)``,
    each read at its lowest corner (the far corner included), in the order
    of those corners.

    A relator is a tuple of signed ints: the edge v --k--> u, whose reverse
    is u --k2--> v, is ``min(v * (n + 1) + k, u * (n + 1) + k2)``, signed +
    when the step runs from that lower end.  The steps are the left side,
    then the right side reversed, which is the cell's boundary cycle.

    :func:`_walk_relations` walks every relation instance once on the
    graph's adjacency table, and one that does not close raises the
    :class:`CheckFailure` naming it that :func:`relation_closure_check`
    raises; a cell's edges are read off the steps of the sides it yields.
    Nothing is kept on the graph: each call walks the instances anew.
    """
    if not g.is_complete():
        raise ValueError("2-complex needs a fully enumerated graph")
    adj = g.adj
    stride = g.n + 1
    cells = []
    for v, kind, _, sides, lo in _walk_relations(g):
        if v != lo or kind is RelationKind.HEX_DUMBBELL:
            continue
        relator = []
        for side, sign in ((sides[0], 1), (reversed(sides[1]), -1)):
            for w, k in side:
                u, k2, _ = adj[w][k]
                d, d2 = w * stride + k, u * stride + k2
                relator.append(sign * d if d < d2 else -sign * d2)
        cells.append((kind, tuple(relator)))
    return cells


def face_census(g: ExchangeGraph) -> dict:
    """The number of squares and of pentagons among the 2-cells."""
    kinds = [kind for kind, _ in two_cells(g)]
    return {
        "squares": kinds.count(RelationKind.SQUARE),
        "pentagons": kinds.count(RelationKind.PENTAGON),
    }


def homology_h1(g: ExchangeGraph) -> tuple[int, list[int]]:
    """First Betti number and torsion of the square+pentagon 2-complex,
    on the fundamental cycles of :func:`_bfs_tree`'s tree; a graph that is
    not connected raises :class:`CheckFailure`."""
    if not g.is_complete():
        raise ValueError("homology needs a fully enumerated graph")
    adj = g.adj
    stride = g.n + 1

    # the BFS tree; the non-tree edges index the cycle lattice basis
    order, parent = _bfs_tree(g)
    if len(order) != g.vertex_count():
        missing = next(v for v in range(g.vertex_count()) if v not in parent)
        raise CheckFailure(f"exchange graph is not connected: vertex 0 does not reach {missing}", {
            "reached": len(order), "vertices": g.vertex_count(), "unreached": missing})
    tree = {min(w * stride + k, u * stride + adj[w][k][1]) for u, (w, k) in parent.items() if u}
    nontree = [d for v, k, _, _ in g._edges_in_order() if (d := v * stride + k) not in tree]
    row: list[int | None] = [None] * (len(adj) * stride)  # edge id -> non-tree row
    for r, d in enumerate(nontree):
        row[d] = r

    columns = []
    for _, relator in two_cells(g):
        col: dict[int, int] = {}
        for d in relator:
            r = row[abs(d)]
            if r is not None:
                col[r] = col.get(r, 0) + (1 if d > 0 else -1)
        columns.append(col)
    M = SparseMatrix(len(nontree), columns)
    factors = invariant_factors(M) if nontree and M.columns else []
    rank = len(factors)
    betti = len(nontree) - rank
    torsion = [d for d in factors if d not in (1, -1)]
    return betti, torsion
