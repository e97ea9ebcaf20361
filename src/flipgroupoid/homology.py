"""Integer homology of the square/pentagon 2-complex on an exchange graph.

The 2-cells are the geometric squares and pentagons (each unoriented
relation cycle counted once, not once per basepoint).  H_1 is computed
exactly over the integers: the cycle lattice of the graph has the
fundamental cycles of the non-tree edges as a basis, and in that basis a
cell boundary is simply its restriction to non-tree coordinates, so the
first homology is read off the Smith normal form of one integer matrix.

That matrix has at most five nonzeros per column.  One exact kernel,
:func:`invariant_factors`, reduces it: sparse elimination on +-1 pivots,
then :func:`smith_normal_form` on the residual block of columns without a
unit entry (empty on every polygon tried, 5 to 11 sides).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .exchange import ExchangeGraph, RelationInstance, RelationKind, all_relation_instances

__all__ = ["smith_normal_form", "invariant_factors", "two_cells", "homology_h1", "face_census"]


def smith_normal_form(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact integer Smith normal form: returns (U, D, V) with D = U @ M @ V,
    U and V unimodular, D diagonal with d1 | d2 | ... >= 0."""
    A = [[int(x) for x in row] for row in np.atleast_2d(np.asarray(M))]
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
    return (
        np.array(U, dtype=object),
        np.array(A, dtype=object),
        np.array(V, dtype=object),
    )


def invariant_factors(M) -> list[int]:
    """Nonzero diagonal d1 | d2 | ... (all positive) of the Smith normal form.

    Sparse exact elimination on unit pivots first: the shortest column
    still holding a +-1 entry is the pivot column (a heap keyed on column
    length; of its unit entries, the one in the fewest columns is the
    pivot), the pivot row is cleared from the other columns by integer
    column operations, and the pivot row and column are dropped as one
    invariant factor 1.  The columns left without a unit entry go as one
    matrix to :func:`smith_normal_form`.  All arithmetic is in Python ints.
    """
    A = np.atleast_2d(np.asarray(M))
    cols: list[dict[int, int] | None] = [{} for _ in range(A.shape[1])]
    where: dict[int, set[int]] = {}  # row -> columns with a nonzero in it
    for r, c in zip(*np.nonzero(A)):
        cols[c][int(r)] = int(A[r, c])
        where.setdefault(int(r), set()).add(int(c))
    heap = [(len(col), c) for c, col in enumerate(cols) if col]
    heapq.heapify(heap)
    units = 0
    while heap:
        size, c = heapq.heappop(heap)
        col = cols[c]
        if col is None or size != len(col):
            continue  # eliminated, or pushed again since it changed
        pivots = [r for r, x in col.items() if x in (1, -1)]
        if not pivots:
            continue  # pushed again if a later pivot changes it
        r = min(pivots, key=lambda r: len(where[r]))
        cols[c] = None
        for r2 in col:
            where[r2].discard(c)
        for c2 in where.pop(r):
            col2 = cols[c2]
            q = col2.pop(r) * col[r]  # col2 -= q * col clears row r
            for r2, x in col.items():
                if r2 == r:
                    continue
                y = col2.get(r2, 0) - q * x
                if y:
                    col2[r2] = y
                    where[r2].add(c2)
                else:
                    del col2[r2]
                    where[r2].discard(c2)
            heapq.heappush(heap, (len(col2), c2))
        units += 1
    rest = [col for col in cols if col]
    rows = sorted({r for col in rest for r in col})
    _, D, _ = smith_normal_form(np.array([[col.get(r, 0) for col in rest] for r in rows], dtype=object))
    return [1] * units + [abs(int(d)) for d in np.diag(D) if d != 0]


@dataclass(frozen=True)
class TwoCell:
    kind: RelationKind
    edges: tuple  # signed canonical edge ids around the cycle


def _cycle_of(instance: RelationInstance, g: ExchangeGraph):
    """Signed canonical edges around left path then reversed right path."""
    cyc = []
    for (v, k) in instance.left_steps:
        eid = g.edge_id(v, k)
        cyc.append((eid, 1 if eid == (v, k) else -1))
    for (v, k) in reversed(instance.right_steps):
        eid = g.edge_id(v, k)
        cyc.append((eid, -1 if eid == (v, k) else 1))
    return tuple(cyc)


def two_cells(g: ExchangeGraph) -> list[TwoCell]:
    """Distinct unoriented squares and pentagons of the graph.

    Built once per graph and kept in ``g.cell_cache``, so that
    :func:`face_census` and :func:`homology_h1` share one build.
    """
    if not g.is_complete():
        raise ValueError("2-complex needs a fully enumerated graph")
    cells = g.cell_cache
    if cells is None:
        seen = {}
        for inst in all_relation_instances(g):
            if inst.kind is RelationKind.HEX_DUMBBELL:
                continue
            if not inst.co_terminates():
                raise RuntimeError("relation instance does not close")
            cyc = _cycle_of(inst, g)
            key = frozenset(e for e, _ in cyc)
            if key not in seen:
                seen[key] = TwoCell(inst.kind, cyc)
        cells = g.cell_cache = [seen[k] for k in sorted(seen, key=sorted)]
    return list(cells)


def face_census(g: ExchangeGraph) -> dict:
    cells = two_cells(g)
    return {
        "squares": sum(c.kind is RelationKind.SQUARE for c in cells),
        "pentagons": sum(c.kind is RelationKind.PENTAGON for c in cells),
    }


def homology_h1(g: ExchangeGraph) -> tuple[int, list[int]]:
    """First Betti number and torsion of the square+pentagon 2-complex."""
    if not g.is_complete():
        raise ValueError("homology needs a fully enumerated graph")
    edges = g.unoriented_edges()
    eindex = {(v, k): i for i, (v, k, _, _) in enumerate(edges)}
    nv, ne = g.vertex_count(), len(edges)

    # spanning tree; the non-tree edges index the cycle lattice basis
    tree_edges = set()
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for k in sorted(g.nbr[v]):
            u, k2 = g.nbr[v][k]
            if u not in seen:
                seen.add(u)
                tree_edges.add(g.edge_id(v, k))
                stack.append(u)
    if len(seen) != nv:
        raise RuntimeError("exchange graph is not connected")
    nontree = [i for i, (v, k, _, _) in enumerate(edges) if (v, k) not in tree_edges]
    pos = {i: r for r, i in enumerate(nontree)}

    cells = two_cells(g)
    M = np.zeros((len(nontree), len(cells)), dtype=np.int8)  # entries are 0, +-1
    for c, cell in enumerate(cells):
        for eid, sign in cell.edges:
            r = pos.get(eindex[eid])
            if r is not None:
                M[r, c] += sign
    factors = invariant_factors(M) if M.size else []
    rank = len(factors)
    betti = len(nontree) - rank
    torsion = [d for d in factors if d not in (1, -1)]
    return betti, torsion
