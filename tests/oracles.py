"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own machinery: polygon
triangulations are maximal noncrossing diagonal sets found by
backtracking, and their flip graph is built directly on chord sets.
The seed references are the numpy mutation, canonical form and key that
``flipgroupoid.seeds`` replaced with code on tuples of int tuples; the corner
reference is the union-find on ``(t, k)`` tuples that
``Triangulation._corner_classes`` replaced with flat corner indices.
"""

from math import comb

import numpy as np


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


def ref_canonical_key(seed) -> bytes:
    B2, C2, _ = ref_canonical_form(seed)
    n = seed.n
    body = ",".join(str(int(x)) for x in B2.ravel())
    body += ";" + ",".join(str(int(x)) for x in C2.ravel())
    return f"n={n};{body}".encode("ascii")


def ref_corner_classes(tri) -> dict[tuple[int, int], int]:
    """Marked-point class of each corner (t, k), by union-find on tuples."""
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
            (t1, p1), (t2, p2) = tri.slots(out)
            other = (t2, p2) if (t1, p1) == (t, k) else (t1, p1)
            union(idx[(t, k)], idx[(other[0], (other[1] + 1) % 3)])
        inc = tri.triangles[t][(k - 1) % 3]
        if inc.startswith("a"):
            sl = tri.slots(inc)
            other = sl[1] if sl[0] == (t, (k - 1) % 3) else sl[0]
            union(idx[(t, k)], idx[other])
    return {c: find(idx[c]) for c in corners}
