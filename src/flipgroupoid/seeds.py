"""Skew-symmetric matrix mutation and (B, C) seeds.

A seed is an exchange matrix together with its c-matrix (identity at the
base).  The canonical form of a seed sorts the rows of C (applying the
same permutation to the rows and columns of B), so that two seeds
describing the same cluster in different orders collapse to one form.
Rows of C are pairwise distinct because C is unimodular, so the sort is
unambiguous.

C alone determines the cluster, since B = C B0 C^T with the rows of C as
c-vectors (Nakanishi and Zelevinsky, "On tropical dualities in cluster
algebras", 2012).  So the dedup key of exchange-graph enumeration is the
sorted C alone: each mutation runs :func:`_mutate_c` (the one copy of the
C rule, shared with :func:`mutate_seed`) and :func:`_sort_c`, and B' is
built, by :func:`mutate_seed` and :func:`_permuted`, only for a cluster
not met before.  A cluster is keyed by its sorted C and nothing else;
:func:`canonical_form` gives the relabelling permutation and the
canonical (B', C') of a whole seed.  Matrices are tuples of int tuples.

Mutation indices are 1-based, matching arc ids.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

__all__ = ["Seed", "mutate_matrix", "mutate_seed", "canonical_form"]

Matrix = tuple[tuple[int, ...], ...]


def as_matrix(B) -> Matrix:
    """A nested sequence or 2-D array as a square tuple of int tuples; floats raise TypeError."""
    rows = tuple([tuple(map(operator.index, row)) for row in B])
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("expected a square matrix")
    return rows


def is_skew_symmetric(B: Matrix) -> bool:
    return B == tuple([tuple([-x for x in col]) for col in zip(*B)])


def mutate_matrix(B, k: int) -> Matrix:
    """Standard skew-symmetric matrix mutation at vertex k (1-based)."""
    return _mutate(as_matrix(B), k)


def _mutate(B: Matrix, k: int) -> Matrix:
    """mutate_matrix on a tuple of int tuples; rows with b_ik = 0 are shared."""
    n = len(B)
    if not (1 <= k <= n):
        raise ValueError(f"mutation index {k} out of range 1..{n}")
    k -= 1
    out = list(B)
    for i, row in enumerate(B):
        b = row[k]
        if b:
            s = 1 if b > 0 else -1
            new = [x + s * max(b * y, 0) for x, y in zip(row, B[k])]
            new[k] = -b
            out[i] = tuple(new)
    out[k] = tuple([-x for x in B[k]])
    return tuple(out)


def _det(mat: Matrix) -> int:
    """Exact integer determinant (Bareiss elimination)."""
    a = [list(row) for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for i in range(n):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[-1][-1]


@dataclass(frozen=True)
class Seed:
    """Exchange matrix B plus c-matrix C, each a tuple of int tuples."""

    B: Matrix
    C: Matrix

    def __post_init__(self):
        object.__setattr__(self, "B", as_matrix(self.B))
        object.__setattr__(self, "C", as_matrix(self.C))
        if len(self.B) != len(self.C):
            raise ValueError("B and C must have equal shape")

    @classmethod
    def trusted(cls, B: Matrix, C: Matrix) -> "Seed":
        """Seed of B and C, already tuples of int tuples, with no copy or check."""
        seed = object.__new__(cls)
        object.__setattr__(seed, "B", B)
        object.__setattr__(seed, "C", C)
        return seed

    @property
    def n(self) -> int:
        return len(self.B)

    @classmethod
    def initial(cls, B) -> "Seed":
        n = len(B)
        return cls(B, [[int(i == j) for j in range(n)] for i in range(n)])

    def validate(self) -> None:
        if not is_skew_symmetric(self.B):
            raise ValueError("B must be skew-symmetric")
        if abs(_det(self.C)) != 1:
            raise ValueError("C must be unimodular")
        _check_sign_coherent(self.C)


def _check_sign_coherent(C: Matrix) -> None:
    for i, row in enumerate(C):
        _check_row(i, row)


def _check_row(i: int, row: tuple[int, ...]) -> None:
    if min(row) < 0 < max(row):
        raise RuntimeError(
            f"sign-incoherent c-vector in row {i + 1}: {list(row)!r} "
            "(implementation bug: seeds reached from (B, I) are sign-coherent)"
        )


def _mutate_c(B: Matrix, C: Matrix, k: int) -> Matrix:
    """C of the seed (B, C) mutated at vertex k (1-based).

    Sign-coherence is checked on the rows the mutation reads or writes:
    row k, and each rewritten row before and after.  So every row of a
    seed reached from (B, I) is checked when it is written; an untouched
    row of a hand-made seed is left to :meth:`Seed.validate`.
    """
    k0 = k - 1
    ck = C[k0]
    _check_row(k0, ck)
    sign = 1 if min(ck) >= 0 else -1
    C2 = list(C)
    for i, brow in enumerate(B):
        coef = sign * brow[k0]
        if coef > 0:
            _check_row(i, C[i])
            C2[i] = row = tuple([x + coef * y for x, y in zip(C[i], ck)])
            _check_row(i, row)
    C2[k0] = tuple([-x for x in ck])
    return tuple(C2)


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Mutate B and C at vertex k (1-based), C by :func:`_mutate_c`.  Involutive."""
    return Seed.trusted(_mutate(seed.B, k), _mutate_c(seed.B, seed.C, k))


def _sort_c(C: Matrix) -> tuple[Matrix, list[int], tuple[int, ...]]:
    """The rows of C sorted descending lex, as (C', order, perm): row i of
    C' is row order[i] of C, and perm maps old 1-based indices to new
    ones.  Rows of a c-matrix are distinct (it is unimodular), so the
    order is unambiguous; equal rows raise RuntimeError."""
    n = len(C)
    if len(set(C)) != n:
        raise RuntimeError("duplicate c-vectors; C cannot be unimodular")
    order = sorted(range(n), key=C.__getitem__, reverse=True)
    new_index = [0] * n
    for pos, old in enumerate(order, 1):
        new_index[old] = pos
    return tuple(map(C.__getitem__, order)), order, tuple(new_index)


def _permuted(B: Matrix, order: list[int]) -> Matrix:
    """B with rows and columns taken in ``order``, as :func:`_sort_c` gives it."""
    return tuple([tuple(map(B[i].__getitem__, order)) for i in order])


def canonical_form(seed: Seed) -> tuple[Matrix, Matrix, tuple[int, ...]]:
    """Sort C rows (descending lex), permuting B the same way.

    Returns (B', C', perm) where perm maps old 1-based indices to new ones.
    The identity c-matrix is already canonical, so base seeds are unmoved.
    """
    C2, order, perm = _sort_c(seed.C)
    return _permuted(seed.B, order), C2, perm
