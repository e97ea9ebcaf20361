"""Skew-symmetric matrix mutation and (B, C) seeds.

A seed is an exchange matrix together with its c-matrix (identity at the
base).  Seeds are the dedup keys for exchange-graph enumeration: the
canonical key sorts the rows of C (applying the same permutation to the
rows and columns of B), so that two seeds describing the same cluster in
different orders collapse to one key while seeds of genuinely different
clusters stay apart.  Rows of C are pairwise distinct because C is
unimodular, so the sort is unambiguous.

One :func:`canonical_form` per mutation gives both the relabelling
permutation and the canonical (B', C'), and enumeration keys on that pair
of tuples as it stands.  :func:`canonical_key` is the bytes form of the
same key, written by :func:`form_key`.  Matrices are tuples of int
tuples.

Mutation indices are 1-based, matching arc ids.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain

__all__ = ["Seed", "mutate_matrix", "mutate_seed", "canonical_form", "canonical_key", "form_key"]

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


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Mutate B and C at vertex k (1-based).  Involutive.

    Sign-coherence is checked on the rows the mutation reads or writes:
    row k, and each rewritten row before and after.  So every row of a
    seed reached from (B, I) is checked when it is written; an untouched
    row of a hand-made seed is left to :meth:`Seed.validate`.
    """
    B, C = seed.B, seed.C
    B2 = _mutate(B, k)
    k0 = k - 1
    ck = C[k0]
    _check_row(k0, ck)
    sign = 1 if min(ck) >= 0 else -1
    C2 = list(C)
    for i, brow in enumerate(B):
        coef = max(sign * brow[k0], 0)
        if coef:
            _check_row(i, C[i])
            C2[i] = row = tuple([x + coef * y for x, y in zip(C[i], ck)])
            _check_row(i, row)
    C2[k0] = tuple([-x for x in ck])
    return Seed.trusted(B2, tuple(C2))


def canonical_form(seed: Seed) -> tuple[Matrix, Matrix, tuple[int, ...]]:
    """Sort C rows (descending lex), permuting B the same way.

    Returns (B', C', perm) where perm maps old 1-based indices to new ones.
    The identity c-matrix is already canonical, so base seeds are unmoved.
    """
    n = seed.n
    C = seed.C
    if len(set(C)) != n:
        raise RuntimeError("duplicate c-vectors; C cannot be unimodular")
    order = sorted(range(n), key=C.__getitem__, reverse=True)
    new_index = [0] * n
    for pos, old in enumerate(order):
        new_index[old] = pos
    B2 = tuple([tuple(map(seed.B[i].__getitem__, order)) for i in order])
    C2 = tuple(map(C.__getitem__, order))
    return B2, C2, tuple(i + 1 for i in new_index)


def form_key(B2: Matrix, C2: Matrix) -> bytes:
    """Key bytes of a canonical form (B', C') as returned by canonical_form."""
    body = ",".join(map(str, chain.from_iterable(B2)))
    body += ";" + ",".join(map(str, chain.from_iterable(C2)))
    return f"n={len(B2)};{body}".encode("ascii")


def canonical_key(seed: Seed) -> bytes:
    """Deterministic byte string identifying the seed's cluster."""
    B2, C2, _ = canonical_form(seed)
    return form_key(B2, C2)
