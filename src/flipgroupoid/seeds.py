"""Skew-symmetric matrix mutation and (B, C) seeds.

A seed is an exchange matrix together with its c-matrix (identity at the
base).  Seeds are the dedup keys for exchange-graph enumeration: the
canonical key sorts the rows of C (applying the same permutation to the
rows and columns of B), so that two seeds describing the same cluster in
different orders collapse to one key while seeds of genuinely different
clusters stay apart.  Rows of C are pairwise distinct because C is
unimodular, so the sort is unambiguous.

One :func:`canonical_form` gives both the relabelling permutation and,
through :func:`form_key`, the dedup key, so enumeration computes the
canonical form once per mutation.  Small matrices are read as Python ints
(one ``tolist`` per matrix), not entry by entry as numpy scalars.

Mutation indices are 1-based, matching arc ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Seed", "mutate_matrix", "mutate_seed", "canonical_form", "canonical_key", "form_key"]


def _as_matrix(B) -> np.ndarray:
    B = np.asarray(B, dtype=np.int64)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("expected a square matrix")
    return B


def mutate_matrix(B, k: int) -> np.ndarray:
    """Standard skew-symmetric matrix mutation at vertex k (1-based)."""
    B = _as_matrix(B)
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


def _det(mat: np.ndarray) -> int:
    """Exact integer determinant (Bareiss elimination)."""
    a = [[int(x) for x in row] for row in mat]
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
    """Exchange matrix B plus c-matrix C; value type, never mutated in place."""

    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", _as_matrix(self.B))
        object.__setattr__(self, "C", _as_matrix(self.C))
        if self.B.shape != self.C.shape:
            raise ValueError("B and C must have equal shape")
        self.B.setflags(write=False)
        self.C.setflags(write=False)

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @classmethod
    def initial(cls, B) -> "Seed":
        B = _as_matrix(B)
        return cls(B, np.eye(B.shape[0], dtype=np.int64))

    def validate(self) -> None:
        if (self.B != -self.B.T).any():
            raise ValueError("B must be skew-symmetric")
        if abs(_det(self.C)) != 1:
            raise ValueError("C must be unimodular")
        _check_sign_coherent(self.C)

    def __eq__(self, other):
        return (
            isinstance(other, Seed)
            and self.B.shape == other.B.shape
            and (self.B == other.B).all()
            and (self.C == other.C).all()
        )

    def __hash__(self):
        return hash((self.B.tobytes(), self.C.tobytes()))


def _check_sign_coherent(C: np.ndarray) -> None:
    for i, row in enumerate(C.tolist()):
        if min(row) >= 0 or max(row) <= 0:
            continue
        raise RuntimeError(
            f"sign-incoherent c-vector in row {i + 1}: {row!r} "
            "(implementation bug: seeds reached from (B, I) are sign-coherent)"
        )


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Mutate B and C at vertex k (1-based).  Involutive."""
    n = seed.n
    if not (1 <= k <= n):
        raise ValueError(f"mutation index {k} out of range 1..{n}")
    B, C = seed.B, seed.C
    _check_sign_coherent(C)
    k0 = k - 1
    ck = C[k0]
    coef = np.maximum(B[:, k0], 0) if (ck >= 0).all() else np.maximum(-B[:, k0], 0)
    C2 = C + coef[:, None] * ck[None, :]
    C2[k0] = -ck
    return Seed(mutate_matrix(B, k), C2)


def canonical_form(seed: Seed) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Sort C rows (descending lex), permuting B the same way.

    Returns (B', C', perm) where perm maps old 1-based indices to new ones.
    The identity c-matrix is already canonical, so base seeds are unmoved.
    """
    n = seed.n
    rows = seed.C.tolist()
    if len(set(map(tuple, rows))) != n:
        raise RuntimeError("duplicate c-vectors; C cannot be unimodular")
    order = sorted(range(n), key=rows.__getitem__, reverse=True)
    new_index = [0] * n
    for pos, old in enumerate(order):
        new_index[old] = pos
    B2 = seed.B[np.ix_(order, order)]
    C2 = seed.C[order]
    return B2, C2, tuple(i + 1 for i in new_index)


def form_key(B2: np.ndarray, C2: np.ndarray) -> bytes:
    """Key bytes of a canonical form (B', C') as returned by canonical_form."""
    body = ",".join(map(str, B2.ravel().tolist()))
    body += ";" + ",".join(map(str, C2.ravel().tolist()))
    return f"n={B2.shape[0]};{body}".encode("ascii")


def canonical_key(seed: Seed) -> bytes:
    """Deterministic byte string identifying the seed's cluster."""
    B2, C2, _ = canonical_form(seed)
    return form_key(B2, C2)
