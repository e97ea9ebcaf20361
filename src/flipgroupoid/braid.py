"""Exact word problem for the braid groups B_k via left-greedy normal form.

A braid word is a sequence of nonzero signed generator indices
(``2`` = sigma_2, ``-2`` = its inverse).  The normal form is the classical
Garside form Delta^p . f_1 ... f_r where Delta is the half twist, each
factor f_i is a permutation braid (positive braid in which any two strands
cross at most once, identified with its underlying permutation), no factor
is trivial or Delta, and each adjacent pair is left-weighted: the starting
set of f_{i+1} is contained in the finishing set of f_i.  Two words
represent the same braid iff their normal forms coincide, which is the
oracle used by every group-theoretic check in this package.

Forms also multiply and invert without going back to words (El-Rifai and
Morton, "Algorithms for positive braids", 1994): the inverse of a form is
read off factor by factor, and a product joins the factor lists and
left-weights them once; a word's form is the product of its letters'.

Permutations are tuples ``p`` with ``p[i]`` the end position of the strand
starting at position i; ``mult(p, q)`` applies p first.  Generators are
exposed 1-based (sigma_1 .. sigma_{k-1}); positions are 0-based inside.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BraidWord",
    "GarsideNF",
    "normal_form",
    "product",
    "is_identity",
    "equal",
    "conjugate",
    "delta_word",
]


def mult(p, q):
    """Compose permutations, p applied first."""
    return tuple(q[x] for x in p)


def _identity(k):
    return tuple(range(k))


def _w0(k):
    return tuple(range(k - 1, -1, -1))


def _gen(k, i):
    """Permutation of sigma_{i+1}: swap positions i, i+1 (i is 0-based)."""
    p = list(range(k))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def _inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _tau(p):
    """Conjugate a permutation braid by Delta (Delta p Delta^{-1}; Delta^2 is central)."""
    k = len(p)
    return tuple(k - 1 - y for y in reversed(p))


def _starting_set(p):
    """Indices i with p = sigma_{i+1} * rest (left descents)."""
    return tuple(i for i in range(len(p) - 1) if p[i] > p[i + 1])


def _finishing_set(p):
    """Indices i with p = rest * sigma_{i+1} (right descents)."""
    q = _inv(p)
    return tuple(i for i in range(len(q) - 1) if q[i] > q[i + 1])


class _Tables:
    """Per-strand-count caches: atoms, letter forms and the pair-fix table."""

    def __init__(self, k: int):
        self.k = k
        self.id = _identity(k)
        self.w0 = _w0(k)
        self.gens = [_gen(k, i) for i in range(k - 1)]
        # sigma_i^{-1} = Delta^{-1} . (Delta sigma_i^{-1})
        self.letters = {}
        for i, s in enumerate(self.gens, 1):
            self.letters[i] = self._simple_form(0, s)
            self.letters[-i] = self._simple_form(-1, mult(self.w0, s))
        self.fix_cache: dict[tuple, tuple] = {}

    def _simple_form(self, power: int, f) -> "GarsideNF":
        """The normal form of Delta^power f, f a permutation braid."""
        if f == self.w0:
            return GarsideNF(self.k, power + 1, ())
        return GarsideNF(self.k, power, () if f == self.id else (f,))

    def fix(self, a, b):
        """Make the pair (a, b) left-weighted by sliding crossings left."""
        key = (a, b)
        hit = self.fix_cache.get(key)
        if hit is not None:
            return hit
        a0, b0 = a, b
        while True:
            fin = set(_finishing_set(a))
            i = next((i for i in _starting_set(b) if i not in fin), None)
            if i is None:
                break
            # a gains a final crossing at i, b loses its leading one
            s = self.gens[i]
            a = mult(a, s)
            b = mult(s, b)
        self.fix_cache[(a0, b0)] = (a, b)
        return a, b


_tables: dict[int, _Tables] = {}


def _tab(k: int) -> _Tables:
    t = _tables.get(k)
    if t is None:
        t = _tables[k] = _Tables(k)
    return t


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of B_k; the free object, not reduced."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("need at least one strand")
        object.__setattr__(self, "letters", tuple(int(x) for x in self.letters))
        for x in self.letters:
            if x == 0 or abs(x) > self.strands - 1:
                raise ValueError(f"letter {x} out of range for {self.strands} strands")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-x for x in reversed(self.letters)))

    @classmethod
    def parse(cls, strands: int, text: str) -> "BraidWord":
        return cls(strands, tuple(int(tok) for tok in text.split()))


@dataclass(frozen=True)
class GarsideNF:
    """Canonical form: Delta^power followed by left-weighted simple factors."""

    strands: int
    power: int
    factors: tuple[tuple[int, ...], ...]

    def is_trivial(self) -> bool:
        return self.power == 0 and not self.factors

    def inverse(self) -> "GarsideNF":
        """Normal form of the inverse braid, with no re-normalisation.

        f^{-1} = Delta^{-1} . (Delta f^{-1}), and Delta f^{-1} is simple with
        permutation w0 then f^{-1}.  Reversing the factors and moving every
        Delta^{-1} (and Delta^{-power}) to the front conjugates factor i
        (1-based) by Delta^(i - 1 + power); the result is left-weighted as
        it stands.
        """
        fs = []
        for i, f in enumerate(self.factors):
            g = tuple(reversed(_inv(f)))
            fs.append(_tau(g) if (i + self.power) % 2 else g)
        fs.reverse()
        return GarsideNF(self.strands, -self.power - len(fs), tuple(fs))

    def word(self) -> BraidWord:
        """Flatten back to a canonical word in Artin generators."""
        letters: list[int] = []
        if self.power != 0:
            d = delta_word(self.strands)
            block = d if self.power > 0 else tuple(-x for x in reversed(d))
            letters.extend(block * abs(self.power))
        for f in self.factors:
            letters.extend(_perm_word(f))
        return BraidWord(self.strands, tuple(letters))


def delta_word(k: int) -> tuple[int, ...]:
    """The half twist as a word: (1)(2 1)(3 2 1)...(k-1 .. 1)."""
    out = []
    for i in range(1, k):
        out.extend(range(i, 0, -1))
    return tuple(out)


def _perm_word(p) -> list[int]:
    """A reduced word for a permutation braid (smallest descent first)."""
    out = []
    k = len(p)
    p = list(p)
    while True:
        for i in range(k - 1):
            if p[i] > p[i + 1]:
                out.append(i + 1)
                # strip sigma_{i+1} from the front: p = s_i . p'
                p[i], p[i + 1] = p[i + 1], p[i]
                break
        else:
            return out


def _normalize(k: int, factors: list) -> tuple[int, tuple]:
    """Left-weight a factor list; returns (delta power absorbed, factors)."""
    tab = _tab(k)
    fs = [f for f in factors if f != tab.id]
    if not fs:
        return 0, ()
    # sweep right, backtracking one pair after each change; any pair an
    # operation can disturb is re-examined before the cursor passes it
    i = 1
    while i < len(fs):
        a, b = tab.fix(fs[i - 1], fs[i])
        if (a, b) == (fs[i - 1], fs[i]):
            i += 1
            continue
        fs[i - 1] = a
        if b == tab.id:
            del fs[i]
        else:
            fs[i] = b
        i = max(i - 1, 1)
    power = 0
    while fs and fs[0] == tab.w0:
        power += 1
        del fs[0]
    return power, tuple(fs)


def normal_form(w: BraidWord) -> GarsideNF:
    """Left-greedy Garside normal form, the :func:`product` of the letters'
    forms; equal braids get identical forms."""
    if not w.letters:
        return GarsideNF(w.strands, 0, ())
    return product(*map(_tab(w.strands).letters.__getitem__, w.letters))


def product(*forms: GarsideNF) -> GarsideNF:
    """Normal form of the product of forms, left to right.

    Each form's Delta power moves to the front, conjugating by Delta the
    factors of every form before it when the power is odd; the joined
    factor list is then left-weighted once.
    """
    if not forms:
        raise ValueError("need at least one form")
    k = forms[0].strands
    power = 0
    chunks = []
    for nf in reversed(forms):
        if nf.strands != k:
            raise ValueError("strand counts differ")
        chunks.append(tuple(map(_tau, nf.factors)) if power % 2 else nf.factors)
        power += nf.power
    extra, fs = _normalize(k, [f for chunk in reversed(chunks) for f in chunk])
    return GarsideNF(k, power + extra, fs)


def is_identity(w: BraidWord) -> bool:
    nf = normal_form(w)
    return nf.is_trivial()


def equal(w1: BraidWord, w2: BraidWord) -> bool:
    if w1.strands != w2.strands:
        raise ValueError("strand counts differ")
    return normal_form(w1) == normal_form(w2)


def conjugate(g: BraidWord, w: BraidWord) -> BraidWord:
    """Right conjugation g^{-1} w g."""
    if g.strands != w.strands:
        raise ValueError("strand counts differ")
    return g.inverse() * w * g


def permutation_image(w: BraidWord) -> tuple[int, ...]:
    """Underlying permutation of the braid (positions 0-based)."""
    tab = _tab(w.strands)
    p = tab.id
    for x in w.letters:
        p = mult(p, tab.gens[abs(x) - 1])
    return p


def exponent_sum(w: BraidWord) -> int:
    return sum(1 if x > 0 else -1 for x in w.letters)


def looks_like_band_generator(w: BraidWord) -> bool:
    """Cheap necessary check that w is a conjugate of a single generator:
    its permutation is a transposition and its exponent sum is 1."""
    if exponent_sum(w) != 1:
        return False
    p = permutation_image(w)
    moved = [i for i, v in enumerate(p) if v != i]
    return len(moved) == 2
