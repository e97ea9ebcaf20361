import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipgroupoid.braid import (
    BraidWord,
    GarsideNF,
    conjugate,
    delta_word,
    equal,
    is_identity,
    looks_like_band_generator,
    normal_form,
    product,
)
from flipgroupoid.cover import BraidOracle, inverse_word

from oracles import ref_canon, ref_conj, ref_normal_form

W = BraidWord


def rand_word(rng, k, max_len=60):
    letters = [i for i in range(-(k - 1), k) if i != 0]
    return W(k, tuple(rng.choice(letters) for _ in range(rng.randrange(0, max_len + 1))))


def test_artin_relation():
    assert normal_form(W(3, (1, 2, 1))) == normal_form(W(3, (2, 1, 2)))


def test_far_commutation():
    assert equal(W(4, (1, 3)), W(4, (3, 1)))


def test_delta_squared_central():
    d2 = W(3, (1, 2) * 3)
    nf = normal_form(d2)
    assert (nf.power, nf.factors) == (2, ())
    for i in (1, 2):
        assert equal(d2 * W(3, (i,)), W(3, (i,)) * d2)
    # likewise in B4
    d = W(4, delta_word(4))
    d2 = d * d
    for i in (1, 2, 3):
        assert equal(d2 * W(4, (i,)), W(4, (i,)) * d2)


def test_identity_checks():
    assert is_identity(W(5, ()))
    assert is_identity(W(3, (1, -1)))
    assert not is_identity(W(3, (1,)))
    assert not is_identity(W(3, (1, 2, -1, -2)))


def test_inverse_words():
    rng = random.Random(1)
    for _ in range(500):
        w = rand_word(rng, rng.choice([2, 3, 4, 5]))
        assert is_identity(w * w.inverse())
        assert is_identity(w.inverse() * w)


def test_nf_idempotent():
    rng = random.Random(2)
    for _ in range(300):
        w = rand_word(rng, rng.choice([2, 3, 4, 5]), 40)
        nf = normal_form(w)
        assert normal_form(nf.word()) == nf


def test_nf_left_weighted_shape():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.choice([3, 4, 5])
        nf = normal_form(rand_word(rng, k, 40))
        ident = tuple(range(k))
        delta = tuple(range(k - 1, -1, -1))
        for f in nf.factors:
            assert f != ident and f != delta


def test_associativity_of_products():
    rng = random.Random(4)
    for _ in range(150):
        k = rng.choice([3, 4])
        a, b, c = (rand_word(rng, k, 12) for _ in range(3))
        assert normal_form((a * b) * c) == normal_form(a * (b * c))


def test_conjugate_contract():
    # conjugate(g, w) is g^-1 w g
    assert equal(conjugate(W(3, (1,)), W(3, (2,))), W(3, (-1, 2, 1)))
    assert equal(conjugate(W(3, (1,)), W(3, (1,))), W(3, (1,)))
    with pytest.raises(ValueError):
        conjugate(W(3, (1,)), W(4, (1,)))
    rng = random.Random(5)
    for _ in range(100):
        g, w = rand_word(rng, 4, 15), rand_word(rng, 4, 15)
        assert is_identity(w) == is_identity(conjugate(g, w))


def test_band_generators_distinct_in_b4():
    # bands a_{s,t} = (s_{t-1}..s_{s+1}) s_s (inverses), 1 <= s < t <= 4
    bands = {}
    for s in range(1, 4):
        for t in range(s + 1, 5):
            mid = list(range(t - 1, s, -1))
            word = tuple(mid) + (s,) + tuple(-x for x in reversed(mid))
            bands[(s, t)] = W(4, word)
    keys = list(bands)
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1:]:
            assert not equal(bands[k1], bands[k2]), (k1, k2)
        assert looks_like_band_generator(bands[k1])


def test_band_shape_check():
    assert looks_like_band_generator(W(4, (-3, -2, 1, 2, 3)))
    assert looks_like_band_generator(W(4, (1, 1, -1)))  # reduces to sigma_1
    assert not looks_like_band_generator(W(4, (1, 2)))
    assert not looks_like_band_generator(W(4, (1, -2, 1, 2)))  # exponent sum 1, not a transposition


def _naive_normalize(k, factors):
    """Reference normalizer: fix arbitrary pairs until globally stable."""
    from flipgroupoid.braid import _tab

    tab = _tab(k)
    fs = [f for f in factors if f != tab.id]
    changed = True
    while changed:
        changed = False
        for i in range(1, len(fs)):
            a, b = tab.fix(fs[i - 1], fs[i])
            if (a, b) != (fs[i - 1], fs[i]):
                fs[i - 1], fs[i] = a, b
                changed = True
        fs = [f for f in fs if f != tab.id]
    power = 0
    while fs and fs[0] == tab.w0:
        power += 1
        del fs[0]
    return power, tuple(fs)


def test_normalizer_against_naive_fixpoint():
    from flipgroupoid.braid import _normalize, _tab, mult

    rng = random.Random(99)
    for _ in range(300):
        k = rng.choice([3, 4, 5])
        tab = _tab(k)
        # random permutation braids via random products of atoms
        factors = []
        for _ in range(rng.randrange(0, 12)):
            p = tab.id
            for _ in range(rng.randrange(0, 5)):
                p = mult(p, rng.choice(tab.gens))
            factors.append(p)
        assert _normalize(k, list(factors)) == _naive_normalize(k, list(factors))


def test_equal_words_after_inserting_relators():
    rng = random.Random(123)
    for _ in range(200):
        k = rng.choice([3, 4, 5])
        letters = [i for i in range(-(k - 1), k) if i != 0]
        w = [rng.choice(letters) for _ in range(rng.randrange(0, 25))]
        w2 = list(w)
        pos = rng.randrange(0, len(w2) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            i = rng.randrange(1, k)
            ins = [i, -i]
        elif kind == 1 and k >= 4:
            i, j = 1, 3
            ins = [i, j, -i, -j]
        else:
            i = rng.randrange(1, k - 1)
            ins = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
        w2[pos:pos] = ins
        assert normal_form(W(k, tuple(w))) == normal_form(W(k, tuple(w2)))


def test_word_validation():
    with pytest.raises(ValueError):
        W(3, (0,))
    with pytest.raises(ValueError):
        W(3, (3,))
    with pytest.raises(ValueError):
        W(3, (1,)) * W(4, (1,))


# one oracle per strand count, shared across examples, so later examples
# meet remembered forms and a filled memo
BRAID_ORACLES = {k: BraidOracle(k) for k in range(2, 9)}


@st.composite
def braid_letters(draw, k: int, max_len: int = 40) -> tuple[int, ...]:
    """Up to ``max_len`` letters of B_k, often whole Delta or Delta^{-1} blocks."""
    d = delta_word(k)
    letter = st.integers(1, k - 1).flatmap(lambda i: st.sampled_from([(i,), (-i,)]))
    pieces = draw(st.lists(st.one_of(letter, st.sampled_from([d, inverse_word(d)])),
                           max_size=max_len))
    return tuple(x for p in pieces for x in p)[:max_len]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nf_inverse_and_product_match_the_words(data):
    k = data.draw(st.integers(2, 8))
    a, b, c = (W(k, data.draw(braid_letters(k))) for _ in range(3))
    na, nb, nc = normal_form(a), normal_form(b), normal_form(c)
    assert na.inverse() == normal_form(a.inverse())
    assert product(na) == na
    assert product(na, nb) == normal_form(a * b)
    assert product(nb.inverse(), na, nb) == normal_form(b.inverse() * a * b)
    assert product(na, nb, nc) == normal_form(a * b * c)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normal_form_matches_the_letter_pass(data):
    # B_1 has no letters: its one word is the empty word
    k = data.draw(st.integers(1, 8))
    u, v = (W(k, data.draw(braid_letters(k)) if k > 1 else ()) for _ in range(2))
    assert normal_form(W(k, ())) == ref_normal_form(W(k, ())) == GarsideNF(k, 0, ())
    assert normal_form(u) == ref_normal_form(u)
    assert normal_form(u * v) == ref_normal_form(u * v) == product(normal_form(u), normal_form(v))


def test_product_refuses_mixed_strands_and_no_forms():
    with pytest.raises(ValueError, match="strand counts differ"):
        product(normal_form(W(3, (1,))), normal_form(W(4, (1,))))
    with pytest.raises(ValueError):
        product()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_braid_conj_matches_the_word_route(data):
    k = data.draw(st.integers(2, 8))
    o = BRAID_ORACLES[k]
    word, by = data.draw(braid_letters(k)), data.draw(braid_letters(k))
    # canonical inputs, as frame transport passes them, and raw ones
    if data.draw(st.booleans()):
        word, by = o.canon(word), o.canon(by)
    want = ref_conj(o, word, by)
    assert o.conj(word, by) == want
    assert o.inv(by) == ref_canon(o, inverse_word(by))
    assert o.mul(word, by) == ref_canon(o, word + by)
    assert o.canon(word) == ref_canon(o, word)
