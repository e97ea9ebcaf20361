import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipgroupoid.seeds import (
    Seed,
    canonical_form,
    mutate_matrix,
    mutate_seed,
)
from flipgroupoid.surface import annulus, genus_one, polygon_fan

from oracles import ref_canonical_form, ref_mutate_matrix, ref_mutate_seed

A2 = [[0, 1], [-1, 0]]
A3 = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
KRONECKER = [[0, 2], [-2, 0]]


def test_mutate_matrix_examples():
    assert mutate_matrix(A2, 1) == ((0, -1), (1, 0))
    # A3 path 1->2->3 mutated at 2: arrows 2->1, 3->2, 1->3
    out = mutate_matrix(A3, 2)
    assert out[1][0] == 1 and out[2][1] == 1 and out[0][2] == 1
    assert mutate_matrix(KRONECKER, 1) == ((0, -2), (2, 0))


def test_mutate_matrix_range():
    with pytest.raises(ValueError):
        mutate_matrix(A2, 0)
    with pytest.raises(ValueError):
        mutate_matrix(A2, 3)


def test_array_and_list_inputs_give_int_tuples():
    s = Seed(np.array(A2), [[1, 0], [0, 1]])
    assert s == Seed.initial(A2) and hash(s) == hash(Seed.initial(np.array(A2)))
    assert s.B == ((0, 1), (-1, 0)) and all(type(x) is int for row in s.B for x in row)
    assert mutate_matrix(np.array(A3), 2) == mutate_matrix(A3, 2)
    with pytest.raises(TypeError):
        Seed([[0, 1.0], [-1, 0]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        mutate_matrix([[0, 1], [-1]], 1)


def test_matrices_that_are_not_skew_symmetric_are_rejected():
    from flipgroupoid.surface import QuiverWithPotential

    with pytest.raises(ValueError, match="skew-symmetric"):
        Seed.initial([[0, 1], [1, 0]]).validate()
    with pytest.raises(ValueError, match="skew-symmetric"):
        QuiverWithPotential(2, [[0, 1], [0, 0]], ((1, 2),), ())
    with pytest.raises(ValueError, match=r"\|B\| <= 2"):
        QuiverWithPotential(2, [[0, 3], [-3, 0]], ((1, 2),) * 3, ())
    Seed.initial(A3).validate()


def test_mutate_seed_example():
    s = mutate_seed(Seed.initial(A2), 1)
    assert s.C == ((-1, 0), (0, 1))


def test_involution_random():
    rng = random.Random(2)
    corpus = [np.array(B) for B in (A2, A3, KRONECKER)]
    corpus.append(genus_one(1).quiver().B)
    for _ in range(1000):
        s = Seed.initial(rng.choice(corpus))
        for _ in range(rng.randrange(0, 8)):
            s = mutate_seed(s, rng.randrange(1, s.n + 1))
        k = rng.randrange(1, s.n + 1)
        assert mutate_seed(mutate_seed(s, k), k) == s


def test_random_walks_preserve_invariants():
    rng = random.Random(9)
    corpus = [np.array(A3), np.array(KRONECKER), polygon_fan(8).quiver().B, annulus(2, 2).quiver().B]
    for _ in range(10_000):  # validate at the end of each walk
        s = Seed.initial(rng.choice(corpus))
        for _ in range(rng.randrange(1, 51)):
            s = mutate_seed(s, rng.randrange(1, s.n + 1))
        s.validate()


def test_a2_pentagon_period():
    # labeled seeds have period 10; a cluster is its sorted C, which
    # identifies antipodes -> 5
    s = Seed.initial(A2)
    keys, cur = [], s
    for k in [1, 2] * 5:
        keys.append(canonical_form(cur)[1])
        cur = mutate_seed(cur, k)
    assert cur == s
    assert len(set(keys)) == 5
    assert canonical_form(mutate_seed(s, 1))[1] != canonical_form(s)[1]
    assert canonical_form(mutate_seed(s, 2))[1] != canonical_form(s)[1]


def test_canonical_form_base_identity():
    B2, C2, perm = canonical_form(Seed.initial(A3))
    assert perm == (1, 2, 3)
    assert C2 == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


WALK_QUIVERS = [
    polygon_fan(6).quiver().B,
    polygon_fan(7).quiver().B,
    polygon_fan(8).quiver().B,
    annulus(2, 2).quiver().B,
    genus_one(2).quiver().B,
]


def int_tuples(M) -> bool:
    return type(M) is tuple and all(
        type(row) is tuple and all(type(x) is int for x in row) for row in M
    )


def as_tuples(array) -> tuple:
    return tuple(map(tuple, array.tolist()))


@given(st.sampled_from(WALK_QUIVERS), st.lists(st.integers(0, 10**6), max_size=30))
def test_canonical_form_matches_numpy_reference(B, walk):
    s = Seed.initial(B)
    for step in [None, *walk]:
        if step is not None:
            k = 1 + step % s.n
            rB, rC = ref_mutate_seed(s, k)
            assert mutate_matrix(s.B, k) == as_tuples(ref_mutate_matrix(s.B, k)) == as_tuples(rB)
            s = mutate_seed(s, k)
            assert int_tuples(s.B) and int_tuples(s.C)
            assert s.B == as_tuples(rB) and s.C == as_tuples(rC)
        B2, C2, perm = canonical_form(s)
        rB2, rC2, rperm = ref_canonical_form(s)
        assert int_tuples(B2) and int_tuples(C2)
        assert B2 == as_tuples(rB2) and C2 == as_tuples(rC2)
        assert perm == rperm


def test_sign_incoherent_seed_message():
    s = Seed([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], [[1, 0, 0], [0, 1, -1], [0, 0, 1]])
    want = (
        "sign-incoherent c-vector in row 2: [0, 1, -1] "
        "(implementation bug: seeds reached from (B, I) are sign-coherent)"
    )
    # row 2 is the mutated row
    for check in (lambda: mutate_seed(s, 2), s.validate):
        with pytest.raises(RuntimeError) as info:
            check()
        assert str(info.value) == want


@pytest.mark.parametrize("row, shown", [
    ([1, 0, -1], "[1, 0, -1]"),   # written as [1, 1, -1], still incoherent
    ([1, -1, 0], "[1, -1, 0]"),   # written as [1, 0, 0], coherent
    ([-1, 0, 0], "[-1, 1, 0]"),   # coherent, written as [-1, 1, 0]
])
def test_sign_incoherent_rewritten_row_raises(row, shown):
    # mutation at 2 rewrites row 1: b_12 = 1 > 0 and c_2 = [0, 1, 0] >= 0
    s = Seed(A3, [row, [0, 1, 0], [0, 0, 1]])
    with pytest.raises(RuntimeError) as info:
        mutate_seed(s, 2)
    assert f"row 1: {shown} " in str(info.value)


def test_untouched_incoherent_row_is_left_to_validate():
    # mutation at 1 reads row 1 and rewrites no other row (b_21 < 0, b_31 = 0)
    s = Seed(A3, [[1, 0, 0], [0, 1, -1], [0, 0, 1]])
    assert mutate_seed(s, 1).C == ((-1, 0, 0), (0, 1, -1), (0, 0, 1))
    with pytest.raises(RuntimeError, match="row 2"):
        s.validate()
