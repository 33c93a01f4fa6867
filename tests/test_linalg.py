"""Exact linear algebra over QQ and GF(p): rref, rank, kernels, spans."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gorensum import linalg
from gorensum.fields import GF, QQ
from gorensum.linalg import EchelonBasis, Matrix

F7 = GF(7)
Fp = GF(32003)


def mat(field, rows):
    ncols = len(rows[0]) if rows else 0
    return Matrix.from_rows(field, [[field.of(x) for x in r] for r in rows], ncols)


def test_rref_identity_fixed_point():
    m = Matrix.identity(QQ, 4)
    red, piv = linalg.rref(m)
    assert piv == [0, 1, 2, 3]
    assert red.rows == m.rows


def test_rref_simple_rational():
    m = mat(QQ, [[2, 4], [1, 2], [0, 1]])
    red, piv = linalg.rref(m)
    assert piv == [0, 1]
    assert red.rows == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_rank_matches_both_engines():
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert linalg.rank(mat(QQ, rows)) == 2
    assert linalg.rank(mat(Fp, rows)) == 2


def test_rank_can_drop_in_small_characteristic():
    # det = 7, invertible over QQ, singular over GF(7)
    rows = [[1, 3], [2, 13]]
    assert linalg.rank(mat(QQ, rows)) == 2
    assert linalg.rank(mat(F7, rows)) == 1


@st.composite
def random_matrix(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    rows = [
        [draw(st.integers(-20, 20)) for _ in range(ncols)] for _ in range(nrows)
    ]
    return rows


@given(random_matrix())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(rows):
    for field in (QQ, Fp):
        m = mat(field, rows)
        ker = linalg.kernel_basis(m)
        assert linalg.rank(m) + ker.ncols == m.ncols


@given(random_matrix())
@settings(max_examples=150, deadline=None)
def test_kernel_vectors_annihilate(rows):
    for field in (QQ, F7):
        m = mat(field, rows)
        ker = linalg.kernel_basis(m)
        for j in range(ker.ncols):
            v = [ker.rows[i][j] for i in range(ker.nrows)]
            assert not any(m.mul_vector(v))


@given(random_matrix())
@settings(max_examples=100, deadline=None)
def test_rref_is_idempotent(rows):
    m = mat(Fp, rows)
    red1, piv1 = linalg.rref(m)
    red2, piv2 = linalg.rref(red1)
    assert piv1 == piv2
    assert red1.rows == red2.rows


@given(random_matrix(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_row_space_invariant_under_shuffle(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    for field in (QQ, Fp):
        a = [[field.of(x) for x in r] for r in rows]
        b = [[field.of(x) for x in r] for r in shuffled]
        assert linalg.row_space_equal(field, a, b, len(rows[0]))


def test_row_space_equal_detects_difference():
    a = [[F7.of(1), F7.of(0)], [F7.of(0), F7.of(1)]]
    b = [[F7.of(1), F7.of(1)]]
    assert not linalg.row_space_equal(F7, a, b, 2)
    assert not linalg.row_space_equal(F7, b, a, 2)


def test_row_space_intersection():
    # <e1, e2> cap <e2, e3> = <e2>
    f = QQ
    a = [[f.of(1), f.of(0), f.of(0)], [f.of(0), f.of(1), f.of(0)]]
    b = [[f.of(0), f.of(1), f.of(0)], [f.of(0), f.of(0), f.of(1)]]
    inter = linalg.row_space_intersection(f, a, b, 3)
    assert inter == [[f.of(0), f.of(1), f.of(0)]]


@given(random_matrix())
@settings(max_examples=60, deadline=None)
def test_intersection_contained_in_both(rows):
    f = Fp
    half = max(1, len(rows) // 2)
    a = [[f.of(x) for x in r] for r in rows[:half]]
    b = [[f.of(x) for x in r] for r in rows[half:]] or a
    inter = linalg.row_space_intersection(f, a, b, len(rows[0]))
    for side in (a, b):
        red, piv = linalg._reduce_rows(f, side, len(rows[0]))
        for v in inter:
            assert not any(linalg.reduce_vector(f, red, piv, v))


def test_echelon_basis_incremental():
    eb = EchelonBasis(QQ, 3)
    assert eb.insert([QQ.of(1), QQ.of(2), QQ.of(3)]) is not None
    assert eb.insert([QQ.of(2), QQ.of(4), QQ.of(6)]) is None
    assert eb.insert([QQ.of(0), QQ.of(1), QQ.of(0)]) is not None
    assert eb.dim == 2
    assert eb.contains([QQ.of(1), QQ.of(3), QQ.of(3)])
    assert not eb.contains([QQ.of(0), QQ.of(0), QQ.of(1)])


def test_solve_particular():
    m = mat(QQ, [[1, 2], [3, 4]])
    x = linalg.solve_particular(m, [QQ.of(5), QQ.of(11)])
    assert m.mul_vector(x) == [QQ.of(5), QQ.of(11)]


def test_solve_particular_inconsistent():
    m = mat(QQ, [[1, 1], [2, 2]])
    assert linalg.solve_particular(m, [QQ.of(0), QQ.of(1)]) is None


def test_solve_underdetermined_takes_canonical_solution():
    m = mat(QQ, [[1, 1, 1]])
    x = linalg.solve_particular(m, [QQ.of(3)])
    # free variables pinned to zero
    assert x == [QQ.of(3), QQ.of(0), QQ.of(0)]


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(15)


def rank_mod_p(rows, p):
    """Plain Python-int Gaussian elimination: the reference rank over GF(p)."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_six_product(p, seed):
    """A 12x12 matrix over GF(p) built as a (12x6)(6x12) product."""
    rng = random.Random(seed)
    left = [[rng.randrange(p) for _ in range(6)] for _ in range(12)]
    right = [[rng.randrange(p) for _ in range(12)] for _ in range(6)]
    return [
        [sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
        for row in left
    ]


def test_prime_engine_refuses_shapes_that_could_overflow():
    # 12 lazy elimination steps over GF(2^31 - 1) can pass 2^63
    p = 2147483647
    F = GF(p)
    for seed in range(5):
        rows = rank_six_product(p, seed)
        with pytest.raises(ValueError, match="overflow"):
            linalg.rank(Matrix.from_rows(F, rows, 12))
    # a single row never overflows, so small shapes still work
    assert linalg.rank(mat(F, [[p - 1, 2, 3]])) == 1


def test_gf_refuses_primes_too_large_for_int64():
    with pytest.raises(ValueError, match="too large"):
        GF(2**61 - 1)


def test_prime_engine_rank_matches_reference():
    for seed in range(5):
        rows = rank_six_product(32003, seed)
        assert linalg.rank(Matrix.from_rows(Fp, rows, 12)) == 6
        assert rank_mod_p(rows, 32003) == 6
