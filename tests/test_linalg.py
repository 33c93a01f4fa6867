"""Exact linear algebra over QQ and GF(p): rref, rank, kernels, spans."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gorensum import linalg
from gorensum.fields import GF, QQ
from gorensum.ideals import IdealSlices
from gorensum.linalg import EchelonBasis, Matrix
from gorensum.poly import Poly, Ring

F7 = GF(7)
Fp = GF(32003)


def mat(field, rows):
    ncols = len(rows[0]) if rows else 0
    entries = [[field.of(x) for x in r] for r in rows]
    return Matrix(field, len(rows), ncols, linalg.to_array(field, entries, ncols))


def mul_vector(field, m, v):
    """Reference product of a Matrix with a vector, in field arithmetic."""
    out = []
    for row in m.rows.tolist():
        acc = field.zero
        for a, b in zip(row, v):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


def test_rref_identity_fixed_point():
    m = Matrix(QQ, 4, 4, linalg.identity(QQ, 4))
    red, piv = linalg.rref(m)
    assert piv == [0, 1, 2, 3]
    assert red.rows.tolist() == m.rows.tolist()


def test_rref_simple_rational():
    m = mat(QQ, [[2, 4], [1, 2], [0, 1]])
    red, piv = linalg.rref(m)
    assert piv == [0, 1]
    assert red.rows.tolist() == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


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
            assert not any(mul_vector(field, m, v))


@given(random_matrix())
@settings(max_examples=100, deadline=None)
def test_rref_is_idempotent(rows):
    m = mat(Fp, rows)
    red1, piv1 = linalg.rref(m)
    red2, piv2 = linalg.rref(red1)
    assert piv1 == piv2
    assert red1.rows.tolist() == red2.rows.tolist()


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
    assert inter.tolist() == [[f.of(0), f.of(1), f.of(0)]]


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
    assert mul_vector(QQ, m, x) == [QQ.of(5), QQ.of(11)]


def test_solve_particular_inconsistent():
    m = mat(QQ, [[1, 1], [2, 2]])
    assert linalg.solve_particular(m, [QQ.of(0), QQ.of(1)]) is None


def test_solve_underdetermined_takes_canonical_solution():
    m = mat(QQ, [[1, 1, 1]])
    x = linalg.solve_particular(m, [QQ.of(3)])
    # free variables pinned to zero
    assert x.tolist() == [QQ.of(3), QQ.of(0), QQ.of(0)]


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


# the largest prime GF accepts: (p-1)^2 + p < 2^63, and the next prime fails it
LARGEST_PRIME = 3037000493


def test_prime_engine_is_exact_for_every_accepted_prime():
    # entries are reduced after every step, so over GF(2^31 - 1) a 12x12
    # elimination is as exact as a single row
    p = 2147483647
    F = GF(p)
    for seed in range(5):
        rows = rank_six_product(p, seed)
        assert linalg.rank(mat(F, rows)) == rank_mod_p(rows, p) == 6
    assert linalg.rank(mat(F, [[p - 1, 2, 3]])) == 1
    top = GF(LARGEST_PRIME)
    for seed in range(3):
        rows = rank_six_product(LARGEST_PRIME, seed)
        red, piv = linalg._reduce_rows(top, rows, 12)
        ref_rows, ref_piv = rref_reference(top, rows, 12)
        assert piv == ref_piv and len(piv) == 6
        assert red.tolist() == ref_rows


def test_matmul_is_exact_for_every_accepted_prime():
    rng = random.Random(3)
    for p in (7, 2147483647, LARGEST_PRIME):
        F = GF(p)
        for inner in (1, 2, 3, 40):
            a = [[rng.randrange(p) for _ in range(inner)] for _ in range(4)]
            b = [[rng.randrange(p) for _ in range(5)] for _ in range(inner)]
            got = linalg.matmul(F, linalg.to_array(F, a, inner), linalg.to_array(F, b, 5))
            assert got.dtype == np.int64
            assert got.tolist() == [[sum(x * y for x, y in zip(r, col)) % p
                                     for col in zip(*b)] for r in a]


def test_gf_refuses_primes_too_large_for_int64():
    with pytest.raises(ValueError, match="too large"):
        GF(2**61 - 1)
    with pytest.raises(ValueError, match="too large"):
        GF(3037000507)


def test_prime_engine_rank_matches_reference():
    for seed in range(5):
        rows = rank_six_product(32003, seed)
        assert linalg.rank(mat(Fp, rows)) == 6
        assert rank_mod_p(rows, 32003) == 6


# --- the array engine against plain Python-int and Fraction references ----


def rref_reference(field, rows, ncols):
    """Plain Python Gauss-Jordan elimination in field arithmetic: the
    reference (reduced rows, pivots), pivots scanned left to right."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


@st.composite
def shaped_matrix(draw):
    """Matrices with 0..6 rows and 0..6 columns, all-zero ones included."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    all_zero = draw(st.integers(0, 3)) == 0
    entries = st.just(0) if all_zero else st.integers(-20, 20)
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)], ncols


@given(shaped_matrix())
@settings(max_examples=150, deadline=None)
def test_array_engine_matches_reference_rref(shaped):
    rows, ncols = shaped
    for field in (F7, Fp, QQ):
        entries = [[field.of(x) for x in r] for r in rows]
        red, piv = linalg._reduce_rows(field, linalg.to_array(field, entries, ncols), ncols)
        ref_rows, ref_piv = rref_reference(field, entries, ncols)
        assert red.shape == (len(ref_piv), ncols)
        assert piv == ref_piv
        assert red.tolist() == ref_rows
        _, rank_piv = linalg._reduce_rows(field, entries, ncols, rank_only=True)
        assert rank_piv == ref_piv


def koszul_like_matrix(rng, p, nrows, ncols, density):
    """Sparse entries in 0..p-1, with all-zero rows and columns and repeated
    rows."""
    rows = [
        [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for c in rng.sample(range(ncols), ncols // 5):
        for r in rows:
            r[c] = 0
    for i in rng.sample(range(nrows), nrows // 5):
        rows[i] = [0] * ncols
    for i in rng.sample(range(nrows), nrows // 4):
        rows[i] = list(rows[rng.randrange(nrows)])
    return rows


def test_prime_engine_matches_reference_at_koszul_shapes():
    rng = random.Random(17)
    shapes = [(40, 60, 0.03), (40, 60, 0.3), (60, 40, 0.1), (12, 60, 0.1),
              (60, 12, 0.3), (30, 30, 0.1), (1, 60, 0.3), (60, 1, 0.3)] * 2
    for p in (2, 7, 32003, 2147483647):
        F = GF(p)
        for nrows, ncols, density in shapes:
            rows = koszul_like_matrix(rng, p, nrows, ncols, density)
            # other representatives, zeros included, are reduced on the way in
            given_rows = [[x + p * rng.choice((-1, 0, 0, 2)) for x in r] for r in rows]
            red, piv = linalg._reduce_rows(F, given_rows, ncols)
            ref_rows, ref_piv = rref_reference(F, rows, ncols)
            assert piv == ref_piv
            assert red.tolist() == ref_rows
            echelon, rank_piv = linalg._reduce_rows(F, given_rows, ncols, rank_only=True)
            assert rank_piv == ref_piv
            for out in (red, echelon):
                assert out.shape == (len(ref_piv), ncols)
                assert out.dtype == np.int64 and out.flags.c_contiguous
                assert ((out >= 0) & (out < p)).all()


def reference_slice(ring, gens, d):
    """Reference echelon form of I_d: every monomial multiple of every
    generator, eliminated in Python ints."""
    from gorensum.poly import Poly

    f = ring.field
    ncols = len(ring.monomial_basis(d))
    rows = []
    for g in gens:
        if g.degree() <= d:
            for e in ring.monomial_basis(d - g.degree()):
                rows.append((Poly(ring, {e: f.one}) * g).coefficient_vector(d))
    return rref_reference(f, rows, ncols)


def test_slice_reduction_over_a_large_prime_is_exact():
    # over GF(2^31 - 1) an int64 sum of three products can overflow, so
    # larger slices are multiplied in Python integers, exactly
    p = 2147483647
    F = GF(p)
    ring = Ring(["x", "y"], F)
    rng = random.Random(5)
    gens = [
        Poly(ring, {e: rng.randrange(1, p) for e in ring.monomial_basis(2)}),
    ]
    slices = IdealSlices(ring, gens)
    lengths = set()
    for d in range(5):
        ncols = len(ring.monomial_basis(d))
        ref_rows, ref_piv = reference_slice(ring, gens, d)
        for _ in range(4):
            vec = [rng.randrange(p) for _ in range(ncols)]
            if rng.random() < 0.5 and ref_rows:
                # a member of I_d: a combination of the reference rows
                coef = [rng.randrange(p) for _ in ref_rows]
                vec = [sum(c * r[j] for c, r in zip(coef, ref_rows)) % p
                       for j in range(ncols)]
            expected = vec
            for row, c in zip(ref_rows, ref_piv):
                expected = [(a - expected[c] * b) % p for a, b in zip(expected, row)]
            got = slices.reduce(d, vec).tolist()
            assert got == expected
            assert slices.contains(Poly.from_vector(ring, d, vec)) == (not any(expected))
            lengths.add(ncols)
    # both the int64 products and the Python-integer ones were exercised
    assert min(lengths) * (p - 1) ** 2 < 2**63 <= max(lengths) * (p - 1) ** 2
