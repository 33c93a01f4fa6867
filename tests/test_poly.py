"""Polynomial rings, grevlex monomial order, parsing, joined rings."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gorensum.fields import GF, QQ
from gorensum.poly import (
    Poly, Ring, _grevlex_basis, embed, joined_ring, pair_indices, parse_poly,
    product_table,
)


@pytest.fixture
def rxyz():
    return Ring(["x", "y", "z"], QQ)


def test_monomial_basis_counts(rxyz):
    from math import comb

    for d in range(6):
        assert len(rxyz.monomial_basis(d)) == comb(d + 2, 2)


def test_grevlex_order_degree_two(rxyz):
    # standard grevlex on x > y > z
    assert rxyz.monomial_basis(2) == (
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    )


def test_parse_round_trip(rxyz):
    for text in ["x^2*y^3*z^3 + u^4", "x - y", "3*x^2 + 2", "x^3"]:
        if "u" in text:
            continue
        p = parse_poly(rxyz, text)
        assert parse_poly(rxyz, str(p)) == p


def test_parse_coefficients(rxyz):
    p = parse_poly(rxyz, "2*x^2 - 3*y*z + 1/2")
    assert p.terms[(2, 0, 0)] == QQ.of(2)
    assert p.terms[(0, 1, 1)] == QQ.of(-3)
    assert p.terms[(0, 0, 0)] == QQ.of("1/2")


def test_parse_rejects_unknown_variable(rxyz):
    with pytest.raises(ValueError):
        parse_poly(rxyz, "x + w")


def test_parse_rejects_garbage(rxyz):
    for bad in ["", "x^", "++x", "x**y"]:
        with pytest.raises(ValueError):
            parse_poly(rxyz, bad)


def test_mod_p_coefficients():
    r = Ring(["x"], GF(7))
    p = parse_poly(r, "10*x")
    assert p.terms[(1,)] == 3


def poly_strategy(ring, maxdeg=4):
    mono = st.tuples(*[st.integers(0, maxdeg) for _ in range(ring.nvars)])
    return st.dictionaries(mono, st.integers(-10, 10), max_size=5).map(
        lambda d: Poly(ring, {e: ring.field.of(c) for e, c in d.items()})
    )


RING = Ring(["x", "y"], QQ)


@given(poly_strategy(RING), poly_strategy(RING), poly_strategy(RING))
@settings(max_examples=100, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) - q == p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@given(poly_strategy(RING))
@settings(max_examples=50, deadline=None)
def test_coefficient_vector_round_trip(p):
    if not p.is_homogeneous() or p.is_zero():
        return
    d = p.degree()
    assert Poly.from_vector(RING, d, p.coefficient_vector(d)) == p


def test_homogeneous_detection(rxyz):
    assert parse_poly(rxyz, "x^2 + y*z").is_homogeneous()
    assert not parse_poly(rxyz, "x^2 + y").is_homogeneous()
    assert rxyz.zero().is_homogeneous()
    assert rxyz.zero().degree() == -1


def test_joined_ring_blocks():
    r1 = Ring(["x", "y"], QQ)
    r2 = Ring(["u"], QQ)
    big = joined_ring([r1, r2])
    assert big.variables == ("x", "y", "u")
    assert big.block_var_indices() == [(0, 2), (2, 3)]


def test_joined_ring_rejects_name_clash():
    with pytest.raises(ValueError):
        joined_ring([Ring(["x"], QQ), Ring(["x"], QQ)])


def test_embed_multiplies_disjointly():
    r1 = Ring(["x"], QQ)
    r2 = Ring(["u"], QQ)
    big = joined_ring([r1, r2])
    p = embed(parse_poly(r1, "x^2"), big, 0)
    q = embed(parse_poly(r2, "u^3"), big, 1)
    assert p * q == parse_poly(big, "x^2*u^3")


def shift_table(n, d):
    """The reference shift table: entry [k, i] is the index in the
    degree-(d+1) basis of x_k times the i-th degree-d monomial, looked up
    in a dict of exponent vectors."""
    up = {e: j for j, e in enumerate(_grevlex_basis(n, d + 1))}
    basis = _grevlex_basis(n, d)
    return [[up[e[:k] + (e[k] + 1,) + e[k + 1:]] for e in basis] for k in range(n)]


def product_table_by_shifts(n, i, j):
    """The reference product table: each degree-i monomial applied to the
    degree-j basis one variable at a time, through `shift_table`."""
    factors = [[k for k, e in enumerate(m) for _ in range(e)]
               for m in _grevlex_basis(n, i)]
    table = [list(range(len(_grevlex_basis(n, j)))) for _ in factors]
    for t in range(i):
        shift = shift_table(n, j + t)
        table = [[shift[f[t]][c] for c in row] for f, row in zip(factors, table)]
    return table


def test_product_table_matches_successive_shifts():
    for n, i, j in [(0, 0, 0), (1, 0, 0), (1, 5, 3), (2, 3, 4), (3, 4, 4), (3, 0, 5),
                    (3, 5, 0), (4, 3, 2), (5, 2, 3), (7, 2, 2),
                    # multiplication by the variables
                    (0, 1, 0), (1, 1, 0), (1, 1, 6), (3, 1, 0), (3, 1, 5), (8, 1, 4)]:
        table = product_table(n, i, j)
        assert type(table) is tuple and all(type(row) is tuple for row in table)
        assert [list(row) for row in table] == product_table_by_shifts(n, i, j)


def test_product_table_past_the_int64_code_range():
    # 30 variables in base 5 need codes up to 5^30 > 2^63
    n, i, j = 30, 2, 2
    assert (i + j + 1) ** n >= 2**63
    assert [list(row) for row in product_table(n, i, j)] == product_table_by_shifts(n, i, j)


def test_pair_indices_are_shared_and_read_only():
    for n in range(6):
        ks, ls = pair_indices(n)
        pairs = list(itertools.combinations(range(n), 2))
        assert list(ks) == [k for k, _ in pairs] and list(ls) == [l for _, l in pairs]
        assert pair_indices(n)[0] is ks
        for a in (ks, ls):
            with pytest.raises(TypeError):
                a[:1] = (0,)
