"""Ideal slices, Hilbert functions, minimal generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gorensum import linalg
from gorensum.fields import GF, QQ
from gorensum.ideals import (
    Algebra,
    IdealSlices,
    NotArtinianError,
    canonical,
    ideal_slices,
    minimal_generators,
)
from gorensum.poly import Poly, Ring, parse_poly


def algebra(varnames, gens, field=QQ):
    ring = Ring(varnames, field)
    return Algebra(ring, [parse_poly(ring, g) for g in gens])


def test_monomial_complete_intersection_hilbert():
    A = algebra(["x", "y"], ["x^3", "y^3"])
    # (1-s^3)^2 / (1-s)^2 = (1+s+s^2)^2
    assert A.hilbert_function() == (1, 2, 3, 2, 1)
    assert A.socle_degree == 4
    assert A.dimension_k() == 9


def test_example_factors_hilbert():
    A = algebra(["x", "y", "z"], ["x^3", "y^4", "z^4"])
    B = algebra(["u", "v"], ["u^5", "v^5"])
    assert A.hilbert_function() == (1, 3, 6, 9, 10, 9, 6, 3, 1)
    assert B.hilbert_function() == (1, 2, 3, 4, 5, 4, 3, 2, 1)


def test_non_artinian_raises():
    A = algebra(["x", "y"], ["x*y"])
    with pytest.raises(NotArtinianError):
        A.hilbert_function()
    assert A.hilbert_values(4) == [1, 2, 2, 2, 2]


def test_hilbert_independent_of_field():
    for gens in (["x^2", "x*y", "y^3"], ["x^2 + y^2", "x*y"]):
        hq = algebra(["x", "y"], gens).hilbert_function()
        hp = algebra(["x", "y"], gens, GF(32003)).hilbert_function()
        assert hq == hp


def test_membership():
    A = algebra(["x", "y"], ["x^2 - y^2", "x*y"])
    s = A.slices
    assert s.contains(parse_poly(A.ring, "x^3"))
    assert s.contains(parse_poly(A.ring, "y^3"))
    assert not s.contains(parse_poly(A.ring, "x^2"))


def test_inhomogeneous_generator_rejected():
    ring = Ring(["x", "y"], QQ)
    with pytest.raises(ValueError, match="generator 1"):
        Algebra(ring, [parse_poly(ring, "x^2"), parse_poly(ring, "x + y^2")])


def test_minimal_generators_drop_redundant():
    # x^4 lies in (x^2), so it is not minimal
    ring = Ring(["x", "y"], QQ)
    gens = [parse_poly(ring, g) for g in ["x^2", "x^4", "y^3"]]
    slices = ideal_slices(ring, gens, 5)
    mingens = minimal_generators(slices, 5)
    assert sorted(str(g) for g in mingens) == ["x^2", "y^3"]


def test_minimal_generator_count_is_beta1():
    # the cross ideal of blocks (1,1,1) needs exactly three generators
    A = algebra(["x", "y", "z"], ["x*y", "x*z", "y*z", "x*y*z"])
    mingens = minimal_generators(A.slices, 4)
    assert len(mingens) == 3
    assert all(g.degree() == 2 for g in mingens)


def test_degree_cap_is_configurable():
    ring = Ring(["x"], QQ)
    A = Algebra(ring, [parse_poly(ring, "x^9")], degree_cap=4)
    with pytest.raises(NotArtinianError):
        A.hilbert_function()
    B = Algebra(ring, [parse_poly(ring, "x^9")])
    assert B.hilbert_function() == (1,) * 9


# --- the inverse-system engine against a plain multiply-up engine ----------


class MultiplyUpSlices:
    """Reference engine: slice d is the canonical echelon form of I_d, from
    the variables times slice(d-1) stacked on the degree-d generators (or
    from rows given as all of I_d), each product formed as a polynomial;
    the readers reduce against that echelon form."""

    def __init__(self, ring, generators=(), complete=None):
        self.ring = ring
        self.gens = [g for g in generators if not g.is_zero()]
        self.complete = dict(complete or {})
        self.generator_degree_bound = max(
            [g.degree() for g in self.gens] + list(self.complete), default=0
        )
        self._slices = []

    def _multiply_up(self, d, rows):
        ring = self.ring
        variables = [ring.var_poly(v) for v in ring.variables]
        return [
            (x * Poly.from_vector(ring, d, row)).coefficient_vector(d + 1)
            for row in rows
            for x in variables
        ]

    def slice(self, d):
        f = self.ring.field
        while len(self._slices) <= d:
            e = len(self._slices)
            ncols = len(self.ring.monomial_basis(e))
            if e in self.complete:
                rows = list(self.complete[e])
            else:
                rows = [g.coefficient_vector(e) for g in self.gens if g.degree() == e]
                if e:
                    rows += self._multiply_up(e - 1, self._slices[-1][0])
            self._slices.append(linalg._reduce_rows(f, rows, ncols))
        return self._slices[d]

    def codim(self, d):
        return len(self.ring.monomial_basis(d)) - len(self.slice(d)[0])

    def quotient_monomials(self, d):
        piv = set(self.slice(d)[1])
        return [i for i in range(len(self.ring.monomial_basis(d))) if i not in piv]

    def reduce(self, d, vec):
        red, piv = self.slice(d)
        return linalg.reduce_vector(self.ring.field, red, piv, vec)

    def multiplication(self, k, d):
        ring = self.ring
        up_index = ring.monomial_index(d + 1)
        up_q = self.quotient_monomials(d + 1)
        out = []
        for m in self.quotient_monomials(d):
            e = list(ring.monomial_basis(d)[m])
            e[k] += 1
            reduced = self.reduce(d + 1, {up_index[tuple(e)]: ring.field.one})
            out.append({b: reduced[c] for b, c in enumerate(up_q) if c in reduced})
        return out

    def socle(self, d):
        f = self.ring.field
        h, h1 = self.codim(d), self.codim(d + 1)
        cols = [self.multiplication(k, d) for k in range(self.ring.nvars)]
        rows = [row for m in cols for row in linalg.transpose(m, h1)]
        return linalg.kernel_rows(f, rows, h)


def random_form(rng, ring, d, terms=3):
    f = ring.field
    basis = ring.monomial_basis(d)
    coeff = (lambda: rng.randrange(1, f.p)) if f.is_prime_field else (
        lambda: rng.choice([-3, -2, -1, 1, 2, 5]))
    return Poly(ring, {rng.choice(basis): f.of(coeff()) for _ in range(terms)})


def random_generators(rng, field, kind):
    """Homogeneous generators: Artinian (every variable to a power), a
    1-dimensional complete intersection, or with a linear form; always with
    redundant multiples and combinations appended."""
    n = rng.choice([2, 3]) if kind != "artinian" else rng.choice([2, 3, 4])
    ring = Ring([f"x{k}" for k in range(n)], field)
    if kind == "one_dimensional":
        gens = [random_form(rng, ring, rng.choice([1, 2, 3]), terms=4) for _ in range(n - 1)]
    else:
        gens = [ring.var_poly(x) ** rng.choice([2, 3]) for x in ring.variables]
        gens.append(random_form(rng, ring, rng.choice([2, 3])))
    if kind == "linear":
        gens.append(random_form(rng, ring, 1, terms=2))
    g = rng.choice(gens)
    gens.append(ring.var_poly(rng.choice(ring.variables)) * g)
    same = [h for h in gens if h.degree() == g.degree()]
    gens.append(same[0] + same[-1].scale(2))
    rng.shuffle(gens)
    return ring, gens


FIELDS = [GF(2), GF(7), GF(32003), QQ]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("kind", ["artinian", "one_dimensional", "linear"])
@pytest.mark.parametrize("seed", range(3))
def test_inverse_system_engine_matches_multiply_up(field, kind, seed):
    rng = random.Random(f"{field}-{kind}-{seed}")
    ring, gens = random_generators(rng, field, kind)
    ideal, ref = IdealSlices(ring, gens), MultiplyUpSlices(ring, gens)
    top = 6
    for d in range(top + 1):
        ncols = len(ring.monomial_basis(d))
        phi = ideal.dual(d)[0]
        rows, piv = ref.slice(d)
        assert not any(linalg.matmul(field, phi, linalg.transpose(rows, ncols)))
        assert len(phi) + len(rows) == ncols == ideal.codim(d) + ideal.dim(d)
        assert linalg.echelon_equal(ideal.slice(d), (rows, piv))
        assert ideal.quotient_monomials(d) == ref.quotient_monomials(d)
        for _ in range(3):
            vec = random_form(rng, ring, d).coefficient_vector(d)
            assert ideal.reduce(d, vec) == ref.reduce(d, vec)
        assert ideal.socle(d) == ref.socle(d)
        if d < top:
            for k in range(ring.nvars):
                assert ideal.multiplication(d)[k] == ref.multiplication(k, d)
    assert minimal_generators(ideal, top) == minimal_generators(ref, top)
    scan = Algebra(ring, gens, degree_cap=8).hilbert_scan()
    assert scan == Algebra.from_slices(MultiplyUpSlices(ring, gens), degree_cap=8).hilbert_scan()


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(FIELDS), seed=st.integers(0, 10**6),
       rank=st.integers(0, 5), ncols=st.integers(1, 8))
def test_canonical_form_depends_only_on_the_span(field, seed, rank, ncols):
    rng = random.Random(seed)
    draw = (lambda: rng.randrange(field.p)) if field.is_prime_field else (
        lambda: field.of(rng.randint(-3, 3)))
    rows = [{c: x for c in range(ncols) if (x := draw())} for _ in range(rank)]
    e, q = canonical(field, rows, ncols)
    assert len(q) == len(e) == linalg.rank(linalg.Matrix(field, rank, ncols, rows))
    assert q == sorted(q) and [{c: row[c] for c in q if c in row} for row in e] == [
        {c: 1} for c in q]
    assert all(max(row) == c for row, c in zip(e, q))
    # another spanning set of the same space: combinations of the rows
    # appended, then every row shuffled
    mix = [{c: x for c in range(rank) if (x := draw())} for _ in range(rng.randrange(3))]
    other = rows + linalg.matmul(field, mix, rows)
    other = rng.sample(other, len(other))
    assert linalg.echelon_equal(canonical(field, other, ncols), (e, q))
    # and E spans no more than the rows do
    stacked = rows + e
    assert linalg.rank(linalg.Matrix(field, len(stacked), ncols, stacked)) == len(q)
