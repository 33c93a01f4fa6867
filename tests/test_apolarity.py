"""Contraction, catalecticants, annihilators, dual socle generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gorensum import apolarity, linalg
from gorensum.apolarity import (
    DualGenerator,
    annihilator,
    annihilator_slices,
    catalecticant,
    check_cs_conditions,
    contract,
    dual_socle,
    hilbert_from_catalecticants,
    socle_and_thom_to_K,
)
from gorensum.cli import random_dual_factor
from gorensum.fields import GF, QQ
from gorensum.ideals import Algebra, IdealSlices, minimal_generators
from gorensum.oracle import socle_basis, tor_betti
from gorensum.poly import Poly, Ring, parse_poly
from test_ideals import MultiplyUpSlices


def test_contraction_is_divided_power_free():
    # x o X^k = X^(k-1), no binomial coefficient, in any characteristic
    for field in (QQ, GF(2), GF(3)):
        r = Ring(["x"], field)
        F = parse_poly(r, "x^4")
        assert contract(parse_poly(r, "x"), F) == parse_poly(r, "x^3")
        assert contract(parse_poly(r, "x^2"), F) == parse_poly(r, "x^2")


def test_contraction_mixed():
    r = Ring(["x", "y"], QQ)
    F = parse_poly(r, "x^2*y^3")
    assert contract(parse_poly(r, "x*y"), F) == parse_poly(r, "x*y^2")
    assert contract(parse_poly(r, "y^4"), F).is_zero()


def test_contraction_module_action():
    r = Ring(["x", "y"], QQ)
    f = parse_poly(r, "x + y")
    g = parse_poly(r, "x*y")
    F = parse_poly(r, "x^3*y^2 + y^5")
    assert contract(f * g, F) == contract(f, contract(g, F))


def test_monomial_dual_generator_gives_monomial_ci():
    r = Ring(["x", "y", "z"], QQ)
    F = DualGenerator(parse_poly(r, "x^2*y^3*z^3"))
    A = annihilator(F)
    assert sorted(str(g) for g in A.generators) == ["x^3", "y^4", "z^4"]
    assert A.hilbert_function() == (1, 3, 6, 9, 10, 9, 6, 3, 1)


def test_catalecticant_budget_bounds_the_largest_catalecticant(monkeypatch):
    monkeypatch.setattr(apolarity, "MAX_CATALECTICANT_CELLS", 9)
    r = Ring(["x", "y"], QQ)
    # the largest catalecticant of x^2*y^2 is N_2 x N_2 = 3 x 3, at the budget
    F = DualGenerator(parse_poly(r, "x^2*y^2"))
    assert annihilator(F).hilbert_function() == (1, 2, 3, 2, 1)
    # and that of x^2*y^3 is N_2 x N_3 = 3 x 4, over it
    G = DualGenerator(parse_poly(r, "x^2*y^3"))
    with pytest.raises(ValueError, match="has 12 cells, over the budget of 9$"):
        annihilator_slices(G)


def test_hilbert_from_catalecticants_symmetric():
    r = Ring(["u", "v"], QQ)
    F = DualGenerator(parse_poly(r, "u^4*v^4"))
    hf = hilbert_from_catalecticants(F)
    assert hf == (1, 2, 3, 4, 5, 4, 3, 2, 1)
    assert hf == hf[::-1]


def test_catalecticant_transposes_to_reflection():
    r = Ring(["x", "y"], QQ)
    F = DualGenerator(parse_poly(r, "x^3*y + x*y^3"))
    for i in range(F.d + 1):
        assert linalg.rank(catalecticant(F, i)) == linalg.rank(
            catalecticant(F, F.d - i)
        )


def random_dual(ring, degree, rng_ints):
    basis = ring.monomial_basis(degree)
    terms = {e: ring.field.of(c) for e, c in zip(basis, rng_ints) if c}
    if not terms:
        terms = {basis[0]: ring.field.one}
    return DualGenerator(Poly(ring, terms))


@given(st.lists(st.integers(-5, 5), min_size=15, max_size=15), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_annihilator_scaling_invariance(coeffs, scalar):
    r = Ring(["x", "y"], QQ)
    F = random_dual(r, 4, coeffs)
    G = DualGenerator(F.F.scale(scalar))
    a, b = annihilator_slices(F), annihilator_slices(G)
    for d in range(F.d + 2):
        ncols = len(r.monomial_basis(d))
        assert linalg.row_space_equal(QQ, a.slice(d)[0], b.slice(d)[0], ncols)


@given(st.lists(st.integers(-5, 5), min_size=15, max_size=15))
@settings(max_examples=40, deadline=None)
def test_annihilator_kills_dual_generator(coeffs):
    r = Ring(["x", "y"], QQ)
    F = random_dual(r, 4, coeffs)
    for g in annihilator(F).generators:
        assert contract(g, F.F).is_zero()


def test_dual_socle_pairs_to_one():
    r = Ring(["x", "y", "z"], QQ)
    for text in ["x^2*y^3*z^3", "x^8 + y^8 + z^8", "x^4*y^4 + z^8"]:
        F = DualGenerator(parse_poly(r, text))
        sigma = dual_socle(F)
        assert contract(sigma, F.F) == r.one()
        assert sigma.degree() == F.d


def test_dual_socle_is_the_canonical_solution_of_the_one_row_system():
    # reference: the echelon-canonical solution of catalecticant(F, d) x = 1
    rng = random.Random(5)
    for field in (GF(2), GF(7), GF(32003), QQ):
        for _ in range(150):
            r = Ring(["x", "y", "z"][: rng.randint(1, 3)], field)
            d = rng.randint(1, 5)
            terms = {}
            while not terms:
                for e in r.monomial_basis(d):
                    if rng.random() < 0.4:
                        c = field.of(f"{rng.randint(-20, 20)}/{rng.choice((1, 3, 5))}")
                        if c:
                            terms[e] = c
            F = DualGenerator(Poly(r, terms))
            x = linalg.solve_particular(catalecticant(F, F.d), [field.one])
            expected = Poly.from_vector(r, F.d, x)
            sigma = dual_socle(F)
            assert sigma == expected
            assert [type(c) for c in sigma.terms.values()] == [
                type(c) for c in expected.terms.values()
            ]


def test_socle_and_thom_requires_gorenstein():
    r = Ring(["x", "y"], QQ)
    F = DualGenerator(parse_poly(r, "x^2*y^2"))
    A = annihilator(F)
    assert socle_and_thom_to_K(A, F) == dual_socle(F)
    # a non-Gorenstein algebra: socle dimension two
    from gorensum.ideals import Algebra

    level = Algebra(r, [parse_poly(r, g) for g in ["x^2", "x*y", "y^2"]])
    with pytest.raises(ValueError, match="not Gorenstein"):
        socle_and_thom_to_K(level, F)


def test_dual_generator_validation():
    r = Ring(["x", "y"], QQ)
    with pytest.raises(ValueError):
        DualGenerator(r.zero())
    with pytest.raises(ValueError):
        DualGenerator(r.one())
    with pytest.raises(ValueError):
        DualGenerator(parse_poly(r, "x^2 + y"))


class TestCsConditions:
    def setup_method(self):
        self.ring = Ring(["x", "y"], QQ)

    def test_valid_pair_over_t(self):
        F = DualGenerator(parse_poly(self.ring, "x^3 + x*y^2"))
        G = DualGenerator(parse_poly(self.ring, "x^3"))
        rep = check_cs_conditions(F, G, parse_poly(self.ring, "x^2"))
        assert rep.holds and rep.condition_a and rep.condition_b
        assert rep.k == 1

    def test_condition_a_failure(self):
        F = DualGenerator(parse_poly(self.ring, "x^3 + y^3"))
        G = DualGenerator(parse_poly(self.ring, "x^3"))
        rep = check_cs_conditions(F, G, parse_poly(self.ring, "y"))
        assert not rep.holds and not rep.condition_a

    def test_condition_b_failure_reports_degree(self):
        F = DualGenerator(parse_poly(self.ring, "x^4 + y^4"))
        G = DualGenerator(parse_poly(self.ring, "x^4 - y^4"))
        rep = check_cs_conditions(F, G, parse_poly(self.ring, "x"))
        assert rep.condition_a and not rep.condition_b
        assert not rep.holds
        assert rep.first_failing_degree is not None

    def test_scalar_tau_disjoint_variables(self):
        big = Ring(["x", "u"], QQ)
        F = DualGenerator(parse_poly(big, "x^3"))
        G = DualGenerator(parse_poly(big, "u^3"))
        rep = check_cs_conditions(F, G, big.one())
        assert rep.holds and rep.t_is_base_field
        assert "trivially compatible" in rep.note

    def test_scalar_tau_shared_variables(self):
        F = DualGenerator(parse_poly(self.ring, "x^3"))
        G = DualGenerator(parse_poly(self.ring, "x^2*y"))
        rep = check_cs_conditions(F, G, self.ring.one())
        assert not rep.holds


# --- the echelon-slice readings against the eliminations they replaced ----


def minimal_generators_by_insertion(slices, dmax):
    """Reference: insert x * slice(d-1), then slice(d), into an incremental
    echelon basis and keep the reduced echelon form of what was new."""
    ring = slices.ring
    f = ring.field
    gens = []
    for d in range(1, dmax + 1):
        ncols = len(ring.monomial_basis(d))
        old = linalg.EchelonBasis(f, ncols)
        prev_rows, _ = slices.slice(d - 1)
        for v in slices._multiply_up(d - 1, prev_rows):
            old.insert(v)
        new_rows = []
        for row in slices.slice(d)[0]:
            rem = old.insert(row)
            if rem is not None:
                new_rows.append(rem)
        if new_rows:
            red, _ = linalg._reduce_rows(f, new_rows, ncols)
            gens.extend(Poly.from_vector(ring, d, v) for v in red)
    return gens


def multiplication_by_reduction(slices, k, d):
    """Reference: reduce x_k * m against slice(d+1), one unit vector per
    quotient monomial m of degree d."""
    ring = slices.ring
    f = ring.field
    basis = ring.monomial_basis(d)
    up_index = ring.monomial_index(d + 1)
    up_q = slices.quotient_monomials(d + 1)
    cols = []
    for m in slices.quotient_monomials(d):
        e = list(basis[m])
        e[k] += 1
        reduced = slices.reduce(d + 1, {up_index[tuple(e)]: f.one})
        cols.append({b: reduced[q] for b, q in enumerate(up_q) if q in reduced})
    return cols


@pytest.mark.parametrize("field", [GF(7), GF(32003), QQ], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_slice_readings_match_reference_eliminations(field, seed):
    rng = random.Random(seed)
    F = random_dual_factor(rng, rng.choice([2, 3]), rng.choice([3, 4]), field).dual
    ring = F.ring
    ann = annihilator_slices(F)
    gens = minimal_generators(ann, F.d + 1)
    assert gens == minimal_generators_by_insertion(ann, F.d + 1)
    # the same ideal from redundant generators: the multiples must drop out
    x = ring.var_poly(ring.variables[0])
    padded = IdealSlices(ring, gens + [x * g for g in gens])
    assert minimal_generators(padded, F.d + 2) == gens
    assert minimal_generators_by_insertion(padded, F.d + 2) == gens
    for d in range(F.d + 1):
        for k in range(ring.nvars):
            assert ann.multiplication(d)[k] == multiplication_by_reduction(ann, k, d)
        # the socle of an AG algebra is one-dimensional, in degree F.d
        assert len(ann.socle(d)) == (d == F.d)


def multiply_up_build(F):
    """Reference: the slices of Ann(F) with the variables times slice(d-1)
    stacked on the catalecticant kernel in every degree, each product formed
    as a polynomial."""
    ring = F.ring
    f = ring.field
    variables = [ring.var_poly(v) for v in ring.variables]
    built = {}
    prev = []
    for d in range(F.d + 2):
        ncols = len(ring.monomial_basis(d))
        if d <= F.d:
            raw = linalg.kernel_rows(f, catalecticant(F, d).rows, ncols)
        else:
            raw = [{c: f.one} for c in range(ncols)]
        up = [
            (x * Poly.from_vector(ring, d - 1, row)).coefficient_vector(d)
            for row in prev
            for x in variables
        ]
        built[d] = up + raw
        prev = linalg._reduce_rows(f, built[d], ncols)[0]
    return MultiplyUpSlices(ring, complete=built)


@pytest.mark.parametrize("field", [GF(7), GF(32003), QQ], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_annihilator_slices_are_complete(field, seed):
    # each catalecticant kernel already holds the multiples of the degree
    # below, so the slices skip the multiply-up without losing anything
    rng = random.Random(100 + seed)
    F = random_dual_factor(rng, rng.choice([2, 3]), rng.choice([3, 4]), field).dual
    ann = annihilator_slices(F)
    for d in range(1, F.d + 2):
        up = ann._multiply_up(d - 1, ann.slice(d - 1)[0])
        assert not any(ann.reduce(d, v) for v in up)
    ref = multiply_up_build(F)
    for d in range(F.d + 2):
        assert linalg.echelon_equal(ann.slice(d), ref.slice(d))
    assert annihilator(F).generators == minimal_generators(ref, F.d + 1)


@pytest.mark.parametrize("field", [GF(7), GF(32003), QQ], ids=str)
def test_annihilator_is_derived_once(monkeypatch, field):
    # Ann(F) keeps its catalecticant slices: reading its Hilbert function,
    # Betti table and socle multiplies nothing up again
    rng = random.Random(200)
    F = random_dual_factor(rng, 3, 4, field).dual
    ref = Algebra(F.ring, annihilator(F).generators)
    expected = (ref.hilbert_function(), tor_betti(ref), socle_basis(ref))
    A = annihilator(F)

    def refuse(self, d, rows):
        raise AssertionError("Ann(F) was multiplied up again")

    monkeypatch.setattr(IdealSlices, "_multiply_up", refuse)
    assert A.hilbert_function() == hilbert_from_catalecticants(F) == expected[0]
    assert tor_betti(A) == expected[1]
    assert socle_basis(A) == expected[2]


def test_annihilator_slices_build_no_identity_block(monkeypatch):
    # past the socle degree the inverse system is 0: neither that slice nor
    # the next reads a monomial basis, let alone an N x N block (5005 x 5005
    # for 7 variables at d = 8)
    ring = Ring(["x", "y", "z"], QQ)
    F = DualGenerator(parse_poly(ring, "x^2*y^3*z^3 + x*y*z^6"))
    real = Ring.monomial_basis

    def refuse(self, d):
        if d > F.d:
            raise AssertionError(f"the degree-{d} basis was read")
        return real(self, d)

    monkeypatch.setattr(Ring, "monomial_basis", refuse)
    ann = annihilator_slices(F)
    assert ann.codim(F.d + 1) == ann.codim(F.d + 2) == 0
    assert Algebra.from_slices(ann).hilbert_function() == hilbert_from_catalecticants(F)


def test_annihilator_readers_run_one_elimination_per_degree(monkeypatch):
    # each degree of Ann(F) is eliminated once, into the form every reader
    # uses; a socle then costs one kernel of the maps already read
    real, calls = linalg._reduce_rows, []

    def counted(field, rows, ncols):
        calls.append(ncols)
        return real(field, rows, ncols)

    monkeypatch.setattr(linalg, "_reduce_rows", counted)
    for field in (GF(32003), QQ):
        ring = Ring(["x", "y", "z"], field)
        F = DualGenerator(parse_poly(ring, "x^2*y^3*z^3 + x*y*z^6"))
        expected = hilbert_from_catalecticants(F)
        calls.clear()
        A = annihilator(F)
        assert A.hilbert_function() == expected
        for d in range(F.d + 1):
            A.slices.multiplication(d)
        assert len(calls) == F.d + 1
        socles = [len(A.slices.socle(d)) for d in range(F.d + 1)]
        assert socles == [0] * F.d + [1]
        assert len(calls) == 2 * (F.d + 1)
