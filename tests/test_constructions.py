"""Fiber products and connected sums: presentations, Hilbert functions,
route agreement, iterated folding, and the general-base variant."""

from collections import Counter

import pytest

from gorensum import apolarity, constructions, linalg
from gorensum.apolarity import DualGenerator, annihilator_slices
from gorensum.constructions import (
    Factor,
    RouteDisagreementError,
    connected_sum_K,
    connected_sum_T,
    fiber_product_K,
    hilbert_closed_form,
)
from gorensum.fields import GF, QQ
from gorensum.ideals import Algebra
from gorensum.poly import Poly, Ring, embed, parse_poly

Fp = GF(32003)


def dual_factor(varnames, text, field=Fp):
    ring = Ring(varnames, field)
    return Factor.from_dual(DualGenerator(parse_poly(ring, text)))


def reference_factors(field=Fp):
    return [
        dual_factor(["x", "y", "z"], "x^2*y^3*z^3", field),
        dual_factor(["u", "v"], "u^4*v^4", field),
    ]


def fold(construction, factors):
    """Left fold of the two-factor construction over the factors: each
    partial result is read back as one factor on a flat ring, carrying the
    dual generator F - G of a connected sum."""
    current = factors[0]
    for nxt in factors[1:]:
        res = construction([current, nxt])
        big = res.presentation.ring
        flat = Ring(big.variables, big.field)
        gens = [Poly(flat, g.terms) for g in res.presentation.generators]
        dual = None
        if construction is connected_sum_K:
            glued = embed(current.dual.F, big, 0) - embed(nxt.dual.F, big, 1)
            dual = DualGenerator(Poly(flat, glued.terms))
        current = Factor(algebra=Algebra(flat, gens), dual=dual)
    return res


def same_ideal(slices_a, slices_b, ring, dmax):
    return all(
        linalg.row_space_equal(
            ring.field,
            slices_a.slice(d)[0],
            slices_b.slice(d)[0],
            len(ring.monomial_basis(d)),
        )
        for d in range(dmax + 1)
    )


def test_fiber_product_hilbert_and_generators():
    res = fiber_product_K(reference_factors())
    assert res.hilbert == (1, 5, 9, 13, 15, 13, 9, 5, 2)
    gens = {str(g) for g in res.presentation.generators}
    cross = {f"{a}*{b}" for a in "xyz" for b in "uv"}
    assert cross <= gens
    assert {"x^3", "y^4", "z^4", "u^5", "v^5"} <= gens


def test_connected_sum_hilbert_and_thom_generator():
    res = connected_sum_K(reference_factors())
    assert res.hilbert == (1, 5, 9, 13, 15, 13, 9, 5, 1)
    assert any(
        str(g) == "x^2*y^3*z^3 + u^4*v^4" for g in res.presentation.generators
    )


def test_connected_sum_routes_agree_with_dual_generator():
    # the presentation ideal must equal Ann(F - G) slicewise
    res = connected_sum_K(reference_factors())
    big = res.presentation.ring
    F = parse_poly(big, "x^2*y^3*z^3 - u^4*v^4")
    ann = annihilator_slices(DualGenerator(F))
    assert same_ideal(res.presentation.slices, ann, big, 9)


def test_three_factor_connected_sum_of_cubes():
    facs = [dual_factor([v], f"{v}^3") for v in "xyz"]
    res = connected_sum_K(facs)
    big = res.presentation.ring
    stated_ideal = Algebra(
        big,
        [parse_poly(big, s) for s in ["x*y", "x*z", "y*z", "x^3+y^3", "x^3+z^3"]],
    )
    assert same_ideal(res.presentation.slices, stated_ideal.slices, big, 4)
    assert res.hilbert == (1, 3, 3, 1)


def test_factor_validation():
    with pytest.raises(ValueError, match="at least two"):
        fiber_product_K([reference_factors()[0]])
    ring = Ring(["x", "y"], Fp)
    with_linear = Factor(algebra=Algebra(ring, [parse_poly(ring, "x")]))
    with pytest.raises(ValueError, match="linear"):
        fiber_product_K([with_linear, reference_factors()[1]])


def test_connected_sum_needs_duals_and_equal_degrees():
    a, b = reference_factors()
    with pytest.raises(ValueError, match="dual generator"):
        connected_sum_K([Factor(algebra=a.algebra), b])
    c = dual_factor(["w"], "w^3")
    with pytest.raises(ValueError, match="socle degrees"):
        connected_sum_K([a, c])


def test_iterated_vs_simultaneous_fiber_product():
    facs = [
        dual_factor(["x", "y"], "x^2*y^2"),
        dual_factor(["u"], "u^4"),
        dual_factor(["s", "t"], "s^4 + t^4"),
    ]
    sim = fiber_product_K(facs)
    it = fold(fiber_product_K, facs)
    assert it.hilbert == sim.hilbert
    assert same_ideal(
        it.presentation.slices, sim.presentation.slices, sim.presentation.ring, 6
    )


def test_iterated_vs_simultaneous_connected_sum():
    facs = [
        dual_factor(["x", "y"], "x^2*y^2"),
        dual_factor(["u"], "u^4"),
        dual_factor(["s", "t"], "s^4 + t^4"),
    ]
    sim = connected_sum_K(facs)
    it = fold(connected_sum_K, facs)
    assert it.hilbert == sim.hilbert
    assert same_ideal(
        it.presentation.slices, sim.presentation.slices, sim.presentation.ring, 5
    )


def test_hilbert_closed_form_over_k():
    a = (1, 3, 6, 9, 10, 9, 6, 3, 1)
    b = (1, 2, 3, 4, 5, 4, 3, 2, 1)
    assert hilbert_closed_form("fiber_product", [a, b]) == (
        1, 5, 9, 13, 15, 13, 9, 5, 2,
    )
    assert hilbert_closed_form("connected_sum", [a, b], socle_degree=8) == (
        1, 5, 9, 13, 15, 13, 9, 5, 1,
    )


def test_hilbert_closed_form_rejects_inconsistent():
    # socle degree past the factor Hilbert functions can't be subtracted
    with pytest.raises(ValueError, match="inconsistent"):
        hilbert_closed_form("connected_sum", [(1, 1), (1, 1)], socle_degree=3)
    with pytest.raises(ValueError):
        hilbert_closed_form("bogus", [(1, 1), (1, 1)])
    # HF_T longer than the factors: a typed refusal, not an IndexError
    with pytest.raises(ValueError, match="inconsistent"):
        hilbert_closed_form("fiber_product", [(1,), (1,)], t_hf=(1, 1, 1))


def test_connected_sum_t():
    ring = Ring(["x", "y"], QQ)
    F = DualGenerator(parse_poly(ring, "x^3 + x*y^2"))
    G = DualGenerator(parse_poly(ring, "x^3"))
    fp, cs, T = connected_sum_T(F, G, parse_poly(ring, "x^2"))
    assert fp.hilbert == (1, 2, 3, 2)
    assert cs.hilbert == (1, 2, 2, 1)
    assert T.hilbert_function() == (1, 1)
    assert sorted(str(g) for g in cs.presentation.generators) == ["x^2", "y^3"]


def test_connected_sum_t_builds_each_annihilator_once(monkeypatch):
    ring = Ring(["x", "y"], QQ)
    F = DualGenerator(parse_poly(ring, "x^3 + x*y^2"))
    G = DualGenerator(parse_poly(ring, "x^3"))
    tau = parse_poly(ring, "x^2")
    calls = Counter()
    real = apolarity.annihilator_slices

    def counted(D):
        calls[str(D.F)] += 1
        return real(D)

    monkeypatch.setattr(apolarity, "annihilator_slices", counted)
    monkeypatch.setattr(constructions, "annihilator_slices", counted)
    connected_sum_T(F, G, tau)
    tF = apolarity.contract(tau, F.F)
    assert [calls[str(D)] for D in (F.F, G.F, tF)] == [1, 1, 1]


def test_connected_sum_t_rejects_dependent_factors():
    ring = Ring(["x", "y"], QQ)
    F = DualGenerator(parse_poly(ring, "x^3"))
    G = DualGenerator(parse_poly(ring, "2*x^3"))
    with pytest.raises(ValueError, match="linearly independent"):
        connected_sum_T(F, G, parse_poly(ring, "x"))


def test_connected_sum_t_names_failing_condition():
    ring = Ring(["x", "y"], QQ)
    F = DualGenerator(parse_poly(ring, "x^4 + y^4"))
    G = DualGenerator(parse_poly(ring, "x^4 - y^4"))
    with pytest.raises(ValueError, match=r"condition \(b\)"):
        connected_sum_T(F, G, parse_poly(ring, "x"))


def test_results_match_over_qq_and_gf():
    hq = connected_sum_K(reference_factors(QQ)).hilbert
    hp = connected_sum_K(reference_factors(Fp)).hilbert
    assert hq == hp


@pytest.mark.parametrize("field", [Fp, QQ])
def test_route_check_catches_a_wrong_thom_lift(monkeypatch, field):
    # sigma_1 + 2 sigma_2 presents Ann(F_1 - F_2 / 2), not Ann(F_1 - F_2):
    # both routes have dimension 19 in degree 3 but different spans, and the
    # equality check on the echelon slices must see it
    factors = [
        dual_factor(["x", "y"], "x^2*y + y^3", field),
        dual_factor(["u", "v"], "u^3 + u*v^2", field),
    ]
    real = constructions.dual_socle
    second = factors[1].dual

    def skewed(F):
        return real(F).scale(2) if F is second else real(F)

    monkeypatch.setattr(constructions, "dual_socle", skewed)
    with pytest.raises(RouteDisagreementError, match="degree 3: dims 19 vs 19"):
        connected_sum_K(factors)
