"""Doubling certificates: dimension-one CM detection, canonical module
Hilbert functions, and the connected-sum-of-doublings harness."""

import pytest

from gorensum.apolarity import DualGenerator
from gorensum.constructions import Factor
from gorensum.doubling import (
    canonical_hilbert,
    cm1_check,
    doubling_certificate,
    theorem43_harness,
)
from gorensum.fields import GF, QQ
from gorensum.ideals import Algebra, NotArtinianError
from gorensum.poly import Ring, parse_poly

Fp = GF(32003)


def algebra(varnames, gens, field=Fp):
    ring = Ring(varnames, field)
    return Algebra(ring, [parse_poly(ring, g) for g in gens])


class TestCm1:
    def test_coordinate_axes(self):
        r = cm1_check(algebra(["x", "y", "z"], ["x*y", "x*z", "y*z"]))
        assert r.ok
        assert r.h_vector == (1, 2)
        assert r.hilbert[:2] == (1, 3)

    def test_polynomial_ring_in_one_variable(self):
        r = cm1_check(algebra(["x"], []))
        assert r.ok and r.h_vector == (1,)

    def test_embedded_torsion_fails(self):
        # x is killed by the maximal ideal modulo (x^2, xy)
        r = cm1_check(algebra(["x", "y"], ["x^2", "x*y"]))
        assert not r.ok
        assert "depth 0" in r.reason

    def test_artinian_rejected(self):
        r = cm1_check(algebra(["x"], ["x^3"]))
        assert not r.ok
        assert "dimension" in r.reason

    def test_dimension_two_rejected(self):
        r = cm1_check(algebra(["x", "y"], []))
        assert not r.ok

    @pytest.mark.parametrize("field", [Fp, QQ], ids=str)
    def test_dimension_two_is_proved_without_scanning(self, field):
        # h = 1, 3, 6, 9, 12: 9 = C(4,3) + C(3,2) + C(2,1) allows at most
        # C(5,4) + C(4,3) + C(3,2) = 12 in degree 4, and reaching it past the
        # generator degree pins a Hilbert polynomial of degree 1 (Gotzmann)
        A = algebra(["x", "y", "z"], ["x*y*z"], field)
        r = cm1_check(A)
        assert not r.ok
        assert r.reason.startswith("dimension >= 2")
        B = algebra(["x", "y", "z"], ["x*y*z"], field)
        with pytest.raises(NotArtinianError, match="polynomial has degree 1"):
            B.hilbert_function()
        # slices through degree 4 only, not up to the degree cap
        assert len(A.slices._slices) == len(B.slices._slices) == 5

    def test_scan_stops_at_the_degree_cap(self):
        # h = 1, 2, 2, ...: by degree 2 neither stabilization trigger can fire
        ring = Ring(["x", "y"], Fp)
        J = Algebra(ring, [parse_poly(ring, "x*y")], degree_cap=2)
        r = cm1_check(J)
        assert not r.ok
        assert r.reason == "dimension != 1 within degree cap 2"
        assert len(J.slices._slices) == 3
        assert cm1_check(algebra(["x", "y"], ["x*y"])).ok


def test_canonical_hilbert_expansions():
    hf = canonical_hilbert((1, 2))
    assert [hf(d) for d in range(-2, 4)] == [0, 0, 2, 3, 3, 3]
    hf = canonical_hilbert((1,))
    assert [hf(d) for d in range(0, 3)] == [0, 1, 1]
    hf = canonical_hilbert((1, 1))
    assert [hf(d) for d in range(0, 3)] == [1, 2, 2]
    with pytest.raises(ValueError):
        canonical_hilbert(())


def tripod_doubling(field=Fp):
    big = Ring(["x", "y", "z"], field)
    J = Algebra(big, [parse_poly(big, s) for s in ["x*y", "x*z", "y*z"]])
    I = Algebra(
        big,
        [parse_poly(big, s)
         for s in ["x*y", "x*z", "y*z", "x^3+y^3", "x^3+z^3"]],
    )
    return big, J, I


def test_tripod_certificate():
    big, J, I = tripod_doubling()
    cert = doubling_certificate(J, I)
    assert cert.passed
    assert cert.t == 3
    assert cert.verdict == "pass (t = 3)"
    # HF(I/J) = (0,0,0,2,3,3,...)
    quotient = [
        J.hilbert_values(6)[d]
        - (I.hilbert_function()[d] if d < len(I.hilbert_function()) else 0)
        for d in range(7)
    ]
    assert quotient == [0, 0, 0, 2, 3, 3, 3]


def test_tripod_over_qq():
    big, J, I = tripod_doubling(QQ)
    assert doubling_certificate(J, I).passed


def test_negative_control_not_gorenstein():
    big, J, I = tripod_doubling()
    bad = Algebra(big, J.generators + [parse_poly(big, "x^3")])
    cert = doubling_certificate(J, bad)
    assert not cert.passed
    assert "not Gorenstein" in cert.verdict


def test_containment_failure_is_a_check_not_an_exception():
    big = Ring(["x", "y"], Fp)
    J = Algebra(big, [parse_poly(big, "x*y")])
    I = Algebra(big, [parse_poly(big, "x^2"), parse_poly(big, "y^3")])
    cert = doubling_certificate(J, I)
    assert not cert.checks["containment"]
    assert "containment" in cert.verdict


def test_certificate_notes_scope():
    big, J, I = tripod_doubling()
    cert = doubling_certificate(J, I)
    assert "necessary conditions" in cert.note


def test_harness_tripod():
    rings = [Ring([v], Fp) for v in "xyz"]
    tildes = [Algebra(r, []) for r in rings]
    doubled = [
        Factor.from_dual(DualGenerator(parse_poly(r, f"{v}^3")))
        for r, v in zip(rings, "xyz")
    ]
    cert = theorem43_harness(tildes, doubled)
    assert cert.passed and cert.t == 3


def test_harness_rejects_mismatched_socle_degrees():
    rings = [Ring([v], Fp) for v in "xy"]
    tildes = [Algebra(r, []) for r in rings]
    doubled = [
        Factor.from_dual(DualGenerator(parse_poly(rings[0], "x^3"))),
        Factor.from_dual(DualGenerator(parse_poly(rings[1], "y^4"))),
    ]
    with pytest.raises(ValueError, match="socle degrees"):
        theorem43_harness(tildes, doubled)


def test_harness_identifies_bad_factor():
    rings = [Ring([v], Fp) for v in "xy"]
    tildes = [Algebra(rings[0], []), algebra_bad(rings[1])]
    doubled = [
        Factor.from_dual(DualGenerator(parse_poly(rings[0], "x^3"))),
        Factor.from_dual(DualGenerator(parse_poly(rings[1], "y^3"))),
    ]
    with pytest.raises(ValueError, match="factor 1"):
        theorem43_harness(tildes, doubled)


def algebra_bad(ring):
    # Artinian, so not a valid 1-dimensional factor
    return Algebra(ring, [parse_poly(ring, "y^2")])


def monomial_ci_factor(prefix, degrees, field=Fp):
    """A monomial complete intersection and the 1-dim CM ring it doubles."""
    names = [f"{prefix}{j}" for j in range(len(degrees))]
    ring = Ring(names, field)
    full = [parse_poly(ring, f"{n}^{d}") for n, d in zip(names, degrees)]
    tilde = Algebra(ring, full[:-1])
    dual = ring.one()
    for n, d in zip(names, degrees):
        dual = dual * parse_poly(ring, f"{n}^{d - 1}")
    return tilde, Factor.from_dual(DualGenerator(dual))


def monomial_ci_family(max_r=3, max_n=2, max_d=4):
    """All equal-c tuples of monomial CI factors within the bounds."""
    shapes = [(d,) for d in range(2, max_d + 1)]
    shapes += [
        (d1, d2)
        for d1 in range(2, max_d + 1)
        for d2 in range(d1, max_d + 1)
        if max_n >= 2
    ]
    by_c = {}
    for s in shapes:
        by_c.setdefault(sum(s) - len(s), []).append(s)
    from itertools import combinations_with_replacement

    out = []
    for c, group in sorted(by_c.items()):
        for r in range(2, max_r + 1):
            out.extend(combinations_with_replacement(group, r))
    return out


def test_harness_monomial_ci_family():
    family = monomial_ci_family()
    assert len(family) >= 20
    for inst in family:
        tildes, doubled = [], []
        for k, degrees in enumerate(inst):
            t, f = monomial_ci_factor(f"v{k}_", degrees)
            tildes.append(t)
            doubled.append(f)
        cert = theorem43_harness(tildes, doubled)
        assert cert.passed, (inst, cert.verdict)
