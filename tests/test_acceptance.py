"""End-to-end acceptance checks for the reference examples, the
formula-vs-oracle differential suite, structural invariants, doubling
certificates, and the closed-form unit identities.

Each test prints a single PASS/FAIL line with its wall-clock time; every
numeric comparison is exact integer equality.  Finite coefficients
(GF(32003)) are used throughout for speed; characteristic independence is
covered separately in the module test files.
"""

import time
from itertools import combinations

import pytest

from gorensum.apolarity import DualGenerator, annihilator_slices
from gorensum.betti import (
    BettiTable,
    betti_connected_sum_K,
    betti_cross_ideal_multi,
    betti_fiber_product_K,
    betti_socle2,
    cross_ideal_multi_table,
    inflate_betti,
)
from gorensum.cli import differential_suite
from gorensum.constructions import Factor, connected_sum_K, fiber_product_K
from gorensum.doubling import doubling_certificate, theorem43_harness
from gorensum.fields import GF
from gorensum.ideals import Algebra
from gorensum.linalg import row_space_equal
from gorensum.oracle import tor_betti
from gorensum.poly import Ring, parse_poly
from test_constructions import fold
from test_doubling import tripod_doubling, monomial_ci_factor, monomial_ci_family

Fp = GF(32003)


class timed:
    """Context manager asserting a wall-clock budget and printing a verdict."""

    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(
            f"\nACCEPTANCE {self.label}: {verdict}"
            f" ({elapsed:.2f}s, budget {self.budget:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.label}: {elapsed:.2f}s over budget {self.budget}s"
            )
        return False


def ci_table(degrees):
    t = BettiTable()
    for i in range(len(degrees) + 1):
        for sub in combinations(degrees, i):
            t.add(i, sum(sub), 1)
    return t


def reference_factors():
    r1 = Ring(["x", "y", "z"], Fp)
    r2 = Ring(["u", "v"], Fp)
    return [
        Factor.from_dual(DualGenerator(parse_poly(r1, "x^2*y^3*z^3"))),
        Factor.from_dual(DualGenerator(parse_poly(r2, "u^4*v^4"))),
    ]


def same_ideal(a, b, dmax):
    ring = a.ring
    return all(
        row_space_equal(
            ring.field,
            a.slices.slice(d)[0],
            b.slices.slice(d)[0],
            len(ring.monomial_basis(d)),
        )
        for d in range(dmax + 1)
    )


def test_1_fiber_product_reference_example():
    with timed("1 fiber product of (3,4,4)- and (5,5)-CI factors", 10):
        fp = fiber_product_K(reference_factors())
        assert fp.hilbert == (1, 5, 9, 13, 15, 13, 9, 5, 2)
        formula = betti_fiber_product_K(
            [ci_table((3, 4, 4)), ci_table((5, 5))], (3, 2)
        )
        oracle = tor_betti(fp.presentation)
        assert formula == oracle
        assert formula.totals() == [1, 11, 25, 24, 11, 2]


def test_2_connected_sum_reference_example():
    with timed("2 connected sum of the same factors", 10):
        cs = connected_sum_K(reference_factors())
        assert cs.hilbert == (1, 5, 9, 13, 15, 13, 9, 5, 1)
        formula = betti_connected_sum_K(
            [ci_table((3, 4, 4)), ci_table((5, 5))], (3, 2), 8
        )
        oracle = tor_betti(cs.presentation)
        assert formula == oracle
        assert formula.totals() == [1, 12, 29, 29, 12, 1]
        assert formula.get(1, 8) == 1
        assert formula.get(2, 9) == 5
        assert formula.get(3, 10) == 9
        assert formula.get(4, 11) == 6
        assert formula.get(5, 13) == 1


def test_3_three_factor_connected_sum_of_cubes():
    with timed("3 three-factor connected sum of K[x]/(x^4)", 2):
        factors = [
            Factor.from_dual(DualGenerator(parse_poly(Ring([v], Fp), f"{v}^3")))
            for v in "xyz"
        ]
        cs = connected_sum_K(factors)
        big = cs.presentation.ring
        stated = Algebra(
            big,
            [parse_poly(big, s)
             for s in ["x*y", "x*z", "y*z", "x^3+y^3", "x^3+z^3"]],
        )
        assert same_ideal(cs.presentation, stated, 4)
        left = betti_connected_sum_K([ci_table((4,))] * 3, (1, 1, 1), 3)
        assert left == tor_betti(cs.presentation)
        # the minimal resolution has five first syzygy generators (odd, as
        # forced by Gorenstein codimension three), so the totals are
        # (1, 5, 5, 1)
        assert left.totals() == [1, 5, 5, 1]
        axes = Algebra(big, [parse_poly(big, s) for s in ["x*y", "x*z", "y*z"]])
        right = tor_betti(axes, max_internal_degree=4)
        assert right == cross_ideal_multi_table((1, 1, 1))
        assert right.totals() == [1, 3, 2]


def test_4_formula_oracle_differential_suite():
    with timed("4 differential suite, 25 seeded random instances", 300):
        failures = differential_suite(seed=7, count=25)
        assert failures == []


def test_5_invariant_suite():
    with timed("5 structural invariants", 60):
        rings = [Ring([f"w{k}_0", f"w{k}_1"], Fp) for k in range(3)]
        duals = ["w0_0^2*w0_1^2", "w1_0^4 + w1_1^4", "w2_0*w2_1^3 + w2_0^3*w2_1"]
        factors = [
            Factor.from_dual(DualGenerator(parse_poly(r, s)))
            for r, s in zip(rings, duals)
        ]

        # connected_sum_K internally asserts the dual route (annihilator of
        # the glued dual generator) against the presentation route slice by
        # slice; completing without RouteDisagreementError is the check
        cs = connected_sum_K(factors)

        # Gorenstein symmetry of every connected-sum table; every tor_betti
        # call also re-verifies Euler/Hilbert consistency internally
        table = tor_betti(cs.presentation)
        n, e = sum(cs.n_vec), cs.socle_degree
        assert table.is_symmetric(n, e)
        two = tor_betti(connected_sum_K(factors[:2]).presentation)
        assert two.is_symmetric(4, 4)

        # iterated (left-fold) and simultaneous constructions agree, r = 3
        fp3 = fiber_product_K(factors)
        fp_it = fold(fiber_product_K, factors)
        assert fp_it.hilbert == fp3.hilbert
        assert same_ideal(fp_it.presentation, fp3.presentation, e + 1)
        cs_it = fold(connected_sum_K, factors)
        assert cs_it.hilbert == cs.hilbert
        assert same_ideal(cs_it.presentation, cs.presentation, e + 1)

        # explicit dual-vs-presentation comparison on the glued generator
        big = cs.presentation.ring
        glued = parse_poly(
            big,
            "w0_0^2*w0_1^2 + 32002*w1_0^4 + 32002*w1_1^4"
            " + 32002*w2_0*w2_1^3 + 32002*w2_0^3*w2_1",
        )
        assert same_ideal(
            cs.presentation,
            Algebra.from_slices(annihilator_slices(DualGenerator(glued))),
            e + 1,
        )

        # annihilator slices are invariant under scaling the dual generator
        F = parse_poly(rings[0], "w0_0^2*w0_1^2")
        scaled = parse_poly(rings[0], "17*w0_0^2*w0_1^2")
        assert same_ideal(
            Algebra.from_slices(annihilator_slices(DualGenerator(F))),
            Algebra.from_slices(annihilator_slices(DualGenerator(scaled))),
            5,
        )


def test_6_doubling_certificates():
    with timed("6 doubling certificates", 60):
        big, J, I = tripod_doubling()
        cert = doubling_certificate(J, I)
        assert cert.passed and cert.t == 3
        hf_i = I.hilbert_function()
        quotient = [
            J.hilbert_values(6)[d] - (hf_i[d] if d < len(hf_i) else 0)
            for d in range(7)
        ]
        assert quotient == [0, 0, 0, 2, 3, 3, 3]

        bad = Algebra(big, J.generators + [parse_poly(big, "x^3")])
        failed = doubling_certificate(J, bad)
        assert not failed.passed
        assert "not Gorenstein" in failed.verdict

        family = monomial_ci_family()
        assert len(family) >= 20
        for inst in family:
            tildes, doubled = [], []
            for k, degrees in enumerate(inst):
                t, f = monomial_ci_factor(f"v{k}_", degrees)
                tildes.append(t)
                doubled.append(f)
            assert theorem43_harness(tildes, doubled).passed, inst


def test_7_closed_form_unit_identities():
    with timed("7 closed-form unit identities", 10):
        assert [betti_cross_ideal_multi((3, 2), i) for i in range(1, 5)] == [6, 9, 5, 1]
        assert [betti_cross_ideal_multi((1, 1, 1), t) for t in (1, 2)] == [3, 2]
        socle2 = betti_socle2(3)
        assert sum(c for (i, j), c in socle2.items() if i == 1) == 5
        small = BettiTable({(0, 0): 1, (1, 4): 1})
        big = Ring(["x", "y", "z"], Fp)
        quotient = Algebra(
            big, [parse_poly(big, s) for s in ["x^4", "y", "z"]]
        )
        assert inflate_betti(small, 2) == tor_betti(quotient)
