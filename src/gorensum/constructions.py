"""Fiber products and connected sums of Artinian graded algebras over K,
plus the two-factor construction over a general Gorenstein base via dual
generators.

The connected sum over K is always computed twice -- once from the
presentation (fiber product ideal plus lifted Thom classes) and once from
the dual generator F_1 - F_2 - ... - F_r -- and the two ideals are asserted
equal degree by degree.
"""

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .apolarity import (
    DualGenerator,
    annihilator,
    annihilator_slices,
    contract,
    _cs_conditions,
    dual_socle,
)
from .ideals import Algebra, IdealSlices, InternalCheckError
from .poly import Poly, embed, joined_ring


class RouteDisagreementError(InternalCheckError):
    """The presentation route and the dual route produced different ideals."""


@dataclass
class Factor:
    algebra: Algebra
    dual: Optional[DualGenerator] = None

    @classmethod
    def from_dual(cls, F):
        return cls(algebra=annihilator(F), dual=F)


@dataclass
class ConstructionResult:
    presentation: Algebra
    hilbert: tuple
    kind: str
    socle_degree: Optional[int] = None
    n_vec: tuple = ()


def _check_factors(factors):
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    for k, fac in enumerate(factors):
        if fac.algebra.slices.dim(1) != 0:
            raise ValueError(f"factor {k}: ideal contains linear forms")


def cross_product_generators(big):
    """All products of one variable from each pair of distinct blocks."""
    gens = []
    ranges = big.block_var_indices()
    for bi in range(len(ranges)):
        for bj in range(bi + 1, len(ranges)):
            for a in range(*ranges[bi]):
                for b in range(*ranges[bj]):
                    e = [0] * big.nvars
                    e[a] = 1
                    e[b] = 1
                    gens.append(Poly(big, {tuple(e): big.field.one}))
    return gens


def fiber_product_ideal(rings, gens_per_factor):
    """Joined ring and generators of the fiber-product ideal over K."""
    big = joined_ring(rings)
    gens = cross_product_generators(big)
    for k, factor_gens in enumerate(gens_per_factor):
        gens.extend(embed(g, big, k) for g in factor_gens)
    return big, gens


def fiber_product_K(factors) -> ConstructionResult:
    """Multi-factor fiber product over K: factor ideals plus cross products."""
    _check_factors(factors)
    big, gens = fiber_product_ideal(
        [f.algebra.ring for f in factors],
        [f.algebra.generators for f in factors],
    )
    result = Algebra(big, gens)
    hf = tuple(result.hilbert_function())
    expected = hilbert_closed_form(
        "fiber_product", [f.algebra.hilbert_function() for f in factors]
    )
    if hf != expected:
        raise InternalCheckError(f"fiber product Hilbert mismatch: {hf} vs {expected}")
    return ConstructionResult(
        presentation=result,
        hilbert=hf,
        kind="fiber_product",
        n_vec=tuple(f.algebra.ring.nvars for f in factors),
    )


def connected_sum_K(factors) -> ConstructionResult:
    """Multi-factor connected sum over K, via both routes, asserted equal.

    Presentation route: the fiber product ideal plus the elements
    sigma_1 + sigma_i (canonical Thom lifts); dual route: the annihilator of
    F_1 - F_2 - ... - F_r.
    """
    _check_factors(factors)
    if any(f.dual is None for f in factors):
        raise ValueError("connected sum requires a dual generator per factor")
    degrees = {f.dual.d for f in factors}
    if len(degrees) != 1:
        raise ValueError(f"socle degrees differ: {sorted(degrees)}")
    d = degrees.pop()

    big, gens = fiber_product_ideal(
        [f.algebra.ring for f in factors],
        [f.algebra.generators for f in factors],
    )
    sigmas = [embed(dual_socle(f.dual), big, k) for k, f in enumerate(factors)]
    pres_gens = gens + [sigmas[0] + s for s in sigmas[1:]]
    pres = Algebra(big, pres_gens)

    f_big = embed(factors[0].dual.F, big, 0)
    for k in range(1, len(factors)):
        f_big = f_big - embed(factors[k].dual.F, big, k)
    dual_gen = DualGenerator(f_big)
    dual_slices = annihilator_slices(dual_gen)

    # both inverse systems are in the canonical form (E, Q), so equal
    # ideals give equal (rows, pivots)
    for deg in range(d + 2):
        if not linalg.echelon_equal(pres.slices.dual(deg), dual_slices.dual(deg)):
            raise RouteDisagreementError(
                "presentation and dual routes disagree in degree "
                f"{deg}: dims {pres.slices.dim(deg)} vs "
                f"{dual_slices.dim(deg)}; generators {pres_gens}"
            )

    hf = tuple(pres.hilbert_function())
    expected = hilbert_closed_form(
        "connected_sum",
        [f.algebra.hilbert_function() for f in factors],
        socle_degree=d,
    )
    if hf != expected:
        raise InternalCheckError(f"connected sum Hilbert mismatch: {hf} vs {expected}")
    return ConstructionResult(
        presentation=pres,
        hilbert=hf,
        kind="connected_sum",
        socle_degree=d,
        n_vec=tuple(f.algebra.ring.nvars for f in factors),
    )


def connected_sum_T(F: DualGenerator, G: DualGenerator, tau: Poly):
    """Two-factor fiber product and connected sum over T = Q/Ann(tau o F).

    Both inputs live in one polynomial ring; the factors need not have
    disjoint variables.  Returns (fiber product, connected sum, T).
    """
    if (F.F - G.F).is_zero() or _proportional(F.F, G.F):
        raise ValueError("factors must be linearly independent")
    ann_f, ann_g = annihilator_slices(F), annihilator_slices(G)
    report, ann_t, sums = _cs_conditions(F, G, tau, ann_f, ann_g)
    if not report.holds:
        which = "(a)" if not report.condition_a else "(b)"
        detail = (
            f" at degree {report.first_failing_degree}"
            if report.first_failing_degree is not None
            else ""
        )
        raise ValueError(f"connected sum condition {which} fails{detail}")

    d = F.d
    # (Ann F & Ann G)^perp = (Ann F)^perp + (Ann G)^perp
    fp_algebra = Algebra.from_slices(IdealSlices.from_duals(F.ring, sums))
    cs_algebra = annihilator(DualGenerator(F.F - G.F))
    t_dual = contract(tau, F.F)
    # a scalar tau builds no T in the checks
    t_algebra = Algebra.from_slices(ann_t or annihilator_slices(DualGenerator(t_dual)))
    k = t_dual.degree()

    hf_a, hf_b = (Algebra.from_slices(s).hilbert_function() for s in (ann_f, ann_g))
    hf_t = t_algebra.hilbert_function()
    fp_hf = tuple(fp_algebra.hilbert_function())
    cs_hf = tuple(cs_algebra.hilbert_function())
    if fp_hf != hilbert_closed_form("fiber_product", [hf_a, hf_b], t_hf=hf_t):
        raise InternalCheckError("fiber product Hilbert identity fails over T")
    if cs_hf != hilbert_closed_form(
        "connected_sum", [hf_a, hf_b], socle_degree=d, t_hf=hf_t, k=k
    ):
        raise InternalCheckError("connected sum Hilbert identity fails over T")

    fp = ConstructionResult(fp_algebra, fp_hf, "fiber_product")
    cs = ConstructionResult(cs_algebra, cs_hf, "connected_sum", socle_degree=d)
    return fp, cs, t_algebra


def _proportional(p, q):
    if p.terms.keys() != q.terms.keys():
        return False
    fld = p.ring.field
    ratio = None
    for e, c in p.terms.items():
        r = fld.div(c, q.terms[e])
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


def hilbert_closed_form(kind, factor_hfs, socle_degree=None, t_hf=None, k=0):
    """Coefficientwise Hilbert function of a fiber product or connected sum.

    Over K (no t_hf): fiber product is sum of factors minus (r-1) in each
    positive degree; connected sum subtracts (r-1) more in degree d.  With a
    base T of socle degree k (two factors): HF_A + HF_B - HF_T for the fiber
    product and HF_A + HF_B - (1 + t^(d-k)) HF_T for the connected sum.
    """
    r = len(factor_hfs)
    if r < 2:
        raise ValueError("need at least two factors")
    if kind not in ("fiber_product", "connected_sum"):
        raise ValueError(f"unknown construction kind {kind!r}")
    length = max(len(h) for h in factor_hfs)
    out = [sum(h[i] if i < len(h) else 0 for h in factor_hfs) for i in range(length)]
    if t_hf is None:
        t_hf, k = (1,), 0  # T = K
    # r-1 copies of HF_T, and for a connected sum r-1 more shifted by d-k
    for shift in (0, socle_degree - k) if kind == "connected_sum" else (0,):
        for i, c in enumerate(t_hf):
            if shift + i < len(out):
                out[shift + i] -= (r - 1) * c
            elif c:
                raise ValueError("inconsistent inputs")
    while out and out[-1] == 0:
        out.pop()
    if any(c < 0 for c in out):
        raise ValueError("inconsistent inputs")
    return tuple(out)


def fiber_product_K_iterated(factors) -> ConstructionResult:
    """Fold the two-factor fiber product over the list, left to right."""
    current = factors[0]
    res = None
    for nxt in factors[1:]:
        res = fiber_product_K([current, nxt])
        merged_ring = _flatten_blocks(res.presentation.ring)
        merged_gens = [
            Poly(merged_ring, g.terms) for g in res.presentation.generators
        ]
        current = Factor(algebra=Algebra(merged_ring, merged_gens))
    return res


def connected_sum_K_iterated(factors) -> ConstructionResult:
    """Fold the two-factor connected sum over the list, left to right."""
    current = factors[0]
    for nxt in factors[1:]:
        res = connected_sum_K([current, nxt])
        big = res.presentation.ring
        # dual generator of the partial sum, for the next iteration
        f_big = embed(current.dual.F, big, 0) - embed(nxt.dual.F, big, 1)
        merged_ring = _flatten_blocks(big)
        merged = Poly(merged_ring, f_big.terms)
        current = Factor(
            algebra=Algebra(merged_ring, [Poly(merged_ring, g.terms) for g in res.presentation.generators]),
            dual=DualGenerator(merged),
        )
    return res


def _flatten_blocks(ring):
    from .poly import Ring

    return Ring(ring.variables, ring.field)
