"""Doubling certificates: necessary conditions for an Artinian Gorenstein
quotient Q/I to be a doubling of a 1-dimensional Cohen-Macaulay Q/J.

A doubling is an exact sequence 0 -> omega_{Q/J}(-t) -> Q/J -> Q/I -> 0 with
t = reg(Q/I).  The certificate verifies every condition visible at the
Hilbert-function level; module-level isomorphism of I/J with the canonical
module is out of scope, which the verdict text says explicitly.
"""

from dataclasses import dataclass, field

from .constructions import connected_sum_K, fiber_product_ideal
from .ideals import Algebra, NotArtinianError
from .linalg import reduce_vector
from .oracle import socle_basis

NOTE = (
    "necessary conditions only: I/J is compared with omega at the Hilbert "
    "level; the G_0 hypothesis is assumed, not checked"
)


@dataclass
class Cm1Result:
    ok: bool
    h_vector: tuple = ()
    reg: int = 0
    hilbert: tuple = ()
    reason: str = ""


def cm1_check(algebra):
    """Is Q/J Cohen-Macaulay of dimension one?

    Dimension 1 is detected as the Hilbert function becoming a nonzero
    constant, and dimension >= 2 as a Hilbert polynomial of positive degree
    (Algebra.hilbert_scan, shared with the Artinian probe); depth >= 1 is
    the absence of elements killed by every variable in degrees up to reg+1.
    The h-vector h satisfies HF series = h(s)/(1-s).
    """
    hf, stab = algebra.hilbert_scan()
    if hf and hf[-1] == 0:
        return Cm1Result(ok=False, reason="dimension = 0 (Artinian)")
    if stab is None:
        return Cm1Result(
            ok=False,
            reason=f"dimension != 1 within degree cap {algebra.degree_cap}",
        )
    stab, e = stab
    if e:
        return Cm1Result(
            ok=False,
            reason=f"dimension >= 2: Hilbert polynomial of degree {e} from "
            f"degree {stab} on",
        )

    h = [hf[0]] + [hf[d] - hf[d - 1] for d in range(1, stab + 1)]
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    reg = len(h) - 1

    for d in range(reg + 2):
        if len(algebra.slices.socle(d)):
            return Cm1Result(
                ok=False,
                h_vector=tuple(h),
                reg=reg,
                hilbert=tuple(hf[: stab + 1]),
                reason=f"depth 0: element of degree {d} killed by every variable",
            )
    return Cm1Result(
        ok=True, h_vector=tuple(h), reg=reg, hilbert=tuple(hf[: stab + 1])
    )


def canonical_hilbert(h):
    """Hilbert function of the canonical module of a 1-dim CM algebra with
    h-vector h, as a callable: HF_omega(d) = sum of h_i over i >= 1-d
    (the expansion of s*h(1/s)/(1-s))."""
    h = tuple(h)
    if not h or sum(h) <= 0:
        raise ValueError("invalid h-vector")

    def hf_omega(d):
        return sum(h[i] for i in range(max(0, 1 - d), len(h)))

    return hf_omega


@dataclass
class DoublingCertificate:
    checks: dict = field(default_factory=dict)
    t: int = None
    verdict: str = ""
    reasons: dict = field(default_factory=dict)
    note: str = NOTE

    @property
    def passed(self):
        return all(self.checks.values())


_CHECK_ORDER = ("containment", "cm1", "gorenstein", "shift", "hilbert_match")


def doubling_certificate(J: Algebra, I: Algebra) -> DoublingCertificate:
    """Run the five necessary doubling conditions for the pair J inside I."""
    if J.ring != I.ring:
        raise ValueError("J and I must live in one ring")
    cert = DoublingCertificate()
    checks, reasons = cert.checks, cert.reasons

    cm1 = cm1_check(J)
    checks["cm1"] = cm1.ok
    if not cm1.ok:
        reasons["cm1"] = cm1.reason

    t = None
    try:
        hf_i = I.hilbert_function()
        soc = socle_basis(I)
        if len(soc) == 1:
            checks["gorenstein"] = True
            t = len(hf_i) - 1
        else:
            checks["gorenstein"] = False
            reasons["gorenstein"] = f"not Gorenstein: socle dimension {len(soc)}"
    except NotArtinianError as err:
        checks["gorenstein"] = False
        reasons["gorenstein"] = f"not Gorenstein: {err}"
    cert.t = t

    dmax = (t if t is not None else (cm1.reg if cm1.ok else 0)) + 1
    contained = True
    for d in range(dmax + 1):
        # J_d lies in I_d exactly when (I^perp)_d lies in (J^perp)_d
        rows, piv = J.slices.dual(d)
        if any(reduce_vector(J.ring.field, rows, piv, v) for v in I.slices.dual(d)[0]):
            contained = False
            reasons["containment"] = f"J is not contained in I in degree {d}"
            break
    checks["containment"] = contained

    if cm1.ok and t is not None and contained:
        hf_omega = canonical_hilbert(cm1.h_vector)
        hf_j = J.hilbert_values(dmax)
        quotient = [
            hf_j[d] - (hf_i[d] if d < len(hf_i) else 0) for d in range(dmax + 1)
        ]
        # omega starts in degree 1 - reg (tail sums of the h-vector of a
        # 1-dim CM algebra are positive from the top entry down)
        indeg = 1 - cm1.reg
        first = next((d for d, q in enumerate(quotient) if q), None)
        checks["shift"] = first == t + indeg
        if not checks["shift"]:
            reasons["shift"] = (
                f"I/J starts in degree {first}, expected {t} + {indeg}"
            )
        mismatch = [
            (d, quotient[d], hf_omega(d - t))
            for d in range(dmax + 1)
            if quotient[d] != hf_omega(d - t)
        ]
        checks["hilbert_match"] = not mismatch
        if mismatch:
            d, got, want = mismatch[0]
            reasons["hilbert_match"] = (
                f"dim (I/J)_{d} = {got}, canonical module predicts {want}"
            )
    else:
        checks["shift"] = False
        checks["hilbert_match"] = False
        reasons.setdefault("shift", "skipped: earlier check failed")
        reasons.setdefault("hilbert_match", "skipped: earlier check failed")

    if cert.passed:
        cert.verdict = f"pass (t = {t})"
    else:
        first_failed = next(c for c in _CHECK_ORDER if not checks[c])
        detail = reasons.get(first_failed, "")
        cert.verdict = f"fail: {first_failed}" + (f" ({detail})" if detail else "")
    return cert


def theorem43_harness(tilde_factors, doubled_factors) -> DoublingCertificate:
    """Connected sum of doublings is a doubling of the fiber product.

    Per-factor certificates must pass and all socle degrees must agree; the
    result is the certificate for J = fiber product ideal of the tilde
    factors against I = connected sum ideal of the doubled factors.
    """
    if len(tilde_factors) != len(doubled_factors):
        raise ValueError("need one 1-dimensional factor per doubled factor")
    for k, (tilde, fac) in enumerate(zip(tilde_factors, doubled_factors)):
        if tilde.ring != fac.algebra.ring:
            raise ValueError(f"factor {k}: rings differ")
        cert = doubling_certificate(tilde, fac.algebra)
        if not cert.passed:
            raise ValueError(f"factor {k}: {cert.verdict}")
    degrees = {f.dual.d for f in doubled_factors}
    if len(degrees) != 1:
        raise ValueError(f"socle degrees differ: {sorted(degrees)}")

    cs = connected_sum_K(doubled_factors)
    big = cs.presentation.ring
    _, j_gens = fiber_product_ideal(
        [t.ring for t in tilde_factors],
        [t.generators for t in tilde_factors],
    )
    J = Algebra(big, j_gens)
    return doubling_certificate(J, cs.presentation)
