"""Macaulay duality: contraction, catalecticants, annihilators, Thom classes.

The dual ring reuses the base variable names; a polynomial is "dual" by
position, not by syntax.  The module action is contraction,
x_i o X_j^k = X_j^(k-1) delta_ij, which introduces no binomial coefficients
and therefore works unchanged in any characteristic.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
# minimal_generators is unused here; perfbench/test_perfbench.py reads it
from .ideals import Algebra, IdealSlices, canonical, minimal_generators  # noqa: F401
from .linalg import Matrix
from .poly import Poly, product_table


def contract(f, F):
    """Contraction action of f in Q on F in the dual ring Q'."""
    if f.ring != F.ring:
        raise ValueError("contraction requires a common ring")
    fld = f.ring.field
    terms = {}
    for a, ca in f.terms.items():
        for b, cb in F.terms.items():
            if all(bi >= ai for ai, bi in zip(a, b)):
                e = tuple(bi - ai for ai, bi in zip(a, b))
                terms[e] = fld.add(terms.get(e, fld.zero), fld.mul(ca, cb))
    return Poly(f.ring, terms)


class DualGenerator:
    """Homogeneous element of the dual ring defining an AG algebra."""

    __slots__ = ("ring", "F", "d")

    def __init__(self, F):
        if F.is_zero():
            raise ValueError("dual generator must be nonzero")
        if not F.is_homogeneous():
            raise ValueError("dual generator must be homogeneous")
        d = F.degree()
        if d < 1:
            raise ValueError("dual generator must have positive degree")
        self.ring = F.ring
        self.F = F
        self.d = d


def catalecticant(F: DualGenerator, i: int) -> Matrix:
    """Matrix of f |-> f o F from Q_i to Q'_(d-i), over the monomial bases:
    entry (e, a) is the coefficient of F at the product of e and a."""
    if not 0 <= i <= F.d:
        raise ValueError(f"degree {i} outside 0..{F.d}")
    fld, vec = F.ring.field, F.F.coefficient_vector(F.d)
    rows = linalg.to_array(fld, [vec], len(vec))[0][product_table(F.ring.nvars, F.d - i, i)]
    return Matrix(fld, *rows.shape, rows)


def annihilator_slices(F: DualGenerator) -> IdealSlices:
    """Slices of Ann(F): its inverse system in degree i is spanned by the
    contractions of F by the monomials of degree d-i, the columns of that
    catalecticant, and is 0 past the socle degree d."""
    fld, basis = F.ring.field, F.ring.monomial_basis
    duals = [canonical(fld, catalecticant(F, F.d - i).rows.T, len(basis(i)))
             for i in range(F.d + 1)]
    duals.append((linalg.zeros(fld, (0, len(basis(F.d + 1)))), []))
    return IdealSlices.from_duals(F.ring, duals)


def annihilator(F: DualGenerator) -> Algebra:
    """The AG algebra Q/Ann(F) on the catalecticant slices; its generators
    are the canonical minimal generators of Ann(F)."""
    return Algebra.from_slices(annihilator_slices(F))


def hilbert_from_catalecticants(F: DualGenerator):
    """Hilbert function of Q/Ann(F): the catalecticant ranks."""
    return tuple(linalg.rank(catalecticant(F, i)) for i in range(F.d + 1))


def dual_socle(F: DualGenerator) -> Poly:
    """Canonical homogeneous sigma of degree d with sigma o F = 1.

    This represents the Thom class of the projection Q/Ann(F) -> K; the
    echelon-canonical solution (free coordinates zero) pins the choice.
    """
    ring = F.ring
    m = catalecticant(F, F.d)
    x = linalg.solve_particular(m, [ring.field.one])
    if x is None:
        raise ValueError("dual generator is degenerate")  # cannot happen: F != 0
    return Poly.from_vector(ring, F.d, x.tolist())


def socle_and_thom_to_K(A: Algebra, F: DualGenerator) -> Poly:
    """Thom class of A -> K for the orientation given by F."""
    from .oracle import socle_basis  # deferred: oracle depends on ideals only

    soc = socle_basis(A)
    if len(soc) != 1:
        raise ValueError(f"not Gorenstein: socle dimension {len(soc)}")
    sigma = dual_socle(F)
    if A.slices.contains(sigma):
        raise ValueError("orientation does not match the algebra")
    return sigma


@dataclass
class CsReport:
    """Outcome of the connected-sum compatibility checks for (F, G, tau)."""

    condition_a: bool
    condition_b: bool
    first_failing_degree: Optional[int] = None
    t_is_base_field: bool = False
    note: str = ""
    holds: bool = False
    k: int = 0


def check_cs_conditions(F: DualGenerator, G: DualGenerator, tau: Poly) -> CsReport:
    """Check the two hypotheses for Q/Ann(F) # Q/Ann(G) over T = Q/Ann(tau o F):

    (a) tau o F = tau o G != 0, and
    (b) Ann(tau o F) = Ann(F) + Ann(G) in every degree through k+1,
    where k is the socle degree of T.
    """
    return _cs_conditions(F, G, tau, annihilator_slices(F), annihilator_slices(G))[0]


def _cs_conditions(F, G, tau, ann_f, ann_g):
    """check_cs_conditions on the slices of Ann(F) and Ann(G): (report, the
    slices of Ann(tau o F) if built, else None, the canonical forms of
    (Ann F)^perp + (Ann G)^perp = (Ann F & Ann G)^perp in degrees 0..d+1)."""
    if F.ring != G.ring or tau.ring != F.ring:
        raise ValueError("F, G and tau must live in one ring")
    if F.d != G.d:
        raise ValueError("dual generators must share the socle degree")
    if tau.is_zero() or not tau.is_homogeneous():
        raise ValueError("tau must be homogeneous and nonzero")

    fld, basis = F.ring.field, F.ring.monomial_basis
    stacks = [np.concatenate([ann_f.dual(i)[0], ann_g.dual(i)[0]]) for i in range(F.d + 2)]
    sums = [canonical(fld, s, len(basis(i))) for i, s in enumerate(stacks)]
    tF, tG = contract(tau, F.F), contract(tau, G.F)
    cond_a = (not tF.is_zero()) and tF == tG
    if tau.degree() == 0:
        # Scalar tau: the only sensible target is T = K.  The literal
        # condition (a) compares F and G themselves; for factors in disjoint
        # variables the projections to K are trivially compatible instead.
        disjoint = not (_support(F.F) & _support(G.F))
        note = ("disjoint-variable, trivially compatible (T = K)" if disjoint
                else "scalar tau without disjoint variables")
        report = CsReport(cond_a, disjoint, t_is_base_field=True, note=note, holds=disjoint)
        return report, None, sums

    k = F.d - tau.degree()
    if not cond_a:
        return CsReport(False, False, k=k), None, sums
    ann_t = annihilator_slices(DualGenerator(tF))
    # Ann(F) + Ann(G) lies in Ann(tau o F) by (a): equal dimensions make them equal
    failing = next((d for d in range(k + 2) if ann_t.codim(d)
                    != ann_f.codim(d) + ann_g.codim(d) - len(sums[d][0])), None)
    ok = failing is None
    return CsReport(True, ok, first_failing_degree=failing, holds=ok, k=k), ann_t, sums


def _support(poly):
    return {i for e in poly.terms for i, k in enumerate(e) if k}
