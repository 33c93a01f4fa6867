"""Macaulay duality: contraction, catalecticants, annihilators, Thom classes.

The dual ring reuses the base variable names; a polynomial is "dual" by
position, not by syntax.  The module action is contraction,
x_i o X_j^k = X_j^(k-1) delta_ij, which introduces no binomial coefficients
and therefore works unchanged in any characteristic.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional

from . import linalg
# minimal_generators is unused here; perfbench/test_perfbench.py reads it
from .ideals import Algebra, IdealSlices, canonical, minimal_generators  # noqa: F401
from .linalg import Matrix
from .poly import Poly

# cells of the largest catalecticant annihilator_slices builds
MAX_CATALECTICANT_CELLS = 10**7


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
    entry (e, a) is the coefficient of F at the product of e and a.  It is
    read from F's terms: each term t gives the entry (t/a, a) for every
    degree-i divisor a of t, so its cost follows F's support."""
    if not 0 <= i <= F.d:
        raise ValueError(f"degree {i} outside 0..{F.d}")
    ring = F.ring
    row_index, col_index = ring.monomial_index(F.d - i), ring.monomial_index(i)
    rows = [{} for _ in row_index]
    for t, c in F.F.terms.items():
        for a, e in _divisors(t, i):
            rows[row_index[e]][col_index[a]] = c
    return Matrix(ring.field, len(rows), len(col_index), rows)


@lru_cache(maxsize=None)
def _divisors(t, i):
    """The pairs (a, t/a) of exponent vectors, a of degree i dividing t."""
    if not t:
        return (((), ()),) if i == 0 else ()
    return tuple(((k,) + a, (t[0] - k,) + e)
                 for k in range(min(t[0], i) + 1) for a, e in _divisors(t[1:], i - k))


def annihilator_slices(F: DualGenerator) -> IdealSlices:
    """Slices of Ann(F): its inverse system in degree i is spanned by the
    contractions of F by the monomials of degree d-i, the rows of
    catalecticant(F, i), and is 0 past the socle degree d, which needs no
    basis.  A catalecticant over MAX_CATALECTICANT_CELLS is refused before
    any is built."""
    n, d = F.ring.nvars, F.d
    cells = max(comb(n - 1 + i, i) * comb(n - 1 + d - i, d - i) for i in range(d + 1))
    if cells > MAX_CATALECTICANT_CELLS:
        raise ValueError(f"the largest catalecticant has {cells} cells, "
                         f"over the budget of {MAX_CATALECTICANT_CELLS}")
    fld, basis = F.ring.field, F.ring.monomial_basis
    duals = [canonical(fld, catalecticant(F, i).rows, len(basis(i))) for i in range(d + 1)]
    duals.append(([], []))
    return IdealSlices.from_duals(F.ring, duals)


def annihilator(F: DualGenerator) -> Algebra:
    """The AG algebra Q/Ann(F) on the catalecticant slices; its generators
    are the canonical minimal generators of Ann(F).  Its Hilbert function is
    scanned through the zero in degree d+1, whatever d is."""
    return Algebra.from_slices(annihilator_slices(F), degree_cap=F.d + 1)


def hilbert_from_catalecticants(F: DualGenerator):
    """Hilbert function of Q/Ann(F): the catalecticant ranks."""
    return tuple(linalg.rank(catalecticant(F, i)) for i in range(F.d + 1))


def dual_socle(F: DualGenerator) -> Poly:
    """Canonical homogeneous sigma of degree d with sigma o F = 1.

    This represents the Thom class of the projection Q/Ann(F) -> K.  It is
    m_c / F_c for the first monomial m_c of F in the basis order: the
    echelon solution (free coordinates zero) of catalecticant(F, d) sigma = 1.
    """
    ring, terms = F.ring, F.F.terms
    c = min(terms, key=ring.monomial_index(F.d).__getitem__)
    return Poly(ring, {c: ring.field.inv(terms[c])})


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
    sums = [canonical(fld, ann_f.dual(i)[0] + ann_g.dual(i)[0], len(basis(i)))
            for i in range(F.d + 2)]
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
