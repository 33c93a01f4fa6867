"""Degreewise (slice) representation of homogeneous ideals and quotients.

Every ideal in scope cuts out an Artinian or 1-dimensional quotient, so a
finite list of graded slices suffices; no Groebner machinery is needed.
Slice d is the inverse system (I^perp)_d = {Lambda in Q'_d : g o Lambda = 0
for g in I_d} under contraction, stored in the one canonical form (E_d, Q_d)
of `canonical`: h_d = dim (Q/I)_d rows over the N_d degree-d monomials, a
2-D numpy array as in `linalg`.  Equal ideals have equal slices.  The pivots
Q_d are the quotient monomials and column c of E_d is the normal form of the
c-th monomial over them, which multiplication, socles, reduction, membership
and the echelon form of I_d all read, at O(N_d h_d^2) per degree.

An IdealSlices is built from generators, integrating E_d from E_(d-1)
(Mourrain's integration method), or from slices given in degrees 0..top
(`from_duals`, e.g. the contractions of a dual generator); its `generators`
are then the canonical minimal generators, read off on first use.
"""

from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .poly import Poly, first_variable_table, shift_table


class NotArtinianError(Exception):
    pass


class InternalCheckError(Exception):
    """Two independent computations of one answer disagree."""


DEFAULT_DEGREE_CAP = 64


def canonical(field, rows, ncols):
    """(E, Q): the reduced echelon form of the span of rows, scanning its
    columns right to left: Q lists the pivots ascending, E[:, Q] is the
    identity and each row of E is zero right of its pivot."""
    red, piv = linalg._reduce_rows(field, rows[:, ::-1], ncols)
    return np.ascontiguousarray(red[::-1, ::-1]), [ncols - 1 - c for c in reversed(piv)]


class IdealSlices:
    """Graded inverse system of a homogeneous ideal, echelonized per degree."""

    def __init__(self, ring, generators):
        for k, g in enumerate(generators):
            if not g.is_homogeneous():
                raise ValueError(f"generator {k} is not homogeneous")
        self.ring = ring
        self._generators = [g for g in generators if not g.is_zero()]
        self._gens_by_degree = {}
        for g in self._generators:
            self._gens_by_degree.setdefault(g.degree(), []).append(g)
        # no minimal generator lies past this degree
        self.generator_degree_bound = max(self._gens_by_degree, default=0)
        # per degree: the canonical form (E_d, Q_d) of (I^perp)_d
        self._slices = []

    @classmethod
    def from_duals(cls, ring, duals):
        """Slices given as the canonical forms (E_d, Q_d) of (I^perp)_d for
        d = 0..top, each complete; past top they are integrated with no
        further generators, so top bounds the generator degrees."""
        obj = cls(ring, [])
        obj._slices = list(duals)
        obj.generator_degree_bound = len(obj._slices) - 1
        obj._generators = None
        return obj

    @property
    def generators(self):
        """The given generators, or the canonical minimal generators of
        slices given by `from_duals` (computed on first read)."""
        if self._generators is None:
            self._generators = minimal_generators(self, self.generator_degree_bound)
        return self._generators

    def ensure(self, dmax):
        while len(self._slices) <= dmax:
            self._slices.append(self._integrate(len(self._slices)))

    def _integrate(self, d):
        """(E_d, Q_d): Lambda lies in I^perp exactly when each x_k o Lambda =
        c_k E_(d-1) and the degree-d generators kill it.  Such a Lambda
        exists for c = (c_k) exactly when c_k T_l = c_l T_k for k < l, T_l
        being x_l o E_(d-1) on Q_(d-2), the multiplication by x_l from
        A_(d-2) to A_(d-1) transposed."""
        f = self.ring.field
        n = self.ring.nvars
        ncols = len(self.ring.monomial_basis(d))
        if d == 0:
            lam = linalg.to_array(f, [[f.one]], 1)
        else:
            prev = self._slices[d - 1][0]
            h = len(prev)
            if not h:
                return linalg.zeros(f, (0, ncols)), []
            pairs = list(combinations(range(n), 2)) if d > 1 else []
            T = [self.multiplication(l, d - 2) for l in range(n)] if pairs else []
            h2 = self.codim(d - 2) if pairs else 0
            cons = linalg.zeros(f, (len(pairs), h2, n, h))
            for p, (k, l) in enumerate(pairs):
                cons[p, :, k], cons[p, :, l] = T[l], linalg.neg(f, T[k])
            c = linalg.kernel_rows(f, cons.reshape(len(pairs) * h2, n * h), n * h)
            # each monomial is filled once, from its first variable (all agree)
            lam = linalg.zeros(f, (len(c), ncols))
            for k, (src, dst) in enumerate(first_variable_table(n, d - 1)):
                lam[:, dst] = linalg.matmul(f, c[:, k * h:(k + 1) * h], prev[:, src])
        gens = self._gens_by_degree.get(d)
        if gens:
            g = linalg.to_array(f, [g.coefficient_vector(d) for g in gens], ncols)
            kill = linalg.kernel_rows(f, linalg.matmul(f, g, lam.T), len(lam))
            lam = linalg.matmul(f, kill, lam)
        return canonical(f, lam, ncols)

    def _multiply_up(self, d, rows):
        """Vectors of x_k * (degree-d rows) inside degree d+1, one per row
        and variable (row-major), as one array."""
        ring = self.ring
        n = ring.nvars
        ncols_up = len(ring.monomial_basis(d + 1))
        # flat targets in the (n, ncols_up) block of one row's products
        targets = shift_table(n, d) + (np.arange(n) * ncols_up)[:, None]
        out = linalg.zeros(ring.field, (len(rows), n * ncols_up))
        out[:, targets] = rows[:, None, :]
        return out.reshape(len(rows) * n, ncols_up)

    def dual(self, d):
        """Canonical form (E_d, Q_d) of (I^perp)_d (see `canonical`)."""
        self.ensure(d)
        return self._slices[d]

    def slice(self, d):
        """Canonical reduced echelon form (rows, pivots) of I_d: the row
        pivoted at a monomial is that monomial minus its normal form."""
        f = self.ring.field
        nf, q = self.dual(d)
        piv = np.ones(nf.shape[1], dtype=bool)
        piv[q] = False
        piv = np.flatnonzero(piv)
        rows = linalg.zeros(f, (len(piv), nf.shape[1]))
        rows[np.arange(len(piv)), piv] = f.one
        rows[:, q] = linalg.neg(f, nf[:, piv].T)
        return rows, piv.tolist()

    def codim(self, d):
        return len(self.dual(d)[0])

    def dim(self, d):
        return len(self.ring.monomial_basis(d)) - self.codim(d)

    def quotient_monomials(self, d):
        """Indices of the monomials spanning (Q/I)_d."""
        return self.dual(d)[1]

    def reduce(self, d, vec):
        """Normal form of vec (or of each row of a 2-D vec) modulo I_d, over
        all degree-d monomials (zero off the quotient monomials)."""
        f = self.ring.field
        nf, q = self.dual(d)
        v = np.array(vec, dtype=nf.dtype)
        out = linalg.zeros(f, v.shape)
        out[..., q] = linalg.matmul(f, v, nf.T)
        return out

    def multiplication(self, k, d):
        """Multiplication by x_k from (Q/I)_d to (Q/I)_(d+1), over the
        quotient monomial bases: row i is the normal form of x_k times the
        i-th quotient monomial of degree d."""
        up = shift_table(self.ring.nvars, d)[k, self.quotient_monomials(d)]
        return self.dual(d + 1)[0][:, up].T

    def socle(self, d):
        """Basis of the degree-d elements of Q/I killed by every variable,
        as the rows of an array over the quotient monomials of degree d."""
        maps = [self.multiplication(k, d).T for k in range(self.ring.nvars)]
        rows = np.concatenate(maps) if maps else []  # no variables: all of A_d
        return linalg.kernel_rows(self.ring.field, rows, self.codim(d))

    def contains(self, poly):
        if poly.is_zero():
            return True
        if not poly.is_homogeneous():
            raise ValueError("membership test requires a homogeneous polynomial")
        d = poly.degree()
        return not self.reduce(d, poly.coefficient_vector(d)).any()


def ideal_slices(ring, generators, dmax):
    """Slices of the ideal generated by homogeneous polynomials, through dmax."""
    if generators:
        top = max(g.degree() for g in generators)
        if dmax < top:
            raise ValueError("dmax below the largest generator degree")
    s = IdealSlices(ring, generators)
    s.ensure(dmax)
    return s


def minimal_generators(slices, dmax):
    """Canonical minimal generators of the ideal, scanning degrees 1..dmax.

    In each degree the new generators are the echelon rows of slice(d)
    whose pivot is not a pivot of (variables * slice(d-1)); they span the
    complement with zeros on those pivots, and their count equals the first
    graded Betti number beta_{1,d} of the quotient.
    """
    ring = slices.ring
    gens = []
    prev_rows = slices.slice(0)[0]
    for d in range(1, dmax + 1):
        up_pivots = set()
        if len(prev_rows):
            up = slices._multiply_up(d - 1, prev_rows)
            ncols = len(ring.monomial_basis(d))
            _, piv = linalg._reduce_rows(ring.field, up, ncols, rank_only=True)
            up_pivots = set(piv)
        rows, piv = slices.slice(d)
        gens.extend(
            Poly.from_vector(ring, d, row)
            for row, c in zip(rows.tolist(), piv)
            if c not in up_pivots
        )
        prev_rows = rows
    return gens


def _macaulay_bound(h, d):
    """(h^<d>, e) for h >= 1, d >= 1: the largest value Macaulay's theorem
    allows at degree d+1 after the value h at degree d, and e = k - d for the
    leading binomial C(k, d) of the d-th Macaulay representation of h."""
    bound, e = 0, None
    for i in range(d, 0, -1):
        if not h:
            break
        k = i
        while comb(k + 1, i) <= h:
            k += 1
        if e is None:
            e = k - d
        h -= comb(k, i)
        bound += comb(k + 1, i + 1)
    return bound, e


def _stabilized(dims, gen_top, nvars):
    """(d, e) once the codimension sequence provably (or confidently) follows
    a Hilbert polynomial of degree e from degree d on, else None.

    Two triggers, whichever fires first.  Gotzmann persistence: with no
    generators past d >= 1, h_(d+1) = h_d^<d> (the largest growth Macaulay
    allows) forces h_(t+1) = h_t^<t> for every t >= d, so the Hilbert
    polynomial is determined, of degree e = k - d for the leading binomial
    C(k, d) of h_d; a constant c <= d is the case e = 0.
    Plateau: nvars+2 equal values ending past the generator degrees (e = 0);
    this is a heuristic cutoff for quotients whose constant value is large,
    kept because scanning up to degree c is prohibitively wide in many
    variables.
    """
    d = len(dims) - 2
    if d >= max(gen_top, 1) and dims[d]:
        bound, e = _macaulay_bound(dims[d], d)
        if dims[d + 1] == bound:
            return d, e
    window = nvars + 1
    top = len(dims) - 1
    if (
        top >= gen_top
        and len(dims) > window
        and len(set(dims[-(window + 1):])) == 1
    ):
        return top - window, 0
    return None


class Algebra:
    """A graded quotient A = Q/I presented by homogeneous generators."""

    def __init__(self, ring, generators, degree_cap=DEFAULT_DEGREE_CAP):
        self.ring = ring
        self.slices = IdealSlices(ring, generators)
        self.degree_cap = degree_cap
        self._hf = None

    @classmethod
    def from_slices(cls, slices, degree_cap=DEFAULT_DEGREE_CAP):
        obj = cls(slices.ring, [], degree_cap)
        obj.slices = slices
        return obj

    @property
    def generators(self):
        return self.slices.generators

    def hilbert_scan(self):
        """(dims, stab): the codimensions from degree 0 up to the first 0
        (Artinian), the degree where _stabilized fires, or the degree cap;
        stab is the (degree, e) verdict of _stabilized, else None."""
        bound = self.slices.generator_degree_bound
        dims = []
        for d in range(self.degree_cap + 1):
            dims.append(self.slices.codim(d))
            if dims[-1] == 0:
                break
            stab = _stabilized(dims, bound, self.ring.nvars)
            if stab is not None:
                return dims, stab
        return dims, None

    def hilbert_function(self):
        """Hilbert function through the socle degree (Artinian inputs only).

        A non-Artinian input is detected early by either trigger of
        _stabilized (Gotzmann persistence, or a long plateau past the
        generator degrees), else by hitting the degree cap.
        """
        if self._hf is None:
            dims, stab = self.hilbert_scan()
            if stab is not None:
                start, e = stab
                raise NotArtinianError(
                    f"Hilbert function is constant ({dims[-1]}) from degree "
                    f"{start} on; not Artinian" if e == 0 else
                    f"Hilbert polynomial has degree {e} from degree "
                    f"{start} on; not Artinian"
                )
            if not dims or dims[-1]:
                raise NotArtinianError(
                    f"not Artinian within degree cap {self.degree_cap}"
                )
            while dims and dims[-1] == 0:
                dims.pop()
            self._hf = tuple(dims)
        return self._hf

    @property
    def socle_degree(self):
        return len(self.hilbert_function()) - 1

    def dimension_k(self):
        return sum(self.hilbert_function())

    def hilbert_values(self, dmax):
        """Codimension sequence through dmax, no Artinian assumption."""
        return [self.slices.codim(d) for d in range(dmax + 1)]

    def minimal_presentation(self):
        """Canonical minimal generators (through socle degree + 1)."""
        return minimal_generators(self.slices, self.socle_degree + 1)

    def __repr__(self):
        return f"Algebra({self.ring}, {len(self.slices.generators)} gens)"
