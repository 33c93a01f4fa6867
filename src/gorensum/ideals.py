"""Degreewise (slice) representation of homogeneous ideals and quotients.

Every ideal in scope cuts out an Artinian or 1-dimensional quotient, so a
finite list of graded slices suffices; no Groebner machinery is needed.
Slice d is the canonical reduced row echelon form (rows, pivots) of I_d over
the degree-d monomial basis, rows being a 2-D numpy array as in `linalg`
(int64 over GF(p), Fraction objects over QQ); this makes generator
extraction and all downstream comparisons canonical.

An IdealSlices is built either from generators, which are then its
`generators` and whose multiples make up each slice, or from rows spanning
all of I_d in degrees 0..top (`from_degree_rows`, e.g. catalecticant
kernels), when its `generators` are the canonical minimal generators read
off those slices on first use.
"""

from math import comb

import numpy as np

from . import linalg
from .poly import Poly, shift_table


class NotArtinianError(Exception):
    pass


class InternalCheckError(Exception):
    """Two independent computations of one answer disagree."""


DEFAULT_DEGREE_CAP = 64


class IdealSlices:
    """Graded slices of a homogeneous ideal, echelonized per degree."""

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
        # per degree: (echelon rows, pivot columns)
        self._slices = []
        self._extra_rows = {}  # complete degrees given as rows (from_degree_rows)

    @classmethod
    def from_degree_rows(cls, ring, rows_by_degree):
        """Build slices from raw per-degree rows instead of generators.

        Each given degree must be complete: its rows span all of I_d, as the
        catalecticant kernels ker(cat_d) = Ann(F)_d of an annihilator or
        the intersections Ann(F)_d & Ann(G)_d of two do.  Slice d is then the
        reduced echelon form of those rows alone, with no multiply-up from
        degree d-1; degrees past the last given one are multiplied up.
        The given degrees run from 0 to the largest, which bounds the
        generator degrees.
        """
        obj = cls(ring, [])
        obj._extra_rows = dict(rows_by_degree)
        obj.generator_degree_bound = max(obj._extra_rows, default=0)
        obj._generators = None
        return obj

    @property
    def generators(self):
        """The given generators, or the canonical minimal generators of
        slices built from complete degrees (computed on first read)."""
        if self._generators is None:
            self._generators = minimal_generators(self, self.generator_degree_bound)
        return self._generators

    def ensure(self, dmax):
        f = self.ring.field
        while len(self._slices) <= dmax:
            d = len(self._slices)
            ncols = len(self.ring.monomial_basis(d))
            # the blocks _rows stacks are freed before the elimination runs
            self._slices.append(linalg._reduce_rows(f, self._rows(d, ncols), ncols))
            self._extra_rows.pop(d, None)  # given rows are not needed again

    def _rows(self, d, ncols):
        """Rows spanning I_d: the given rows of a complete degree, else the
        variables times slice(d-1) stacked on the degree-d generators."""
        if d in self._extra_rows:
            return self._extra_rows[d]
        f = self.ring.field
        blocks = []
        if d > 0 and len(self._slices[d - 1][0]):
            blocks.append(self._multiply_up(d - 1, self._slices[d - 1][0]))
        gens = self._gens_by_degree.get(d)
        if gens:
            blocks.append(linalg.to_array(
                f, [g.coefficient_vector(d) for g in gens], ncols
            ))
        if len(blocks) > 1:
            return np.concatenate(blocks)
        return blocks[0] if blocks else linalg.zeros(f, (0, ncols))

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

    def slice(self, d):
        self.ensure(d)
        return self._slices[d]

    def dim(self, d):
        return len(self.slice(d)[0])

    def codim(self, d):
        return len(self.ring.monomial_basis(d)) - self.dim(d)

    def quotient_monomials(self, d):
        """Indices of the monomials spanning (Q/I)_d (non-pivot columns)."""
        _, piv = self.slice(d)
        pivset = set(piv)
        return [i for i in range(len(self.ring.monomial_basis(d))) if i not in pivset]

    def reduce(self, d, vec):
        """Normal form of vec (or of each row of a 2-D vec) modulo I_d."""
        red, piv = self.slice(d)
        return linalg.reduce_vector(self.ring.field, red, piv, vec)

    def multiplication(self, k, d):
        """Multiplication by x_k from (Q/I)_d to (Q/I)_(d+1), over the
        quotient monomial bases: row i is the image of the i-th quotient
        monomial m of degree d.

        The normal form of x_k*m is read off the echelon slice: minus the
        row pivoted at x_k*m (whose other entries all sit on quotient
        monomials), or x_k*m itself when it is a quotient monomial.
        """
        f = self.ring.field
        rows, piv = self.slice(d + 1)
        up_q = self.quotient_monomials(d + 1)
        normal = linalg.zeros(f, (len(self.ring.monomial_basis(d + 1)), len(up_q)))
        normal[piv] = linalg.neg(f, rows[:, up_q])
        normal[up_q, np.arange(len(up_q))] = f.one
        return normal[shift_table(self.ring.nvars, d)[k, self.quotient_monomials(d)]]

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
    for d in range(1, dmax + 1):
        prev_rows, _ = slices.slice(d - 1)
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
