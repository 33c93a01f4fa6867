"""Degreewise (slice) representation of homogeneous ideals and quotients.

Every ideal in scope cuts out an Artinian or 1-dimensional quotient, so a
finite list of graded slices suffices; no Groebner machinery is needed.
Slice d is stored as a reduced row echelon basis over the degree-d monomial
basis, which makes generator extraction and all downstream comparisons
canonical.
"""

from . import linalg
from .poly import Poly


class NotArtinianError(Exception):
    pass


DEFAULT_DEGREE_CAP = 64


class IdealSlices:
    """Graded slices of a homogeneous ideal, echelonized per degree."""

    def __init__(self, ring, generators):
        for k, g in enumerate(generators):
            if not g.is_homogeneous():
                raise ValueError(f"generator {k} is not homogeneous")
        self.ring = ring
        self.generators = [g for g in generators if not g.is_zero()]
        self._gens_by_degree = {}
        for g in self.generators:
            self._gens_by_degree.setdefault(g.degree(), []).append(g)
        # per degree: (echelon rows, pivot columns)
        self._slices = []
        self._extra_rows = {}  # raw slice rows injected directly (kernel route)

    @classmethod
    def from_degree_rows(cls, ring, rows_by_degree):
        """Build slices from raw per-degree row lists instead of generators.

        Used for annihilator ideals, whose slices come from catalecticant
        kernels; generators are recovered afterwards via minimal_generators.
        """
        obj = cls(ring, [])
        obj._extra_rows = {d: rows for d, rows in rows_by_degree.items()}
        return obj

    def ensure(self, dmax):
        ring = self.ring
        f = ring.field
        while len(self._slices) <= dmax:
            d = len(self._slices)
            rows = []
            if d > 0 and self._slices[d - 1][0]:
                rows.extend(self._multiply_up(d - 1, self._slices[d - 1][0]))
            for g in self._gens_by_degree.get(d, []):
                rows.append(g.coefficient_vector(d))
            for raw in self._extra_rows.get(d, []):
                rows.append(list(raw))
            ncols = len(ring.monomial_basis(d))
            red, piv = linalg._reduce_rows(f, rows, ncols)
            self._slices.append((red, piv))

    def _multiply_up(self, d, rows):
        """Vectors of x_k * (degree-d rows) inside degree d+1."""
        ring = self.ring
        f = ring.field
        basis = ring.monomial_basis(d)
        up_index = ring.monomial_index(d + 1)
        n = ring.nvars
        shift = []
        for e in basis:
            targets = []
            for k in range(n):
                e2 = list(e)
                e2[k] += 1
                targets.append(up_index[tuple(e2)])
            shift.append(targets)
        ncols_up = len(up_index)
        out = []
        for row in rows:
            for k in range(n):
                v = [f.zero] * ncols_up
                for i, c in enumerate(row):
                    if c:
                        j = shift[i][k]
                        v[j] = f.add(v[j], c)
                out.append(v)
        return out

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
        red, piv = self.slice(d)
        return linalg.reduce_vector(self.ring.field, red, piv, vec)

    def multiplication(self, k, d):
        """Multiplication by x_k from (Q/I)_d to (Q/I)_(d+1), over the
        quotient monomial bases: one column per quotient monomial m of
        degree d.

        The normal form of x_k*m is read off the echelon slice: minus the
        row pivoted at x_k*m (whose other entries all sit on quotient
        monomials), or x_k*m itself when it is a quotient monomial.
        """
        f = self.ring.field
        rows, piv = self.slice(d + 1)
        row_at = dict(zip(piv, rows))
        up_q = self.quotient_monomials(d + 1)
        up_pos = {m: r for r, m in enumerate(up_q)}
        basis = self.ring.monomial_basis(d)
        up_index = self.ring.monomial_index(d + 1)
        cols = []
        for m in self.quotient_monomials(d):
            e = list(basis[m])
            e[k] += 1
            j = up_index[tuple(e)]
            if j in row_at:
                row = row_at[j]
                cols.append([f.neg(row[q]) for q in up_q])
            else:
                col = [f.zero] * len(up_q)
                col[up_pos[j]] = f.one
                cols.append(col)
        return cols

    def socle(self, d):
        """Basis of the degree-d elements of Q/I killed by every variable,
        as rows over the quotient monomials of degree d."""
        rows = []
        for k in range(self.ring.nvars):
            rows.extend(list(r) for r in zip(*self.multiplication(k, d)))
        return linalg.kernel_rows(self.ring.field, rows, self.codim(d))

    def contains(self, poly):
        if poly.is_zero():
            return True
        if not poly.is_homogeneous():
            raise ValueError("membership test requires a homogeneous polynomial")
        d = poly.degree()
        return not any(self.reduce(d, poly.coefficient_vector(d)))


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
        if prev_rows:
            up = slices._multiply_up(d - 1, prev_rows)
            ncols = len(ring.monomial_basis(d))
            _, piv = linalg._reduce_rows(ring.field, up, ncols, rank_only=True)
            up_pivots = set(piv)
        rows, piv = slices.slice(d)
        gens.extend(
            Poly.from_vector(ring, d, row)
            for row, c in zip(rows, piv)
            if c not in up_pivots
        )
    return gens


def _stabilized(dims, gen_top, nvars):
    """First degree from which the codimension sequence is provably (or
    confidently) constant, else None.

    Two triggers, whichever fires first.  Persistence: two equal values
    c <= d-1 at degrees d-1, d with no generators past d-1 force the value c
    forever (minimal Macaulay growth of a constant c <= d persists).
    Plateau: nvars+2 equal values ending past the generator degrees; this is
    a heuristic cutoff for quotients whose constant value is large, kept
    because scanning up to degree c is prohibitively wide in many variables.
    """
    d = len(dims) - 1
    c = dims[-1]
    if d >= 1 and dims[d - 1] == c and d - 1 >= gen_top and c <= d - 1:
        return d - 1
    window = nvars + 1
    if (
        d >= gen_top
        and len(dims) > window
        and len(set(dims[-(window + 1):])) == 1
    ):
        return d - window
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
        obj = cls.__new__(cls)
        obj.ring = slices.ring
        obj.slices = slices
        obj.degree_cap = degree_cap
        obj._hf = None
        return obj

    @property
    def generators(self):
        return self.slices.generators

    def hilbert_function(self):
        """Hilbert function through the socle degree (Artinian inputs only).

        A non-Artinian input is detected early by either trigger of
        _stabilized (persistence of minimal growth, or a long plateau past
        the generator degrees), else by hitting the degree cap.
        """
        if self._hf is None:
            gen_top = max((g.degree() for g in self.slices.generators), default=0)
            gen_top = max(gen_top, *self.slices._extra_rows.keys(), 0) \
                if self.slices._extra_rows else gen_top
            dims = []
            for d in range(self.degree_cap + 1):
                c = self.slices.codim(d)
                dims.append(c)
                if c == 0:
                    break
                stab = _stabilized(dims, gen_top, self.ring.nvars)
                if stab is not None:
                    raise NotArtinianError(
                        f"Hilbert function is constant ({c}) from degree "
                        f"{stab} on; not Artinian"
                    )
            else:
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
