"""Exact linear algebra: reduced row echelon form, rank, kernels.

Matrices and echelon forms are 2-D numpy arrays: int64 with entries in
0..p-1 over GF(p), and `object` arrays of `Fraction` over QQ (work arrays
from `zeros` hold the int 0).  An echelon form is the pair (rows, pivot
columns), with rows a (rank, ncols) array and pivots a list of ints;
functions here accept an array or a list of rows.

There are two kernels, one per question.  `_eliminate` gives the canonical
RREF (kernels, the integration, the slices) over both fields: rows not yet
used as pivots sit at the top, each pivot row retires in place, and only the
rows hit in the pivot column are updated, from that column on (over QQ a hit
row that already retired is scaled whole).  Over GF(p) it reduces every
entry into 0..p-1 after each step, so no int64 intermediate exceeds
(p-1)^2 + p - 1, which the cap on GF keeps below 2^63: every shape is exact
for every prime GF accepts.  Over QQ it runs on Python integers,
fraction-free (Bareiss, Math. Comp. 22, 1968): each input row is cleared of
its denominators, a hit row becomes row * a - row[c] * (pivot row) with a
the pivot entry, divided by the gcd of its entries, and each echelon row is
divided by its pivot entry only at the end, so the output is the canonical
RREF as `Fraction`s.
`pivot_columns` answers every question that needs only the pivots (`rank`,
the Koszul oracle, minimal generators) by sparse pivot-row elimination on
rows held as dicts, in Python ints mod p or in `Fraction`s.  It takes an
array or a list of rows, or the dict rows {column: nonzero entry}
themselves, which the Koszul oracle builds from the multiplication maps so
that no dense matrix is built or scanned; `rank` takes a `Matrix` holding
either and leaves its pivot columns in `Matrix.pivots`.  The Koszul
differentials are sparse: on `differential_suite(seed=7, count=25)` they are
1.7% nonzero, and the dense kernel's dozen numpy calls per pivot cost more
than the sparse kernel's arithmetic.
`matmul` over GF(p) sums k products in int64 while that sum stays below
2^63, and in Python integers past it, so it is exact too; over QQ it clears
the rows of a and the columns of b of denominators, multiplies once in
Python integers and makes one `Fraction` per nonzero output cell.
Everything is deterministic: pivots are always the first nonzero entry
scanning left to right, top to bottom, so identical inputs give
bit-identical echelon forms.
"""

from fractions import Fraction
from operator import attrgetter

import numpy as np


class Matrix:
    """A 2-D array, or a list of dict rows, over an exact field, with its
    shape: the argument of rref (arrays only) and rank, which leaves the
    pivot columns in pivots."""

    __slots__ = ("field", "nrows", "ncols", "rows", "pivots")

    def __init__(self, field, nrows, ncols, rows=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = zeros(field, (nrows, ncols)) if rows is None else rows
        self.pivots = None

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def zeros(field, shape):
    """A work array of zeros; over QQ they are the int 0, whose truth test
    costs no Python call (eliminations and products still return Fractions)."""
    return np.zeros(shape, dtype=np.int64 if field.is_prime_field else object)


def to_array(field, rows, ncols):
    """A list of rows as the field's 2-D array type."""
    dtype = np.int64 if field.is_prime_field else object
    return np.array(rows, dtype=dtype).reshape(len(rows), ncols)


def neg(field, a):
    return -a % field.p if field.is_prime_field else -a


def matmul(field, a, b):
    """a @ b over the field, for a 1-D, 2-D or stacked a and a 2-D or
    stacked b; over GF(p) an inner dimension at which the int64 sum could
    overflow is multiplied in Python integers instead."""
    if not field.is_prime_field:
        return _matmul_rational(a, b)
    if a.shape[-1] * (field.p - 1) ** 2 < 2**63:
        return a @ b % field.p
    return (a.astype(object) @ b.astype(object) % field.p).astype(np.int64)


_numerator = np.frompyfunc(attrgetter("numerator"), 1, 1)
_denominator = np.frompyfunc(attrgetter("denominator"), 1, 1)
_fraction = np.frompyfunc(Fraction, 2, 1)


def _cleared(a, axis):
    """(n, d): Python integers n and the lcm d of the denominators along
    axis, with a = n / d.  Only the nonzero entries are read."""
    nz = a.nonzero()
    num, den = _numerator(a[nz]), _denominator(a[nz])
    lcm = np.ones(a.shape, dtype=object)
    lcm[nz] = den
    lcm = np.lcm.reduce(lcm, axis=axis, keepdims=True, initial=1)
    out = np.zeros(a.shape, dtype=object)
    out[nz] = num * (np.broadcast_to(lcm, a.shape)[nz] // den)
    return out, lcm


def _fractions(num, den):
    """num / den cell by cell, as `Fraction` objects."""
    out = np.full(num.shape, Fraction(0), dtype=object)
    nz = num.nonzero()
    out[nz] = _fraction(num[nz], np.broadcast_to(den, num.shape)[nz])
    return out


def _matmul_rational(a, b):
    """a @ b over QQ: the rows of a and the columns of b are cleared of
    denominators, multiplied once in integers, and each cell divided back."""
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    if a.ndim == 1:
        return _matmul_rational(a[None], b)[..., 0, :]
    na, da = _cleared(a, -1)
    nb, db = _cleared(b, -2)
    return _fractions(na @ nb, da * db)


def _eliminate(p, rows, ncols):
    """(echelon rows, pivots) over GF(p), or over QQ when p is None.
    m[:free] holds the unused rows, zero left of column c; each pivot row
    retires to m[free - 1], so m[free:] is the echelon form upside down.
    Over QQ m holds Python integers, each row a multiple of the one the
    field arithmetic would hold, and rows are divided by their pivots last."""
    dtype = object if p is None else np.int64
    nrows = len(rows)
    if not nrows or ncols == 0:
        return np.zeros((0, ncols), dtype=dtype), []
    m = np.array(rows, dtype=dtype).reshape(nrows, ncols)
    if p is None:
        m = _primitive(_cleared(m, 1)[0])
    else:
        m %= p
    pivots = []
    free = nrows
    for c in range(ncols):
        nz = m[:, c].nonzero()[0]
        if not nz.size or nz[0] >= free:
            continue
        k = nz[0]
        hit = nz[1:]
        if p is None:
            prow = m[k, c:].copy()
            if hit.size:
                # fraction-free: row * pivot - row[c] * pivot row; a retired
                # row is nonzero left of c, so it is scaled whole
                lo = c if hit[-1] < free else 0
                blk = m[hit, lo:]
                m[hit, lo:] = _primitive(blk * prow[0] - blk[:, c - lo, None] * m[k, lo:])
        else:
            prow = m[k, c:] * pow(int(m[k, c]), -1, p) % p
            if hit.size:
                blk = m[hit, c:]
                blk -= blk[:, :1] * prow
                blk %= p
                m[hit, c:] = blk
        pivots.append(c)
        free -= 1
        m[k] = m[free]
        m[free, c:] = prow
        if not free:
            break
    out = np.ascontiguousarray(m[free:][::-1])
    if p is None:
        out = _fractions(out, out[np.arange(len(pivots)), pivots][:, None])
    return out, pivots


def _primitive(m):
    """The integer rows of m, each divided by the gcd of its entries."""
    g = np.gcd.reduce(m, axis=1, keepdims=True)
    g[g == 0] = 1
    return m // g


def _rref_prime(p, rows, ncols):
    return _eliminate(p, rows, ncols)


def _rref_rational(rows, ncols):
    return _eliminate(None, rows, ncols)


def pivot_columns(field, rows, ncols):
    """The pivot columns of the reduced echelon form of the matrix given by
    its rows, ascending, by sparse pivot-row elimination.  The rows are an
    array, a list of lists, or a list of dicts {column: nonzero entry} (read,
    not changed).  Each row is reduced by the stored pivot row at its leading
    column until it is zero or leads at a new pivot, where it is stored as
    it stands; a stored row is scaled to lead 1 (the 1 left implicit) only
    when it first reduces another, and about half never do.  The pivots of
    the echelon form do not depend on the order of the rows, so the
    sparsest go first, which fills in least.  Over GF(p) entries are Python
    ints, reduced mod p after every update."""
    p = field.p
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        sparse = sorted(map(dict, rows), key=len)
    else:
        sparse = sorted(_dict_rows(p, rows, ncols), key=len)
    stored = {}
    unscaled = {}  # the leading entry of each stored row not yet scaled
    for row in sparse:
        while row:
            lead = min(row)
            f = row.pop(lead)
            prow = stored.get(lead)
            if prow is None:
                stored[lead], unscaled[lead] = row, f
                break
            if lead in unscaled:
                inv = field.inv(unscaled.pop(lead))
                prow = stored[lead] = {k: field.mul(x, inv) for k, x in prow.items()}
            for k, x in prow.items():
                x = row.get(k, 0) - f * x
                if p is not None:
                    x %= p
                if x:
                    row[k] = x
                else:
                    del row[k]
    return sorted(stored)


def _dict_rows(p, rows, ncols):
    """The nonzero rows of a 2-D array or list of rows as dicts {column:
    entry}, entries reduced mod p over GF(p)."""
    m = np.asarray(rows, dtype=object if p is None else np.int64).reshape(len(rows), ncols)
    r, c = m.nonzero()
    vals = m[r, c]
    if p is not None:
        vals %= p
        keep = vals != 0
        r, c, vals = r[keep], c[keep], vals[keep]
    cuts = [0, *(np.flatnonzero(np.diff(r)) + 1).tolist(), len(r)]
    c, vals = c.tolist(), vals.tolist()
    return [dict(zip(c[a:b], vals[a:b])) for a, b in zip(cuts, cuts[1:])]


def rref(matrix):
    """Reduced row echelon form.  Returns (echelon Matrix, pivot columns)."""
    red, piv = _reduce_rows(matrix.field, matrix.rows, matrix.ncols)
    return Matrix(matrix.field, len(red), matrix.ncols, red), piv


def rank(matrix):
    """The rank of matrix; its pivot columns are left in matrix.pivots."""
    matrix.pivots = pivot_columns(matrix.field, matrix.rows, matrix.ncols)
    return len(matrix.pivots)


def kernel_basis(matrix):
    """Matrix whose columns are the canonical basis of ker(matrix)."""
    ker = kernel_rows(matrix.field, matrix.rows, matrix.ncols)
    return Matrix(matrix.field, matrix.ncols, len(ker), ker.T)


def kernel_rows(field, rows, ncols):
    """Canonical basis of the kernel of the matrix given by its rows.

    The basis comes from the reduced echelon form: one vector per free
    column, with a 1 in the free position, so there are ncols - rank of them
    (rank-nullity).  Kernel vectors are returned as the rows of an array.
    """
    red, piv = _reduce_rows(field, rows, ncols)
    free = np.ones(ncols, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    out = zeros(field, (len(free), ncols))
    out[np.arange(len(free)), free] = field.one
    out[:, piv] = neg(field, red[:, free].T)
    return out


def reduce_vector(field, red_rows, pivots, vec):
    """Remainder of vec (or of each row of a 2-D vec) modulo the row space of
    a reduced echelon form: v - v[pivots] . red_rows."""
    v = np.array(vec, dtype=red_rows.dtype)
    if pivots:
        v = v - matmul(field, v[..., pivots], red_rows)
    return v % field.p if field.is_prime_field else v


def echelon_equal(a, b):
    """Equality of two canonical echelon forms (rows, pivots)."""
    return a[1] == b[1] and np.array_equal(a[0], b[0])


def row_space_equal(field, rows_a, rows_b, ncols):
    return echelon_equal(
        _reduce_rows(field, rows_a, ncols), _reduce_rows(field, rows_b, ncols)
    )


def _reduce_rows(field, rows, ncols):
    """(canonical reduced echelon rows, pivot columns)."""
    if field.is_prime_field:
        return _rref_prime(field.p, rows, ncols)
    return _rref_rational(rows, ncols)


def row_space_intersection(field, rows_a, rows_b, ncols):
    """Reduced echelon basis of the intersection of two row spaces."""
    ra, _ = _reduce_rows(field, rows_a, ncols)
    rb, _ = _reduce_rows(field, rows_b, ncols)
    if not len(ra) or not len(rb):
        return zeros(field, (0, ncols))
    # alpha * ra = beta * rb  <=>  (alpha, -beta) in ker of the stacked map
    stacked = np.concatenate([ra, neg(field, rb)])
    coeffs = kernel_rows(field, stacked.T, len(stacked))
    inter = matmul(field, coeffs[:, : len(ra)], ra)
    red, _ = _reduce_rows(field, inter, ncols)
    return red


class EchelonBasis:
    """Incrementally grown subspace of K^n, held as its canonical reduced
    echelon form (rows, pivots)."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = zeros(field, (0, ncols))
        self.pivots = []

    @property
    def dim(self):
        return len(self.pivots)

    def reduce(self, vec):
        """The remainder of vec modulo the span: zero at every pivot."""
        return reduce_vector(self.field, self.rows, self.pivots, vec).tolist()

    def insert(self, vec):
        """Add vec to the span; returns the normalized remainder if it was
        independent, else None."""
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        stacked = np.concatenate([self.rows, to_array(self.field, [v], self.ncols)])
        self.rows, self.pivots = _reduce_rows(self.field, stacked, self.ncols)
        # the echelon row at piv is the one vector of the span that is 1 at
        # piv and 0 at every other pivot: the normalized remainder
        return self.rows[self.pivots.index(piv)].tolist()

    def contains(self, vec):
        return not any(self.reduce(vec))


def solve_particular(matrix, rhs):
    """Canonical solution of matrix*x = rhs (free variables zero), or None."""
    f = matrix.field
    n = matrix.ncols
    aug = np.concatenate([matrix.rows, to_array(f, [[b] for b in rhs], 1)], axis=1)
    red, piv = _reduce_rows(f, aug, n + 1)
    if n in piv:
        return None
    x = zeros(f, n)
    x[piv] = red[:, n]
    return x
