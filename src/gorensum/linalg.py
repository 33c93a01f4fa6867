"""Exact dense linear algebra: reduced row echelon form, rank, kernels.

Matrices and echelon forms are 2-D numpy arrays: int64 with entries in
0..p-1 over GF(p), and `object` arrays of `Fraction` over QQ.  An echelon
form is the pair (rows, pivot columns), with rows a (rank, ncols) array and
pivots a list of ints; functions here accept an array or a list of rows.
Two engines sit behind one interface: a vectorized numpy engine for prime
fields and a Fraction engine for the rationals.  The prime engine reduces
every entry into 0..p-1 after each step, so no int64 intermediate exceeds
(p-1)^2 + p - 1, which the cap on GF keeps below 2^63: every shape is exact
for every prime GF accepts.  `matmul` sums k products in int64 while that
sum stays below 2^63, and in Python integers past it, so it is exact too.
Everything is deterministic: pivots are always the first nonzero entry
scanning left to right, top to bottom, so identical inputs give
bit-identical echelon forms.
"""

from fractions import Fraction

import numpy as np


class Matrix:
    """A 2-D array over an exact field, with its shape: the argument of rref
    and rank."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = zeros(field, (nrows, ncols)) if rows is None else rows

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def zeros(field, shape):
    if field.is_prime_field:
        return np.zeros(shape, dtype=np.int64)
    return np.full(shape, Fraction(0), dtype=object)


def identity(field, n):
    out = zeros(field, (n, n))
    out[np.arange(n), np.arange(n)] = field.one
    return out


def to_array(field, rows, ncols):
    """A list of rows as the field's 2-D array type."""
    dtype = np.int64 if field.is_prime_field else object
    return np.array(rows, dtype=dtype).reshape(len(rows), ncols)


def neg(field, a):
    return -a % field.p if field.is_prime_field else -a


def matmul(field, a, b):
    """a @ b over the field; over GF(p) an inner dimension at which the
    int64 sum could overflow is multiplied in Python integers instead."""
    if not field.is_prime_field:
        return a @ b
    if a.shape[-1] * (field.p - 1) ** 2 < 2**63:
        return a @ b % field.p
    return (a.astype(object) @ b.astype(object) % field.p).astype(np.int64)


def _rref_prime(p, rows, ncols, rank_only=False):
    # Every entry stays in 0..p-1, so no intermediate exceeds (p-1)^2 + p - 1.
    # m[:free] holds the unused rows, zero left of column c; each pivot row
    # retires to m[free - 1], so m[free:] is the echelon form upside down.
    nrows = len(rows)
    if not nrows or ncols == 0:
        return np.zeros((0, ncols), dtype=np.int64), []
    m = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
    m %= p
    pivots = []
    free = nrows
    for c in range(ncols):
        # rank_only clears the free rows only, a full RREF every row
        nz = (m[:free, c] if rank_only else m[:, c]).nonzero()[0]
        if not nz.size or nz[0] >= free:
            continue
        k = nz[0]
        prow = m[k, c:] * pow(int(m[k, c]), -1, p) % p
        hit = nz[1:]
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
    return np.ascontiguousarray(m[free:][::-1]), pivots


def _rref_rational(rows, ncols, rank_only=False):
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    nrows = len(work)
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        if inv != 1:
            work[r] = [x * inv for x in work[r]]
        rng = range(r + 1, nrows) if rank_only else range(nrows)
        prow = work[r]
        for i in rng:
            if i == r:
                continue
            f = work[i][c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        pivots.append(c)
        r += 1
    out = np.empty((r, ncols), dtype=object)
    if r:
        out[:] = work[:r]
    return out, pivots


def rref(matrix):
    """Reduced row echelon form.  Returns (echelon Matrix, pivot columns)."""
    red, piv = _reduce_rows(matrix.field, matrix.rows, matrix.ncols)
    return Matrix(matrix.field, len(red), matrix.ncols, red), piv


def rank(matrix):
    _, piv = _reduce_rows(matrix.field, matrix.rows, matrix.ncols, rank_only=True)
    return len(piv)


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


def _reduce_rows(field, rows, ncols, rank_only=False):
    """(echelon rows, pivot columns); the rows are the canonical reduced
    echelon form unless rank_only, which stops after forward elimination
    (the pivots are the same either way)."""
    if field.is_prime_field:
        return _rref_prime(field.p, rows, ncols, rank_only)
    return _rref_rational(rows, ncols, rank_only)


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
    """Incrementally maintained row-echelon basis of a subspace of K^n."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Forward-eliminate vec against the basis; returns the remainder."""
        f = self.field
        v = list(vec)
        for row, c in zip(self.rows, self.pivots):
            coef = v[c]
            if coef:
                v = [f.sub(a, f.mul(coef, b)) for a, b in zip(v, row)]
        return v

    def insert(self, vec):
        """Add vec to the span; returns the normalized remainder if it was
        independent, else None."""
        f = self.field
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return None
        inv = f.inv(v[piv])
        if inv != f.one:
            v = [f.mul(inv, x) for x in v]
        k = 0
        while k < len(self.pivots) and self.pivots[k] < piv:
            k += 1
        self.rows.insert(k, v)
        self.pivots.insert(k, piv)
        return v

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
