"""Exact dense linear algebra: reduced row echelon form, rank, kernels.

Two engines sit behind one interface: a vectorized numpy engine for prime
fields and a Fraction engine for the rationals.  The prime engine reduces
lazily in int64: with k = min(rows, cols) pivots no entry exceeds
k*(p-1)^2 + p, so it refuses (ValueError) any shape and prime for which that
bound reaches 2^63 instead of returning a wrong answer.  Everything is
deterministic: pivots are always the first nonzero entry scanning left to
right, top to bottom, so identical inputs give bit-identical echelon forms.
"""

import numpy as np


class Matrix:
    """Dense matrix over an exact field, stored as a list of rows."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            z = field.zero
            rows = [[z] * ncols for _ in range(nrows)]
        self.rows = rows

    @classmethod
    def from_rows(cls, field, rows, ncols):
        return cls(field, len(rows), ncols, [list(r) for r in rows])

    @classmethod
    def identity(cls, field, n):
        m = cls(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    def transpose(self):
        t = [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return Matrix(self.field, self.ncols, self.nrows, t)

    def mul_vector(self, v):
        f = self.field
        out = []
        for row in self.rows:
            acc = f.zero
            for a, b in zip(row, v):
                if a and b:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def _rref_prime(p, rows, ncols, rank_only=False):
    # Lazy modular reduction: the pivot row is normalized mod p, so one
    # elimination step grows an entry by at most (p-1)^2, and there are at
    # most min(rows, cols) steps; columns are reduced only when read.
    if not rows or ncols == 0:
        return [], []
    if min(len(rows), ncols) * (p - 1) ** 2 + p >= 2**63:
        raise ValueError(
            f"GF({p}): a {len(rows)}x{ncols} elimination could overflow int64"
        )
    m = np.array(rows, dtype=np.int64) % p
    nrows = m.shape[0]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        below = m[r:, c] % p
        nz = np.nonzero(below)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] %= p
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c] % p
        col[r] = 0
        if rank_only:
            # only rows below the pivot matter for rank
            col[:r] = 0
        touched = np.nonzero(col)[0]
        if touched.size:
            m[touched] -= np.outer(col[touched], m[r])
        pivots.append(c)
        r += 1
    reduced = [[int(x) for x in row] for row in m[:r] % p]
    return reduced, pivots


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
    return work[:r], pivots


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
    rows = _transpose_rows(ker, matrix.ncols)
    return Matrix(matrix.field, matrix.ncols, len(ker), rows)


def kernel_rows(field, rows, ncols):
    """Canonical basis of the kernel of the matrix given as a row list.

    The basis comes from the reduced echelon form: one vector per free
    column, with a 1 in the free position, so there are ncols - rank of them
    (rank-nullity).  Kernel vectors are returned as rows.
    """
    red, piv = _reduce_rows(field, rows, ncols)
    pivset = set(piv)
    out = []
    for c in range(ncols):
        if c in pivset:
            continue
        v = [field.zero] * ncols
        v[c] = field.one
        for row, pc in zip(red, piv):
            v[pc] = field.neg(row[c])
        out.append(v)
    return out


def reduce_vector(field, red_rows, pivots, vec):
    """Reduce vec against echelon rows (pivot entries normalized to 1)."""
    v = list(vec)
    for row, c in zip(red_rows, pivots):
        coef = v[c]
        if coef:
            v = [field.sub(a, field.mul(coef, b)) for a, b in zip(v, row)]
    return v


def row_space_equal(field, rows_a, rows_b, ncols):
    return _reduce_rows(field, rows_a, ncols) == _reduce_rows(field, rows_b, ncols)


def _reduce_rows(field, rows, ncols, rank_only=False):
    """(echelon rows, pivot columns); the rows are the canonical reduced
    echelon form unless rank_only, which stops after forward elimination
    (the pivots are the same either way)."""
    if field.is_prime_field:
        return _rref_prime(field.p, rows, ncols, rank_only)
    return _rref_rational(rows, ncols, rank_only)


def row_space_intersection(field, rows_a, rows_b, ncols):
    """Echelon basis of the intersection of two row spaces."""
    ra, _ = _reduce_rows(field, rows_a, ncols)
    rb, _ = _reduce_rows(field, rows_b, ncols)
    if not ra or not rb:
        return []
    # alpha * ra = beta * rb  <=>  (alpha, -beta) in ker of the stacked map
    stacked = [list(r) for r in ra] + [[field.neg(x) for x in r] for r in rb]
    coeffs = kernel_rows(field, _transpose_rows(stacked, ncols), len(stacked))
    inter = []
    for cv in coeffs:
        v = [field.zero] * ncols
        for a, row in zip(cv[: len(ra)], ra):
            if a:
                v = [field.add(x, field.mul(a, y)) for x, y in zip(v, row)]
        inter.append(v)
    red, _ = _reduce_rows(field, inter, ncols)
    return red


def _transpose_rows(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


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
    aug_rows = [row + [b] for row, b in zip(matrix.rows, rhs)]
    red, piv = _reduce_rows(f, aug_rows, matrix.ncols + 1)
    if matrix.ncols in piv:
        return None
    x = [f.zero] * matrix.ncols
    for k, c in enumerate(piv):
        x[c] = red[k][matrix.ncols]
    return x
