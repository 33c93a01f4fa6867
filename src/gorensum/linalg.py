"""Exact linear algebra: reduced row echelon form, rank, kernels.

A matrix is a list of rows, each a dict {column: nonzero entry} of field
elements: ints in 0..p-1 over GF(p), `Fraction`s over QQ.  The column count
travels beside the rows where it is needed.  An echelon form is the pair
(rows, pivot columns), the rows in the order of their pivots.

One kernel answers every elimination: sparse pivot-row elimination
(J.-C. Faugere and S. Lachartre, PASCO 2010).  Its forward pass, `_forward`,
reduces each row by the stored pivot row at its leading column until it is
zero or leads at a new pivot, where it is stored as it stands; a stored row
is scaled to lead 1 (the 1 left implicit) only when it first reduces
another, and about half never do.  The pivots do not depend on the order of
the rows, so the sparsest go first, which fills in least.
`pivot_columns` stops there: `rank`, the Koszul oracle and minimal
generators need only the pivots.  `_rref` goes on with back substitution by
descending pivot, which clears every pivot column above its pivot and gives
the canonical reduced echelon form (kernels, the integration, the slices).
Over GF(p) entries are Python ints reduced mod p after every update, so
every prime GF accepts is exact; over QQ they are `Fraction`s.
`matmul` multiplies sparse rows into a matrix given by its rows.
Everything is deterministic: pivots are the first nonzero entry scanning
left to right, and the reduced echelon form of a span is unique, so
identical inputs give identical echelon forms.
"""

from fractions import Fraction


class Matrix:
    """A list of nrows dict rows over an exact field, with its shape: the
    argument of rref and rank, which leaves the pivot columns in pivots."""

    __slots__ = ("field", "nrows", "ncols", "rows", "pivots")

    def __init__(self, field, nrows, ncols, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self.pivots = None

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def transpose(rows, ncols):
    """The ncols columns of a matrix given by its dict rows, as dict rows."""
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def matmul(field, a, b):
    """a b for matrices given by their dict rows: row i is the sum of
    a[i][k] * b[k] over the entries of a[i]."""
    p = field.p
    out = []
    for coeffs in a:
        acc = {}
        for k, c in coeffs.items():
            for j, x in b[k].items():
                acc[j] = acc.get(j, 0) + c * x
        if p is None:
            out.append({j: x for j, x in acc.items() if x})
        else:
            out.append({j: y for j, x in acc.items() if (y := x % p)})
    return out


def _inverse(p, a):
    return pow(a, -1, p) if p is not None else 1 / Fraction(a)


def _subtract(p, row, f, prow):
    """row -= f * prow, in place, entries kept nonzero."""
    if p is None:
        for k, x in prow.items():
            x = row.get(k, 0) - f * x
            if x:
                row[k] = x
            else:
                del row[k]
    else:
        for k, x in prow.items():
            x = (row.get(k, 0) - f * x) % p
            if x:
                row[k] = x
            else:
                del row[k]


def _forward(p, rows):
    """The forward pass over GF(p), or over QQ when p is None: ({pivot
    column: stored row without its leading entry}, {pivot: leading entry of
    each stored row not yet scaled}).  The rows are read, not changed."""
    stored = {}
    unscaled = {}
    for row in sorted(map(dict, rows), key=len):
        while row:
            lead = min(row)
            f = row.pop(lead)
            prow = stored.get(lead)
            if prow is None:
                stored[lead], unscaled[lead] = row, f
                break
            if lead in unscaled:
                inv = _inverse(p, unscaled.pop(lead))
                prow = stored[lead] = _scaled(p, prow, inv)
            _subtract(p, row, f, prow)
    return stored, unscaled


def _scaled(p, row, c):
    if p is None:
        return {k: x * c for k, x in row.items()}
    return {k: x * c % p for k, x in row.items()}


def pivot_columns(field, rows, ncols):
    """The pivot columns of the reduced echelon form of the matrix given by
    its dict rows, ascending: the forward pass alone."""
    return sorted(_forward(field.p, rows)[0])


def _rref(p, rows):
    """(canonical reduced echelon rows, pivots): the forward pass, then each
    stored row, by descending pivot, scaled to lead 1 and cleared at the
    pivots right of its own by the rows already reduced there."""
    stored, unscaled = _forward(p, rows)
    pivots = sorted(stored)
    done = {}
    for c in reversed(pivots):
        row = stored[c]
        if c in unscaled:
            row = _scaled(p, row, _inverse(p, unscaled[c]))
        for k in [k for k in row if k in done]:
            _subtract(p, row, row.pop(k), done[k])
        done[c] = row
    one = 1 if p is not None else Fraction(1)
    return [{c: one, **done[c]} for c in pivots], pivots


def _rref_prime(p, rows, ncols):
    return _rref(p, rows)


def _rref_rational(rows, ncols):
    return _rref(None, rows)


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
    return Matrix(matrix.field, matrix.ncols, len(ker), transpose(ker, matrix.ncols))


def kernel_rows(field, rows, ncols):
    """Canonical basis of the kernel of the matrix given by its rows.

    The basis comes from the reduced echelon form: one vector per free
    column, with a 1 in the free position and minus that column of the
    echelon form at the pivots, so there are ncols - rank of them
    (rank-nullity), in the order of their free columns.
    """
    red, piv = _reduce_rows(field, rows, ncols)
    at_pivots = {}
    for row, c in zip(red, piv):
        for j, x in row.items():
            if j != c:
                at_pivots.setdefault(j, {})[c] = field.neg(x)
    free = sorted(set(range(ncols)).difference(piv))
    return [{j: field.one, **at_pivots.get(j, {})} for j in free]


def reduce_vector(field, red_rows, pivots, vec):
    """Remainder of the dict row vec modulo the row space of an echelon form
    that is the identity at its pivots: vec - vec[pivots] . red_rows."""
    v = dict(vec)
    for row, c in zip(red_rows, pivots):
        f = v.get(c)
        if f:
            _subtract(field.p, v, f, row)
    return v


def echelon_equal(a, b):
    """Equality of two canonical echelon forms (rows, pivots)."""
    return a[1] == b[1] and a[0] == b[0]


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
    if not ra or not rb:
        return []
    # alpha * ra = beta * rb  <=>  (alpha, -beta) in ker of the stacked map
    stacked = ra + [{j: field.neg(x) for j, x in row.items()} for row in rb]
    coeffs = kernel_rows(field, transpose(stacked, ncols), len(stacked))
    alphas = [{i: x for i, x in row.items() if i < len(ra)} for row in coeffs]
    red, _ = _reduce_rows(field, matmul(field, alphas, ra), ncols)
    return red


class EchelonBasis:
    """Incrementally grown subspace of K^n, held as its canonical reduced
    echelon form (rows, pivots)."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.pivots)

    def reduce(self, vec):
        """The remainder of the dict row vec modulo the span: zero at every
        pivot."""
        return reduce_vector(self.field, self.rows, self.pivots, vec)

    def insert(self, vec):
        """Add vec to the span; returns the normalized remainder if it was
        independent, else None."""
        v = self.reduce(vec)
        if not v:
            return None
        piv = min(v)
        self.rows, self.pivots = _reduce_rows(self.field, self.rows + [v], self.ncols)
        # the echelon row at piv is the one vector of the span that is 1 at
        # piv and 0 at every other pivot: the normalized remainder
        return self.rows[self.pivots.index(piv)]

    def contains(self, vec):
        return not self.reduce(vec)


def solve_particular(matrix, rhs):
    """Canonical solution of matrix*x = rhs (free variables zero), as a dict
    row, or None."""
    n = matrix.ncols
    aug = [{**row, n: b} if b else row for row, b in zip(matrix.rows, rhs)]
    red, piv = _reduce_rows(matrix.field, aug, n + 1)
    if n in piv:
        return None
    return {c: row[n] for row, c in zip(red, piv) if n in row}
