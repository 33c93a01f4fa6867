"""Independent ground truth for graded Betti numbers.

Betti numbers are computed as the homology of the Koszul complex on all the
ring variables tensored with the quotient algebra, one (homological degree,
internal degree) slice at a time, by exact rank computations.  Only ranks are
needed, the complex is finite and explicit for Artinian quotients, and no
Groebner machinery is involved.  Each run reads the multiplication maps of
IdealSlices.multiplication once per degree, after refusing any differential
over MAX_KOSZUL_CELLS, checks d^2 = 0 through them (the maps commute, which
is checked on their sparse columns) before reading a rank, and the Euler
characteristic after; a failure raises InternalCheckError.

The complex splits into strands, one per internal degree j, and each strand
is ranked from d_n down to d_1.  A differential d_i is never built as a
matrix: the rows of its transpose, one dict per basis element of the source
(the differentials are about 2% nonzero), are read straight from the
columns of the multiplication maps and ranked by `linalg.rank`, the forward
pass of the one sparse kernel.  Rows are cleared as in persistent homology
(C. Chen and M. Kerber, "Persistent homology computation with a twist",
EuroCG 2011): the pivot columns P of d_(i+1)^T index basis elements of the
source of d_i, and those rows of d_i^T are never built.  That is exact
because d^2 = 0: for each l in P the reduced echelon form of im d_(i+1)
holds some b = e_l + (terms off P), and d_i b = 0 makes row l of d_i^T a
combination of rows off P, so dropping it leaves the rank unchanged.  This
is why the commuting check runs before the first rank.
Gorenstein symmetry of the table is checked by the CLI where no formula is
compared; it is never used to skip a rank, since the oracle is the
independent side of the formula check.
"""

import functools
import itertools

from . import linalg
from .betti import BettiTable, binom
from .ideals import Algebra, InternalCheckError
from .poly import Poly, pair_indices


class ScaleCapError(Exception):
    pass


MAX_VARS = 8
# cells of the largest Koszul differential tor_betti ranks, counted dense
MAX_KOSZUL_CELLS = 10**7


def hilbert_function(algebra: Algebra):
    """Hilbert function through the socle degree; errors if not Artinian."""
    return list(algebra.hilbert_function())


@functools.lru_cache(maxsize=None)
def _koszul_faces(n, i):
    """Per i-subset S of range(n), in sorted order, its faces (t, k, odd):
    S without k is the t-th (i-1)-subset, and odd is k's position parity in
    S, which signs the face in d_i."""
    index = {s: t for t, s in enumerate(itertools.combinations(range(n), i - 1))}
    return tuple(
        tuple((index[s[:pos] + s[pos + 1:]], k, pos % 2) for pos, k in enumerate(s))
        for s in itertools.combinations(range(n), i)
    )


def _dim(hf, d):
    return hf[d] if 0 <= d < len(hf) else 0


def _columns(field, m):
    """The multiplication maps m = (M_k) from A_d as column lists: entry
    [odd][k][a] lists the pairs (b, +-M_k[b, a]) of column a of M_k where it
    is nonzero, negated when odd."""
    return ([[list(col.items()) for col in mk] for mk in m],
            [[[(b, field.neg(v)) for b, v in col.items()] for col in mk] for mk in m])


def _koszul_rows(cols, hf, n, i, j, cleared=()):
    """The nonzero rows of d_i^T in internal degree j, as {index: row}: one
    dict per basis element (S, a) of Lambda^i K^n (x) A_(j-i), at index s *
    h_(j-i) + a for S the s-th i-subset, skipping the indices in cleared.
    Row (S, a) is d_i(e_S (x) a), the sum over the faces (t, k, odd) of S of
    +-(e_T (x) x_k a), whose entries sit at t * h_(j-i+1) + b for the basis
    elements b of A_(j-i+1); cols holds the column lists of the maps from
    A_(j-i) (see _columns)."""
    h, h1 = _dim(hf, j - i), _dim(hf, j - i + 1)
    rows = {}
    for s, faces in enumerate(_koszul_faces(n, i)):
        for a in range(h):
            index = s * h + a
            if index in cleared:
                continue
            row = {}
            for t, k, odd in faces:
                off = t * h1
                for b, v in cols[odd][k][a]:
                    row[off + b] = v
            if row:
                rows[index] = row
    return rows


def _koszul_ranks(field, maps, hf, n, jtop):
    """{(i, j): rank of d_i in internal degree j} for every nonempty d_i with
    j <= jtop, read by `linalg.rank` on the rows of d_i^T, strand by strand
    from d_n down to d_1.  Within a strand the rows of d_i^T at the pivot
    columns of d_(i+1)^T are cleared: they are never built, and the rank is
    unchanged because d^2 = 0 (see the module docstring)."""
    cols = [_columns(field, m) for m in maps]
    ranks = {}
    for j in range(1, jtop + 1):
        cleared = ()
        for i in range(n, 0, -1):
            ncols = binom(n, i - 1) * _dim(hf, j - i + 1)
            if not ncols or not _dim(hf, j - i):
                cleared = ()
                continue
            rows = list(_koszul_rows(cols[j - i], hf, n, i, j, cleared).values())
            matrix = linalg.Matrix(field, len(rows), ncols, rows)
            ranks[i, j] = linalg.rank(matrix)
            cleared = set(matrix.pivots)
    return ranks


def tor_betti(algebra: Algebra, max_dim=2000, max_internal_degree=None):
    """Graded Betti table of A over its polynomial ring, via Koszul homology.

    Non-Artinian quotients are supported when max_internal_degree bounds the
    internal degrees to scan (it must be at least the regularity for the
    table to be complete).  Every run first checks d^2 = 0 (see
    _check_commuting), on which the clearing of _koszul_ranks rests, and is
    cross-checked against the Euler characteristic identity
    sum_i (-1)^i sum_j beta_ij s^j = HF_A(s) * (1-s)^n, degreewise over the
    scanned range.
    """
    n = algebra.ring.nvars
    if n > MAX_VARS:
        raise ScaleCapError(f"{n} variables exceeds the cap of {MAX_VARS}")
    # _dim is 0 outside hf: exact past the socle degree, and with
    # max_internal_degree never reached (j <= max_internal_degree, and
    # i >= 1 wherever degree j - i + 1 is read)
    if max_internal_degree is None:
        hf = list(algebra.hilbert_function())
        socle = len(hf) - 1
        jmax = lambda i: i + socle
    else:
        hf = algebra.hilbert_values(max_internal_degree + 1)
        jmax = lambda i: max_internal_degree
    if sum(hf) > max_dim:
        raise ScaleCapError(f"dim_K {sum(hf)} exceeds the cap of {max_dim}")
    # d_i in internal degree j has C(n, i-1) h_(j-i+1) x C(n, i) h_(j-i) cells
    cells = max((binom(n, i - 1) * _dim(hf, d + 1) * binom(n, i) * hf[d]
                 for i in range(1, n + 1) for d in range(len(hf))), default=0)
    if cells > MAX_KOSZUL_CELLS:
        raise ScaleCapError(f"the largest Koszul differential has {cells} cells, "
                            f"over the budget of {MAX_KOSZUL_CELLS}")
    field = algebra.ring.field
    maps = [algebra.slices.multiplication(d) for d in range(len(hf) - 1)]
    _check_commuting(maps, field, n)
    ranks = _koszul_ranks(field, maps, hf, n, jmax(n))

    table = BettiTable()
    for i in range(n + 1):
        for j in range(i, jmax(i) + 1):
            dim_ij = binom(n, i) * _dim(hf, j - i)
            if dim_ij == 0:
                continue
            b = dim_ij - ranks.get((i, j), 0) - ranks.get((i + 1, j), 0)
            if b < 0:
                raise InternalCheckError(f"negative homology rank at ({i},{j})")
            if b:
                table.add(i, j, b)

    _euler_check(table, hf, n, cap=max_internal_degree)
    return table


def _check_commuting(maps, field, n):
    """d^2 = 0 on every Koszul differential: the components of d_(i-1) d_i
    are M_l(d+1) M_k(d) - M_k(d+1) M_l(d) for the multiplication maps M_k(d)
    by x_k from A_d (maps[d][k]), so d^2 = 0 exactly when M_l(d+1) M_k(d) =
    M_k(d+1) M_l(d) for all k < l and every consecutive pair of maps."""
    for d in range(len(maps) - 1):
        m, up = maps[d], maps[d + 1]
        # column a of M_l(d+1) M_k(d) is the combination of the columns of
        # M_l(d+1) by column a of M_k(d): a row of matmul on the columns
        if any(linalg.matmul(field, m[k], up[l]) != linalg.matmul(field, m[l], up[k])
               for k, l in zip(*pair_indices(n))):
            raise InternalCheckError(
                f"d^2 != 0: the multiplication maps from degree {d} do not commute"
            )


def _euler_check(table, hf, n, cap=None):
    # coefficients of HF_A(s) * (1-s)^n
    target = {}
    for d, h in enumerate(hf):
        for k in range(n + 1):
            c = h * binom(n, k) * (-1) ** k
            target[d + k] = target.get(d + k, 0) + c
    got = {}
    for (i, j), c in table.entries.items():
        got[j] = got.get(j, 0) + ((-1) ** i) * c
    degrees = set(target) | set(got)
    if cap is not None:
        degrees = {j for j in degrees if j <= cap}
    for j in degrees:
        if target.get(j, 0) != got.get(j, 0):
            raise InternalCheckError(
                f"Euler characteristic mismatch in internal degree {j}: "
                f"{got.get(j, 0)} vs {target.get(j, 0)}"
            )


def socle_basis(algebra: Algebra):
    """Homogeneous representatives of (0 : m_A); the count is the type."""
    ring = algebra.ring
    slices = algebra.slices
    out = []
    for d in range(len(algebra.hilbert_function())):
        basis = ring.monomial_basis(d)
        qd = slices.quotient_monomials(d)
        for v in slices.socle(d):
            out.append(Poly(ring, {basis[qd[m]]: c for m, c in v.items()}))
    return out
