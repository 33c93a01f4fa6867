"""Independent ground truth for graded Betti numbers.

Betti numbers are computed as the homology of the Koszul complex on all the
ring variables tensored with the quotient algebra, one (homological degree,
internal degree) slice at a time, by exact rank computations.  Only ranks are
needed, the complex is finite and explicit for Artinian quotients, and no
Groebner machinery is involved.  Each run reads the multiplication maps of
IdealSlices.multiplication once per degree, after refusing any differential
over MAX_KOSZUL_CELLS, then assembles every differential from them, checks
d^2 = 0 through them (the maps commute) before reading a rank, and the Euler
characteristic after; a failure raises InternalCheckError.  Each differential
is built dense and its rank read by `linalg.rank`, which runs the sparse
kernel `linalg.pivot_columns`: the differentials are about 2% nonzero.
Gorenstein symmetry of the table is checked by the CLI where no formula is
compared; it is never used to skip a rank, since the oracle is the
independent side of the formula check.
"""

import functools
import itertools

import numpy as np

from . import linalg
from .betti import BettiTable, binom
from .ideals import Algebra, InternalCheckError
from .poly import Poly


class ScaleCapError(Exception):
    pass


MAX_VARS = 8
# cells of the largest Koszul differential tor_betti builds
MAX_KOSZUL_CELLS = 10**7


def hilbert_function(algebra: Algebra):
    """Hilbert function through the socle degree; errors if not Artinian."""
    return list(algebra.hilbert_function())


@functools.lru_cache(maxsize=None)
def _koszul_pattern(n, i):
    """The numbers of target and source subsets of d_i on Lambda^i K^n, and
    one (target subset, source subset, variable, position parity) per block,
    subsets indexed in sorted order."""
    cod_pos = {s: t for t, s in enumerate(itertools.combinations(range(n), i - 1))}
    blocks = [
        (cod_pos[s[:pos] + s[pos + 1 :]], sp, k, pos % 2)
        for sp, s in enumerate(itertools.combinations(range(n), i))
        for pos, k in enumerate(s)
    ]
    pattern = np.array(blocks, dtype=np.intp).reshape(-1, 4).T
    pattern.flags.writeable = False  # the cache hands it to every caller
    return len(cod_pos), binom(n, i), pattern


def _dim(hf, d):
    return hf[d] if 0 <= d < len(hf) else 0


def _koszul_differential(maps, field, hf, n, i, j):
    """Matrix of d_i : (Lambda^i K^n (x) A)_j -> (Lambda^(i-1) K^n (x) A)_j
    from maps[d] = [M, -M], M the multiplication maps from A_d.  Bases:
    sorted index subsets paired with the quotient basis of A in the
    complementary internal degree; signs by position parity."""
    ncod, ndom, (tgt, src, var, odd) = _koszul_pattern(n, i)
    dom_a, cod_a = _dim(hf, j - i), _dim(hf, j - i + 1)
    rows = linalg.zeros(field, (ncod, cod_a, ndom, dom_a))
    if rows.size:
        rows[tgt, :, src, :] = maps[j - i][odd, var]
    return rows.reshape(ncod * cod_a, ndom * dom_a)


def tor_betti(algebra: Algebra, max_dim=2000, max_internal_degree=None):
    """Graded Betti table of A over its polynomial ring, via Koszul homology.

    Non-Artinian quotients are supported when max_internal_degree bounds the
    internal degrees to scan (it must be at least the regularity for the
    table to be complete).  Every run first checks d^2 = 0 (see
    _check_commuting), and is cross-checked against the Euler
    characteristic identity
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
    maps = [np.stack([m, linalg.neg(field, m)])
            for m in map(algebra.slices.multiplication, range(len(hf) - 1))]
    _check_commuting(maps, field, n)

    @functools.lru_cache(maxsize=None)
    def drank(i, j):
        if i < 1 or i > n:
            return 0
        rows = _koszul_differential(maps, field, hf, n, i, j)
        return linalg.rank(linalg.Matrix(field, *rows.shape, rows)) if rows.size else 0

    table = BettiTable()
    for i in range(n + 1):
        for j in range(i, jmax(i) + 1):
            dim_ij = binom(n, i) * _dim(hf, j - i)
            if dim_ij == 0:
                continue
            b = dim_ij - drank(i, j) - drank(i + 1, j)
            if b < 0:
                raise InternalCheckError(f"negative homology rank at ({i},{j})")
            if b:
                table.add(i, j, b)

    _euler_check(table, hf, n, cap=max_internal_degree)
    return table


def _check_commuting(maps, field, n):
    """d^2 = 0 on every Koszul differential: the components of d_(i-1) d_i
    are M_l(d+1) M_k(d) - M_k(d+1) M_l(d) for the multiplication maps M_k(d)
    by x_k from A_d (maps[d][0]), so d^2 = 0 exactly when M_l(d+1) M_k(d) =
    M_k(d+1) M_l(d) for all k < l and every consecutive pair of maps."""
    k, l = np.triu_indices(n, 1)
    for d in range(len(maps) - 1):
        m, up = maps[d][0], maps[d + 1][0]
        if not np.array_equal(linalg.matmul(field, up[l], m[k]),
                              linalg.matmul(field, up[k], m[l])):
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
        for v in slices.socle(d).tolist():
            out.append(Poly(ring, {basis[m]: c for c, m in zip(v, qd) if c}))
    return out
