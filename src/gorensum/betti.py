"""Graded Betti tables and the closed-form formulas for fiber products and
connected sums over the base field.  A connected sum's table is the
fiber-product table below strand e (the socle degree), plus the Poincare
dual of the cross-ideal table.

Everything here is pure integer arithmetic on (homological degree, internal
degree) tables; no polynomials are touched.  Binomial conventions: C(a,b) = 0
for b > a or b < 0, and [x]_+ = max(0, x).
"""

from math import comb


def binom(a, b):
    return comb(a, b) if 0 <= b <= a else 0


class BettiTable:
    """Map (i, j) -> multiplicity; equivalently the bivariate Poincare
    polynomial sum beta_ij t^i s^j."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for (i, j), c in dict(entries).items():
                self.add(i, j, c)

    def add(self, i, j, c):
        if c < 0:
            raise ValueError(f"negative multiplicity at ({i},{j})")
        if c:
            self.entries[(i, j)] = self.entries.get((i, j), 0) + c

    def get(self, i, j):
        return self.entries.get((i, j), 0)

    def items(self):
        return sorted(self.entries.items())

    def max_homological(self):
        return max((i for i, _ in self.entries), default=0)

    def totals(self):
        n = self.max_homological()
        out = [0] * (n + 1)
        for (i, _), c in self.entries.items():
            out[i] += c
        return out

    def regularity(self):
        return max((j - i for (i, j) in self.entries), default=0)

    def poincare(self):
        return dict(self.entries)

    def is_symmetric(self, n, e):
        """Gorenstein symmetry beta_ij = beta_{n-i, e+n-j}."""
        return all(
            c == self.get(n - i, e + n - j) for (i, j), c in self.entries.items()
        )

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def diff(self, other):
        """Cells where the two tables differ: [(i, j, self, other), ...]."""
        keys = set(self.entries) | set(other.entries)
        return sorted(
            (i, j, self.get(i, j), other.get(i, j))
            for (i, j) in keys
            if self.get(i, j) != other.get(i, j)
        )

    def render(self):
        """Macaulay2-style text table: columns by homological degree, rows by
        internal degree minus homological degree, dots for zeros."""
        if not self.entries:
            return "(empty table)"
        n = self.max_homological()
        reg = self.regularity()
        totals = self.totals()
        grid = [["." for _ in range(n + 1)] for _ in range(reg + 1)]
        for (i, j), c in self.entries.items():
            grid[j - i][i] = str(c)
        header = [""] + [str(i) for i in range(n + 1)]
        rows = [header, ["total:"] + [str(t) for t in totals]]
        for strand in range(reg + 1):
            rows.append([f"{strand}:"] + grid[strand])
        widths = [max(len(r[c]) for r in rows) for c in range(n + 2)]
        return "\n".join(
            " ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
        )

    def poincare_string(self):
        parts = []
        for (i, j), c in self.items():
            factors = [] if c == 1 and (i or j) else [str(c)]
            if i:
                factors.append("t" if i == 1 else f"t^{i}")
            if j:
                factors.append("s" if j == 1 else f"s^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"

    def to_list(self):
        return [[i, j, c] for (i, j), c in self.items()]

    @classmethod
    def from_list(cls, data):
        t = cls()
        for i, j, c in data:
            t.add(i, j, c)
        return t

    def __repr__(self):
        return f"BettiTable({self.entries})"


def cross_ideal_table(m, n):
    """Full Betti table of Q/(x cap y): a 2-linear strand plus (0,0)."""
    return cross_ideal_multi_table((m, n))


def betti_cross_ideal_multi(n_vec, t):
    """beta_{t,t+1} of Q modulo all cross products between variable blocks."""
    if len(n_vec) < 2:
        raise ValueError("need at least two blocks")
    if t < 1:
        raise ValueError("homological degree must be >= 1")
    big = sum(n_vec)
    return (len(n_vec) - 1) * binom(big, t + 1) - sum(
        binom(big - nk, t + 1) for nk in n_vec
    )


def cross_ideal_multi_table(n_vec):
    """Full Betti table of Q modulo the cross products of the blocks."""
    t = BettiTable({(0, 0): 1})
    for i in range(1, sum(n_vec)):
        t.add(i, i + 1, betti_cross_ideal_multi(n_vec, i))
    return t


def inflate_betti(table, extra, reduced=False):
    """Betti table over the bigger ring with `extra` more variables.

    Multiplies the Poincare polynomial by (1+st)^extra; the reduced variant
    drops the (0,0) entry first.
    """
    if table.get(0, 0) != 1:
        raise ValueError("expected a cyclic quotient table with entry (0,0) = 1")
    out = BettiTable()
    for (i, j), c in table.entries.items():
        if reduced and (i, j) == (0, 0):
            continue
        for q in range(extra + 1):
            out.add(i + q, j + q, c * binom(extra, q))
    return out


def _validate_factor_tables(tables):
    for k, t in enumerate(tables):
        if t.get(0, 0) != 1:
            raise ValueError(f"factor {k}: missing (0,0) entry")
        if t.get(1, 1):
            raise ValueError(f"factor {k}: ideal contains linear forms")


def betti_fiber_product_K(tables, n_vec):
    """Betti table of the r-factor fiber product over K from the factor
    tables (each over its own polynomial ring with n_vec[k] variables): the
    cross-ideal table plus each reduced factor table, inflated."""
    if len(tables) != len(n_vec) or len(tables) < 2:
        raise ValueError("one factor table per variable block, at least two")
    _validate_factor_tables(tables)
    out = cross_ideal_multi_table(n_vec)
    for t, nk in zip(tables, n_vec):
        for (i, j), c in inflate_betti(t, sum(n_vec) - nk, reduced=True).entries.items():
            out.add(i, j, c)
    return out


def betti_connected_sum_K(tables, n_vec, e):
    """Betti table of the r-factor connected sum over K with common socle
    degree e >= 2: the fiber-product table below strand e (its (0,0) entry
    and strands 1..e-1), plus the Poincare dual of the cross-ideal table,
    which is the cross strand reflected to j = i + e - 1 and the top socle
    entry (N, e+N).  At e = 2 both land on strand 1."""
    if e < 2:
        raise ValueError("socle degree must be >= 2; use the Koszul oracle")
    # the fiber product checks the blocks and the factor tables first
    fiber = betti_fiber_product_K(tables, n_vec)
    for k, (t, nk) in enumerate(zip(tables, n_vec)):
        if not t.is_symmetric(nk, e) or t.get(nk, e + nk) != 1:
            raise ValueError(f"factor {k}: not Gorenstein")
    out = BettiTable(poincare_dualize(cross_ideal_multi_table(n_vec).entries, sum(n_vec), e))
    for (i, j), c in fiber.entries.items():
        if (i, j) == (0, 0) or 0 < j - i < e:
            out.add(i, j, c)
    return out


def betti_socle2(n):
    """Betti table of the socle-degree-2 AG algebra with h-vector (1, n, 1):
    the connected sum of n copies of K[x]/(x^3), whose table is {(0,0): 1,
    (1,3): 1}, as every such algebra's table depends on n alone."""
    if n < 1:
        raise ValueError("need at least one variable")
    cubic = BettiTable({(0, 0): 1, (1, 3): 1})
    return cubic if n == 1 else betti_connected_sum_K([cubic] * n, (1,) * n, 2)


def poincare_dualize(p, n, e):
    """s^(n+e) t^n * P(1/t, 1/s) on a bivariate polynomial given as a dict."""
    out = {}
    for (i, j), c in p.items():
        ii, jj = n - i, n + e - j
        if ii < 0 or jj < 0:
            raise ValueError(f"dualization produced a negative exponent at ({i},{j})")
        out[(ii, jj)] = out.get((ii, jj), 0) + c
    return {k: v for k, v in sorted(out.items()) if v}
