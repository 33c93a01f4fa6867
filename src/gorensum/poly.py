"""Graded multivariate polynomials with exact coefficients.

Monomials are exponent tuples over a fixed ordered variable list.  The
monomial order is graded reverse lexicographic on the declared variable
order; every basis, echelon form and generator list downstream inherits its
determinism from this choice.
"""

import itertools
import re
from functools import lru_cache

import numpy as np

from .fields import Field


class Ring:
    """Polynomial ring descriptor: ordered variables, field, optional blocks.

    `blocks`, when present, partitions the variables into consecutive groups,
    one per tensor factor of a joined ring.
    """

    __slots__ = ("variables", "field", "blocks", "_bases", "_indexes")

    def __init__(self, variables, field, blocks=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if blocks is not None:
            blocks = tuple(tuple(b) for b in blocks)
            flat = [v for b in blocks for v in b]
            if flat != list(variables):
                raise ValueError("blocks must partition the variables in order")
        self.variables = variables
        self.field = field
        self.blocks = blocks
        self._bases = {}
        self._indexes = {}

    @property
    def nvars(self):
        return len(self.variables)

    def monomial_basis(self, d):
        """All exponent vectors of total degree d, in descending grevlex order."""
        if d not in self._bases:
            if d < 0:
                raise ValueError("degree must be nonnegative")
            self._bases[d] = _grevlex_basis(self.nvars, d)
        return self._bases[d]

    def monomial_index(self, d):
        if d not in self._indexes:
            self._indexes[d] = {e: i for i, e in enumerate(self.monomial_basis(d))}
        return self._indexes[d]

    def var_poly(self, name):
        i = self.variables.index(name)
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): self.field.one})

    def zero(self):
        return Poly(self, {})

    def one(self):
        return Poly(self, {(0,) * self.nvars: self.field.one})

    def block_var_indices(self):
        """Variable index ranges per block: list of (start, stop)."""
        if self.blocks is None:
            return [(0, self.nvars)]
        out = []
        start = 0
        for b in self.blocks:
            out.append((start, start + len(b)))
            start += len(b)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.variables == other.variables
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.variables, self.field))

    def __repr__(self):
        return f"{self.field}[{','.join(self.variables)}]"


@lru_cache(maxsize=None)
def _grevlex_basis(n, d):
    if n == 0:
        return ((),) if d == 0 else ()
    exps = []
    for c in itertools.combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in c:
            e[i] += 1
        exps.append(tuple(e))
    exps.sort(key=lambda e: tuple(reversed(e)))
    return tuple(exps)


@lru_cache(maxsize=None)
def shift_table(n, d):
    """Multiplication by each variable on the degree-d monomials of n
    variables: entry [k, i] is the index in the degree-(d+1) basis of x_k
    times the i-th degree-d monomial.  Read-only; shared by every ring."""
    basis = _grevlex_basis(n, d)
    up = {e: j for j, e in enumerate(_grevlex_basis(n, d + 1))}
    table = np.array(
        [[up[e[:k] + (e[k] + 1,) + e[k + 1:]] for e in basis] for k in range(n)],
        dtype=np.intp,
    ).reshape(n, len(basis))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def first_variable_table(n, d):
    """Per variable x_k, (sources, targets) over the degree-(d+1) monomials
    whose lowest-index variable is x_k: their quotients by x_k, and them."""
    out, free = [], np.ones(len(_grevlex_basis(n, d + 1)), dtype=bool)
    for row in shift_table(n, d):
        src = np.flatnonzero(free[row])
        out.append((src, row[src]))
        free[row] = False
    return tuple(out)


@lru_cache(maxsize=None)
def product_table(n, i, j):
    """Products of monomials in n variables: entry [r, c] is the index in
    the degree-(i+j) basis of the r-th degree-i monomial times the c-th
    degree-j monomial.  Read-only; shared by every ring."""
    # the variables of each degree-i monomial, with multiplicity
    factors = [[k for k, e in enumerate(m) for _ in range(e)]
               for m in _grevlex_basis(n, i)]
    table = np.tile(np.arange(len(_grevlex_basis(n, j))), (len(factors), 1))
    for t in range(i):
        table = shift_table(n, j + t)[[[f[t]] for f in factors], table]
    table.flags.writeable = False
    return table


class Poly:
    """Polynomial as a map from exponent tuple to nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Max total degree of the stored terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __add__(self, other):
        f = self.ring.field
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = f.add(t.get(e, f.zero), c)
        return Poly(self.ring, t)

    def __sub__(self, other):
        f = self.ring.field
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = f.sub(t.get(e, f.zero), c)
        return Poly(self.ring, t)

    def __neg__(self):
        f = self.ring.field
        return Poly(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        f = self.ring.field
        if not isinstance(other, Poly):
            return self.scale(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = f.add(t.get(e, f.zero), f.mul(c1, c2))
        return Poly(self.ring, t)

    def scale(self, c):
        f = self.ring.field
        c = f.of(c)
        return Poly(self.ring, {e: f.mul(c, v) for e, v in self.terms.items()})

    def __pow__(self, k):
        result = self.ring.one()
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def coefficient_vector(self, d=None):
        """Coefficients over the degree-d monomial basis (homogeneous input)."""
        if d is None:
            d = self.degree()
            if d < 0:
                raise ValueError("zero polynomial has no intrinsic degree")
        if not self.is_homogeneous():
            raise ValueError("polynomial is not homogeneous")
        idx = self.ring.monomial_index(d)
        v = [self.ring.field.zero] * len(idx)
        for e, c in self.terms.items():
            v[idx[e]] = c
        return v

    @classmethod
    def from_vector(cls, ring, d, vec):
        basis = ring.monomial_basis(d)
        return cls(ring, {e: c for e, c in zip(basis, vec) if c})

    def __str__(self):
        if not self.terms:
            return "0"
        # descending degree, then grevlex within a degree
        def key(item):
            e, _ = item
            return (-sum(e), tuple(reversed(e)))

        parts = []
        for e, c in sorted(self.terms.items(), key=key):
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.ring.variables, e)
                if k
            )
            cs = self.ring.field.elem_str(c)
            if mono:
                term = mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
            else:
                term = cs
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    __repr__ = __str__


_TERM_RE = re.compile(r"^(?P<coeff>\d+(?:/\d+)?)?(?P<vars>(?:\*?[A-Za-z_][A-Za-z_0-9]*(?:\^\d+)?)*)$")


def parse_poly(ring, text):
    """Parse the polynomial grammar: terms joined by +/-, a term being
    [coeff][*]var[^exp][*var[^exp]]...  Example: `x^2*y^3*z^3 + u^4*v^4`.
    """
    f = ring.field
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    chunks = re.split(r"(?<![/^*])([+-])", s)
    if chunks[0] == "":
        chunks = chunks[1:]
    if chunks and chunks[0] not in ("+", "-"):
        chunks = ["+"] + chunks
    if len(chunks) % 2 != 0:
        raise ValueError(f"malformed polynomial: {text!r}")
    result = ring.zero()
    var_index = {v: i for i, v in enumerate(ring.variables)}
    for sign, term in zip(chunks[0::2], chunks[1::2]):
        m = _TERM_RE.match(term)
        if not m or (not m.group("coeff") and not m.group("vars")):
            raise ValueError(f"malformed term {term!r} in {text!r}")
        coeff = f.of(m.group("coeff")) if m.group("coeff") else f.one
        if sign == "-":
            coeff = f.neg(coeff)
        e = [0] * ring.nvars
        for piece in filter(None, m.group("vars").split("*")):
            if "^" in piece:
                name, exp = piece.split("^")
                exp = int(exp)
            else:
                name, exp = piece, 1
            if name not in var_index:
                raise ValueError(f"unknown variable {name!r} in {text!r}")
            e[var_index[name]] += exp
        result = result + Poly(ring, {tuple(e): coeff})
    return result


def joined_ring(rings):
    """Tensor the rings over the common field into one ring with blocks."""
    field = rings[0].field
    if any(r.field != field for r in rings):
        raise ValueError("factors must share the coefficient field")
    all_vars = []
    blocks = []
    for r in rings:
        blocks.append(r.variables)
        all_vars.extend(r.variables)
    if len(set(all_vars)) != len(all_vars):
        raise ValueError("factor variable names must be pairwise disjoint")
    return Ring(all_vars, field, blocks=blocks)


def embed(poly, big_ring, block_index):
    """View a polynomial of the block_index-th factor inside the joined ring."""
    start, stop = big_ring.block_var_indices()[block_index]
    if big_ring.variables[start:stop] != poly.ring.variables:
        raise ValueError("block does not match the polynomial's ring")
    n = big_ring.nvars
    terms = {}
    for e, c in poly.terms.items():
        big_e = [0] * n
        big_e[start:stop] = e
        terms[tuple(big_e)] = c
    return Poly(big_ring, terms)
