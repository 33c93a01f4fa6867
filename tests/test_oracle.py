"""The Koszul-homology Betti oracle against hand-checkable resolutions."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import pytest

import gorensum
from gorensum import linalg
from gorensum.betti import (
    BettiTable, betti_connected_sum_K, betti_socle2, cross_ideal_multi_table,
)
from gorensum.cli import random_dual_factor
from gorensum.constructions import connected_sum_K, fiber_product_K
from gorensum.fields import GF, QQ
from gorensum.ideals import Algebra, IdealSlices, InternalCheckError, NotArtinianError
from gorensum import oracle
from gorensum.oracle import (
    ScaleCapError,
    _columns,
    _koszul_ranks,
    _koszul_rows,
    socle_basis,
    tor_betti,
)
from gorensum.poly import Ring, parse_poly

Fp = GF(32003)


def algebra(varnames, gens, field=Fp):
    ring = Ring(varnames, field)
    return Algebra(ring, [parse_poly(ring, g) for g in gens])


def koszul_table(degrees):
    from itertools import combinations

    t = BettiTable()
    for i in range(len(degrees) + 1):
        for sub in combinations(degrees, i):
            t.add(i, sum(sub), 1)
    return t


def test_principal_ideal():
    A = algebra(["x"], ["x^4"])
    assert tor_betti(A).entries == {(0, 0): 1, (1, 4): 1}


def test_complete_intersections_resolve_by_koszul_complex():
    for gens, degs in [
        (["x^2", "y^3"], [2, 3]),
        (["x^3", "y^4", "z^4"], [3, 4, 4]),
        (["x^2 + y^2", "x*y"], [2, 2]),
    ]:
        names = ["x", "y", "z"][: 2 if len(gens) == 2 else 3]
        A = algebra(names, gens)
        assert tor_betti(A) == koszul_table(degs), gens


def test_socle_degree_two_table():
    # dual generator x^2 + y^2 + z^2: h-vector (1, 3, 1)
    A = algebra(
        ["x", "y", "z"],
        ["x*y", "x*z", "y*z", "x^2 - y^2", "y^2 - z^2"],
    )
    assert A.hilbert_function() == (1, 3, 1)
    assert tor_betti(A) == betti_socle2(3)


@pytest.mark.parametrize("field", [Fp, QQ], ids=["gf", "qq"])
def test_connected_sum_rule_at_socle_degree_two_matches_the_oracle(field):
    # random socle-degree-2 factors, r = 2 and 3: the connected-sum rule at
    # e = 2 against the oracle, and both against betti_socle2
    rng = random.Random(41)
    for r in (2, 2, 3, 3):
        n_vec = tuple(rng.randint(1, 7 // r) for _ in range(r))
        factors = [random_dual_factor(rng, n, 2, field, prefix=f"v{k}_")
                   for k, n in enumerate(n_vec)]
        tables = [tor_betti(f.algebra) for f in factors]
        assert tables == [betti_socle2(n) for n in n_vec]
        oracle_table = tor_betti(connected_sum_K(factors).presentation)
        assert betti_connected_sum_K(tables, n_vec, 2) == oracle_table
        assert oracle_table == betti_socle2(sum(n_vec))


def test_oracle_agrees_over_qq_and_gf():
    gens = ["x^2", "x*y", "y^3"]
    tq = tor_betti(algebra(["x", "y"], gens, QQ))
    tp = tor_betti(algebra(["x", "y"], gens, Fp))
    assert tq == tp


def test_non_artinian_requires_degree_bound():
    A = algebra(["x", "y", "z"], ["x*y", "x*z", "y*z"])
    with pytest.raises(NotArtinianError):
        tor_betti(A)
    t = tor_betti(A, max_internal_degree=4)
    assert t == cross_ideal_multi_table((1, 1, 1))


def test_scale_caps():
    with pytest.raises(ScaleCapError):
        tor_betti(algebra([f"x{i}" for i in range(9)], ["x0^2"]))
    with pytest.raises(ScaleCapError):
        tor_betti(algebra(["x"], ["x^50"]), max_dim=10)


def test_socle_basis_gorenstein():
    A = algebra(["x", "y"], ["x^3", "y^3"])
    soc = socle_basis(A)
    assert len(soc) == 1
    assert str(soc[0]) == "x^2*y^2"


def test_socle_basis_level_of_type_two():
    A = algebra(["x", "y"], ["x^2", "x*y", "y^2"])
    assert len(socle_basis(A)) == 2


def test_socle_basis_without_variables():
    # the base field itself: nothing multiplies, so 1 spans the socle
    A = algebra([], [])
    assert socle_basis(A) == [A.ring.one()]


def test_socle_annihilated_by_maximal_ideal():
    A = algebra(["x", "y"], ["x^2 - y^2", "x*y^2"])
    for s in socle_basis(A):
        for v in A.ring.variables:
            prod = A.ring.var_poly(v) * s
            assert A.slices.contains(prod)


def test_regularity_equals_socle_degree():
    for gens in (["x^3", "y^3"], ["x^2", "x*y", "y^4"]):
        A = algebra(["x", "y"], gens)
        assert tor_betti(A).regularity() == A.socle_degree


def test_d_squared_check_survives_python_O(tmp_path):
    # the map for x on A_0 is corrupted once the slices are integrated (the
    # integration reads the same maps), breaking x*y = y*x; under -O an
    # assert would be stripped and the check would pass silently
    path = tmp_path / "a.json"
    path.write_text(json.dumps(
        {"variables": ["x", "y"], "field": {"prime": 32003}, "ideal": ["x^2", "y^2"]}
    ))
    script = textwrap.dedent(f"""
        import sys
        from gorensum import cli
        from gorensum.ideals import Algebra, IdealSlices

        real_mult, real_hf = IdealSlices.multiplication, Algebra.hilbert_function

        def skewed(self, d):
            m = real_mult(self, d)
            if d == 0:
                m = ([{{b: x * 2 % 32003 for b, x in col.items()}} for col in m[0]],) + m[1:]
            return m

        def hilbert_function(self):
            hf = real_hf(self)
            IdealSlices.multiplication = skewed
            return hf

        Algebra.hilbert_function = hilbert_function
        print(sys.flags.optimize)
        sys.exit(cli.main(["betti", {str(path)!r}]))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gorensum.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == "1\n"
    assert proc.returncode == 3
    assert proc.stderr == (
        "error: internal check failed: d^2 != 0: the multiplication maps "
        "from degree 0 do not commute\n"
    )


def test_d_squared_check_runs_over_qq(monkeypatch):
    A = algebra(["x", "y", "z"], ["x^2", "y^2", "z^2"], QQ)
    assert tor_betti(A) == koszul_table([2, 2, 2])
    real = IdealSlices.multiplication

    def skewed(self, d):
        m = real(self, d)
        if d == 2:
            m = m[:2] + ([{b: x * Fraction(3, 2) for b, x in col.items()} for col in m[2]],)
        return m

    ranks = []
    real_rank = linalg.rank
    monkeypatch.setattr(IdealSlices, "multiplication", skewed)
    monkeypatch.setattr(linalg, "rank", lambda m: ranks.append(m) or real_rank(m))
    with pytest.raises(InternalCheckError, match="from degree 1 do not"):
        tor_betti(A)
    # the clearing of the ranks rests on d^2 = 0, so no rank is read first
    assert ranks == []


def test_koszul_budget_is_checked_before_any_differential(monkeypatch):
    # a generic degree-8 dual generator in 8 variables passes the variable
    # and dimension caps; d_5 in internal degree 9 would be 8,400 x 18,480
    A = random_dual_factor(random.Random(1), 8, 8, Fp).algebra
    assert A.hilbert_function() == (1, 8, 36, 120, 330, 120, 36, 8, 1)
    def refuse(cols, hf, n, i, j, cleared=()):
        raise AssertionError(f"d_{i} in degree {j} built")

    def unread(self, d):
        raise AssertionError(f"multiplication({d}) read")

    monkeypatch.setattr(oracle, "_koszul_rows", refuse)
    monkeypatch.setattr(IdealSlices, "multiplication", unread)
    start = time.perf_counter()
    with pytest.raises(ScaleCapError, match="has 155232000 cells, over the budget"):
        tor_betti(A)
    assert time.perf_counter() - start < 1


def koszul_differential_by_blocks(A, hf, i, j):
    """Reference assembly of d_i in degree j, as dense rows: one block per
    (source subset, position), negated at odd positions."""
    n = A.ring.nvars
    f = A.ring.field
    dom_sets = list(itertools.combinations(range(n), i))
    cod_pos = {s: t for t, s in enumerate(itertools.combinations(range(n), i - 1))}
    dim = lambda d: hf[d] if 0 <= d < len(hf) else 0
    dom_a = dim(j - i)
    cod_a = dim(j - i + 1)
    rows = [[f.zero] * (len(dom_sets) * dom_a) for _ in range(len(cod_pos) * cod_a)]
    if not dom_a or not cod_a:
        return rows
    for sp, s in enumerate(dom_sets):
        for pos, k in enumerate(s):
            block = cod_pos[s[:pos] + s[pos + 1 :]] * cod_a
            for a, col in enumerate(A.slices.multiplication(j - i)[k]):
                for b, x in col.items():
                    rows[block + b][sp * dom_a + a] = f.neg(x) if pos % 2 else x
    return rows


def test_koszul_assembly_matches_block_loop():
    # the dict rows of d_i^T, made dense and transposed, are the reference
    # differential, cell for cell
    rng = random.Random(11)
    compared = nonzero = 0
    for field in (GF(7), Fp, QQ):
        for nvars, degree, _ in itertools.product((1, 2, 3), (2, 3, 4, 5), range(2)):
            A = random_dual_factor(rng, nvars, degree, field).algebra
            hf = list(A.hilbert_function())
            cols = [_columns(field, A.slices.multiplication(d)) for d in range(len(hf))]
            for i in range(1, nvars + 1):
                for j in range(i - 1, i + len(hf) + 1):
                    ref = koszul_differential_by_blocks(A, hf, i, j)
                    rows = _koszul_rows(cols[j - i] if 0 <= j - i < len(hf) else None,
                                        hf, nvars, i, j)
                    width = math.comb(nvars, i) * (hf[j - i] if 0 <= j - i < len(hf) else 0)
                    dense = [[field.zero] * len(ref) for _ in range(width)]
                    for r, row in rows.items():
                        assert all(row.values())
                        for c, x in row.items():
                            dense[r][c] = x
                    assert dense == [[ref_row[c] for ref_row in ref] for c in range(width)]
                    compared += 1
                    nonzero += any(map(any, ref))
    assert compared == 936
    assert nonzero > 400


@pytest.mark.parametrize("field", [GF(7), Fp, QQ], ids=["gf7", "gf32003", "qq"])
def test_cleared_ranks_equal_ranks_of_the_full_rows(monkeypatch, field):
    # every (i, j) of random fiber products and connected sums, and of one
    # non-Artinian quotient scanned to a degree bound: clearing the rows at
    # the pivots of the differential above changes no rank
    rng = random.Random(23)
    cases = []
    for n_vec, degree in (((2, 1), 3), ((1, 2), 4), ((2, 2), 3)):
        factors = [random_dual_factor(rng, n, degree, field, prefix=f"v{k}_")
                   for k, n in enumerate(n_vec)]
        cases += [(fiber_product_K(factors).presentation, None),
                  (connected_sum_K(factors).presentation, None)]
    cases.append((algebra(["x", "y", "z"], ["x*y", "x*z", "y*z"], field), 4))
    real = linalg.rank
    fed = []
    monkeypatch.setattr(linalg, "rank", lambda m: fed.append(m.nrows) or real(m))
    full_rows = 0
    for A, cap in cases:
        n = A.ring.nvars
        hf = list(A.hilbert_function()) if cap is None else A.hilbert_values(cap + 1)
        jtop = n + len(hf) - 1 if cap is None else cap
        maps = [A.slices.multiplication(d) for d in range(len(hf) - 1)]
        full = {}
        for j in range(1, jtop + 1):
            for i in range(1, n + 1):
                ncols = math.comb(n, i - 1) * (hf[j - i + 1] if 0 <= j - i + 1 < len(hf) else 0)
                if ncols and 0 <= j - i < len(hf) - 1:
                    rows = _koszul_rows(_columns(field, maps[j - i]), hf, n, i, j)
                    full[i, j] = len(linalg.pivot_columns(field, list(rows.values()), ncols))
                    full_rows += len(rows)
        assert _koszul_ranks(field, maps, hf, n, jtop) == full
    assert 0 < sum(fed) < full_rows


@pytest.mark.parametrize("field", [Fp, QQ], ids=["gf", "qq"])
def test_koszul_ranks_skip_the_dense_kernel(monkeypatch, field):
    # the README connected sum x^2y^3z^3 # u^4v^4: each of the 40 nonempty
    # differentials is one linalg.rank, read by the forward pass of
    # pivot_columns; none of them runs the back substitution of the
    # canonical reduced echelon form, and clearing feeds 1,127 of the 1,627
    # nonzero rows of the transposed differentials
    from gorensum import DualGenerator, Factor, connected_sum_K

    a = Factor.from_dual(DualGenerator(parse_poly(Ring(["x", "y", "z"], field), "x^2*y^3*z^3")))
    b = Factor.from_dual(DualGenerator(parse_poly(Ring(["u", "v"], field), "u^4*v^4")))
    algebra = connected_sum_K([a, b]).presentation
    expected = tor_betti(algebra)  # builds every slice the oracle reads
    calls = {"rank": 0, "_rref": 0}
    fed = []
    for name in calls:
        def counted(*args, _real=getattr(linalg, name), _name=name):
            calls[_name] += 1
            if _name == "rank":
                fed.append(args[0].nrows)
            return _real(*args)

        monkeypatch.setattr(linalg, name, counted)
    assert tor_betti(algebra) == expected
    assert calls == {"rank": 40, "_rref": 0}
    assert sum(fed) == 1127
