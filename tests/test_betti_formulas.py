"""Closed-form Betti tables: cross ideals, inflation, fiber products,
connected sums, socle-degree-2 tables, Poincare dualization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gorensum.betti import (
    BettiTable,
    betti_connected_sum_K,
    betti_cross_ideal_multi,
    betti_fiber_product_K,
    betti_socle2,
    binom,
    cross_ideal_multi_table,
    cross_ideal_table,
    inflate_betti,
    poincare_dualize,
)


def ci_table(degrees):
    """Betti table of a monomial complete intersection (Koszul complex on
    the generators): entry at (i, sum of each i-subset of degrees)."""
    from itertools import combinations

    t = BettiTable()
    for i in range(len(degrees) + 1):
        for sub in combinations(degrees, i):
            t.add(i, sum(sub), 1)
    return t


def test_cross_ideal_values_3_2():
    assert [betti_cross_ideal_multi((3, 2), i) for i in range(1, 5)] == [6, 9, 5, 1]


def test_cross_ideal_multi_1_1_1():
    assert betti_cross_ideal_multi((1, 1, 1), 1) == 3
    assert betti_cross_ideal_multi((1, 1, 1), 2) == 2


def test_cross_ideal_table_shape():
    t = cross_ideal_table(3, 2)
    assert t.get(0, 0) == 1
    assert t.totals() == [1, 6, 9, 5, 1]
    # strictly 2-linear beyond homological degree 0
    assert all(j == i + 1 for (i, j) in t.entries if i > 0)


def test_socle2_table():
    t = betti_socle2(3)
    assert t.get(1, 2) == 5
    assert t.is_symmetric(3, 2)
    assert t.totals() == [1, 5, 5, 1]


def test_socle2_matches_cross_construction_for_n_1():
    # n = 1: K[x]/(x^3), resolution 1 <- 1
    t = betti_socle2(1)
    assert t.entries == {(0, 0): 1, (1, 3): 1}


def test_inflation_multiplies_by_one_plus_st():
    base = ci_table([4])  # K[x]/(x^4)
    t = inflate_betti(base, 2)
    # (1 + s^4 t)(1 + st)^2
    assert t.entries == {
        (0, 0): 1,
        (1, 1): 2,
        (2, 2): 1,
        (1, 4): 1,
        (2, 5): 2,
        (3, 6): 1,
    }


def test_reduced_inflation_drops_unit():
    base = ci_table([3])
    t = inflate_betti(base, 1, reduced=True)
    assert t.entries == {(1, 3): 1, (2, 4): 1}


def test_fiber_product_formula_reference_totals():
    ta = ci_table([3, 4, 4])
    tb = ci_table([5, 5])
    t = betti_fiber_product_K([ta, tb], (3, 2))
    assert t.totals() == [1, 11, 25, 24, 11, 2]


def test_connected_sum_formula_reference_entries():
    ta = ci_table([3, 4, 4])
    tb = ci_table([5, 5])
    t = betti_connected_sum_K([ta, tb], (3, 2), 8)
    assert t.totals() == [1, 12, 29, 29, 12, 1]
    assert t.get(1, 8) == 1
    assert t.get(2, 9) == 5
    assert t.get(3, 10) == 9
    assert t.get(4, 11) == 6
    assert t.get(5, 13) == 1
    assert t.is_symmetric(5, 8)


def test_connected_sum_formula_table3_left():
    tables = [ci_table([4])] * 3
    t = betti_connected_sum_K(tables, (1, 1, 1), 3)
    assert t.totals() == [1, 5, 5, 1]
    assert t.get(1, 2) == 3
    assert t.get(2, 3) == 2
    assert t.get(1, 3) == 2
    assert t.get(2, 4) == 3
    assert t.get(3, 6) == 1
    assert t.is_symmetric(3, 3)


def test_connected_sum_rejects_low_socle_degree():
    with pytest.raises(ValueError, match="socle degree must be >= 2"):
        betti_connected_sum_K([ci_table([2])] * 2, (1, 1), 1)


def test_connected_sum_rejects_non_gorenstein_factor():
    bad = BettiTable({(0, 0): 1, (1, 2): 2, (2, 4): 1})
    with pytest.raises(ValueError, match="not Gorenstein"):
        betti_connected_sum_K([bad, ci_table([4])], (1, 1), 3)


def test_factor_with_linear_form_rejected():
    bad = ci_table([1, 4])
    with pytest.raises(ValueError, match="linear"):
        betti_fiber_product_K([bad, ci_table([4])], (2, 1))


@given(
    st.lists(st.integers(1, 4), min_size=2, max_size=4),
    st.integers(1, 12),
)
@settings(max_examples=200, deadline=None)
def test_cross_multi_nonnegative_and_bounded(n_vec, t):
    n_vec = tuple(n_vec)
    if t >= sum(n_vec):
        return
    v = betti_cross_ideal_multi(n_vec, t)
    assert 0 <= v <= (len(n_vec) - 1) * binom(sum(n_vec), t + 1)


@given(st.lists(st.integers(2, 5), min_size=1, max_size=3), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_inflation_preserves_total_mass(degrees, extra):
    base = ci_table(degrees)
    t = inflate_betti(base, extra)
    assert sum(t.entries.values()) == sum(base.entries.values()) * 2**extra


def test_poincare_dualize_involution():
    t = betti_connected_sum_K([ci_table([4])] * 3, (1, 1, 1), 3)
    p = t.poincare()
    assert poincare_dualize(p, 3, 3) == p  # Gorenstein self-duality
    assert poincare_dualize(poincare_dualize(p, 3, 3), 3, 3) == p


def test_poincare_dualize_rejects_out_of_range():
    with pytest.raises(ValueError):
        poincare_dualize({(5, 2): 1}, 3, 3)


def test_render_layout():
    text = cross_ideal_table(1, 1).render()
    lines = text.splitlines()
    assert lines[1].lstrip().startswith("total:")
    assert "." in text


def test_table_round_trip_and_diff():
    t = betti_socle2(4)
    assert BettiTable.from_list(t.to_list()) == t
    other = BettiTable.from_list(t.to_list())
    other.add(1, 2, 1)
    d = t.diff(other)
    assert d == [(1, 2, t.get(1, 2), t.get(1, 2) + 1)]


# The two formulas written out term by term, with their own inflation and
# cross-strand loops: the reference for the forms built from the blocks.


def _validate_reference(tables):
    for k, t in enumerate(tables):
        if t.get(0, 0) != 1:
            raise ValueError(f"factor {k}: missing (0,0) entry")
        if t.get(1, 1):
            raise ValueError(f"factor {k}: ideal contains linear forms")


def reference_fiber_product(tables, n_vec):
    if len(tables) != len(n_vec) or len(tables) < 2:
        raise ValueError("one factor table per variable block, at least two")
    _validate_reference(tables)
    big = sum(n_vec)
    out = BettiTable({(0, 0): 1})
    for t, nk in zip(tables, n_vec):
        inflated = inflate_betti(t, big - nk, reduced=True)
        for (i, j), c in inflated.entries.items():
            out.add(i, j, c)
    for i in range(1, big):
        out.add(i, i + 1, betti_cross_ideal_multi(n_vec, i))
    return out


def reference_connected_sum(tables, n_vec, e):
    # the term-by-term sum holds at e = 2 as well, where both strands it
    # adds are strand 1
    if e < 2:
        raise ValueError("socle degree must be >= 2; use the Koszul oracle")
    if len(tables) != len(n_vec) or len(tables) < 2:
        raise ValueError("one factor table per variable block, at least two")
    _validate_reference(tables)
    big = sum(n_vec)
    for k, (t, nk) in enumerate(zip(tables, n_vec)):
        if not t.is_symmetric(nk, e) or t.get(nk, e + nk) != 1:
            raise ValueError(f"factor {k}: not Gorenstein")
    out = BettiTable({(0, 0): 1, (big, e + big): 1})
    for t, nk in zip(tables, n_vec):
        inflated = inflate_betti(t, big - nk, reduced=True)
        for (i, j), c in inflated.entries.items():
            if i + 1 <= j <= i + e - 1:
                out.add(i, j, c)
    for i in range(1, big):
        out.add(i, i + 1, betti_cross_ideal_multi(n_vec, i))
        out.add(i, i + e - 1, betti_cross_ideal_multi(n_vec, big - i))
    return out


def random_factor_table(rng, n, e):
    """A table passing the factor checks and Gorenstein symmetry: (0,0) and
    (n, n+e) are 1, (1,1) is 0, and the other entries come in mirrored pairs
    (i, j), (n-i, n+e-j), on strands -1..e+1."""
    fixed = {(0, 0), (n, n + e), (1, 1), (n - 1, n + e - 1)}
    entries = {(0, 0): 1, (n, n + e): 1}
    for _ in range(rng.randint(0, 6)):
        i = rng.randint(0, n)
        j = i + rng.randint(-1, e + 1)
        mirror = (n - i, n + e - j)
        if (i, j) in fixed or min(j, mirror[1]) < 0:
            continue
        c = rng.randint(1, 3)
        entries[(i, j)] = entries[mirror] = c
    return BettiTable(entries)


def spoil(rng, tables, n_vec, e):
    """Inputs that one of the checks refuses, or that may pass them all;
    returns (tables, n_vec)."""
    k = rng.randrange(len(tables))
    entries = dict(tables[k].entries)
    kind = rng.randrange(6)
    if kind == 0:
        entries[(0, 0)] = 2
    elif kind == 1:
        entries[(1, 1)] = rng.randint(1, 2)
    elif kind == 2:
        entries[(rng.randint(1, n_vec[k]), rng.randint(2, 9))] = 5
    elif kind == 3:
        entries[(n_vec[k], n_vec[k] + e)] = 2
    elif kind == 4:
        return tables[:1], n_vec[:1]
    else:
        return tables, n_vec + (1,)
    return tables[:k] + [BettiTable(entries)] + tables[k + 1:], n_vec


def outcome(formula, *args):
    try:
        return formula(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_formulas_match_the_term_by_term_reference():
    rng = random.Random(23)
    refused = 0
    for _ in range(10000):
        n_vec = tuple(rng.randint(1, 4) for _ in range(rng.choice((2, 3))))
        e = rng.randint(3, 6)
        tables = [random_factor_table(rng, nk, e) for nk in n_vec]
        if rng.random() < 0.2:
            tables, n_vec = spoil(rng, tables, n_vec, e)
        if rng.random() < 0.05:
            e = rng.randint(1, 2)
        fiber = outcome(betti_fiber_product_K, tables, n_vec)
        assert fiber == outcome(reference_fiber_product, tables, n_vec)
        connected = outcome(betti_connected_sum_K, tables, n_vec, e)
        assert connected == outcome(reference_connected_sum, tables, n_vec, e)
        refused += isinstance(connected, str)
    # the refusals are a share, not all, of the draws
    assert 1000 < refused < 5000
