"""CLI: file parsing, commands, exit codes, machine output round-trips."""

import json
import os
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gorensum
from gorensum.betti import BettiTable
from gorensum.cli import differential_suite, main, parse_algebra_file


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def factor_files(tmp_path):
    a = write(tmp_path, "a.json", {
        "variables": ["x", "y", "z"],
        "field": {"prime": 32003},
        "dual_generator": "x^2*y^3*z^3",
    })
    b = write(tmp_path, "b.json", {
        "variables": ["u", "v"],
        "field": {"prime": 32003},
        "dual_generator": "u^4*v^4",
    })
    return a, b


def test_parse_ideal_file(tmp_path):
    path = write(tmp_path, "a.json", {
        "variables": ["x", "y", "z"],
        "field": "QQ",
        "ideal": ["x^3", "y^4", "z^4"],
    })
    fac = parse_algebra_file(path)
    assert fac.dual is None
    assert fac.algebra.hilbert_function() == (1, 3, 6, 9, 10, 9, 6, 3, 1)


def test_parse_dual_generator_file(tmp_path, factor_files):
    fac = parse_algebra_file(factor_files[1])
    assert fac.dual is not None
    assert sorted(str(g) for g in fac.algebra.generators) == ["u^5", "v^5"]


def test_parse_rejects_both_routes(tmp_path):
    path = write(tmp_path, "bad.json", {
        "variables": ["x"],
        "field": "QQ",
        "ideal": ["x^2"],
        "dual_generator": "x^3",
    })
    with pytest.raises(Exception, match="not both"):
        parse_algebra_file(path)


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["hilbert", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_hilbert_command(tmp_path, capsys):
    path = write(tmp_path, "a.json", {
        "variables": ["x"], "field": "QQ", "ideal": ["x^3"],
    })
    assert main(["hilbert", path]) == 0
    assert capsys.readouterr().out.strip() == "1 1 1"


def test_annihilator_command(tmp_path, capsys):
    path = write(tmp_path, "b.json", {
        "variables": ["u", "v"], "field": "QQ", "dual_generator": "u^4*v^4",
    })
    assert main(["annihilator", path, "--output", "machine"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out["ideal"]) == ["u^5", "v^5"]
    assert out["hilbert"] == [1, 2, 3, 4, 5, 4, 3, 2, 1]


# dual generators with rational coefficients, and the exact machine output
# they give; every coefficient printed is a `Fraction` in lowest terms
RATIONAL_DUALS = {
    "a": (["x", "y"], "x^2*y + 2/3*y^3"),
    "b": (["u", "v"], "u^3 - 5/7*u*v^2"),
    "c": (["x", "y", "z"], "x^2*y*z + 2/3*y^3*z - 5/7*x*z^3 + 1/11*y^4"),
}
RATIONAL_ANNIHILATORS = {
    "a": '{"hilbert": [1, 2, 2, 1], "ideal": ["x^2 - 3/2*y^2", "x*y^2"]}',
    "b": '{"hilbert": [1, 2, 2, 1], "ideal": ["u^2 + 7/5*v^2", "v^3"]}',
    "c": '{"hilbert": [1, 3, 5, 3, 1], "ideal": ["x*y + 7/5*z^2", "x^3", '
         '"y^3 - 3/22*y^2*z + 14/15*x*z^2", "x^2*z - 3/2*y^2*z", "y*z^2"]}',
}
RATIONAL_CONNECTED_SUM = (
    '{"agree": true, "betti": [[0, 0, 1], [1, 2, 6], [1, 3, 3], [2, 3, 8], [2, 4, 8], '
    '[3, 4, 3], [3, 5, 6], [4, 7, 1]], "hilbert": [1, 4, 4, 1], "poincare": "1 + 6*t*s^2 '
    '+ 3*t*s^3 + 8*t^2*s^3 + 8*t^2*s^4 + 3*t^3*s^4 + 6*t^3*s^5 + t^4*s^7"}'
)


def test_rational_coefficients_golden_output(tmp_path, capsys):
    paths = {name: write(tmp_path, f"{name}.json", {
        "variables": variables, "field": "QQ", "dual_generator": dual,
    }) for name, (variables, dual) in RATIONAL_DUALS.items()}
    for name, expected in RATIONAL_ANNIHILATORS.items():
        assert main(["annihilator", paths[name], "--output", "machine"]) == 0
        assert capsys.readouterr().out == expected + "\n"
    assert main(["connected-sum", paths["a"], paths["b"], "--method", "both",
                 "--output", "machine"]) == 0
    assert capsys.readouterr().out == RATIONAL_CONNECTED_SUM + "\n"


# the README commands over GF(32003), and the exact machine output and exit
# code each gives
GF_FILES = {
    "a": {"variables": ["x", "y", "z"], "dual_generator": "x^2*y^3*z^3"},
    "b": {"variables": ["u", "v"], "dual_generator": "u^4*v^4"},
    "c": {"variables": ["w"], "dual_generator": "w^8"},
    "j": {"variables": ["x", "y", "z"], "ideal": ["x*y", "x*z", "y*z"]},
    "i": {"variables": ["x", "y", "z"],
          "ideal": ["x*y", "x*z", "y*z", "x^3+y^3", "x^3+z^3"]},
    "bad": {"variables": ["x", "y", "z"], "ideal": ["x*y", "x*z", "y*z", "x^3"]},
    "ci": {"variables": ["x", "y", "z"], "ideal": ["x^2", "y^2", "z^2"]},
}
GF_GOLDEN = [
    (('hilbert', 'a'), 0,
     '{"hilbert": [1, 3, 6, 9, 10, 9, 6, 3, 1]}'),
    (('annihilator', 'a'), 0,
     '{"hilbert": [1, 3, 6, 9, 10, 9, 6, 3, 1], "ideal": ["x^3", "y^4", "z^4"]}'),
    (('betti', 'a'), 0,
     '{"betti": [[0, 0, 1], [1, 3, 1], [1, 4, 2], [2, 7, 2], [2, 8, 1], [3, 11, 1]'
     '], "hilbert": [1, 3, 6, 9, 10, 9, 6, 3, 1], "poincare": "1 + t*s^3 + 2*t*s^4'
     ' + 2*t^2*s^7 + t^2*s^8 + t^3*s^11"}'),
    (('fiber-product', 'a', 'b', '--method', 'both'), 0,
     '{"agree": true, "betti": [[0, 0, 1], [1, 2, 6], [1, 3, 1], [1, 4, 2], [1, 5,'
     ' 2], [2, 3, 9], [2, 4, 2], [2, 5, 4], [2, 6, 6], [2, 7, 2], [2, 8, 1], [2, 1'
     '0, 1], [3, 4, 5], [3, 5, 1], [3, 6, 2], [3, 7, 6], [3, 8, 4], [3, 9, 2], [3,'
     ' 11, 4], [4, 5, 1], [4, 8, 2], [4, 9, 2], [4, 10, 1], [4, 12, 5], [5, 13, 2]'
     '], "hilbert": [1, 5, 9, 13, 15, 13, 9, 5, 2], "poincare": "1 + 6*t*s^2 + t*s'
     '^3 + 2*t*s^4 + 2*t*s^5 + 9*t^2*s^3 + 2*t^2*s^4 + 4*t^2*s^5 + 6*t^2*s^6 + 2*t'
     '^2*s^7 + t^2*s^8 + t^2*s^10 + 5*t^3*s^4 + t^3*s^5 + 2*t^3*s^6 + 6*t^3*s^7 + '
     '4*t^3*s^8 + 2*t^3*s^9 + 4*t^3*s^11 + t^4*s^5 + 2*t^4*s^8 + 2*t^4*s^9 + t^4*s'
     '^10 + 5*t^4*s^12 + 2*t^5*s^13"}'),
    (('connected-sum', 'a', 'b', 'c', '--method', 'both'), 0,
     '{"agree": true, "betti": [[0, 0, 1], [1, 2, 11], [1, 3, 1], [1, 4, 2], [1, 5'
     ', 2], [1, 8, 2], [2, 3, 25], [2, 4, 3], [2, 5, 6], [2, 6, 8], [2, 7, 2], [2,'
     ' 8, 1], [2, 9, 11], [3, 4, 24], [3, 5, 3], [3, 6, 6], [3, 7, 12], [3, 8, 6],'
     ' [3, 9, 3], [3, 10, 24], [4, 5, 11], [4, 6, 1], [4, 7, 2], [4, 8, 8], [4, 9,'
     ' 6], [4, 10, 3], [4, 11, 25], [5, 6, 2], [5, 9, 2], [5, 10, 2], [5, 11, 1], '
     '[5, 12, 11], [6, 14, 1]], "hilbert": [1, 6, 10, 14, 16, 14, 10, 6, 1], "poin'
     'care": "1 + 11*t*s^2 + t*s^3 + 2*t*s^4 + 2*t*s^5 + 2*t*s^8 + 25*t^2*s^3 + 3*'
     't^2*s^4 + 6*t^2*s^5 + 8*t^2*s^6 + 2*t^2*s^7 + t^2*s^8 + 11*t^2*s^9 + 24*t^3*'
     's^4 + 3*t^3*s^5 + 6*t^3*s^6 + 12*t^3*s^7 + 6*t^3*s^8 + 3*t^3*s^9 + 24*t^3*s^'
     '10 + 11*t^4*s^5 + t^4*s^6 + 2*t^4*s^7 + 8*t^4*s^8 + 6*t^4*s^9 + 3*t^4*s^10 +'
     ' 25*t^4*s^11 + 2*t^5*s^6 + 2*t^5*s^9 + 2*t^5*s^10 + t^5*s^11 + 11*t^5*s^12 +'
     ' t^6*s^14"}'),
    (('betti', 'a', 'b', '--construction', 'connected-sum', '--method', 'both'), 0,
     '{"agree": true, "betti": [[0, 0, 1], [1, 2, 6], [1, 3, 1], [1, 4, 2], [1, 5,'
     ' 2], [1, 8, 1], [2, 3, 9], [2, 4, 2], [2, 5, 4], [2, 6, 6], [2, 7, 2], [2, 8'
     ', 1], [2, 9, 5], [3, 4, 5], [3, 5, 1], [3, 6, 2], [3, 7, 6], [3, 8, 4], [3, '
     '9, 2], [3, 10, 9], [4, 5, 1], [4, 8, 2], [4, 9, 2], [4, 10, 1], [4, 11, 6], '
     '[5, 13, 1]], "hilbert": [1, 5, 9, 13, 15, 13, 9, 5, 1], "poincare": "1 + 6*t'
     '*s^2 + t*s^3 + 2*t*s^4 + 2*t*s^5 + t*s^8 + 9*t^2*s^3 + 2*t^2*s^4 + 4*t^2*s^5'
     ' + 6*t^2*s^6 + 2*t^2*s^7 + t^2*s^8 + 5*t^2*s^9 + 5*t^3*s^4 + t^3*s^5 + 2*t^3'
     '*s^6 + 6*t^3*s^7 + 4*t^3*s^8 + 2*t^3*s^9 + 9*t^3*s^10 + t^4*s^5 + 2*t^4*s^8 '
     '+ 2*t^4*s^9 + t^4*s^10 + 6*t^4*s^11 + t^5*s^13"}'),
    (('doubling-check', 'j', 'i'), 0,
     '{"checks": {"cm1": true, "containment": true, "gorenstein": true, "hilbert_m'
     'atch": true, "shift": true}, "note": "necessary conditions only: I/J is comp'
     'ared with omega at the Hilbert level; the G_0 hypothesis is assumed, not che'
     'cked", "t": 3, "verdict": "pass"}'),
    (('doubling-check', 'j', 'bad'), 1,
     '{"checks": {"cm1": true, "containment": true, "gorenstein": false, "hilbert_'
     'match": false, "shift": false}, "reasons": {"gorenstein": "not Gorenstein: H'
     'ilbert function is constant (2) from degree 3 on; not Artinian", "hilbert_ma'
     'tch": "skipped: earlier check failed", "shift": "skipped: earlier check fail'
     'ed"}, "verdict": "fail: gorenstein (not Gorenstein: Hilbert function is cons'
     'tant (2) from degree 3 on; not Artinian)"}'),
    (('doubling-check', 'j', 'ci'), 1,
     '{"checks": {"cm1": true, "containment": false, "gorenstein": true, "hilbert_'
     'match": false, "shift": false}, "reasons": {"containment": "J is not contain'
     'ed in I in degree 2", "hilbert_match": "skipped: earlier check failed", "shi'
     'ft": "skipped: earlier check failed"}, "verdict": "fail: containment (J is n'
     'ot contained in I in degree 2)"}'),
]


def test_prime_field_golden_output(tmp_path, capsys):
    paths = {name: write(tmp_path, f"{name}.json", {"field": {"prime": 32003}, **payload})
             for name, payload in GF_FILES.items()}
    for argv, code, expected in GF_GOLDEN:
        assert main([paths.get(x, x) for x in argv] + ["--output", "machine"]) == code
        assert capsys.readouterr().out == expected + "\n"


def test_socle_degree_two_connected_sum_agrees(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"variables": ["x", "y"], "field": {"prime": 32003},
                                   "dual_generator": "x*y"})
    b = write(tmp_path, "b.json", {"variables": ["z"], "field": {"prime": 32003},
                                   "dual_generator": "z^2"})
    assert main(["connected-sum", a, b, "--method", "both", "--output", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is True and payload["hilbert"] == [1, 3, 1]


def test_sparse_dual_generator_in_many_variables(tmp_path, capsys):
    # x0^4 in 40 variables: the zero slice in degree 5 reads no basis, so
    # the Hilbert function needs none of the 1,086,008 degree-5 monomials;
    # the annihilator's own degree-5 generator does, and is refused
    path = write(tmp_path, "wide.json", {"variables": [f"x{k}" for k in range(40)],
                                         "field": {"prime": 32003},
                                         "dual_generator": "x0^4"})
    assert main(["hilbert", path]) == 0
    assert capsys.readouterr().out == "1 1 1 1 1\n"
    assert main(["annihilator", path]) == 2
    assert capsys.readouterr().err == (
        "error: the degree-5 monomial basis in 40 variables has over 10000000 "
        "exponent entries\n"
    )


def test_runs_without_numpy(tmp_path, factor_files):
    # in a fresh interpreter the CLI imports no numpy, and with numpy made
    # unimportable it still answers over GF(32003) and QQ
    script = textwrap.dedent(f"""
        import sys
        from gorensum.cli import main
        if "numpy" in sys.modules:
            sys.exit("numpy was imported")
        sys.modules["numpy"] = None
        a, b = {list(factor_files)!r}
        sys.exit(max(main(["connected-sum", a, b, "--method", "both"]),
                     main(["connected-sum", a, b, "--method", "both", "--field", "QQ"]),
                     main(["verify", "--seed", "7", "--count", "3"])))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gorensum.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("formula and oracle agree") == 2
    assert "all 3 instances agree (seed 7)" in proc.stdout


def test_connected_sum_both_agrees(factor_files, capsys):
    a, b = factor_files
    assert main(["connected-sum", a, b, "--method", "both"]) == 0
    out = capsys.readouterr().out
    assert "agree" in out
    assert "total: 1 12 29 29 12 1" in out


def test_fiber_product_machine_round_trip(factor_files, capsys):
    a, b = factor_files
    assert main(["fiber-product", a, b, "--method", "oracle",
                 "--output", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hilbert"] == [1, 5, 9, 13, 15, 13, 9, 5, 2]
    table = BettiTable.from_list(payload["betti"])
    assert table.totals() == [1, 11, 25, 24, 11, 2]


def test_betti_single_file_oracle(tmp_path, capsys):
    path = write(tmp_path, "a.json", {
        "variables": ["x", "y"], "field": "QQ", "ideal": ["x^2", "y^2"],
    })
    assert main(["betti", path]) == 0
    assert "total: 1 2 1" in capsys.readouterr().out


def test_betti_formula_needs_construction(tmp_path, capsys):
    path = write(tmp_path, "a.json", {
        "variables": ["x"], "field": "QQ", "ideal": ["x^2"],
    })
    assert main(["betti", path, "--method", "formula"]) == 2


def test_betti_multi_file_construction(factor_files, capsys):
    a, b = factor_files
    assert main(["betti", a, b, "--construction", "connected-sum",
                 "--method", "both"]) == 0


def test_doubling_check_pass_and_fail(tmp_path, capsys):
    j = write(tmp_path, "j.json", {
        "variables": ["x", "y", "z"], "field": "QQ",
        "ideal": ["x*y", "x*z", "y*z"],
    })
    i = write(tmp_path, "i.json", {
        "variables": ["x", "y", "z"], "field": "QQ",
        "ideal": ["x*y", "x*z", "y*z", "x^3+y^3", "x^3+z^3"],
    })
    assert main(["doubling-check", j, i]) == 0
    assert "PASS t=3" in capsys.readouterr().out
    bad = write(tmp_path, "bad.json", {
        "variables": ["x", "y", "z"], "field": "QQ",
        "ideal": ["x*y", "x*z", "y*z", "x^3"],
    })
    assert main(["doubling-check", j, bad]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_field_override(tmp_path, capsys):
    path = write(tmp_path, "a.json", {
        "variables": ["x"], "field": "QQ", "ideal": ["x^3"],
    })
    assert main(["hilbert", path, "--field", "7"]) == 0


def test_verify_seeded_reproducible(capsys):
    assert main(["verify", "--seed", "3", "--count", "2",
                 "--output", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--seed", "3", "--count", "2",
                 "--output", "machine"]) == 0
    assert capsys.readouterr().out == first


def test_verify_takes_no_files_or_degree_cap(capsys):
    # verify draws its own instances: annihilators, always Artinian
    for argv in (["verify", "x.json"], ["verify", "--degree-cap", "1"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


def test_differential_suite_deterministic():
    assert differential_suite(seed=11, count=2) == differential_suite(
        seed=11, count=2
    )


def test_rendering_deterministic(factor_files, capsys):
    a, b = factor_files
    main(["connected-sum", a, b, "--method", "oracle"])
    first = capsys.readouterr().out
    main(["connected-sum", a, b, "--method", "oracle"])
    assert capsys.readouterr().out == first


def test_non_artinian_ideal_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "a.json", {
        "variables": ["x", "y"], "field": "QQ", "ideal": ["x^2"],
    })
    assert main(["hilbert", path]) == 2
    assert "error: " in capsys.readouterr().err


def test_zero_denominator_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "a.json", {
        "variables": ["x"], "field": {"prime": 7}, "ideal": ["1/7*x^2"],
    })
    assert main(["hilbert", path]) == 2
    assert "divisible by 7" in capsys.readouterr().err


def test_degree_cap_bounds_ideal_inputs(tmp_path, capsys):
    path = write(tmp_path, "a.json", {
        "variables": ["x"], "field": "QQ", "ideal": ["x^9"],
    })
    assert main(["hilbert", path, "--degree-cap", "4"]) == 2
    assert "not Artinian within degree cap 4" in capsys.readouterr().err
    assert main(["hilbert", path]) == 0
    assert capsys.readouterr().out.split() == ["1"] * 9


def test_annihilator_of_degree_64_and_above_answers(tmp_path, capsys):
    # Ann(F) is scanned through its zero in degree deg F + 1, past the
    # default degree cap of 64
    path = write(tmp_path, "a.json", {
        "variables": ["x"], "field": {"prime": 7}, "dual_generator": "x^64",
    })
    assert main(["hilbert", path]) == 0
    assert capsys.readouterr().out.split() == ["1"] * 65


def test_degree_cap_bounds_dual_generators(tmp_path, capsys):
    # refused before any catalecticant is built
    huge = write(tmp_path, "huge.json", {
        "variables": ["x"], "field": {"prime": 7}, "dual_generator": "x^3000",
    })
    start = time.perf_counter()
    assert main(["hilbert", huge]) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == (
        f"error: {huge}: dual generator degree 3000 exceeds the degree cap 64\n"
    )
    path = write(tmp_path, "a.json", {
        "variables": ["x"], "field": {"prime": 7}, "dual_generator": "x^100",
    })
    assert main(["hilbert", path]) == 2
    assert "exceeds the degree cap 64" in capsys.readouterr().err
    assert main(["hilbert", path, "--degree-cap", "100"]) == 0
    assert capsys.readouterr().out.split() == ["1"] * 101


def test_catalecticant_budget_is_checked_before_any_is_built(tmp_path, capsys):
    # x^333 in three variables passes a raised degree cap; its largest
    # catalecticant is 14,028 x 14,196 (1.6 GB as int64)
    path = write(tmp_path, "a.json", {
        "variables": ["x", "y", "z"], "field": "QQ", "dual_generator": "x^333",
    })
    start = time.perf_counter()
    assert main(["annihilator", path, "--degree-cap", "400"]) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == (
        f"error: {path}: the largest catalecticant has 199141488 cells, "
        "over the budget of 10000000\n"
    )


def test_monomial_basis_budget_is_checked_before_any_is_built(tmp_path, capsys):
    # in 1,200 variables the degree-2 basis is 720,600 exponent vectors of
    # 1,200 entries; the dual generator's catalecticants and the ideal's
    # Hilbert scan both reach it
    variables = [f"x{k}" for k in range(1200)]
    for route in ({"dual_generator": "x0*x1"}, {"ideal": ["x0"]}):
        path = write(tmp_path, "wide.json", {
            "variables": variables, "field": {"prime": 32003}, **route,
        })
        start = time.perf_counter()
        assert main(["hilbert", path]) == 2
        assert "the degree-2 monomial basis in 1200 variables has over 10000000" in (
            capsys.readouterr().err
        )
        # the ideal first integrates degree 1: one 1 x 1200 kernel, no product
        assert time.perf_counter() - start < 2


def test_internal_check_failure_exits_3(factor_files, capsys, monkeypatch):
    from gorensum import constructions

    monkeypatch.setattr(constructions, "hilbert_closed_form", lambda *a, **k: (1, 1))
    assert main(["connected-sum", *factor_files]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        "error: internal check failed: connected sum Hilbert mismatch:"
    )


@pytest.mark.parametrize("command", [
    ["betti", "A"],
    ["connected-sum", "A", "B", "--method", "oracle"],
])
def test_asymmetric_oracle_table_of_a_gorenstein_algebra_exits_3(
    factor_files, capsys, monkeypatch, command
):
    from gorensum import cli

    argv = [{"A": factor_files[0], "B": factor_files[1]}.get(a, a) for a in command]
    assert main(argv) == 0
    capsys.readouterr()
    real = cli.tor_betti

    def skewed(algebra, **kwargs):
        # one more beta_(2,3) breaks beta_ij = beta_(n-i, e+n-j)
        table = real(algebra, **kwargs)
        table.add(2, 3, 1)
        return table

    monkeypatch.setattr(cli, "tor_betti", skewed)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: internal check failed: the oracle Betti table")
    assert err[0].endswith("is not symmetric")


def test_connected_sum_over_the_largest_31_bit_prime(tmp_path, factor_files, capsys):
    # products over 2^31 - 1 whose int64 sum could overflow are taken in
    # Python integers: the same answer as over GF(32003), not a refusal
    path = write(tmp_path, "h.json", {
        "variables": ["x", "y"], "field": "QQ", "ideal": ["x^3", "x*y", "y^4"],
    })
    assert main(["hilbert", path, "--field", "2147483647"]) == 0
    assert capsys.readouterr().out == "1 2 2 1\n"
    argv = ["connected-sum", *factor_files, "--method", "both", "--output", "machine"]
    assert main(argv) == 0
    expected = json.loads(capsys.readouterr().out)
    assert main(argv + ["--field", "2147483647"]) == 0
    assert json.loads(capsys.readouterr().out) == expected
    assert expected["agree"] is True


MALFORMED = [
    ({"variables": 5, "ideal": ["x^2"]}, "'variables' must be a list of strings"),
    ({"variables": [["x"]], "ideal": ["x^2"]}, "'variables' must be a list of strings"),
    ({"variables": "xy", "ideal": ["x^2", "y^2"]}, "'variables' must be a list of strings"),
    ({"variables": ["x"], "ideal": [5]}, "'ideal' must be a list of strings"),
    ({"variables": ["x"], "ideal": [None]}, "'ideal' must be a list of strings"),
    ({"variables": ["x"], "ideal": {"a": 1}}, "'ideal' must be a list of strings"),
    ({"variables": ["x"], "dual_generator": 5}, "'dual_generator' must be a string"),
    ({"variables": ["x"], "ideal": ["x^2"], "field": {"prime": [7]}}, "bad field spec"),
    ({"variables": ["x"], "ideal": ["x^2"], "field": {"prime": 7.5}}, "bad field spec"),
    ({"variables": ["x"], "ideal": ["x^2"], "field": {"prime": True}}, "bad field spec"),
    ({"variables": ["x"], "ideal": ["x^2"], "field": {"prime": 6}}, "6 is not prime"),
]


@pytest.mark.parametrize("payload, message", MALFORMED, ids=lambda v: json.dumps(v))
def test_malformed_input_is_a_usage_error(tmp_path, capsys, payload, message):
    path = write(tmp_path, "bad.json", {"field": "QQ", **payload})
    assert main(["hilbert", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1


NAMES = st.sampled_from(["x", "y", "z", "w", "", "1x"])
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(0, 9),
                 st.text("xyz", max_size=3), st.lists(st.integers(0, 3), max_size=2))
# exponents stay small (at most 4, or 22 in free text) so that each example
# is quick; a dual generator past --degree-cap is refused before any
# catalecticant is built
POLY = st.one_of(
    st.lists(st.tuples(st.sampled_from(["", "-", "+", "2*", "1/2*", "1/0*", "0*"]),
                       st.lists(st.tuples(NAMES, st.integers(0, 4)), min_size=1, max_size=3)),
             min_size=1, max_size=3).map(lambda terms: "".join(
                 sign + "*".join(f"{v}^{e}" for v, e in mono) for sign, mono in terms)),
    st.text("xyz^*+-/ 012", max_size=4),
)
FIELDS = st.sampled_from(["QQ", "7", "x", {"prime": 2}, {"prime": 32003},
                          {"prime": 2147483647}, {"prime": 7.5}, {"prime": 9}, 7])
PAYLOADS = st.fixed_dictionaries({
    "variables": st.one_of(st.lists(NAMES, max_size=3), JUNK),
    "field": st.one_of(FIELDS, JUNK),
}, optional={
    "ideal": st.one_of(st.lists(POLY, max_size=4), JUNK),
    "dual_generator": st.one_of(POLY, JUNK),
})


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=st.one_of(PAYLOADS, JUNK),
       command=st.sampled_from(["hilbert", "annihilator", "betti"]),
       output=st.sampled_from(["text", "machine"]))
def test_fuzzed_input_gets_an_exit_code_not_a_traceback(tmp_path, capsys, payload,
                                                         command, output):
    path = write(tmp_path, "fuzz.json", payload)
    code = main([command, path, "--degree-cap", "6", "--output", output])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def run_main(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    try:
        code = main(argv)
    except SystemExit as exit_info:
        code = exit_info.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fuzzed_flags_get_an_exit_code_not_a_traceback(tmp_path, capsys):
    a = write(tmp_path, "a.json", {
        "variables": ["x", "y"], "field": {"prime": 32003}, "dual_generator": "x^2*y",
    })
    b = write(tmp_path, "b.json", {
        "variables": ["u"], "field": {"prime": 32003}, "dual_generator": "u^3",
    })
    j = write(tmp_path, "j.json", {
        "variables": ["x", "y", "z"], "field": "QQ", "ideal": ["x*y", "x*z", "y*z"],
    })
    i = write(tmp_path, "i.json", {
        "variables": ["x", "y", "z"], "field": "QQ",
        "ideal": ["x*y", "x*z", "y*z", "x^3+y^3", "x^3+z^3"],
    })
    file_flags = ("--max-dim", "--degree-cap")
    commands = [
        (["hilbert", a], file_flags),
        (["annihilator", a], file_flags),
        (["betti", a], file_flags),
        (["betti", a, b, "--construction", "connected-sum", "--method", "both"], file_flags),
        (["fiber-product", a, b, "--method", "both"], file_flags),
        (["connected-sum", a, b], file_flags),
        (["doubling-check", j, i], file_flags),
        # --count 10^9 is bounded by --max-dim 0, which refuses the first instance
        (["verify", "--max-dim", "0"], ("--count",)),
        (["verify", "--count", "1"], ("--max-dim", "--seed")),
    ]
    nonnegative = {"--max-dim", "--degree-cap", "--count"}
    for base, flags in commands:
        argvs = [base + [flag, value] for flag in flags
                 for value in ("-1", "0", "1", str(10**9))]
        argvs += [base + ["--field", junk] for junk in
                  ("0", "1", "4", "-7", "QQQ", "1/2", "2147483648", str(2**63))]
        argvs += [base + extra for extra in
                  (["--bogus"], ["--output", "json"], ["--max-dim"], ["--max-dim", "x"])]
        for argv in argvs:
            code, out, err = run_main(argv, capsys)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv
            if argv[-2] in nonnegative and argv[-1] == "-1":
                assert code == 2 and out == "" and "must be nonnegative" in err, argv


def test_mismatched_multi_file_inputs_get_an_exit_code_not_a_traceback(tmp_path, capsys):
    def factor(name, variables, field, **body):
        return write(tmp_path, f"{name}.json", {"variables": variables, "field": field, **body})

    qq_xy = factor("qq_xy", ["x", "y"], "QQ", dual_generator="x^2*y + 2/3*y^3")
    qq_xz = factor("qq_xz", ["x", "z"], "QQ", dual_generator="x*z^2")
    qq_uv = factor("qq_uv", ["u", "v"], "QQ", dual_generator="u^3 - 5/7*u*v^2")
    gf_uv = factor("gf_uv", ["u", "v"], {"prime": 32003}, dual_generator="u^3")
    gf7_s = factor("gf7_s", ["s"], {"prime": 7}, dual_generator="s^3")
    ideal_uv = factor("ideal_uv", ["u", "v"], "QQ", ideal=["u^2", "v^2"])
    # mixed fields and shared variable names, for both constructions
    mismatched = [[qq_xy, gf_uv], [gf_uv, qq_xy], [gf7_s, gf_uv], [qq_xy, qq_uv, gf7_s],
                  [qq_xy, qq_xz], [qq_xy, qq_uv, qq_xz], [qq_xz, qq_xz]]
    argvs = []
    for files in mismatched:
        for construction in ("connected-sum", "fiber-product"):
            argvs += [[construction, *files], ["betti", *files, "--construction", construction]]
    # an ideal where the connected sum needs a dual generator
    for files in ([qq_xy, ideal_uv], [ideal_uv, qq_xy]):
        argvs += [["connected-sum", *files], ["betti", *files, "--construction", "connected-sum"]]
    argvs = [argv + ["--method", method, "--output", output] for argv in argvs
             for method in ("formula", "oracle", "both") for output in ("text", "machine")]
    for argv in argvs:
        code, out, err = run_main(argv, capsys)
        assert code == 2 and out == "" and err.startswith("error: "), argv
        assert "Traceback" not in err, argv

    ring = ["x", "y", "z"]
    j = factor("j", ring, "QQ", ideal=["x*y", "x*z", "y*z"])
    i = factor("i", ring, "QQ", ideal=["x*y", "x*z", "y*z", "x^3+y^3", "x^3+z^3"])
    i_gf = factor("i_gf", ring, {"prime": 32003},
                  ideal=["x*y", "x*z", "y*z", "x^3+y^3", "x^3+z^3"])
    i_dual = factor("i_dual", ring, "QQ", dual_generator="x^3+y^3+z^3")
    i_permuted = factor("i_permuted", ring[::-1], "QQ",
                        ideal=["x*y", "x*z", "y*z", "x^3+y^3", "x^3+z^3"])
    doubling = [([i, j], 1), ([i_dual, j], 1), ([j, i_gf], 2), ([i_gf, j], 2),
                ([j, i_permuted], 2), ([j, qq_xy], 2), ([qq_xy, i], 2)]
    for files, expected in doubling:
        for output in ("text", "machine"):
            argv = ["doubling-check", *files, "--output", output]
            code, out, err = run_main(argv, capsys)
            assert code == expected, argv
            assert "Traceback" not in err, argv
