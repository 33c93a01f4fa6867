"""CLI: file parsing, commands, exit codes, machine output round-trips."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
# exponents stay small (at most 4, or 22 in free text) so that no dual
# generator needs large catalecticants: those are built before any cap applies
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
