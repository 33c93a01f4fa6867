"""CLI: file parsing, commands, exit codes, machine output round-trips."""

import json

import pytest

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
