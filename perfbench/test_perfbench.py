"""Tests of the benchmark itself: traced counters repeat exactly, tracing
leaves answers unchanged, and self time is a span minus its children.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import random
import sys
import tempfile
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OPS_PER_WORKLOAD = 4


def _cheapest_specs(workload):
    """A few cheap ops of the first cycle, so the test stays short."""
    specs = workload.make_cycle(0)
    if workload.name == "verify_gf":
        specs = [s for s in specs if sum(s[1]) <= 4]
    elif workload.name == "doubling_family":
        specs = [s for s in specs if len(s) == 2]
    else:
        specs = [s for s in specs if s[2] == 3]
    return specs[:OPS_PER_WORKLOAD]


def _traced_run(name, seed):
    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.WORKLOADS[name](seed, workdir)
        specs = _cheapest_specs(workload)
        tracer = tracing.Tracer()
        answers = []
        with tracer:
            for index, spec in enumerate(specs):
                tracer.op = index
                answers.append(workload.run_op(spec, True).answer)
        plain = [workload.run_op(spec, True).answer for spec in specs]
    return tracer, answers, plain


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_repeat_and_answers_unchanged(name):
    first, answers, plain = _traced_run(name, seed=5)
    second, _, _ = _traced_run(name, seed=5)
    assert answers == plain
    counters = tracing.deterministic_counters(first)
    assert counters == tracing.deterministic_counters(second)
    assert counters["linalg.calls"] > 0
    assert counters["linalg.cells"] >= counters["linalg.rows_in"] > 0
    assert not any(v for k, v in counters.items() if k.endswith(".errors"))
    metrics = tracing.layer_metrics(first, wall_s=0.0)
    assert 0 < metrics["linalg.useful_ratio"] <= 1
    if name == "doubling_family":
        assert counters["ideals.max_degree"] > 0
        assert metrics["doubling.cm1_check.s"] > 0
    else:
        assert counters["oracle.rank_calls"] > 0
        assert metrics["oracle.tor_betti.s"] > 0


def test_tracer_restores_every_patched_name():
    from gorensum import apolarity, cli, constructions, ideals, linalg

    before = (linalg._reduce_rows, linalg.EchelonBasis.__dict__["insert"],
              cli.tor_betti, constructions.annihilator, apolarity.minimal_generators,
              ideals.IdealSlices.__dict__["ensure"])
    with tracing.Tracer():
        assert cli.tor_betti is not before[2]
        assert constructions.annihilator is apolarity.annihilator
    after = (linalg._reduce_rows, linalg.EchelonBasis.__dict__["insert"],
             cli.tor_betti, constructions.annihilator, apolarity.minimal_generators,
             ideals.IdealSlices.__dict__["ensure"])
    assert after == before


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    for layer, (_, entries) in tracing.LAYERS.items():
        for qualname in entries:
            tracer._intern(layer, qualname)
    tor = tracer._name_ids["oracle.tor_betti"]
    rank = tracer._name_ids["linalg.rank"]
    engine = tracer._name_ids["linalg._rref_prime"]
    tracer.spans = [
        (tor, "", 0.0, 10.0, -1, 0),
        (rank, "gf", 1.0, 4.0, 0, 0),
        (engine, "gf", 1.5, 3.5, 1, 0),
        (rank, "gf", 5.0, 6.0, 0, 0),
    ]
    self_s, extra = tracer.timings()
    assert self_s["oracle"] == pytest.approx(6.0)
    assert self_s["linalg.gf"] == pytest.approx(4.0)
    assert extra["oracle.tor_betti.s"] == pytest.approx(10.0)
    assert extra["oracle.rank.s"] == pytest.approx(4.0)
    assert extra["linalg.gf.engine_s"] == pytest.approx(2.0)
    metrics = tracing.layer_metrics(tracer, wall_s=12.0)
    assert metrics["unattributed_s"] == pytest.approx(2.0)


def test_verify_weights_are_the_suite_draw():
    weights = workloads.VERIFY_WEIGHTS
    assert sum(weights.values()) == 1 and len(weights) == 42
    assert weights[((2, 1), 3)] == Fraction(12, 100) / 3
    assert weights[((2, 2, 2), 5)] == Fraction(2, 100) / 3
    rng = random.Random(0)
    draws = 30000
    counts = Counter()
    for _ in range(draws):
        n_vec, d = workloads.drawn_shape(rng.getrandbits(31))
        counts[(tuple(sorted(n_vec, reverse=True)), d)] += 1
    assert set(counts) == set(weights)
    for shape, weight in weights.items():
        assert abs(counts[shape] / draws - weight) < 0.004, shape


def test_tail_leaves_ten_ops_beyond_it():
    p50, tail_s, percentile, beyond = run.latency_profile(
        list(range(35)), [1] * 35, range(35))
    assert (p50, tail_s, percentile, beyond) == (17, 24, 71, 10)
    assert run.latency_profile(list(range(184)), [1] * 184,
                               range(184))[1:] == (172, 94, 11)
    # a heavy op weighs in by its share, not by its count
    latencies = [0.1] * 20 + [1.0] * 10 + [2.0]
    weights = [1] * 20 + [1] * 10 + [30]
    assert run.latency_profile(latencies, weights, range(31)) == (1.0, 1.0, 35, 10)


def test_median_is_over_class_latencies():
    # class "a" weighs 3 at its trimmed mean 0.5, whatever its fast and slow
    # outliers; the slow outlier of class "b" does not move the median either
    latencies = [0.4, 0.5, 0.6, 0.1, 0.9, 0.2, 0.2, 0.9]
    weights = [Fraction(3, 5)] * 5 + [Fraction(2, 3)] * 3
    shapes = ["a"] * 5 + ["b"] * 3
    assert run.latency_profile(latencies, weights, shapes)[0] == pytest.approx(0.5)
    assert run.latency_profile(latencies, [1] * 8, range(8))[0] == 0.4
