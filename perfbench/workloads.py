"""The three benchmark workloads: seeded inputs, one op per instance, and the
answer gate that every op passes through.

A workload is run in cycles.  One cycle is a fixed multiset of instance
shapes, each drawn afresh from the seed, so every cycle does the same kind of
work on different inputs.  Instance cost in gorensum depends on the shape
(variables, factors, socle degree) far more than on the coefficients, so
whole cycles keep throughput comparable across seeds while each seed still
gives new inputs.

Every layer is reached through gorensum's public entry points, looked up as
module attributes at call time so that the tracer can wrap them.

Each workload class also states `cycle_s`, the seconds one cycle takes on
the reference machine (2 cores, shared): a run does round(seconds / cycle_s)
cycles whatever the speed of the moment, so every run of a seed does the
same work.  `process_per_op` marks the workload whose ops are fresh processes.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import gorensum
from gorensum import cli, doubling
from gorensum.apolarity import DualGenerator
from gorensum.constructions import Factor
from gorensum.fields import GF, QQ
from gorensum.ideals import Algebra
from gorensum.poly import Ring, parse_poly

GF_PRIME = 32003


class WrongAnswer(Exception):
    """An op finished but its answer failed the gate."""


class OpResult:
    """One op's latency and answer.  `weight` is the op's share in the
    latency metrics, relative to the other ops of its workload; `shape` is
    its class, the ops whose cost is meant to be the same."""

    __slots__ = ("latency_s", "answer", "shape", "child_rss_kb", "weight")

    def __init__(self, latency_s, answer, shape, child_rss_kb=None, weight=1):
        self.latency_s = latency_s
        self.answer = answer
        self.shape = shape
        self.child_rss_kb = child_rss_kb
        self.weight = weight


# --- verify_gf ------------------------------------------------------------

def suite_class_weights():
    """The probability of each (factor sizes, socle degree) class under the
    draw of cli.random_instance, keyed with the sizes in descending order.

    The draw picks r in {2, 3}, then each of the r sizes in {1, 2, 3}, all
    uniformly, and draws again while the sizes sum to more than 7; then it
    picks the degree uniformly in 3..5.  So every accepted ordered size
    tuple has probability proportional to 1/2 * 3^-r: 0.06 for each of
    the 9 two-factor tuples and 0.02 for each of the 23 three-factor ones.
    """
    raw = {}
    for r in (2, 3):
        for n_vec in product((1, 2, 3), repeat=r):
            if sum(n_vec) <= 7:
                key = tuple(sorted(n_vec, reverse=True))
                raw[key] = raw.get(key, 0) + Fraction(1, 2 * 3**r)
    total = sum(raw.values())
    return {
        (n_vec, d): p / total / 3
        for n_vec, p in sorted(raw.items(), key=lambda kv: (len(kv[0]), kv[0]))
        for d in (3, 4, 5)
    }


# Every class the suite can draw is run in each cycle, and each op is weighted
# in the metrics by its class's draw probability over the class's ops in the
# cycle, so the metrics describe the suite's own mix of instances.  How often
# a class runs per cycle only sets how well it is sampled.  The median falls
# among the classes with variables + degree = 9 (0.06-0.12 s each), which run
# 16 times; the lighter ones lie below it and run 4 times, as do those with
# variables + degree = 10 (0.25-0.4 s), among which the tail falls; the heavy
# ones (1-6 s, the 7-variable degree-5 classes the longest) run once and set
# about 40% of the cycle's time.
VERIFY_WEIGHTS = suite_class_weights()
VERIFY_CLASSES = tuple(VERIFY_WEIGHTS)


def verify_repeats(shape):
    n_vec, d = shape
    size = sum(n_vec) + d
    return 16 if size == 9 else 4 if size <= 10 else 1


def drawn_shape(suite_seed):
    """(n_vec, degree) of instance 0 of cli.differential_suite(suite_seed, 1).

    This replays the shape draws of cli.random_instance.  Each op checks the
    shape that the suite logs against it, so a change in the draw order
    shows as a failed op instead of a silently different workload.
    """
    rng = random.Random(suite_seed)
    while True:
        r = rng.choice([2, 3])
        n_vec = tuple(rng.choice([1, 2, 3]) for _ in range(r))
        if sum(n_vec) <= 7:
            break
    return n_vec, rng.choice([3, 4, 5])


class VerifyGF:
    """cli.differential_suite over GF(32003), one instance per op."""

    name = "verify_gf"
    cycle_s = 42
    process_per_op = False

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)

    def make_cycle(self, index):
        # Passes over the classes in one fixed order.  A class that runs r
        # times takes every (passes / r)-th pass, the classes of one r
        # starting at passes spread evenly, so that every pass holds about
        # the same work and the ops of each class are spread over the whole
        # run: the machine's speed drifts over seconds, and a class whose
        # ops ran close together would take its latency from one moment.
        # Ops that follow a large one run up to 30% slower in the same
        # process, so a seeded order would make op_p50_s depend on the seed.
        # Only seeds that draw the sizes in descending order are taken, so
        # each class has a single cost.
        passes = max(map(verify_repeats, VERIFY_CLASSES))
        groups = {}
        for c in VERIFY_CLASSES:
            groups.setdefault(verify_repeats(c), []).append(c)
        first = {
            c: i * (passes // r) // len(group)
            for r, group in groups.items() for i, c in enumerate(group)
        }
        shapes = [
            c for k in range(passes) for c in VERIFY_CLASSES
            if k % (passes // verify_repeats(c)) == first[c]
        ]
        # suite seeds drawn in turn, each kept for the first open slot of
        # its shape
        wanted = Counter(shapes)
        seeds = {shape: [] for shape in wanted}
        missing = len(shapes)
        while missing:
            s = self.rng.getrandbits(31)
            shape = drawn_shape(s)
            if len(seeds.get(shape, ())) < wanted[shape]:
                seeds[shape].append(s)
                missing -= 1
        return [(seeds[shape].pop(),) + shape for shape in shapes]

    def run_op(self, spec, in_process):
        suite_seed, n_vec, d = spec
        lines, stamps, tables = [], [], []

        def log(message):
            stamps.append(time.perf_counter())
            lines.append(message)

        # the oracle Betti tables the suite compares its formulas with:
        # factors, fiber product, connected sum
        oracle = cli.tor_betti

        def tor_betti(*args, **kwargs):
            table = oracle(*args, **kwargs)
            tables.append(table.items())
            return table

        cli.tor_betti = tor_betti
        try:
            start = time.perf_counter()
            failures = cli.differential_suite(
                suite_seed, 1, field=GF(GF_PRIME), log=log
            )
        finally:
            cli.tor_betti = oracle
        if not stamps:
            raise WrongAnswer("differential_suite logged no instance")
        expected = f"instance 0: n_vec={n_vec} d={d} ok"
        if failures or lines != [expected]:
            raise WrongAnswer(f"seed {suite_seed}: {lines} failures={failures}")
        if len(tables) != len(n_vec) + 2:
            raise WrongAnswer(f"seed {suite_seed}: {len(tables)} oracle tables")
        shape = (n_vec, d)
        return OpResult(stamps[0] - start, [lines[0], tables], shape,
                        weight=VERIFY_WEIGHTS[shape] / verify_repeats(shape))


# --- doubling_family ------------------------------------------------------


def monomial_ci_family(max_r=3, max_d=4):
    """All tuples of 2..max_r monomial complete-intersection factors in one
    or two variables, exponents 2..max_d, whose socle degrees agree."""
    shapes = [(d,) for d in range(2, max_d + 1)]
    shapes += [
        (d1, d2) for d1 in range(2, max_d + 1) for d2 in range(d1, max_d + 1)
    ]
    by_c = {}
    for s in shapes:
        by_c.setdefault(sum(s) - len(s), []).append(s)
    out = []
    for _, group in sorted(by_c.items()):
        for r in range(2, max_r + 1):
            out.extend(combinations_with_replacement(group, r))
    return out


def _length(exponents):
    """Vector-space dimension of the doubled factor x^a (y^b)."""
    out = 1
    for d in exponents:
        out *= d
    return out


# Three-factor instances above this total length need 0.4-0.9 GB and 4-14 s
# each; they are left out so that a cycle takes a few seconds and stays
# small in memory.  All two-factor instances are kept.
DOUBLING_MAX_THREE_FACTOR_LENGTH = 25

DOUBLING_FAMILY = tuple(
    inst
    for inst in monomial_ci_family()
    if len(inst) == 2 or sum(map(_length, inst)) <= DOUBLING_MAX_THREE_FACTOR_LENGTH
)


def _monomial_ci_factor(prefix, exponents, field):
    """The monomial complete intersection with these exponents, as a dual
    generator factor, and the 1-dimensional CM ring it doubles."""
    names = [f"{prefix}{j}" for j in range(len(exponents))]
    ring = Ring(names, field)
    powers = [parse_poly(ring, f"{n}^{d}") for n, d in zip(names, exponents)]
    tilde = Algebra(ring, powers[:-1])
    dual = ring.one()
    for n, d in zip(names, exponents):
        dual = dual * parse_poly(ring, f"{n}^{d - 1}")
    return tilde, Factor.from_dual(DualGenerator(dual))


class DoublingFamily:
    """doubling.theorem43_harness over the monomial CI family."""

    name = "doubling_family"
    cycle_s = 4
    process_per_op = False

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)

    def make_cycle(self, index):
        specs = list(DOUBLING_FAMILY)
        self.rng.shuffle(specs)
        return specs

    def run_op(self, spec, in_process):
        field = GF(GF_PRIME)
        start = time.perf_counter()
        tildes, doubled = [], []
        for k, exponents in enumerate(spec):
            tilde, fac = _monomial_ci_factor(f"v{k}_", exponents, field)
            tildes.append(tilde)
            doubled.append(fac)
        cert = doubling.theorem43_harness(tildes, doubled)
        latency = time.perf_counter() - start
        socle = sum(spec[0]) - len(spec[0])
        if not cert.passed or cert.t != socle:
            raise WrongAnswer(f"{spec}: {cert.verdict}")
        answer = [list(spec), cert.t, sorted(cert.checks.items()), cert.verdict]
        return OpResult(latency, answer, spec)


# --- cli_qq ---------------------------------------------------------------

# Factor sizes (2,2), (2,3), (3,2) at socle degree 3..5, except the two
# 5-variable degree-5 classes: they take 3.5-4 s each over QQ, far above the
# other ops, and two such ops would set most of a run's throughput.
CLI_CLASSES = tuple(
    (n, d)
    for n in ((2, 2), (2, 3), (3, 2))
    for d in (3, 4, 5)
    if sum(n) + d <= 9
)

# Every class weighs the same.  The median falls among the three classes that
# take 0.4-0.7 s, and their costs overlap, so they run three times per cycle,
# each op weighing a third, and the class latencies the median is taken over
# rest on more inputs.
CLI_MEDIAN_CLASSES = (((2, 3), 3), ((3, 2), 3), ((2, 2), 5))


def cli_repeats(shape):
    return 3 if shape in CLI_MEDIAN_CLASSES else 1


def cli_argv(paths):
    return ["connected-sum", *paths, "--method", "both", "--output", "machine"]


def check_cli_answer(returncode, stdout, n_vec, d):
    if returncode != 0:
        raise WrongAnswer(f"exit code {returncode}")
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as err:
        raise WrongAnswer(f"unreadable machine output: {err}")
    hf = payload.get("hilbert", [])
    if payload.get("agree") is not True:
        raise WrongAnswer(f"formula and oracle disagree: {payload}")
    if len(hf) != d + 1 or hf != hf[::-1] or hf[1] != sum(n_vec):
        raise WrongAnswer(f"implausible Hilbert function {hf}")
    return payload


class CliQQ:
    """One `python -m gorensum.cli connected-sum` process per op, over QQ."""

    name = "cli_qq"
    cycle_s = 7.5
    process_per_op = True

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.workdir = workdir
        # the op processes import the same gorensum as this one
        self.src = os.path.dirname(os.path.dirname(os.path.abspath(gorensum.__file__)))

    def make_cycle(self, index):
        shapes = [c for c in CLI_CLASSES for _ in range(cli_repeats(c))]
        specs = []
        for k, (n_vec, d) in enumerate(shapes):
            paths = []
            for j, n in enumerate(n_vec):
                fac = cli.random_dual_factor(self.rng, n, d, QQ, prefix=f"v{j}_")
                F = fac.dual.F
                path = os.path.join(self.workdir, f"c{index}_{k}_{j}.json")
                with open(path, "w") as fh:
                    json.dump({"variables": list(F.ring.variables),
                               "field": "QQ", "dual_generator": str(F)}, fh)
                paths.append(path)
            specs.append((tuple(paths), n_vec, d))
        self.rng.shuffle(specs)
        return specs

    def run_op(self, spec, in_process):
        paths, n_vec, d = spec
        weight = Fraction(1, cli_repeats((n_vec, d)))
        if in_process:
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(cli_argv(paths))
            latency = time.perf_counter() - start
            answer = check_cli_answer(code, out.getvalue(), n_vec, d)
            return OpResult(latency, answer, (n_vec, d), weight=weight)
        return self._run_process(paths, n_vec, d, weight)

    def _run_process(self, paths, n_vec, d, weight):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, env.get("PYTHONPATH")) if p
        )
        argv = [sys.executable, "-m", "gorensum.cli", *cli_argv(paths)]
        out_path = os.path.join(self.workdir, "op.stdout")
        with open(out_path, "w+") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env)
            # wait4 reaps the child and returns its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
        answer = check_cli_answer(proc.returncode, stdout, n_vec, d)
        return OpResult(latency, answer, (n_vec, d), usage.ru_maxrss, weight)


WORKLOADS = {w.name: w for w in (VerifyGF, DoublingFamily, CliQQ)}
