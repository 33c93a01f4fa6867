"""Command-line interface.

Input files are JSON algebra descriptions:

    {"variables": ["x","y"], "field": "QQ", "ideal": ["x^3", "y^4"]}
    {"variables": ["u","v"], "field": {"prime": 32003}, "dual_generator": "u^4*v^4"}

Exit codes: 0 success/agreement, 1 disagreement or failed certificate,
2 usage or parse error, 3 internal check failed (an answer that two
independent computations do not confirm is withheld).
"""

import argparse
import json
import random
import sys

from .apolarity import DualGenerator, annihilator
from .betti import BettiTable, betti_connected_sum_K, betti_fiber_product_K
from .constructions import Factor, connected_sum_K, fiber_product_K
from .doubling import doubling_certificate
from .fields import GF, QQ, DEFAULT_PRIME
from .ideals import DEFAULT_DEGREE_CAP, Algebra, InternalCheckError, NotArtinianError
from .oracle import ScaleCapError, tor_betti
from .poly import Poly, Ring, parse_poly


class UsageError(Exception):
    pass


def _parse_field(spec):
    if spec == "QQ":
        return QQ
    # bool is an int subclass, and a float would be truncated by GF
    if isinstance(spec, dict) and set(spec) == {"prime"} and type(spec["prime"]) is int:
        return GF(spec["prime"])
    if isinstance(spec, str) and spec.isdigit():
        return GF(int(spec))
    raise UsageError(f"bad field spec {spec!r}: expected \"QQ\" or {{\"prime\": p}}")


def parse_algebra_file(path, field_override=None, degree_cap=DEFAULT_DEGREE_CAP):
    """Read a JSON algebra description into a Factor; degree_cap bounds the
    degrees an "ideal" input is scanned through before it is declared not
    Artinian, and the degree of a "dual_generator", before any catalecticant
    is built."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise UsageError(f"{path}: {err}")
    except json.JSONDecodeError as err:
        raise UsageError(f"{path}: line {err.lineno}: {err.msg}")
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object")
    for key in ("variables", "field"):
        if key not in data:
            raise UsageError(f"{path}: missing field {key!r}")
    if "ideal" in data and "dual_generator" in data:
        raise UsageError(f"{path}: give either \"ideal\" or \"dual_generator\", not both")
    if "ideal" not in data and "dual_generator" not in data:
        raise UsageError(f"{path}: missing \"ideal\" or \"dual_generator\"")
    for key in ("variables", "ideal"):
        value = data.get(key, [])
        if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
            raise UsageError(f"{path}: {key!r} must be a list of strings")
    if not isinstance(data.get("dual_generator", ""), str):
        raise UsageError(f"{path}: 'dual_generator' must be a string")
    try:
        field = field_override or _parse_field(data["field"])
        ring = Ring(data["variables"], field)
    except (UsageError, ValueError) as err:
        raise UsageError(f"{path}: {err}")
    try:
        if "dual_generator" in data:
            F = DualGenerator(parse_poly(ring, data["dual_generator"]))
            if F.d > degree_cap:
                raise UsageError(
                    f"{path}: dual generator degree {F.d} exceeds the degree cap {degree_cap}"
                )
            return Factor(algebra=annihilator(F), dual=F)
        gens = [parse_poly(ring, s) for s in data["ideal"]]
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"{path}: {err}")
    return Factor(algebra=Algebra(ring, gens, degree_cap=degree_cap))


def _emit(args, text_lines, machine):
    if args.output == "machine":
        print(json.dumps(machine, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _table_payload(table, hilbert=None):
    out = {"betti": table.to_list(), "poincare": table.poincare_string()}
    if hilbert is not None:
        out["hilbert"] = list(hilbert)
    return out


def _betti_both(formula, oracle_table, args, hilbert=None):
    """Compare the two tables; render on agreement, diff and exit 1 on not."""
    if formula == oracle_table:
        _emit(
            args,
            ["formula and oracle agree", oracle_table.render()],
            {"agree": True, **_table_payload(oracle_table, hilbert)},
        )
        return 0
    diff = formula.diff(oracle_table)
    lines = ["formula and oracle DISAGREE", "  (i, j)  formula  oracle"]
    lines += [f"  ({i}, {j})  {a}  {b}" for i, j, a, b in diff]
    _emit(
        args,
        lines,
        {"agree": False, "diff": [list(x) for x in diff]},
    )
    return 1


def _check_gorenstein_symmetry(table, n, socle_degree):
    """An oracle table of a Gorenstein algebra is symmetric; this is only a
    check, and no rank is ever skipped on its account."""
    if not table.is_symmetric(n, socle_degree):
        raise InternalCheckError(
            f"the oracle Betti table of a Gorenstein algebra in {n} variables "
            f"with socle degree {socle_degree} is not symmetric"
        )


def _load_factors(args):
    override = _parse_field(args.field) if args.field else None
    return [parse_algebra_file(p, override, args.degree_cap) for p in args.files]


def _cmd_hilbert(args):
    fac = _load_factors(args)[0]
    hf = list(fac.algebra.hilbert_function())
    _emit(args, [" ".join(map(str, hf))], {"hilbert": hf})
    return 0


def _cmd_annihilator(args):
    fac = _load_factors(args)[0]
    if fac.dual is None:
        raise UsageError("annihilator needs a dual_generator input file")
    gens = fac.algebra.generators
    hf = list(fac.algebra.hilbert_function())
    _emit(
        args,
        ["ideal: " + ", ".join(str(g) for g in gens), "hilbert: " + " ".join(map(str, hf))],
        {"ideal": [str(g) for g in gens], "hilbert": hf},
    )
    return 0


def _construction_tables(kind, factors, args):
    """(result, formula table, oracle table); a table --method skips is None."""
    if kind == "fiber-product":
        res = fiber_product_K(factors)
        formula_fn, extra = betti_fiber_product_K, ()
    else:
        res = connected_sum_K(factors)
        formula_fn, extra = betti_connected_sum_K, (res.socle_degree,)
    factor_tables = table = oracle_table = None
    if args.method != "oracle":
        factor_tables = [
            tor_betti(f.algebra, max_dim=args.max_dim) for f in factors
        ]
    if args.method != "formula":
        oracle_table = tor_betti(res.presentation, max_dim=args.max_dim)
        if args.method == "oracle" and kind == "connected-sum":
            _check_gorenstein_symmetry(oracle_table, res.presentation.ring.nvars,
                                       res.socle_degree)
    if factor_tables is not None:
        table = formula_fn(factor_tables, res.n_vec, *extra)
    return res, table, oracle_table


def _cmd_construction(kind, args):
    factors = _load_factors(args)
    res, formula, oracle_table = _construction_tables(kind, factors, args)
    hf = list(res.hilbert)
    if args.method == "both":
        return _betti_both(formula, oracle_table, args, hf)
    table = formula if formula is not None else oracle_table
    _emit(
        args,
        [
            "hilbert: " + " ".join(map(str, hf)),
            "ideal: " + ", ".join(str(g) for g in res.presentation.generators),
            table.render(),
        ],
        _table_payload(table, hf),
    )
    return 0


def _cmd_betti(args):
    if len(args.files) == 1:
        if args.method != "oracle":
            raise UsageError(
                "closed-form Betti tables exist only for fiber products and "
                "connected sums over K; pass factor files and --construction"
            )
        fac = _load_factors(args)[0]
        table = tor_betti(fac.algebra, max_dim=args.max_dim)
        hf = list(fac.algebra.hilbert_function())
        if fac.dual is not None:
            _check_gorenstein_symmetry(table, fac.algebra.ring.nvars, len(hf) - 1)
        _emit(args, [table.render()], _table_payload(table, hf))
        return 0
    if not args.construction:
        raise UsageError("multiple input files need --construction")
    return _cmd_construction(args.construction, args)


def _cmd_doubling(args):
    j_fac, i_fac = _load_factors(args)
    cert = doubling_certificate(j_fac.algebra, i_fac.algebra)
    if cert.passed:
        _emit(
            args,
            [f"PASS t={cert.t}", f"note: {cert.note}"],
            {"verdict": "pass", "t": cert.t, "checks": cert.checks, "note": cert.note},
        )
        return 0
    _emit(
        args,
        [f"FAIL: {cert.verdict}"],
        {"verdict": cert.verdict, "checks": cert.checks, "reasons": cert.reasons},
    )
    return 1


# --- randomized differential suite ---------------------------------------


def random_dual_factor(rng, nvars, degree, field, prefix="v"):
    """Random AG factor from a dense random dual generator; retried until the
    annihilator has no linear forms."""
    ring = Ring([f"{prefix}{k}" for k in range(nvars)], field)
    while True:
        basis = ring.monomial_basis(degree)
        terms = {}
        for e in basis:
            c = rng.randrange(field.p) if field.is_prime_field else rng.randint(-9, 9)
            if c:
                terms[e] = field.of(c)
        if not terms:
            continue
        F = DualGenerator(Poly(ring, terms))
        algebra = annihilator(F)
        if algebra.slices.dim(1) == 0:
            return Factor(algebra=algebra, dual=F)


def random_instance(rng, field):
    """Factor list with r in {2,3}, n_i in {1,2,3}, total variables <= 7,
    common socle degree in 3..5."""
    while True:
        r = rng.choice([2, 3])
        n_vec = [rng.choice([1, 2, 3]) for _ in range(r)]
        if sum(n_vec) <= 7:
            break
    degree = rng.choice([3, 4, 5])
    return [
        random_dual_factor(rng, n, degree, field, prefix=f"v{k}_")
        for k, n in enumerate(n_vec)
    ]


def differential_suite(seed, count, max_dim=2000, field=None, log=None):
    """Compare formula and oracle Betti tables on random instances.

    Returns the list of failures: (index, kind, diff cells).
    """
    field = field or GF(DEFAULT_PRIME)
    rng = random.Random(seed)
    failures = []
    for idx in range(count):
        factors = random_instance(rng, field)
        n_vec = tuple(f.algebra.ring.nvars for f in factors)
        d = factors[0].dual.d
        factor_tables = [tor_betti(f.algebra, max_dim=max_dim) for f in factors]

        fp = fiber_product_K(factors)
        fp_formula = betti_fiber_product_K(factor_tables, n_vec)
        fp_oracle = tor_betti(fp.presentation, max_dim=max_dim)
        if fp_formula != fp_oracle:
            failures.append((idx, "fiber-product", fp_formula.diff(fp_oracle)))

        cs = connected_sum_K(factors)
        cs_formula = betti_connected_sum_K(factor_tables, n_vec, d)
        cs_oracle = tor_betti(cs.presentation, max_dim=max_dim)
        if cs_formula != cs_oracle:
            failures.append((idx, "connected-sum", cs_formula.diff(cs_oracle)))
        if log:
            log(f"instance {idx}: n_vec={n_vec} d={d} "
                f"{'ok' if not failures or failures[-1][0] != idx else 'MISMATCH'}")
    return failures


def _cmd_verify(args):
    override = _parse_field(args.field) if args.field else None
    log = (lambda s: print(s, file=sys.stderr)) if args.output == "text" else None
    failures = differential_suite(
        args.seed, args.count, max_dim=args.max_dim, field=override, log=log
    )
    if failures:
        lines = [f"{len(failures)} mismatch(es)"]
        lines += [f"  instance {i} {kind}: {diff}" for i, kind, diff in failures]
        _emit(args, lines, {"ok": False, "failures": [
            {"instance": i, "kind": kind, "diff": [list(x) for x in diff]}
            for i, kind, diff in failures
        ]})
        return 1
    _emit(args, [f"all {args.count} instances agree (seed {args.seed})"],
          {"ok": True, "count": args.count, "seed": args.seed})
    return 0


def nonnegative(text):
    """argparse type of the count-like flags: an int, at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, not {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="gorensum",
        description="Fiber products, connected sums and Betti tables of "
        "graded Artinian Gorenstein algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, nfiles="+"):
        sp.add_argument("files", nargs=nfiles, help="JSON algebra files")
        sp.add_argument("--field", help='coefficient field override: "QQ" or a prime')
        sp.add_argument("--output", choices=["text", "machine"], default="text")
        sp.add_argument("--max-dim", type=nonnegative, default=2000,
                        help="oracle cap on dim_K of the quotient")
        sp.add_argument("--degree-cap", type=nonnegative, default=DEFAULT_DEGREE_CAP,
                        help="degrees an ideal input is scanned through before "
                        "it is declared not Artinian; the largest degree of a "
                        "dual generator")

    sp = sub.add_parser("hilbert", help="Hilbert function of one algebra")
    common(sp, 1)
    sp = sub.add_parser("annihilator", help="annihilator ideal of a dual generator")
    common(sp, 1)
    sp = sub.add_parser("betti", help="graded Betti table")
    common(sp)
    sp.add_argument("--method", choices=["formula", "oracle", "both"], default="oracle")
    sp.add_argument("--construction", choices=["fiber-product", "connected-sum"])
    for kind in ("fiber-product", "connected-sum"):
        sp = sub.add_parser(kind, help=f"{kind.replace('-', ' ')} over K")
        common(sp)
        sp.add_argument("--method", choices=["formula", "oracle", "both"],
                        default="oracle")
    sp = sub.add_parser("doubling-check", help="doubling certificate for J inside I")
    common(sp, 2)
    # its instances are annihilators, always Artinian: no files, no degree cap
    sp = sub.add_parser("verify", help="randomized formula-vs-oracle suite")
    sp.add_argument("--field", help='coefficient field override')
    sp.add_argument("--output", choices=["text", "machine"], default="text")
    sp.add_argument("--max-dim", type=nonnegative, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=nonnegative, default=25)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "hilbert":
            return _cmd_hilbert(args)
        if args.command == "annihilator":
            return _cmd_annihilator(args)
        if args.command == "betti":
            return _cmd_betti(args)
        if args.command in ("fiber-product", "connected-sum"):
            if len(args.files) < 2:
                raise UsageError(f"{args.command} needs at least two input files")
            return _cmd_construction(args.command, args)
        if args.command == "doubling-check":
            return _cmd_doubling(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ScaleCapError, NotArtinianError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InternalCheckError as err:
        print(f"error: internal check failed: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
