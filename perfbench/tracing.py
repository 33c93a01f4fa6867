"""Per-layer tracing of gorensum from outside the package.

A Tracer replaces each layer's entry points with a wrapper that records a
span (name, start, end, parent span, op id).  It patches the module
attribute and every other name in the package bound to the same function,
so calls made through `from .x import f` are seen as well; methods are
patched on their class.  Spans stay in memory and are written out at the
end of a run.

Counters (calls, matrix shapes, ranks, slice sizes) are recorded at the same
boundaries but kept apart from the timings: they depend only on the inputs,
so two traced runs of one seed give identical counters.

The layers are gorensum's modules.  `fields` and `poly` are per-element
helpers and are not wrapped; their time lands in their callers' self time.
"""

import json
import sys
import time
from collections import defaultdict

import gorensum
from gorensum import (
    apolarity,
    betti,
    cli,
    constructions,
    doubling,
    ideals,
    linalg,
    oracle,
)
from gorensum.fields import Field

LAYERS = {
    "linalg": (linalg, (
        "rref", "rank", "kernel_basis", "kernel_rows", "reduce_vector",
        "row_space_equal", "_reduce_rows", "row_space_intersection",
        "solve_particular", "EchelonBasis.reduce", "EchelonBasis.insert",
        "EchelonBasis.contains",
        # the two elimination engines every call above goes through; the
        # elimination counters are taken here
        "_rref_prime", "_rref_rational",
    )),
    "ideals": (ideals, (
        "IdealSlices.ensure", "IdealSlices._multiply_up", "minimal_generators",
        "ideal_slices", "Algebra.hilbert_function", "Algebra.hilbert_values",
        "Algebra.minimal_presentation",
    )),
    "apolarity": (apolarity, (
        "contract", "catalecticant", "annihilator_slices", "annihilator",
        "hilbert_from_catalecticants", "dual_socle", "socle_and_thom_to_K",
        "check_cs_conditions",
    )),
    "constructions": (constructions, (
        "fiber_product_K", "connected_sum_K", "connected_sum_T",
        "hilbert_closed_form", "fiber_product_ideal", "cross_product_generators",
    )),
    "oracle": (oracle, ("tor_betti", "socle_basis", "hilbert_function")),
    "betti": (betti, (
        "betti_fiber_product_K", "betti_connected_sum_K", "betti_socle2",
        "cross_ideal_table", "cross_ideal_multi_table", "inflate_betti",
        "poincare_dualize",
    )),
    "doubling": (doubling, (
        "cm1_check", "doubling_certificate", "theorem43_harness",
        "canonical_hilbert",
    )),
    "cli": (cli, (
        "main", "differential_suite", "random_instance", "random_dual_factor",
        "parse_algebra_file",
    )),
}

SLICE_ENSURE = "ideals.IdealSlices.ensure"
TOR_BETTI = "oracle.tor_betti"

# entry points whose inclusive time is reported, by metric name
INCLUSIVE = {
    "linalg.row_space_equal.s": "linalg.row_space_equal",
    "ideals.multiply_up.s": "ideals.IdealSlices._multiply_up",
    "ideals.minimal_generators.s": "ideals.minimal_generators",
    "apolarity.annihilator.s": "apolarity.annihilator",
    "constructions.connected_sum.s": "constructions.connected_sum_K",
    "constructions.fiber_product.s": "constructions.fiber_product_K",
    "oracle.tor_betti.s": "oracle.tor_betti",
    "doubling.cm1_check.s": "doubling.cm1_check",
    "doubling.certificate.s": "doubling.doubling_certificate",
}

# time of a call made directly from one entry point to another, by metric
DIRECT_CALLS = {
    # the route-agreement loop of connected_sum_K compares the two ideals
    # degree by degree with row_space_equal
    "constructions.route_check.s": ("constructions.connected_sum_K",
                                    "linalg.row_space_equal"),
    "oracle.rank.s": (TOR_BETTI, "linalg.rank"),
}


def _modules():
    prefix = gorensum.__name__ + "."
    return [gorensum] + [m for n, m in sorted(sys.modules.items())
                         if n.startswith(prefix) and m is not None]


def _field_tag(qualname, args):
    if qualname == "_rref_prime":
        return "gf"
    if qualname == "_rref_rational":
        return "qq"
    head = args[0] if args else None
    field = head if isinstance(head, Field) else getattr(head, "field", None)
    if field is None:
        return ""
    return "gf" if field.is_prime_field else "qq"


class Tracer:
    """Wraps gorensum's layer entry points while installed (a context
    manager); records spans and deterministic counters."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self._name_ids = {}
        self.spans = []
        self.counters = defaultdict(int)
        self.op = -1
        self._stack = []
        self._open = {}  # open span index -> name id
        self._patched = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        modules = _modules()
        try:
            for layer, (module, entries) in LAYERS.items():
                for qualname in entries:
                    self._patch(modules, layer, module, qualname)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, modules, layer, module, qualname):
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, qualname, original))
            return
        original = getattr(module, qualname)
        wrapper = self._wrap(layer, qualname, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # -- recording ---------------------------------------------------------

    def _intern(self, layer, qualname):
        """One id per entry point, kept across installs."""
        name = f"{layer}.{qualname}"
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._name_ids[name]

    def _context(self):
        """Name of the innermost open span outside linalg, or ''."""
        for idx in reversed(self._stack):
            nid = self._open[idx]
            if self.layer_of[nid] != "linalg":
                return self.names[nid]
        return ""

    def _wrap(self, layer, qualname, fn):
        nid = self._intern(layer, qualname)
        observe = _OBSERVERS.get(f"{layer}.{qualname}")
        tag_field = layer == "linalg"
        call_key = f"calls.{self.names[nid]}"
        spans, stack, counters = self.spans, self._stack, self.counters
        open_spans, layer_of = self._open, self.layer_of
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            open_spans[idx] = nid
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                # count an exception once, where it leaves the layer
                if parent < 0 or layer_of[open_spans[parent]] != layer:
                    counters[f"{layer}.errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                del open_spans[idx]
                spans[idx] = (nid, _field_tag(qualname, args) if tag_field else "",
                              start, end, parent, self.op)
            counters[call_key] += 1
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def set_max(self, key, value):
        if value > self.counters[key]:
            self.counters[key] = value

    # -- results -----------------------------------------------------------

    def timings(self):
        """Self time per layer (linalg split by field) and the inclusive and
        direct-call times named in INCLUSIVE and DIRECT_CALLS."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for k, (nid, tag, start, end, _, _) in enumerate(spans):
            layer = self.layer_of[nid]
            key = f"linalg.{tag}" if layer == "linalg" else layer
            self_s[key] += (end - start) - child[k]
        by_name = self._name_ids
        wanted = {by_name[n]: m for m, n in INCLUSIVE.items()}
        direct = {(by_name[a], by_name[b]): m for m, (a, b) in DIRECT_CALLS.items()}
        extra = defaultdict(float)
        for nid, _, start, end, parent, _ in spans:
            if nid in wanted and not self._nested_in_same(parent, nid):
                extra[wanted[nid]] += end - start
            if parent >= 0:
                key = (spans[parent][0], nid)
                if key in direct:
                    extra[direct[key]] += end - start
        engine = by_name["linalg._rref_prime"]
        extra["linalg.gf.engine_s"] = sum(
            end - start for nid, _, start, end, _, _ in spans if nid == engine
        )
        return self_s, extra

    def _nested_in_same(self, parent, nid):
        while parent >= 0:
            if self.spans[parent][0] == nid:
                return True
            parent = self.spans[parent][4]
        return False

    def write_spans(self, path):
        with open(path, "w") as fh:
            for nid, tag, start, end, parent, op in self.spans:
                fh.write(json.dumps([self.names[nid], tag, start, end, parent, op]))
                fh.write("\n")


# --- counters taken at the boundaries --------------------------------------


def _engine(rows, ncols, result, tracer, field_tag):
    c = tracer.counters
    r, k = len(rows), len(result[1])
    c["linalg.calls"] += 1
    c["linalg.rows_in"] += r
    c["linalg.rank"] += k
    c["linalg.cells"] += r * ncols
    c["linalg.ops_computed"] += k * r * ncols
    c[f"linalg.{field_tag}.ops_computed"] += k * r * ncols
    tracer.set_max("linalg.max_cols", ncols)
    if tracer._context() == SLICE_ENSURE:
        c["ideals.slice.rows_fed"] += r
        c["ideals.slice.dim"] += k
        c["ideals.slice_cells"] += r * ncols


def _rref_prime(tracer, args, result):
    _engine(args[1], args[2], result, tracer, "gf")


def _rref_rational(tracer, args, result):
    _engine(args[0], args[1], result, tracer, "qq")


def _rank(tracer, args, result):
    if tracer._context() == TOR_BETTI:
        matrix = args[0]
        tracer.counters["oracle.rank_calls"] += 1
        tracer.counters["oracle.koszul_cells"] += matrix.nrows * matrix.ncols


def _multiply_up(tracer, args, result):
    tracer.counters["ideals.multiply_up.rows"] += len(result)


def _ensure(tracer, args, result):
    tracer.set_max("ideals.max_degree", args[1])


def _catalecticant(tracer, args, result):
    tracer.counters["apolarity.catalecticant.calls"] += 1


_OBSERVERS = {
    "linalg._rref_prime": _rref_prime,
    "linalg._rref_rational": _rref_rational,
    "linalg.rank": _rank,
    "ideals.IdealSlices._multiply_up": _multiply_up,
    SLICE_ENSURE: _ensure,
    "apolarity.catalecticant": _catalecticant,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, wall_s):
    """The per-layer metrics of one traced pass that took wall_s seconds."""
    self_s, extra = tracer.timings()
    c = tracer.counters
    out = {
        "linalg.gf.self_s": self_s["linalg.gf"],
        "linalg.qq.self_s": self_s["linalg.qq"],
        "linalg.calls": c["linalg.calls"],
        "linalg.cells": c["linalg.cells"],
        "linalg.rows_in": c["linalg.rows_in"],
        "linalg.useful_ratio": _ratio(c["linalg.rank"], c["linalg.rows_in"]),
        "linalg.ops_computed": c["linalg.ops_computed"],
        "linalg.gf.ops_per_s": _ratio(c["linalg.gf.ops_computed"],
                                      extra["linalg.gf.engine_s"]),
        "linalg.max_cols": c["linalg.max_cols"],
        "ideals.multiply_up.rows": c["ideals.multiply_up.rows"],
        "ideals.slice.useful_ratio": _ratio(c["ideals.slice.dim"],
                                            c["ideals.slice.rows_fed"]),
        "ideals.slice_cells": c["ideals.slice_cells"],
        "ideals.max_degree": c["ideals.max_degree"],
        "apolarity.catalecticant.calls": c["apolarity.catalecticant.calls"],
        "oracle.rank_calls": c["oracle.rank_calls"],
        "oracle.koszul_cells": c["oracle.koszul_cells"],
    }
    for layer in LAYERS:
        if layer != "linalg":
            out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.errors"] = c[f"{layer}.errors"]
    for metric in list(INCLUSIVE) + list(DIRECT_CALLS):
        out[metric] = extra[metric]
    out["unattributed_s"] = wall_s - sum(self_s.values())
    return out


def deterministic_counters(tracer):
    """Every counter that depends only on the inputs, for comparing runs."""
    return dict(sorted(tracer.counters.items()))
