"""Per-layer spans and counts, taken from outside the program.

``Tracer.install`` replaces minface's public functions, at every module
binding callers use, by wrappers that record a span (name, start, end,
parent, job id) per call; ``uninstall`` puts the originals back. Spans stay
in memory in flat arrays and ``save`` writes them out. Self time (a span's
duration minus the time its child spans cover) and call counts are summed
per span name as spans close. A few hot helpers (the ``lorentz`` vector
functions, quadrature integrands) are counted without spans.
"""

from __future__ import annotations

import os
import sys
import time
import weakref
from array import array

import numpy as np

from oracle import BATTERY_N

# (module, function, span name) for plain spans
_SPANS = (
    ("cli", "main", "cli.main"),
    ("surface", "load_spec", "surface.load_spec"),
    ("surface", "jets_at", "surface.jets_at"),
    ("expr", "parse", "expr.parse"),
    ("expr", "eval_value", "expr.eval_value"),
    ("expr", "eval_jet", "expr.eval_jet"),
    ("curvature", "gaussian_curvature_extrinsic", "curvature.K_extrinsic"),
    ("curvature", "gaussian_curvature_intrinsic_fd", "curvature.K_intrinsic"),
    ("curvature", "flat_classify", "curvature.flat_classify"),
    ("curvature", "sign_prediction", "curvature.sign_prediction"),
    ("curvature", "milnor_sign_check", "curvature.milnor_sign_check"),
    ("curvature", "energy_gauge", "curvature.energy_gauge"),
    ("singular", "classify_singular", "singular.classify"),
    ("singular", "singular_data", "singular.singular_data"),
    ("singular", "verify_main_theorem", "singular.main_theorem"),
    ("singular", "signed_area_density", "singular.signed_area_density"),
    ("mesh", "sample_grid", "mesh.sample_grid"),
    ("mesh", "export_obj", "mesh.export_obj"),
    ("mesh", "export_fields_csv", "mesh.export_fields_csv"),
)

# battery check functions and the names they report under
CHECKS = {
    "check_null_generators": "null_generators",
    "check_curvature_routes": "curvature_routes",
    "check_minimality": "minimality",
    "check_sign_theorem": "sign_theorem",
    "check_milnor": "milnor_winding",
    "check_energy_gauge": "energy_gauge",
    "check_data_roundtrip": "data_roundtrip",
    "check_identities": "singular_identities",
    "check_duality": "duality",
    "check_kappa_zero_locus": "kappa_zero_locus",
    "check_main_theorem": "main_theorem",
    "check_flat_accumulation": "flat_accumulation",
}

_COUNTED = ("mdot", "mcross", "enorm", "det3")


def _per_layer_names():
    out = [("cli.main.self_s", "s/job")]
    for layer in ("surface.load_spec", "surface.delta", "surface.jets_at",
                  "expr.parse", "expr.eval_value", "expr.eval_jet",
                  "quadrature.adaptive_quad"):
        out += [(layer + ".calls", "1/job"), (layer + ".self_s", "s/job")]
    out += [("quadrature.integrand_evals", "1/job"),
            ("quadrature.prefix_first_s", "s/job"),
            ("quadrature.prefix_query_s", "s/job"),
            ("quadrature.prefix_queries", "1/job")]
    for layer in ("curvature.K_closed", "curvature.K_extrinsic",
                  "curvature.K_intrinsic", "curvature.flat_classify"):
        out += [(layer + ".calls", "1/job"), (layer + ".self_s", "s/job")]
    out += [("curvature.%s.self_s" % f, "s/job")
            for f in ("sign_prediction", "milnor_sign_check", "energy_gauge")]
    for layer in ("singular.trace", "singular.classify",
                  "singular.singular_data"):
        out += [(layer + ".calls", "1/job"), (layer + ".self_s", "s/job")]
    out += [("singular.main_theorem.self_s", "s/job"),
            ("singular.signed_area_density.calls", "1/job"),
            ("singular.points", "1/job"),
            ("singular.unresolved_frac", "ratio")]
    out += [("mesh.%s.self_s" % f, "s/job")
            for f in ("sample_grid", "export_obj", "export_fields_csv")]
    out += [("mesh.vertices", "1/job"), ("mesh.masked_vertices", "1/job"),
            ("mesh.bytes_written", "B/job")]
    out += [("verify.%s.s" % c, "s/job") for c in CHECKS.values()]
    out += [("verify.points_obtained_frac", "ratio"),
            ("verify.traces_per_battery", "1/battery"),
            ("lorentz.calls", "1/job"),
            ("trace.overhead_frac", "ratio")]
    return out


PER_LAYER = _per_layer_names()


class Tracer:
    """Spans and counters for the jobs run while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.job = array("i"), array("i"), array("i")
        self.calls, self.self_s, self.total_s = [], [], []
        self._stack = []
        self.job_id = -1
        self.counts = dict.fromkeys(
            ("lorentz", "integrand_evals", "points", "unresolved", "vertices",
             "masked", "bytes", "obtained", "requested"), 0)
        self.battery_traces = []
        self._patches = []
        self._prefix_seen = weakref.WeakSet()

    # --- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._ids[name]

    def _spanned(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter
        stack, calls, self_s, total_s = (self._stack, self.calls, self.self_s,
                                         self.total_s)
        start, end = self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start)
            self.parent.append(stack[-1][0] if stack else -1)
            self.name.append(nid)
            self.job.append(self.job_id)
            start.append(0.0)
            end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                start[idx], end[idx] = t0, t1
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                total_s[nid] += dur
                if stack:
                    stack[-1][1] += dur

        return wrapper

    # --- installation -------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind every minface module attribute that holds ``original``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "minface"
                                   or modname.startswith("minface.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_attr(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        mods = {name: sys.modules["minface." + name]
                for name in ("cli", "surface", "expr", "quadrature",
                             "curvature", "singular", "mesh", "verify",
                             "lorentz")}
        for mod, fn, name in _SPANS:
            orig = getattr(mods[mod], fn)
            self._patch_everywhere(orig, self._after(name, orig))
        for fn, check in CHECKS.items():
            orig = getattr(mods["verify"], fn)
            self._patch_everywhere(orig,
                                   self._spanned("verify." + check, orig))
        for fn in _COUNTED:
            self._patch_everywhere(getattr(mods["lorentz"], fn),
                                   self._counted("lorentz",
                                                 getattr(mods["lorentz"], fn)))
        self._install_special(mods)

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _after(self, name: str, fn):
        """A span, plus the result bookkeeping some layers need."""
        spanned = self._spanned(name, fn)
        counts = self.counts
        if name == "mesh.sample_grid":
            def wrapper(*args, **kwargs):
                m = spanned(*args, **kwargs)
                counts["vertices"] += len(m.positions)
                counts["masked"] += sum(k is None for k in m.k_values)
                return m
            return wrapper
        if name in ("mesh.export_obj", "mesh.export_fields_csv"):
            def wrapper(m, path, *args, **kwargs):
                spanned(m, path, *args, **kwargs)
                if isinstance(path, (str, os.PathLike)):
                    counts["bytes"] += os.path.getsize(path)
            return wrapper
        return spanned

    def _install_special(self, mods) -> None:
        counts = self.counts
        surface, quadrature = mods["surface"], mods["quadrature"]
        curvature, singular, verify = (mods["curvature"], mods["singular"],
                                       mods["verify"])

        # gaussian_curvature only computes on the closed route; the other
        # routes delegate to the (wrapped) extrinsic and intrinsic functions
        gc = curvature.gaussian_curvature
        gc_closed = self._spanned("curvature.K_closed", gc)

        def gaussian_curvature(*args, **kwargs):
            method = kwargs.get("method",
                                args[3] if len(args) > 3 else "closed")
            return (gc_closed if method == "closed" else gc)(*args, **kwargs)

        self._patch_everywhere(gc, gaussian_curvature)

        pair = surface.NullCurvePair
        for attr in ("phi_delta", "psi_delta"):
            self._patch_attr(pair, attr, self._spanned(
                "surface.delta", getattr(pair, attr)))

        call = quadrature.PrefixIntegral.__call__
        first = self._spanned("quadrature.prefix_first", call)
        query = self._spanned("quadrature.prefix_query", call)
        seen = self._prefix_seen

        def prefix_call(obj, t):
            if obj in seen:
                return query(obj, t)
            seen.add(obj)
            return first(obj, t)

        self._patch_attr(quadrature.PrefixIntegral, "__call__", prefix_call)

        aq = quadrature.adaptive_quad
        aq_span = self._spanned("quadrature.adaptive_quad", aq)

        def adaptive_quad(fn, *args, **kwargs):
            def integrand(x):
                counts["integrand_evals"] += 1
                return fn(x)
            return aq_span(integrand, *args, **kwargs)

        self._patch_everywhere(aq, adaptive_quad)

        trace = singular.trace_singular_set
        trace_span = self._spanned("singular.trace", trace)
        trace_id = self._id("singular.trace")

        def trace_singular_set(*args, **kwargs):
            curves = trace_span(*args, **kwargs)
            for c in curves:
                counts["points"] += len(c.points)
                counts["unresolved"] += sum(p.tag.value == "Unresolved"
                                            for p in c.points)
            return curves

        self._patch_everywhere(trace, trace_singular_set)

        battery = verify.run_battery

        def run_battery(surf, *args, **kwargs):
            before = self.calls[trace_id]
            results = battery(surf, *args, **kwargs)
            if surface.get_data(surf) is not None:
                self.battery_traces.append(self.calls[trace_id] - before)
            for r in results:
                if r.name in BATTERY_N:
                    counts["obtained"] += r.count
                    counts["requested"] += BATTERY_N[r.name]
            return results

        self._patch_everywhere(battery, run_battery)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results -------------------------------------------------------------

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32))

    def metrics(self, jobs: int, overhead_frac: float,
                scale: float = 1.0) -> dict:
        """Every PER_LAYER metric, per traced job unless its unit says not.

        Times are multiplied by ``scale`` (the run's host-speed factor).
        """

        def stat(span: str, kind: str) -> float:
            nid = self._ids.get(span)
            if nid is None:
                return 0.0
            return {"calls": self.calls, "self_s": self.self_s,
                    "s": self.total_s}[kind][nid] / jobs

        c = self.counts
        special = {
            "quadrature.integrand_evals": c["integrand_evals"] / jobs,
            "quadrature.prefix_first_s": stat("quadrature.prefix_first", "s"),
            "quadrature.prefix_query_s": stat("quadrature.prefix_query", "s"),
            "quadrature.prefix_queries": stat("quadrature.prefix_query",
                                              "calls"),
            "singular.points": c["points"] / jobs,
            "singular.unresolved_frac": (c["unresolved"] / c["points"]
                                         if c["points"] else 0.0),
            "mesh.vertices": c["vertices"] / jobs,
            "mesh.masked_vertices": c["masked"] / jobs,
            "mesh.bytes_written": c["bytes"] / jobs,
            "verify.points_obtained_frac": (c["obtained"] / c["requested"]
                                            if c["requested"] else 0.0),
            "verify.traces_per_battery": (
                sum(self.battery_traces) / len(self.battery_traces)
                if self.battery_traces else 0.0),
            "lorentz.calls": c["lorentz"] / jobs,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for metric, unit in PER_LAYER:
            if metric in special:
                value = special[metric]
            else:
                span, kind = metric.rsplit(".", 1)
                value = stat(span, kind)
            if unit == "s/job":
                value *= scale
            out[metric] = {"value": value, "unit": unit}
        return out
