"""Span recorder for traced benchmark passes.

Spans are recorded only by benchmark code.  `install` swaps the layer
functions that `wavefield.cli` imported for recording wrappers, and the
worker's own library calls go through `Tracer.wrap`; no file of the
package changes.  Spans stay in memory and are written out when the pass
ends.  Counts (entries solved, matrix nnz, flow steps, ...) are stored on
the span of the call that did the work.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# names `wavefield.cli` imports from the library -> span name; the span
# name's prefix is the layer (the library module)
CLI_CALLS = {
    "make_filters": "filters.build",
    "derivative_overlaps": "connection.solve",
    "gamma_tensor": "connection.solve",
    "rescale_tensor": "connection.rescale",
    "load_tensor": "connection.load",
    "save_tensor": "connection.save",
    "validate_tensor": "connection.validate",
    "quadrature_oracle": "connection.oracle",
    "LatticeConfig": "fock.config",
    "ModelParams": "fock.config",
    "FockBasis": "fock.config",
    "build_phi4_hamiltonian": "fock.assemble",
    "lanczos_lowest": "fock.eigensolve",
    "FlowState": "flow.state",
    "srg_flow": "flow.srg",
    "scaling_samples": "scaling.samples",
    "derivative_samples": "scaling.samples",
    "CoeffVector": "transform.vector",
    "CoeffPyramid": "transform.vector",
    "multilevel": "transform.multilevel",
    "KernelProbe": "diagnostics.setup",
    "polynomial_probe": "diagnostics.function",
    "gaussian_probe": "diagnostics.function",
    "partition_check": "diagnostics.probe",
    "kernel_projection_error": "diagnostics.probe",
    "commutator_residual": "diagnostics.probe",
}

# library calls the worker makes itself, where the CLI has no entry point
DRIVER_CALLS = {
    "make_filters": "filters.build",
    "load_tensor": "connection.load",
    "validate_tensor": "connection.validate",
    "recursion_residual": "connection.residual",
    "split_tensors": "flow.split",
    "coupling_matrix": "flow.coupling",
    "FlowState": "flow.state",
    "srg_flow": "flow.srg",
}


def _multilevel_coeffs(args, kwargs, result):
    direction = args[3] if len(args) > 3 else kwargs.get("direction", "forward")
    return {"coeffs": len(args[0]) if direction == "forward" else len(result)}


_COUNTS = {
    "connection.solve": lambda a, k, r: {"entries": len(r.entries)},
    "fock.assemble": lambda a, k, r: {"dim": r.matrix.shape[0], "nnz": int(r.matrix.nnz)},
    "flow.srg": lambda a, k, r: {"accepted": r[2]["accepted"], "rejected": r[2]["rejected"]},
    "transform.multilevel": _multilevel_coeffs,
    "scaling.samples": lambda a, k, r: {"points": len(r.values)},
}


class Tracer:
    """In-memory span list: [name, start, end, parent index, job id, counts, error]."""

    def __init__(self):
        self.spans = []
        self.job = "setup"
        self._stack = []
        self._orders_built = set()

    @contextmanager
    def span(self, name):
        """Record one span; the caller may add counts to the yielded dict."""
        counts = {}
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.job, counts, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield counts
        except BaseException as exc:
            rec[6] = type(exc).__name__
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if count is not None:
                counts.update(count(args, kwargs, result))
            if name == "filters.build":
                # first request for this order at a layer boundary in this
                # (fresh) worker; on `tables` the filters jobs come first,
                # so these are exactly the cold builds
                order = args[0] if args else kwargs["K"]
                counts["cold"] = int(order not in self._orders_built)
                self._orders_built.add(order)
            return result

        return traced

    def install(self, module, calls):
        """Wrap each named attribute of module; return the names it lacks."""
        missing = []
        for attr, name in calls.items():
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(getattr(module, attr), name))
            else:
                missing.append(attr)
        return missing

    def records(self):
        keys = ("name", "start", "end", "parent", "job", "counts", "error")
        return [dict(zip(keys, rec)) for rec in self.spans]


def layer_metrics(spans, wall):
    """Per-layer numbers of one traced pass (spans of the job list only).

    A layer's self time is its spans' duration minus the part covered by
    their child spans; `cli.self_s` is thus the CLI's own parsing and
    formatting.  What no layer span covers is `trace.unattributed_s`.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    total, calls, counts, errors = {}, {}, {}, {}
    self_time, setup_self = {}, {}
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        layer = s["name"].split(".")[0]
        if s["job"] == "setup":
            setup_self[layer] = setup_self.get(layer, 0.0) + dur - child_time[i]
            continue
        total[s["name"]] = total.get(s["name"], 0.0) + dur
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        for k, v in s["counts"].items():
            key = f"{s['name']}.{k}"
            counts[key] = counts.get(key, 0) + v
        if s["error"]:
            errors[layer] = errors.get(layer, 0) + 1
            key = f"{s['name']}.{s['error']}"
            errors[key] = errors.get(key, 0) + 1
        if layer != "job":
            self_time[layer] = self_time.get(layer, 0.0) + dur - child_time[i]

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    def n(key):
        return counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = n("flow.srg.accepted") + n("flow.srg.rejected")
    m = {
        "filters.build_s": t("filters.build"),
        "filters.cold_builds": n("filters.build.cold"),
        "connection.solve_s": t("connection.solve"),
        "connection.solves": c("connection.solve"),
        "connection.entries_solved": n("connection.solve.entries"),
        "connection.residual_s": t("connection.residual"),
        "connection.oracle_s": t("connection.oracle"),
        "connection.oracle_calls": c("connection.oracle"),
        "connection.save_s": t("connection.save"),
        "connection.validate_s": t("connection.validate"),
        "connection.load_s": t("connection.load"),
        "connection.loads": c("connection.load"),
        "fock.assemble_s": t("fock.assemble"),
        "fock.eigensolve_s": t("fock.eigensolve"),
        "fock.solves": c("fock.eigensolve"),
        "fock.dim_sum": n("fock.assemble.dim"),
        "fock.nnz_sum": n("fock.assemble.nnz"),
        "fock.nnz_per_s": ratio(n("fock.assemble.nnz"), t("fock.assemble")),
        "fock.failed": errors.get("fock", 0),
        "flow.split_s": t("flow.split"),
        "flow.srg_s": t("flow.srg"),
        "flow.accepted_steps": n("flow.srg.accepted"),
        "flow.rejected_steps": n("flow.srg.rejected"),
        "flow.accept_ratio": ratio(n("flow.srg.accepted"), steps),
        "flow.s_per_step": ratio(t("flow.srg"), steps),
        "flow.failed": errors.get("flow", 0),
        "transform.multilevel_s": t("transform.multilevel"),
        "transform.coeffs": n("transform.multilevel.coeffs"),
        "scaling.samples_s": t("scaling.samples"),
        "scaling.points": n("scaling.samples.points"),
        "diagnostics.probe_s": t("diagnostics.probe"),
        "diagnostics.probes": c("diagnostics.probe"),
        "diagnostics.windowing_skips": errors.get("diagnostics.probe.WindowingError", 0),
        "cli.invocations": c("cli.run"),
        "cli.bytes_in": n("cli.run.bytes_in"),
        "cli.bytes_out": n("cli.run.bytes_out"),
        "cli.failed": n("cli.run.failed"),
        "setup.filters_s": setup_self.get("filters", 0.0),
        "setup.connection_s": setup_self.get("connection", 0.0),
        "trace.spans": len(spans),
    }
    for layer in ("filters", "connection", "fock", "flow", "transform",
                  "scaling", "diagnostics", "cli"):
        m[f"{layer}.self_s"] = self_time.get(layer, 0.0)
    m["trace.unattributed_s"] = wall - sum(self_time.values())
    calls_by_layer = {}
    for name, k in calls.items():
        layer = name.split(".")[0]
        calls_by_layer[layer] = calls_by_layer.get(layer, 0) + k
    return m, calls_by_layer
