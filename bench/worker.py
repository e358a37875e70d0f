"""One benchmark pass in a fresh interpreter.

    python3 worker.py --workload W --jobs JOBS.json --pass-dir DIR --src SRC
                      [--trace] [--setup-only]

Set-up is the imports plus the workload's warm table cache; when it is
done the worker prints `ready` on stdout, which the orchestrator times.
Then it runs the job list in a closed loop, one job at a time, checks the
outputs (untimed) and writes DIR/result.json.  Every CLI job goes through
`wavefield.cli.run` in-process, the way the `wavefield` command drives
the library.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time

from jobs import (RESIDUAL_SKIP, check, digest, input_paths, output_paths,
                  setup_argvs, setup_table)
from spans import CLI_CALLS, DRIVER_CALLS, Tracer, layer_metrics


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--pass-dir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _file_bytes(paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def fingerprint():
    import mpmath
    import numpy
    import scipy

    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_vendor": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


class Pass:
    """State of one pass: the library handles, the tracer, job outcomes."""

    def __init__(self, tracer):
        from wavefield import cli, connection, filters, flow

        self.tracer = tracer
        self.cli = cli
        lib = {
            "make_filters": filters.make_filters,
            "load_tensor": connection.load_tensor,
            "validate_tensor": connection.validate_tensor,
            "recursion_residual": connection.recursion_residual,
            "split_tensors": flow.split_tensors,
            "coupling_matrix": flow.coupling_matrix,
            "FlowState": flow.FlowState,
            "srg_flow": flow.srg_flow,
        }
        self.missing = []
        if tracer is not None:
            self.missing = tracer.install(cli, CLI_CALLS)
            lib = {k: tracer.wrap(fn, DRIVER_CALLS[k]) for k, fn in lib.items()}
        self.lib = lib
        self.outcomes = {}

    def run_cli(self, job_argv, inputs=(), outputs=()):
        err = io.StringIO()
        span = (self.tracer.span("cli.run") if self.tracer
                else contextlib.nullcontext({}))
        with span as counts, contextlib.redirect_stderr(err):
            rc = self.cli.run(list(job_argv))
        if self.tracer:
            counts["bytes_in"] = _file_bytes(inputs)
            counts["bytes_out"] = _file_bytes(outputs)
            counts["failed"] = int(rc != 0)
        return {"rc": rc, "stderr": err.getvalue().strip()}

    def execute(self, job):
        op, lib = job["op"], self.lib
        if op == "cli":
            return self.run_cli(job["argv"], input_paths(job), output_paths(job))
        if op == "readback":
            k = job["order"]
            fp = lib["make_filters"](k)
            tabs = {kind: lib["load_tensor"](path)
                    for kind, path in job["tables"].items()}
            lib["validate_tensor"](tabs["gamma4"], tabs["gamma3"])
            res = {kind: lib["recursion_residual"](t, fp)
                   for kind, t in tabs.items() if (kind, k) not in RESIDUAL_SKIP}
            return {"residuals": res, "gamma3": tabs["gamma3"].entries}
        if op == "split":
            import numpy as np

            n = job["sites"]
            fp = lib["make_filters"](3)
            d1 = lib["load_tensor"](setup_table("d", 3, 1))
            g41 = lib["load_tensor"](setup_table("gamma4", 3, 1))
            split = lib["split_tensors"](d1, g41, fp, n)
            # unit mass term, as in acceptance criterion 11
            h0 = lib["coupling_matrix"](split) + np.eye(n)
            return {"h0": h0}
        if op == "srg":
            h0 = self.outcomes[job["source"]]["h0"]
            part = h0.shape[0] // 2
            state = lib["FlowState"](0.0, h0, job["generator"],
                                     part if job["generator"] == "wegner-block" else None)
            final, _, report = lib["srg_flow"](state, job["lambda_end"])
            return {"initial": h0, "final": final.h_matrix, "partition": part,
                    "monotonicity_breaks": report["monotonicity_breaks"]}
        raise ValueError(f"unknown job op {op!r}")


def main(argv=None):
    args = _parse(argv)
    os.chdir(args.pass_dir)
    os.makedirs("cache", exist_ok=True)
    os.makedirs("out", exist_ok=True)
    sys.path.insert(0, args.src)
    tracer = Tracer() if args.trace else None
    p = Pass(tracer)
    for argv in setup_argvs(args.workload):
        out = p.run_cli(argv)
        if out["rc"] != 0:
            print(f"set-up failed: wavefield {' '.join(argv)}: {out['stderr']}",
                  file=sys.stderr)
            return 3
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)
    job_s = {}
    t0 = time.perf_counter()
    for job in jobs:
        if tracer:
            tracer.job = job["id"]
        span = tracer.span("job") if tracer else contextlib.nullcontext()
        tj = time.perf_counter()
        try:
            with span:
                p.outcomes[job["id"]] = p.execute(job)
        except Exception as exc:  # a failed job is counted, the pass goes on
            p.outcomes[job["id"]] = {"error": f"{type(exc).__name__}: {exc}"}
        job_s[job["id"]] = time.perf_counter() - tj
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "reference_spectra.json"), encoding="utf-8") as fh:
        references = json.load(fh)
    results = []
    for job in jobs:
        outcome = p.outcomes[job["id"]]
        entry = {"id": job["id"], "ok": False, "wall_s": job_s[job["id"]]}
        if "error" in outcome:
            entry["error"] = outcome["error"]
        else:
            try:
                entry["numbers"] = check(job, outcome, references)
                entry["ok"] = True
            except Exception as exc:  # any check that cannot complete fails the job
                entry["error"] = f"{type(exc).__name__}: {exc}"
        results.append(entry)

    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "jobs": results,
        "digest": digest(jobs),
        "fingerprint": fingerprint(),
        "unpatched": p.missing,
    }
    if tracer:
        spans = tracer.records()
        result["layers"], result["layer_calls"] = layer_metrics(spans, wall)
        result["spans"] = spans
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
