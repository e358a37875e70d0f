"""Benchmark of the wavefield toolkit: three seeded workloads, end to end.

    python3 bench/run.py --workload {tables,spectrum,multiscale} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`.  Each pass runs the workload's job list once in a fresh worker
process (so the library's in-process caches start cold) with a private
table cache, in a closed loop, one job at a time.  Passes repeat until
`--seconds` have gone by.  Extra set-up-only workers bring the set-up
samples up to SETUP_SAMPLES.

--trace 0 prints the end-to-end metrics: medians over passes of wall_s
and peak_rss_mb, the median set-up time setup_s, and ok_frac (jobs that
passed over jobs attempted).  --trace 1 alternates untraced and traced
passes and prints the per-layer metrics of the traced ones, with the
tracing overhead (traced minus untraced wall_s).  The last stdout line is
one JSON object; the lines before it are a readable summary.  Full
details, and the spans of a traced run, go to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import jobs as joblib

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

SETUP_SAMPLES = 5
# a run must end within 180 s: no pass starts unless it is predicted to
# end before RUN_LIMIT_S, and a worker still running at RUN_DEADLINE_S
# (both counted from the start of the run) is killed
RUN_LIMIT_S = 150.0
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "ok_frac": "fraction"}


def _layer_unit(name):
    if name.endswith("nnz_per_s"):
        return "1/s"
    if name.endswith(("_s", "s_per_step")):
        return "s"
    if name.endswith("_ratio"):
        return "fraction"
    if name.startswith("cli.bytes"):
        return "B"
    return "count"


def _worker_env():
    env = dict(os.environ)
    # a table cache left by another run must never turn a cold build
    # into a hit: the workers always pass --cache, and the defaults that
    # could point elsewhere are dropped
    env.pop("WAVEFIELD_CACHE", None)
    env.pop("XDG_CACHE_HOME", None)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(work, index, args, deadline, traced=False, setup_only=False):
    """Run one worker; return (setup_s, result dict or None, error text).

    deadline is a time.perf_counter() value after which the worker is killed.
    """
    pass_dir = os.path.join(work, f"pass{index}")
    os.makedirs(pass_dir)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--jobs", os.path.join(work, "jobs.json"),
           "--pass-dir", pass_dir, "--src", SRC]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_worker_env(),
                            cwd=ROOT)
    setup_s, error = None, None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if sel.select(timeout=max(0.0, deadline - t0)):
                line = proc.stdout.readline()
                if line.strip() == b"ready":
                    setup_s = time.perf_counter() - t0
        if setup_s is None:
            error = "worker did not finish set-up"
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        error = "worker timed out"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if error is None and proc.returncode != 0:
        error = f"worker exited with code {proc.returncode}"
    result = None
    path = os.path.join(pass_dir, "result.json")
    if error is None and not setup_only:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
    shutil.rmtree(pass_dir, ignore_errors=True)
    return setup_s, result, error


def _median(values):
    return statistics.median(values) if values else 0.0


def _run(args, work):
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    job_list = joblib.build(args.workload, args.seed, inputs)
    with open(os.path.join(work, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(job_list, fh)

    t_start = time.perf_counter()
    deadline = t_start + RUN_DEADLINE_S
    passes, setups, problems = [], [], []
    index = 0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        setup_s, result, error = _spawn(work, index, args, deadline, traced=traced)
        index += 1
        last = time.perf_counter() - t0
        if error:
            problems.append(error)
            passes.append({"traced": traced, "error": error})
            break
        result["traced"] = traced
        passes.append(result)
        if not traced:
            setups.append(setup_s)
        elapsed = time.perf_counter() - t_start
        enough = elapsed >= args.seconds and (not args.trace or len(passes) >= 2)
        if enough or elapsed + last > RUN_LIMIT_S:
            break
    while not args.trace and not problems and len(setups) < SETUP_SAMPLES:
        if time.perf_counter() - t_start + 2 * max(setups) > RUN_LIMIT_S:
            break
        setup_s, _, error = _spawn(work, index, args, deadline, setup_only=True)
        index += 1
        if error:
            problems.append(error)
            break
        setups.append(setup_s)
    return job_list, passes, setups, problems


def _summarise(args, job_list, passes, setups, problems):
    ok = [p for p in passes if "error" not in p]
    attempted = len(job_list) * len(passes)
    failed = sum(len(job_list) for p in passes if "error" in p)
    failures = {}
    for p in ok:
        for j in p["jobs"]:
            if not j["ok"]:
                failed += 1
                failures.setdefault(j["id"], j["error"])
    digests = sorted({p["digest"] for p in ok})
    if len(digests) > 1:
        problems.append("passes with the same seed gave different output digests")
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    wall = _median([p["wall_s"] for p in plain])
    if args.trace:
        metrics = {}
        if traced:
            for name in traced[0]["layers"]:
                metrics[name] = _median([p["layers"][name] for p in traced])
            metrics["trace.wall_s"] = _median([p["wall_s"] for p in traced])
            metrics["trace.untraced_wall_s"] = wall
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
            for layer in joblib.EXPECTED_LAYERS[args.workload]:
                if not any(p["layer_calls"].get(layer) for p in traced):
                    problems.append(f"layer {layer} recorded no calls")
        else:
            problems.append("no traced pass completed")
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": _median(setups),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
            "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
        }
        units = END_TO_END_UNITS
    correct = failed == 0 and not problems and bool(ok)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted,
        "failed": failed, "failures": failures, "problems": problems,
        "digest": digests[0] if len(digests) == 1 else digests,
        "fingerprint": ok[0]["fingerprint"] if ok else None,
        "passes": [{"traced": p["traced"], "wall_s": p.get("wall_s"),
                    "peak_rss_mb": p.get("peak_rss_mb"), "error": p.get("error"),
                    "job_s": {j["id"]: j["wall_s"] for j in p.get("jobs", [])}}
                   for p in passes],
        "setup_samples_s": setups,
        "unpatched": sorted({n for p in traced for n in p["unpatched"]}),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "jobs": ok[0]["jobs"] if ok else [],
    }
    return report, traced


def _print_summary(report):
    fp = report["fingerprint"] or {}
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"passes {len(report['passes'])}  set-up samples "
          f"{len(report['setup_samples_s'])}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in fp.items()))
    print(f"output digest {report['digest']}")
    attempted, failed = report["attempted"], report["failed"]
    frac = failed / attempted if attempted else 0.0
    print(f"failed_frac {frac:.6g} fraction ({failed} failed of {attempted} attempted)")
    for name, m in report["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for j in report["jobs"]:
        nums = j.get("numbers") or {}
        if nums.get("quadrature_limited"):
            print(f"note: {j['id']} oracle deviation {nums['oracle_deviation']:.3e} "
                  "is over the criterion-06 tolerance but quadrature-limited "
                  "(README): the table is an exact fixed point, the oracle "
                  "does not converge that far at this level; not a failure")
    for jid, err in report["failures"].items():
        print(f"FAILED {jid}: {err}")
    for problem in report["problems"]:
        print(f"PROBLEM {problem}")
    if report["unpatched"]:
        print("warning: wavefield.cli no longer imports "
              + ", ".join(report["unpatched"]) + "; their spans are not recorded")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wavefield", "cli.py")):
        print(f"no wavefield sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    parent = os.path.join(BENCH, "work")
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=parent)
    try:
        job_list, passes, setups, problems = _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(parent)
    report, traced = _summarise(args, job_list, passes, setups, problems)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if traced:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump([p["spans"] for p in traced], fh)
    _print_summary(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
