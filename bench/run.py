"""Layered catscatter benchmark: one closed-loop client, one workload.

Usage (from the repository root)::

    python3 bench/run.py --workload scan_closed --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; no install is
needed.  The jobs of the workload are drawn from ``--seed`` and run back to
back in whole passes (one client, one thread, the next job starts when the
previous one returns) until ``--seconds`` have passed, at least twice and
for at least 100 jobs.  Every pass must return bit-identical outputs;
after the timed passes every job's output is checked against an
independent route.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the
untraced passes for half the time, then runs exactly two traced passes and
prints the per-layer metrics derived from their spans, with the tracing
overhead.  The last line of standard output is one JSON object; the exit
code is 0 only when every check passed.  Spans and a record of the run
(seed, workload, machine, versions, metrics) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Relative to ROOT, so CLI sidecars (which record --out) read the same in
# every checkout.
OUT_DIR = ".bench_out"
SETUP_PROBES = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="scan_closed, grid_quad2d, oracle_4d or cli_roundtrip")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_workloads():
    if not os.path.isfile(os.path.join(SRC, "catscatter", "__init__.py")):
        raise SystemExit(f"catscatter sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import catscatter
    import workloads

    here = os.path.realpath(catscatter.__file__)
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"imported catscatter from {here}, not from {SRC}")
    return workloads


def _setup_probe(args) -> None:
    """Fresh-process set-up: import, build the inputs, one warm-up job."""
    t0 = time.perf_counter()
    wl = _import_workloads()
    workdir = os.path.join(OUT_DIR, "setup")
    with wl.scratch_dir(workdir):
        _, warmup = wl.build(args.workload, args.seed, workdir)
        warmup.run()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _measure_setup(args) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


class Passes:
    """Latencies, pass times, outputs and failures of a series of passes."""

    def __init__(self, n_jobs: int) -> None:
        self.latencies: list[float] = []
        self.pass_times: list[float] = []
        self.first: list | None = None
        self.frozen: list | None = None
        self.raised = [0] * n_jobs
        self.mismatched = [0] * n_jobs
        self.errors: list[str] = []

    @property
    def count(self) -> int:
        return len(self.pass_times)


def run_pass(wl, jobs, passes: Passes, call=None, reference=None) -> None:
    """One pass over ``jobs``.  The first pass keeps its outputs for the
    checks; every pass is compared with ``reference`` (by default the first
    pass) by the outputs' exact digests."""
    first = passes.first is None
    outs, frozen, busy = [], [], 0.0
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            ret = call(i, job.run) if call else job.run()
            ok = True
        except Exception as exc:  # a failed job is counted, the loop goes on
            ret, ok = None, False
            passes.raised[i] += 1
            passes.errors.append(f"job {i} ({job.kind}) raised {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        busy += dt
        passes.latencies.append(dt)
        out = job.collect(ret) if ok and job.collect else ret
        frozen.append(wl.freeze(out))
        if first:
            outs.append(out)
    passes.pass_times.append(busy)
    if first:
        passes.first, passes.frozen = outs, frozen
    reference = reference if reference is not None else passes.frozen
    for i, (a, b) in enumerate(zip(reference, frozen)):
        if a != b:
            passes.mismatched[i] += 1
            passes.errors.append(f"job {i} ({jobs[i].kind}) output differs between passes")


def timed_passes(wl, jobs, seconds: float) -> Passes:
    """Whole passes until ``seconds`` have passed; at least two, and enough
    for 100 latency samples (10 beyond p90)."""
    passes = Passes(len(jobs))
    least = max(2, math.ceil(100 / len(jobs)))
    start = time.perf_counter()
    while passes.count < least or time.perf_counter() - start < seconds:
        run_pass(wl, jobs, passes)
    return passes


def verify(wl, jobs, outputs) -> tuple[list[list[str]], list[tuple[float, float]]]:
    failures, pairs = [], []
    for job, out in zip(jobs, outputs):
        v = wl.Verdict()
        if out is not None:
            try:
                job.verify(out, v, outputs)
            except Exception as exc:  # a check that cannot run is a failed check
                v.fail(f"check raised {type(exc).__name__}: {exc}")
        failures.append(v.failures)
        pairs += v.err_pairs
    return failures, pairs


def count_failed(passes: Passes, check_failures) -> int:
    """Failed job executions: raised, not reproduced, or failing a check
    (a job whose output fails a check fails in every pass)."""
    failed = 0
    for i, fails in enumerate(check_failures):
        failed += passes.count if fails else max(passes.raised[i], passes.mismatched[i])
    return failed


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


# ---------------------------------------------------------------------------
# Context and output
# ---------------------------------------------------------------------------


def context(args) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def finish(args, ctx, metrics, attempted, failed, errors, extra) -> int:
    correct = failed == 0
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}, fail_frac = {failed / attempted:.6g}")
    for line in errors[:20]:
        print(f"FAIL {line}")
    record = {"context": ctx, "correct": correct, "attempted": attempted,
              "failed": failed, "errors": errors,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **extra}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def untraced_run(args, wl, jobs, ctx) -> int:
    setup = _measure_setup(args)
    passes = timed_passes(wl, jobs, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    check_failures, _ = verify(wl, jobs, passes.first)
    verify_s = time.perf_counter() - t0
    failed = count_failed(passes, check_failures)
    attempted = len(passes.latencies)
    errors = passes.errors + [f"job {i} ({jobs[i].kind}): {msg}"
                              for i, fs in enumerate(check_failures) for msg in fs]
    metrics = {
        "jobs_per_s": (len(jobs) / statistics.median(passes.pass_times), "1/s"),
        "job_ms_p50": (1e3 * percentile(passes.latencies, 0.50), "ms"),
        "job_ms_p90": (1e3 * percentile(passes.latencies, 0.90), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"{passes.count} passes of {len(jobs)} jobs; {attempted} latency samples, "
          f"{attempted - math.ceil(0.9 * attempted)} beyond p90")
    extra = {"pass_s": passes.pass_times, "setup_probes_s": setup, "verify_s": verify_s,
             "latencies_s": passes.latencies}
    return finish(args, ctx, metrics, attempted, failed, errors, extra)


def traced_run(args, wl, jobs, ctx) -> int:
    import tracing

    plain = timed_passes(wl, jobs, args.seconds / 2.0)
    tracer = tracing.Tracer()
    traced = Passes(len(jobs))
    bounds = []
    tracer.install()
    try:
        for _ in range(2):
            first = len(tracer.spans)
            run_pass(wl, jobs, traced, call=tracer.run_job, reference=plain.frozen)
            bounds.append((first, len(tracer.spans)))
    finally:
        tracer.uninstall()
    tracer.dump(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.jsonl"))

    reports = [tracing.layer_report(tracer.spans, a, b) for a, b in bounds]
    errors = plain.errors + traced.errors
    if reports[0]["counts"] != reports[1]["counts"]:
        errors.append(f"per-layer counts differ between traced passes: "
                      f"{reports[0]['counts']} vs {reports[1]['counts']}")
    check_failures, err_pairs = verify(wl, jobs, plain.first)
    errors += [f"job {i} ({jobs[i].kind}): {msg}"
               for i, fs in enumerate(check_failures) for msg in fs]
    failed = (count_failed(plain, check_failures) + count_failed(traced, check_failures)
              + (reports[0]["counts"] != reports[1]["counts"]))
    attempted = len(plain.latencies) + len(traced.latencies)

    c = reports[0]["counts"]
    n_jobs = 2 * len(jobs)
    self_s = {k: sum(r["self_s"].get(k, 0.0) for r in reports) for k in
              ("quadrature", "scattering", "analysis", "cli")}
    ms_per_job = {k: 1e3 * v / n_jobs for k, v in self_s.items()}
    busy_s = {k: sum(r["busy_s"][k] for r in reports) for k in reports[0]["busy_s"]}
    n_dnu = c["dnu.closed_form"] + c["dnu.quadrature2d"] + c["dnu.general4d"]
    rows = sum(wl.cli_rows(o) for o in plain.first if isinstance(o, tuple))
    bytes_out = sum(len(o[1]) + len(o[2]) for o in plain.first if isinstance(o, tuple))
    ratios = [e / t for e, t in err_pairs]
    jps_plain = len(jobs) / statistics.median(plain.pass_times)
    jps_traced = len(jobs) / statistics.median(traced.pass_times)

    def per(a, b):
        return a / b if b else 0.0

    metrics = {
        "quadrature.calls_1d": (c["calls_1d"], "count"),
        "quadrature.calls_2d": (c["calls_2d"], "count"),
        "quadrature.calls_4d": (c["calls_4d"], "count"),
        "quadrature.neval": (c["neval"], "count"),
        "quadrature.subdivisions": (c["subdivisions"], "count"),
        "quadrature.self_ms": (ms_per_job["quadrature"], "ms"),
        "quadrature.us_per_keval": (per(1e6 * self_s["quadrature"], 2 * c["neval"] / 1e3), "us"),
        "quadrature.err_overestimate": (statistics.median(ratios) if ratios else 0.0, "ratio"),
        "scattering.dnu_calls.closed_form": (c["dnu.closed_form"], "count"),
        "scattering.dnu_calls.quadrature2d": (c["dnu.quadrature2d"], "count"),
        "scattering.dnu_calls.general4d": (c["dnu.general4d"], "count"),
        "scattering.integrals_per_dnu": (per(c["integrals_in_dnu"], n_dnu), "count"),
        "scattering.neval_per_dnu": (per(c["neval_in_dnu"], n_dnu), "count"),
        "scattering.self_ms": (ms_per_job["scattering"], "ms"),
        "analysis.asym_calls": (c["asym_calls"], "count"),
        "analysis.dnu_per_asym": (per(c["dnu_in_asym"], c["asym_calls"]), "count"),
        "analysis.self_ms": (ms_per_job["analysis"], "ms"),
        "targets.amplitude_calls": (c["amplitude_calls"], "count"),
        "targets.amplitude_points": (c["amplitude_points"], "count"),
        "targets.amplitude_ms": (1e3 * busy_s["hydrogen_amplitude"] / n_jobs, "ms"),
        "states.wigner_calls": (c["wigner_calls"], "count"),
        "states.wigner_points": (c["wigner_points"], "count"),
        "states.ns_per_point": (per(1e9 * busy_s["wigner_values"], 2 * c["wigner_points"]), "ns"),
        "states.bytes_computed": (c["wigner_points"] * 5 * 8, "B"),
        "cli.runs": (c["cli_runs"], "count"),
        "cli.self_ms": (ms_per_job["cli"], "ms"),
        "cli.rows_out": (rows, "count"),
        "cli.bytes_out": (bytes_out, "B"),
        "cli.us_per_row": (per(1e6 * self_s["cli"], 2 * rows), "us"),
        "trace.jobs_per_s": (jps_traced, "1/s"),
        "trace.jobs_per_s_untraced": (jps_plain, "1/s"),
        "trace.overhead_pct": (100.0 * (jps_plain / jps_traced - 1.0), "%"),
        "trace.spans": (c["spans"], "count"),
    }
    extra = {"pass_s_untraced": plain.pass_times, "pass_s_traced": traced.pass_times,
             "layer_counts": c, "layer_self_s": self_s}
    return finish(args, ctx, metrics, attempted, failed, errors, extra)


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    wl = _import_workloads()
    ctx = context(args)
    print("context: " + json.dumps(ctx))
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, "cli")
    with wl.scratch_dir(workdir):
        jobs, warmup = wl.build(args.workload, args.seed, workdir)
        warmup.run()
        if args.trace:
            return traced_run(args, wl, jobs, ctx)
        return untraced_run(args, wl, jobs, ctx)


if __name__ == "__main__":
    sys.exit(main())
