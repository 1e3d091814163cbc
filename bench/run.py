"""Benchmark for flagkneser: one command, three workloads, exact checks.

    python3 bench/run.py --workload q2_verify --seed 1 --seconds 28 --trace 0

Each run is one process on one thread with a closed loop: passes of the
workload's job list run back to back until ``--seconds`` is used up.  The
first pass warms the package's caches and is not part of ``wall_s``.
``setup_s`` is the median of fresh-process set-ups timed before the loop.

Times are reported at the reference speed of the box (see README.md): a
fixed calibration kernel runs between jobs and between set-up probes, and
each measured interval is scaled by the kernel's reference time over its
time measured around the interval.  The raw wall times are printed in the
summary line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer wrappers (see tracer.py) on every other pass and prints the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object; any job whose output does not match
its exact expected value is counted in ``failed`` and makes the exit code 1.
"""

from __future__ import annotations

import os

# One thread: numpy must not start a BLAS pool of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (puts src/ on sys.path and imports flagkneser)
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(HERE, "probe.py")
# Set-up probes: at least MIN, then more until PROBE_BUDGET_S is spent.
MIN_PROBES, MAX_PROBES, PROBE_BUDGET_S = 4, 15, 5.0

# Calibration kernel time on the reference box (2-core Xeon, Python 3.11,
# numpy 2.4) when it runs at full speed; scaled times are in its seconds.
CAL_REFERENCE_S = 0.0030
CAL_ARRAY = np.arange(177165, dtype=np.uint64)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def calibrate() -> float:
    """Seconds for a fixed kernel that mixes the package's two kinds of
    work: interpreter-bound row reduction over small tuples and numpy
    bitwise scans over a universe-sized uint64 array (the median of three
    rounds).  It tracks the box's current speed."""
    rounds = []
    for _ in range(3):
        t0 = time.perf_counter()
        for k in range(60):
            rows = [[(k + i * j) % 3 for j in range(7)] for i in range(4)]
            for c in range(7):
                piv = next((r for r in rows if r[c]), None)
                if piv is not None:
                    rows = [r if r is piv else [(x - y * r[c]) % 3
                                                for x, y in zip(r, piv)]
                            for r in rows]
        for i in range(6):
            int(np.count_nonzero((CAL_ARRAY & np.uint64(i + 1)) == 0))
        rounds.append(time.perf_counter() - t0)
    return statistics.median(rounds)


def at_reference_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * CAL_REFERENCE_S * 2 / (cal_before + cal_after)


def time_setup(workload: str) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its 'ready' line, raw
    and at reference speed."""
    cal = calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, PROBE, workload],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        rc = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe for %s failed (exit %s)" % (workload, rc))
    return elapsed, at_reference_speed(elapsed, cal, calibrate())


def time_setups(workload: str, quick: bool) -> tuple[list[float], list[float]]:
    raw, scaled = [], []
    while len(raw) < MAX_PROBES and (len(raw) < MIN_PROBES
                                     or sum(raw) < PROBE_BUDGET_S):
        r, s = time_setup(workload)
        raw.append(r)
        scaled.append(s)
        if quick:
            break
    return raw, scaled


def run_jobs(jobs) -> tuple[float, list[float], float, list]:
    """Run a pass.  Returns its wall seconds, each job's seconds at
    reference speed, its CPU seconds and the job outputs; calibration is
    not counted."""
    outputs = []
    scaled = []
    wall = cpu = 0.0
    cal = calibrate()
    for job in jobs:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outputs.append(job.run())
        except Exception as exc:  # a raising job is a failed job
            outputs.append(exc)
        dt = time.perf_counter() - t0
        cpu += time.process_time() - c0
        nxt = calibrate()
        wall += dt
        scaled.append(at_reference_speed(dt, cal, nxt))
        cal = nxt
    return wall, scaled, cpu, outputs


def check_jobs(jobs, outputs) -> list[str]:
    problems = []
    for job, out in zip(jobs, outputs):
        if isinstance(out, Exception):
            problems.append("%s raised %s" % (job.name, "".join(
                traceback.format_exception_only(type(out), out)).strip()))
            continue
        try:
            problem = job.check(out)
        except Exception as exc:
            problem = "check raised %r" % exc
        if problem:
            problems.append("%s: %s" % (job.name, problem))
    return problems


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def layer_units() -> dict[str, str]:
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def provenance() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        ram_gb = round(os.sysconf("SC_PAGE_SIZE")
                       * os.sysconf("SC_PHYS_PAGES") / 2**30, 1)
    except (ValueError, OSError):
        ram_gb = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "ram_gb": ram_gb,
            "python": platform.python_version(), "numpy": np.__version__,
            **git_state(workloads.ROOT)}


def git_state(root: str) -> dict:
    """Commit and dirty flag when root is itself a git work tree.  Git is
    not asked otherwise, so it never searches the directories above."""
    unknown = {"git_commit": None, "git_dirty": None}
    if not os.path.exists(os.path.join(root, ".git")):
        return unknown

    def git(*argv):
        return subprocess.run(["git", "-C", root, *argv], capture_output=True,
                              text=True, timeout=30)
    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return unknown
        dirty = bool(git("status", "--porcelain").stdout.strip())
        return {"git_commit": head.stdout.strip(), "git_dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return unknown


def layer_metrics(setup_counts, traced, traced_walls, walls, cpus) -> dict:
    """Per-layer figures: set-up counters plus the median traced pass."""
    draws = sum(c.get("oracle.random_subspace.calls", 0) for c in traced)
    configs = sum(c.get(s + ".calls", 0) for c in traced
                  for s in workloads.SAMPLERS)
    derived = {
        "oracle.sample.accept_ratio": configs / draws if draws else 0.0,
        "proc.cpu_s": statistics.median(cpus),
        "tracing.overhead_s": statistics.median(traced_walls)
        - statistics.median(walls),
    }
    out = {}
    for name, unit in layer_units().items():
        if name in derived:
            value = derived[name]
        else:
            value = setup_counts.get(name, 0) + statistics.median(
                c.get(name, 0) for c in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced inputs and one set-up probe (self-tests)")
    ap.add_argument("--doctor", action="store_true",
                    help="add one flag adjacent to a member to each anchored "
                         "family (q2_verify) or to the saved Lambda(P,l) file "
                         "(cli_files); the run must then report failed jobs")
    ap.add_argument("--spans", default=None,
                    help="with --trace 1, write the spans as JSON lines here")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(seed=args.seed, doctor=args.doctor,
                            sizes=workloads.QUICK if args.quick else workloads.FULL)
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick, "doctor": args.doctor,
            **provenance()}
    print(json.dumps({"provenance": info}, sort_keys=True), flush=True)

    setup_raw, setup_scaled = time_setups(wl.name, args.quick)

    tracer = Tracer(workloads.TARGETS) if args.trace else None
    if tracer:
        tracer.install()
    state = wl.setup()
    setup_counts = {}
    if tracer:
        setup_counts = tracer.snapshot()
        tracer.uninstall()
    wl.prepare(state, ctx)

    # prepare() counts as one job: the inputs it builds must be right
    attempted = 1
    problems = ["prepare: " + "; ".join(ctx.problems)] if ctx.problems else []
    walls: list[float] = []           # bare measured passes, reference speed
    raw_walls: list[float] = []       # the same, as measured
    cpus: list[float] = []
    traced_walls: list[float] = []
    traced: list[dict] = []           # counters of each traced pass
    per_job: dict[str, list[float]] = {}
    index = 0
    start = time.perf_counter()
    try:
        while True:
            # pass 0 warms up; after it, with --trace 1, odd passes are traced
            tracing = bool(tracer) and index % 2 == 1
            first_span = len(tracer.spans) if tracer else 0
            if tracing:
                tracer.reset()
                tracer.install()
            try:
                jobs = wl.make_pass(state, ctx, index)
                gc.collect()  # every pass starts from a collected heap
                raw, job_times, cpu, outputs = run_jobs(jobs)
                wall = sum(job_times)
            finally:
                if tracing:
                    tracer.uninstall()
            if wl.after_pass:
                wl.after_pass(ctx)
            found = check_jobs(jobs, outputs)
            attempted += len(jobs)
            problems += ["pass %d: %s" % (index, p) for p in found]
            if tracing:
                counts = tracer.snapshot()
                counts["cli.self_s"] = tracer.self_time("cli.", first_span)
                counts["cli.bytes_written"] = ctx.bytes_written
                traced.append(counts)
                traced_walls.append(wall)
            elif index > 0:
                walls.append(wall)
                sums: dict[str, float] = {}
                for job, t in zip(jobs, job_times):
                    kind = job.name.split(":")[0]
                    sums[kind] = sums.get(kind, 0.0) + t
                for kind, t in sums.items():
                    per_job.setdefault(kind, []).append(t)
                raw_walls.append(raw)
                cpus.append(cpu)
            print("pass %d%s: %.4f s at reference speed, %.4f s wall, "
                  "%.4f s cpu, %d jobs, %d failed"
                  % (index, " (traced)" if tracing else
                     " (warm-up)" if index == 0 else "",
                     wall, raw, cpu, len(jobs), len(found)), flush=True)
            index += 1
            enough = walls and (traced_walls or not tracer)
            if enough and time.perf_counter() - start + raw > args.seconds:
                break
    finally:
        if wl.cleanup:
            wl.cleanup(ctx)

    for p in problems:
        print("FAILED " + p, file=sys.stderr)
    summary = {"passes": len(walls), "wall_s_quartiles": quartiles(walls),
               "raw_wall_s_quartiles": quartiles(raw_walls),
               "setup_probes": len(setup_raw),
               "setup_s_quartiles": quartiles(setup_scaled),
               "raw_setup_s_quartiles": quartiles(setup_raw),
               "job_s_medians": {k: statistics.median(v)
                                 for k, v in per_job.items()}}
    if tracer:
        summary["traced_passes"] = len(traced_walls)
        metrics = layer_metrics(setup_counts, traced, traced_walls, walls, cpus)
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        values = {"setup_s": statistics.median(setup_scaled),
                  "wall_s": statistics.median(walls),
                  "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    print(json.dumps({"summary": summary}), flush=True)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
