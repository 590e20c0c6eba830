"""dilatlab benchmark: time to verdicts on three seeded workloads.

Usage, from the repository root:

    python3 bench/run.py --workload flat-registry --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists): flat-registry,
heisenberg-tangent, cc-solve. The load is a closed loop: one process runs one
job at a time on the main thread. The benchmark imports the package from
``src`` of the checkout it sits in.

--trace 0 measures end-to-end metrics with tracing off: rounds of seeded jobs
run until --seconds is spent, after set-up has been timed in fresh
processes. Round and job times are rescaled to the host's nominal speed by a
reference loop sampled alongside the jobs (speed.py). --trace 1 runs a fixed
seeded job list twice, untraced and then with spans wrapped around each
module's public functions (tracing.py), and reports per-layer metrics per
job. Either way every job is checked against an independent oracle; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics, and the exit code is 1 when any job failed.
"""

import os

# Pin BLAS pools before numpy loads; leave DILATLAB_THREADS unset so that
# parallel_map runs sequentially.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DILATLAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import SpeedSampler  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("flat-registry", "heisenberg-tangent", "cc-solve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(args, np, scipy):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu or platform.processor(),
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "DILATLAB_THREADS": os.environ.get("DILATLAB_THREADS"),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def measure_setup(workload):
    """Median import and build times over fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": median(s["import_s"] + s["build_s"] for s in samples),
        "import_s": median(s["import_s"] for s in samples),
        "build_s": median(s["build_s"] for s in samples),
    }


def run_jobs(wl, jobs, sampler=None):
    """Run jobs in order; returns (outcomes, [(start, end, seconds)] per job).
    seconds excludes the time a speed sampler's handler took."""
    from workloads import Outcome

    outcomes, spans = [], []
    for job in jobs:
        spent = sampler.spent if sampler else 0.0
        t0 = perf_counter()
        try:
            out = wl.run_job(job)
        except Exception as e:  # a job that raises is a failed job, not a crashed run
            out = Outcome(failed="%s: %s" % (type(e).__name__, e))
        t1 = perf_counter()
        spans.append((t0, t1, t1 - t0 - ((sampler.spent - spent) if sampler else 0.0)))
        outcomes.append(out)
    return outcomes, spans


def tail_percentile(times):
    """Highest whole percentile with at least ten jobs beyond it, or None."""
    n = len(times)
    p = int(100.0 * (1.0 - 10.0 / n)) if n else 0
    if p < 50:
        return None
    ordered = sorted(times)
    return p, ordered[min(n - 1, int(round(p / 100.0 * (n - 1))))]


def verdict_lines(outcomes, times):
    attempted = len(outcomes)
    failed = [o for o in outcomes if o.failed]
    run = sum(o.checks_run for o in outcomes)
    lines = ["fail_ratio          %.6g  (%d of %d jobs)" % (len(failed) / attempted,
                                                          len(failed), attempted),
             "oracle_gap.max      %.6g" % max(o.gap for o in outcomes)]
    if run:
        passed = sum(o.checks_passed for o in outcomes)
        lines.append("verdict_pass_ratio  %.6g  (%d of %d checks)" % (passed / run, passed, run))
    tail = tail_percentile(times)
    if tail:
        lines.append("job_s.tail          %.6g s  (p%d of %d jobs)"
                     % (tail[1], tail[0], len(times)))
    else:
        lines.append("job_s.tail          omitted: %d jobs, fewer than 20" % len(times))
    for o in failed[:5]:
        lines.append("failed job: %s" % o.failed)
    return lines


def measure(wl, rng, seconds):
    """Closed loop of seeded rounds until the time budget is spent; a new
    round starts only if a median round still fits, and at least one runs.
    Returns the outcomes, the (start, end, seconds) spans of rounds and of
    jobs, and the speed sampler that ran alongside."""
    for _ in range(wl.warmup_rounds):
        run_jobs(wl, wl.draw_round(rng))
    rounds, outcomes, jobs = [], [], []
    start = perf_counter()
    with SpeedSampler() as sampler:
        while True:
            spent = sampler.spent
            t0 = perf_counter()
            outs, spans = run_jobs(wl, wl.draw_round(rng), sampler)
            t1 = perf_counter()
            rounds.append((t0, t1, t1 - t0 - (sampler.spent - spent)))
            outcomes += outs
            jobs += spans
            if t1 - start + median(r[2] for r in rounds) > seconds:
                return outcomes, rounds, jobs, sampler


def end_to_end(args, wl, rng, setup):
    outcomes, rounds, jobs, sampler = measure(wl, rng, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (median(sampler.adjust(s, t0, t1) for t0, t1, s in rounds), "s"),
        "job_s.p50": (median(sampler.adjust(s, t0, t1) for t0, t1, s in jobs), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    ref = sorted(sampler.times)
    lines = ["setup_s split       import %.6g s, build %.6g s"
             % (setup["import_s"], setup["build_s"]),
             "rounds              %d (%d jobs)" % (len(rounds), len(jobs)),
             "unadjusted          wall_s %.6g s, job_s.p50 %.6g s"
             % (median(r[2] for r in rounds), median(j[2] for j in jobs)),
             "reference loop      %d samples, min %.4g ms, median %.4g ms, max %.4g ms"
             % (len(ref), 1e3 * ref[0], 1e3 * median(ref), 1e3 * ref[-1])]
    times = [sampler.adjust(s, t0, t1) for t0, t1, s in jobs]
    return metrics, outcomes, lines + verdict_lines(outcomes, times), []


def per_layer(args, wl, rng, setup):
    from tracing import Tracer, expectation_failures, layer_metrics, layer_table

    jobs = [job for _ in range(wl.trace_rounds) for job in wl.draw_round(rng)]
    t0 = perf_counter()
    outcomes, _ = run_jobs(wl, jobs)
    untraced = perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        wl.build()
        t0 = perf_counter()
        traced_outcomes, spans = run_jobs(wl, jobs)
        traced = perf_counter() - t0
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer, len(jobs), traced, untraced, setup)
    problems = ["trace self-test: " + msg for msg in expectation_failures(wl.name, metrics)]
    lines = ["traced jobs         %d, untraced %.6g s, traced %.6g s"
             % (len(jobs), untraced, traced)]
    lines += layer_table(tracer, traced)
    outcomes += traced_outcomes
    times = [s for _, _, s in spans]
    return metrics, outcomes, lines + verdict_lines(outcomes, times) + problems, problems


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dilatlab" / "__init__.py").is_file():
        sys.stderr.write("bench: no dilatlab package under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    wl.build()
    setup = measure_setup(args.workload)
    rng = np.random.default_rng(args.seed)
    collect = per_layer if args.trace else end_to_end
    metrics, outcomes, lines, problems = collect(args, wl, rng, setup)

    print("env " + json.dumps(environment(args, np, scipy), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-40s %.6g %s" % (name, value, unit))
    for line in lines:
        print(line)
    failed = sum(1 for o in outcomes if o.failed)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
