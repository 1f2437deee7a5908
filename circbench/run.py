"""Run one circnorm benchmark workload and print its metrics.

Run from the repository root; the library is imported from ./src:

    python3 circbench/run.py --workload power-gram --seed 1 --seconds 35 --trace 0

Each workload is a closed loop with one caller: a job starts when the
previous one has been checked. Every job of the seeded list runs in a few
seeded passes, then the least-served jobs run again until the time spent
inside jobs reaches --seconds. Latency metrics use each job's best time.
Every output is checked against ``oracle``; a wrong answer is counted,
never fatal.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from a traced replay of each job (spans also go to .bench_build/circbench/).
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer, installed, span_cost

WORKLOADS = tuple(workloads.GENERATORS)
#: Set-up runs this often; setup_s is the fastest, since the fastest of many
#: fresh-process imports follows the program while their median follows the
#: machine's load.
SETUP_REPS = 15
#: Every job runs at least this often, so its best time rides out a slow burst.
MIN_PASSES = 3
#: Tail percentiles, highest first; the tail is the first with ten samples beyond it.
TAIL_LADDER = (99.9, 99.5, 99, 95, 90, 75, 50)
#: No new job starts this long after the process started, so a slow commit
#: still exits well within the 180 s a run may take.
DEADLINE_S = 140.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = "import time; t = time.perf_counter(); import circnorm; print(time.perf_counter() - t)"


def metric_units(root):
    """({name: unit} of the end-to-end metrics, the same of the per-layer ones) from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def timed(fn, *args):
    """(result, exception, seconds) of one call."""
    start = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # a failing job is counted, and the run goes on
        result, error = None, exc
    return result, error, time.perf_counter() - start


def tail(samples):
    """(percentile, value) of the highest ladder percentile with ten samples beyond it."""
    xs = sorted(samples)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * len(xs))  # nearest rank, 1-based
        if rank >= 1 and len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return 100, xs[-1]


class Run:
    """One workload run: setup, the oracle, the timed passes and their tallies."""

    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.started = time.perf_counter()
        self.rng = random.Random(f"passes:{args.workload}:{args.seed}")
        self.latencies: dict[int, list[float]] = {}
        self.attempted = self.failed = self.passes = 0
        self.busy = 0.0
        self.problems: list[str] = []

    def setup(self):
        """Import circnorm and generate the inputs; return the fastest set-up seconds."""
        env = dict(os.environ, PYTHONPATH="src")
        probes = []
        for _ in range(SETUP_REPS):
            out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=self.root, env=env,
                                 capture_output=True, text=True, check=True, timeout=60)
            probes.append(float(out.stdout))
        import circnorm
        import circnorm.cli

        self.circnorm = circnorm
        if self.args.workload == "cli-mix":
            self.runner = workloads.Subprocess(circnorm, self.root)
        else:
            self.runner = workloads.InProcess(circnorm)
        gens = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            self.jobs = workloads.generate(self.args.workload, self.args.seed)
            self.bound = [self.runner.bind(job) for job in self.jobs]
            gens.append(time.perf_counter() - start)
        return min(probes) + min(gens)

    def prepare_oracle(self):
        start = time.perf_counter()
        self.expected = [workloads.expectation(job) for job in self.jobs]
        return time.perf_counter() - start

    def record(self, i, output, error, seconds):
        """Check one job's output and tally it."""
        self.attempted += 1
        problems = [f"raised {error!r}"] if error else self.runner.check(self.jobs[i], self.expected[i], output)
        if problems:
            self.failed += 1
            self.problems.extend(f"job {i} {self.jobs[i]}: {p}" for p in problems[:3])
        self.latencies.setdefault(i, []).append(seconds)
        return not problems

    def run_until(self, seconds, step):
        """Call step(i), which returns seconds spent, until the time spent reaches seconds.

        First MIN_PASSES passes run every job once each, in a seeded order.
        After that the job with the least time spent so far runs next, so
        cheap jobs repeat more often than costly ones and every job's best
        time comes from a similar share of the run.
        """
        spent = [0.0] * len(self.jobs)

        def go(i):
            if time.perf_counter() - self.started > DEADLINE_S:
                return False
            seconds_i = step(i)
            spent[i] += seconds_i
            self.busy += seconds_i
            return True

        for _ in range(MIN_PASSES):
            if not all(go(i) for i in self.rng.sample(range(len(self.jobs)), len(self.jobs))):
                return
            self.passes += 1
        while self.busy < seconds and go(min(range(len(self.jobs)), key=spent.__getitem__)):
            pass

    def measure(self):
        def step(i):
            output, error, seconds = timed(self.runner.run, self.bound[i])
            self.record(i, output, error, seconds)
            return seconds

        timed(self.runner.run, self.bound[0])  # warm-up: lazy imports, page cache
        self.run_until(self.args.seconds, step)

    def end_to_end(self, setup_s):
        # Bursts of a few seconds slow this kind of shared machine by up to half,
        # so each job counts with its best time over the passes.
        bests = [min(times) for times in self.latencies.values()]
        # The tail is over the per-job best times, so it is the cost of the
        # costlier jobs of the mix, not a tail of slow calls.
        percentile, tail_s = tail(bests)
        ok_ratio = (self.attempted - self.failed) / self.attempted
        usage = resource.RUSAGE_CHILDREN if self.args.workload == "cli-mix" else resource.RUSAGE_SELF
        return {
            "jobs_per_s": ok_ratio * len(bests) / sum(bests),
            "job_p50_ms": statistics.median(bests) * 1e3,
            "job_tail_ms": tail_s * 1e3,
            "ok_ratio": ok_ratio,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        }, {
            "tail_over": "per-job best times",
            "tail_samples": len(bests),
            "tail_percentile": percentile,
            "verify_growth_exponent": self.verify_growth(),
        }

    def verify_growth(self):
        """Least-squares slope of log(job seconds) on log(n_max) over in-process verify jobs."""
        pts = [(math.log(int(self.jobs[i][1][4])), math.log(min(times)))
               for i, times in self.latencies.items() if self.jobs[i][0] == "verify"]
        if len(pts) < 2:
            return None
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else None

    def measure_traced(self):
        """Run each job untraced and traced, alternating which of the two goes first.

        Alternating keeps either run from always finding the state the other
        left warm. cli-mix jobs run once as a child (the recorded run), and
        the untraced and traced runs replay their argv through ``cli.main``.
        """
        tracer = Tracer()
        self.untraced = self.traced = self.cli_start = 0.0
        self.stdout_bytes = 0
        cli_mix = self.args.workload == "cli-mix"
        cli = self.circnorm.cli
        fn = (lambda argv: workloads.run_cli(cli, argv)) if cli_mix else self.runner.run
        traced_first = itertools.cycle((False, True))

        def run_traced(i):
            with installed(tracer, self.circnorm), tracer.job(i):
                return timed(fn, self.bound[i])

        def problems(i, output, error):
            return [f"raised {error!r}"] if error else self.runner.check(self.jobs[i], self.expected[i], output)

        def step(i):
            child_s = 0.0
            if cli_mix:
                output, error, child_s = timed(self.runner.run, self.bound[i])
                ok = self.record(i, output, error, child_s)
                self.stdout_bytes += len(output[1]) if output else 0
            if next(traced_first):
                traced = run_traced(i)
                plain = timed(fn, self.bound[i])
            else:
                plain = timed(fn, self.bound[i])
                traced = run_traced(i)
            if cli_mix:
                self.cli_start += child_s - plain[2]
                replay_problems = problems(i, *plain[:2]) + problems(i, *traced[:2])
            else:
                ok = self.record(i, *plain)
                replay_problems = problems(i, *traced[:2])
            if ok and replay_problems:
                self.failed += 1
                self.problems.append(f"job {i} traced: {replay_problems[0]}")
            self.untraced += plain[2]
            self.traced += traced[2]
            return child_s + plain[2] + traced[2]

        timed(self.runner.run, self.bound[0])
        self.run_until(self.args.seconds, step)
        return tracer

    def per_layer(self, tracer, names):
        jobs = max(self.attempted, 1)
        selfs = tracer.self_times()
        c = tracer.counts
        power_self = selfs["spectral.spectral_norm_power"]
        metrics = {name: selfs[name[: -len(".self_s")]] / jobs
                   for name in names if name.endswith(".self_s")}
        metrics.update({
            "spectral.gram_macs_computed": c["spectral.gram_macs_computed"] / jobs,
            "spectral.gram_rate": c["spectral.gram_macs_computed"] / power_self if power_self else 0.0,
            "spectral.spectral_norm_power.iterations_sum": c["spectral.spectral_norm_power.iterations_sum"] / jobs,
            "spectral.spectral_norm_power.iterations_max": tracer.maxima["spectral.spectral_norm_power.iterations_max"],
            "spectral.spectral_norm_power.converged_ratio": (
                c["spectral.spectral_norm_power.converged"] / c["spectral.spectral_norm_power.calls"]
                if c["spectral.spectral_norm_power.calls"] else 0.0),
            "circulant.to_dense.cells_computed": c["circulant.to_dense.cells_computed"] / jobs,
            "sequences.prefix.terms": c["sequences.prefix.terms"] / jobs,
            "sequences.closed_form_sum.calls": c["sequences.closed_form_sum.calls"] / jobs,
            "circulant.eigenvalues_dft.points": c["circulant.eigenvalues_dft.points"] / jobs,
            "spectral.compare_methods.skip_ratio": (
                c["spectral.compare_methods.skipped"] / c["spectral.compare_methods.requested"]
                if c["spectral.compare_methods.requested"] else 0.0),
            "cli.start_s": self.cli_start / jobs,
            "cli.stdout_bytes": self.stdout_bytes / jobs,
            "trace.job_s": self.traced / jobs,
            "trace.jobs_per_s_untraced": jobs / self.untraced,
            "trace.jobs_per_s_traced": jobs / self.traced,
            "trace.overhead_ratio": self.traced / self.untraced - 1,
        })
        out_dir = self.root / ".bench_build" / "circbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace-{self.args.workload}-seed{self.args.seed}.jsonl"
        tracer.write(path)
        raw = [s for times in self.latencies.values() for s in times]
        cost = span_cost()
        return {name: metrics[name] for name in names}, {
            "trace_file": str(path.relative_to(self.root)),
            "spans": len(tracer.spans),
            "span_cost_us": cost * 1e6,
            # What the spans alone add, free of the run-to-run noise in overhead_ratio.
            "span_overhead_ratio": (len(tracer.spans) - jobs) * cost / self.untraced,
            "untraced_job_p50_ms": statistics.median(raw) * 1e3,
        }


def environment(args, nproc, circnorm):
    import numpy

    return {
        "nproc": nproc,
        "blas_threads": os.environ[BLAS_VARS[0]],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "circnorm": circnorm.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "circnorm" / "__init__.py").is_file():
        print("error: run from the repository root; src/circnorm not found", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # before numpy is imported, here and in every child
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(root / "src"))

    end_to_end, per_layer = metric_units(root)
    run = Run(args, root)
    setup_s = run.setup()
    oracle_s = run.prepare_oracle()
    if args.trace:
        tracer = run.measure_traced()
        units = per_layer
        metrics, detail = run.per_layer(tracer, units)
    else:
        run.measure()
        units = end_to_end
        metrics, detail = run.end_to_end(setup_s)
        metrics = {name: metrics[name] for name in units}
    digest = hashlib.sha256(workloads.inputs_bytes(run.jobs)).hexdigest()
    detail.update({
        "env": environment(args, nproc, run.circnorm),
        "inputs_sha256": digest,
        "jobs_per_pass": len(run.jobs),
        "passes": run.passes,
        "oracle_s": round(oracle_s, 3),
        "elapsed_s": round(time.perf_counter() - run.started, 3),
        "problems": run.problems[:10],
    })
    print(json.dumps({"detail": detail}))
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:45s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
