"""The three workloads: seeded input generation, job execution and checking.

A job is plain data (tuples of ints and strings), so the inputs a seed
produces can be hashed and compared byte for byte. Each workload turns
its jobs into library calls, runs them and checks the outputs against
expectations computed by ``oracle`` from the same plain data.

Orders and sizes sit on a log-spaced grid moved by a small seeded jitter,
and the kinds of input are spread evenly along that grid. Every pass over
a workload's jobs therefore costs about the same for any seed, which keeps
run-to-run spread low while the seed still changes every input.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import accumulate, cycle

from oracle import (
    BUILTINS,
    POWER_GUARD,
    check_norm,
    expected_methods,
    published_values,
    report_doc,
    sum_and_max,
    terms,
)

ALL_METHODS = ("sum", "dft", "power")
BUILTIN_NAMES = tuple(sorted(BUILTINS))
#: The largest order at which a workload lets the power route run. Its dense
#: path is unbounded, so any larger matrix that requests power must have an
#: entry at or above the 2**26 guard, which skips it.
POWER_MAX_ORDER = 384
#: Custom row kinds. "small-gap" has one dominant entry per period, so
#: |lambda_1 / lambda_0| is close to 1; "near-guard" has every entry just
#: under the 2**26 power guard.
SMALL_KINDS = ("constant", "arithmetic", "periodic", "small-gap")
POWER_KINDS = ("near-guard",) + SMALL_KINDS
CLI_TIMEOUT_S = 120


def _grid(rng, lo, hi, k, skew=1.0, jitter=0.01):
    """k integers from lo to hi, each moved by a seeded factor of up to 1 +/- jitter.

    Point i sits at lo * (hi / lo) ** ((i / (k - 1)) ** skew): log-spaced for
    skew 1, denser towards lo for larger skew.
    """
    points = []
    for i in range(k):
        x = lo * (hi / lo) ** ((i / (k - 1)) ** skew) * (1 + rng.uniform(-jitter, jitter))
        points.append(min(hi, max(lo, round(x))))
    return points


def _spread(values, items):
    """Pair the sorted values with items in turn, so each item covers the whole range.

    The pairing is fixed rather than seeded: kinds differ in cost, and a
    seeded pairing would change the cost of a pass from seed to seed.
    """
    return list(zip(values, cycle(items)))


def _custom(rng, kind, n):
    """(coefficients, initial terms, order) of one custom row of the given kind.

    Entries stay in narrow bands above the interpreter's cached small
    integers, so a row's cost depends on its kind and order, not the seed.
    """
    if kind == "constant":
        return (1,), (rng.randint(512, 1024),), n
    if kind == "arithmetic":
        a = rng.randint(512, 1024)
        return (2, -1), (a, a + rng.randint(1, 4)), n
    p = rng.randint(2, 4)
    if kind == "periodic":
        init = [rng.randint(512, 4096) for _ in range(p)]
    elif kind == "small-gap":
        p = 4
        init = [1] * p
        init[rng.randrange(p)] = rng.randint(2048, 4096)
    elif kind == "near-guard":
        init = [rng.randint(POWER_GUARD - 4096, POWER_GUARD - 1) for _ in range(p)]
    else:
        raise ValueError(f"unknown row kind {kind!r}")
    # Whole periods keep the spectrum of a periodic row clean.
    return (0,) * (p - 1) + (1,), tuple(init), max(p, round(n / p) * p)


def spec_text(coef, init):
    """The CLI's custom spec syntax for a recurrence."""
    return f"k={len(coef)};coef={','.join(map(str, coef))};init={','.join(map(str, init))}"


def inputs_bytes(jobs):
    """Canonical serialization of the generated inputs (equal seeds give equal bytes)."""
    return json.dumps(jobs, separators=(",", ":")).encode()


def check_invariants(jobs):
    """Raise if a job could run the power route above POWER_MAX_ORDER."""
    for job in jobs:
        if job[0] == "compare" and "power" in job[4] and job[3] > POWER_MAX_ORDER:
            raise AssertionError(f"power requested at order {job[3]}: {job}")
        name, n = None, 0
        if job[0] == "builtin":
            name, n = job[1], job[2]
        elif job[1][0] == "verify":  # a cli argv: verify --id NAME --n-max N
            name, n = job[1][2], int(job[1][4])
        elif job[1][0] in ("norm", "bench"):
            orders = [int(x) for x in job[1][job[1].index("--n") + 1].split(",")]
            if max(orders) > POWER_MAX_ORDER:
                raise AssertionError(f"power requested above {POWER_MAX_ORDER}: {job}")
        # Builtins grow, so a guard-sized entry among the first POWER_MAX_ORDER + 1
        # terms keeps power skipped at every larger order.
        if n > POWER_MAX_ORDER:
            _, top = sum_and_max(*BUILTINS[name], POWER_MAX_ORDER + 1)
            if top < POWER_GUARD:
                raise AssertionError(f"power would run above order {POWER_MAX_ORDER}: {job}")


# -- generation ---------------------------------------------------------


def generate_power_gram(rng):
    """compare_methods(all) on 40 custom rows of orders 64..384, five kinds spread evenly.

    The orders crowd towards 64 (a job costs about n**3), and near-guard rows,
    about twice as costly, stay off the largest order, so a pass stays short
    enough for every job to run in several passes.
    """
    jobs = []
    for n, kind in _spread(_grid(rng, 64, POWER_MAX_ORDER, 40, skew=3.5), POWER_KINDS):
        coef, init, n = _custom(rng, kind, n)
        jobs.append(["compare", list(coef), list(init), n, list(ALL_METHODS)])
    return jobs


def generate_exact_audit(rng):
    """12 in-process ``verify`` commands, 20 large builtin orders and 12 large custom rows."""
    jobs = [["verify", _verify_argv(name, n)] for n, name in _spread(_grid(rng, 100, 500, 12), BUILTIN_NAMES)]
    jobs += [["builtin", name, n] for n, name in _spread(_grid(rng, 5000, 40000, 20), BUILTIN_NAMES)]
    for n, kind in _spread(_grid(rng, 4096, 65536, 12), SMALL_KINDS):
        coef, init, n = _custom(rng, kind, n)
        jobs.append(["compare", list(coef), list(init), n, ["sum", "dft"]])
    return jobs


def generate_cli_mix(rng):
    """14 seq, 14 norm, 8 bench and 4 verify commands."""
    ids = BUILTIN_NAMES + ("custom",)

    def id_args(label, n):
        if label != "custom":
            return ["--id", label], n
        coef, init, n = _custom(rng, rng.choice(SMALL_KINDS), n)
        return ["--id", "custom", "--spec", spec_text(coef, init)], n

    jobs = []
    for i, (n, label) in enumerate(_spread(_grid(rng, 10, 400, 14), ids)):
        args, n = id_args(label, n)
        jobs.append(["seq", *args, "--n", str(n)] + (["--sum"] if i % 2 else []))
    for n, label in _spread(_grid(rng, 4, 64, 14), ids[::-1]):
        args, n = id_args(label, n)
        jobs.append(["norm", *args, "--n", str(n)])
    for label in ids + ids[:3]:
        args, _ = id_args(label, 8)
        if label == "custom":  # keep both orders whole periods of the row
            period = len(args[-1].split(";")[1].split(","))
            orders = sorted(period * k for k in rng.sample(range(1, 64 // period + 1), 2))
        else:
            orders = sorted(rng.sample(range(4, 65), 2))
        jobs.append(["bench", *args, "--n", ",".join(map(str, orders)), "--reps", "1"])
    for n_max, name in _spread(_grid(rng, 50, 200, 4), BUILTIN_NAMES):
        jobs.append(_verify_argv(name, n_max))
    return [["cli", argv] for argv in jobs]


def _verify_argv(name, n_max):
    return ["verify", "--id", name, "--n-max", str(n_max)]


GENERATORS = {
    "power-gram": generate_power_gram,
    "exact-audit": generate_exact_audit,
    "cli-mix": generate_cli_mix,
}


def generate(workload, seed):
    """The job list of a workload for a seed; the same seed gives the same list."""
    jobs = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    check_invariants(jobs)
    return jobs


# -- oracle expectations --------------------------------------------------


def _cli_expectation(argv):
    command = argv[0]
    if command == "verify":
        name, n_max = argv[2], int(argv[4])
        t = terms(*BUILTINS[name], n_max)
        return list(accumulate(t)), list(accumulate(t, max)), published_values(name, n_max)
    coef, init = _argv_spec(argv)
    orders = [int(x) for x in argv[argv.index("--n") + 1].split(",")]
    if command == "seq":
        return terms(coef, init, orders[0])
    return {n: sum_and_max(coef, init, n) for n in orders}


def _argv_spec(argv):
    label = argv[argv.index("--id") + 1]
    if label != "custom":
        return BUILTINS[label]
    fields = dict(part.split("=") for part in argv[argv.index("--spec") + 1].split(";"))
    return (tuple(int(x) for x in fields["coef"].split(",")),
            tuple(int(x) for x in fields["init"].split(",")))


def expectation(job):
    """What the oracle says one job must produce."""
    kind = job[0]
    if kind == "compare":
        return sum_and_max(job[1], job[2], job[3])
    if kind == "builtin":
        return sum_and_max(*BUILTINS[job[1]], job[2])
    return _cli_expectation(job[1])


# -- execution --------------------------------------------------------------


def run_cli(cli, argv):
    """(exit code, stdout bytes) of ``cli.main(argv)`` run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


class InProcess:
    """Runs compare/builtin/verify jobs through circnorm's module attributes.

    Calls go through ``sequences.f``, ``circulant.f``, ``spectral.f`` and
    ``cli.main`` at call time, so the tracer's wrappers on those names see
    every call. A verify job is the program's own ``verify`` command.
    """

    def __init__(self, circnorm):
        self.sequences = circnorm.sequences
        self.circulant = circnorm.circulant
        self.spectral = circnorm.spectral
        self.cli = circnorm.cli
        self.check_cli = CliCheck(circnorm)

    def bind(self, job):
        """Turn plain job data into the arguments handed to the library."""
        if job[0] == "compare":
            spec = self.sequences.RecurrenceSpec(tuple(job[1]), tuple(job[2]))
            return (job[0], spec, job[3], tuple(job[4]))
        return tuple(job)

    def run(self, bound):
        kind = bound[0]
        seq, circ, spec = self.sequences, self.circulant, self.spectral
        if kind == "compare":
            return spec.compare_methods(circ.from_sequence(bound[1], bound[2]), methods=bound[3])
        if kind == "builtin":
            name, n = bound[1], bound[2]
            return spec.compare_methods(circ.from_sequence(name, n)), seq.closed_form_sum(name, n)
        return run_cli(self.cli, bound[1])

    def check(self, job, expected, output):
        kind = job[0]
        if kind == "compare":
            exact, top = expected
            return check_norm(report_doc(output), job[3], job[4], exact, top)
        if kind == "builtin":
            (exact, top), (report, closed) = expected, output
            problems = check_norm(report_doc(report), job[2], ALL_METHODS, exact, top)
            if closed != exact:
                problems.append("closed_form_sum differs from the direct sum")
            return problems
        return self.check_cli(job[1], expected, output)


class Subprocess:
    """Runs each cli job as its own ``python -m circnorm`` process."""

    def __init__(self, circnorm, root):
        self.check_cli = CliCheck(circnorm)
        self.cwd = root
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH="src" + (os.pathsep + path if path else ""))

    def bind(self, job):
        return job[1]

    def run(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "circnorm", *argv],
            cwd=self.cwd,
            env=self.env,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def check(self, job, expected, output):
        return self.check_cli(job[1], expected, output)


class CliCheck:
    """Checks one cli command's (exit code, stdout) against the schema and the oracle."""

    def __init__(self, circnorm):
        import jsonschema

        schema = circnorm.cli.load_output_schema()
        self.validator = jsonschema.validators.validator_for(schema)(schema)

    def __call__(self, argv, expected, output):
        code, stdout = output
        if code != 0:
            return [f"exit code {code}"]
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        errors = [e.message for e in self.validator.iter_errors(doc)]
        if errors:
            return [f"schema: {errors[0]}"]
        return CLI_CHECKS[argv[0]](argv, expected, doc["results"])


def _norm_entry(entry):
    exact = entry["exact_value"]
    return dict(entry, exact_value=None if exact is None else int(exact))


def _check_cli_seq(argv, expected, res):
    problems = []
    if res["terms"] != [str(t) for t in expected]:
        problems.append("terms differ from the oracle")
    if "--sum" in argv:
        total = str(sum(expected))
        builtin = argv[2] != "custom"
        if res["prefix_sum"] != total:
            problems.append("prefix_sum differs from the direct sum")
        if res["closed_form_sum"] != (total if builtin else None):
            problems.append("closed_form_sum wrong")
        if res["closed_form_matches"] is not (True if builtin else None):
            problems.append("closed_form_matches wrong")
    return problems


def _check_cli_norm(argv, expected, res):
    (n, (exact, top)), = expected.items()
    doc = dict(res, methods=[_norm_entry(m) for m in res["methods"]])
    return check_norm(doc, n, ALL_METHODS, exact, top)


def _check_cli_bench(argv, expected, res):
    problems = []
    want = [(n, m) for n in expected for m in ALL_METHODS]
    if [(r["n"], r["method"]) for r in res["rows"]] != want:
        return ["bench rows are not one per order and method"]
    for row in res["rows"]:
        exact, top = expected[row["n"]]
        note = expected_methods(ALL_METHODS, top)[row["method"]]
        ran = note is None
        if row["note"] != note or (row["median_seconds"] is not None) != ran:
            problems.append(f"bench n={row['n']} {row['method']}: guard decision wrong")
        elif row["method"] == "sum":
            if row["exact_value"] != str(exact) or row["agrees"] is not True:
                problems.append(f"bench n={row['n']}: exact sum wrong")
        elif ran and (abs(row["value"] - exact) > 1e-8 * max(exact, 1) or row["agrees"] is not True):
            problems.append(f"bench n={row['n']} {row['method']}: value {row['value']} != {exact}")
    return problems


def _check_cli_verify(argv, expected, res):
    name, n_max = argv[2], int(argv[4])
    sums, maxes, published = expected
    published_ok = sum(p == s for p, s in zip(published, sums))
    summary = res["sequences"][0]
    want = {"sequence": name, "checks": n_max, "closed_form_matches": n_max,
            "published_matches": published_ok, "norm_agreements": n_max}
    problems = [f"summary {k}={summary.get(k)!r} != {v!r}" for k, v in want.items() if summary.get(k) != v]
    if res["ok"] is not True or len(res["sequences"]) != 1:
        problems.append("verify did not report ok for exactly one sequence")
    if [r["n"] for r in res["rows"]] != list(range(1, n_max + 1)):
        return problems + [f"verify rows are not n = 1..{n_max}"]
    # A verify row carries no per-method values, only the cross-check verdict.
    for r, total, top, pub in zip(res["rows"], sums, maxes, published):
        n = r["n"]
        if int(r["direct_sum"]) != total or int(r["closed_form"]) != total or not r["closed_form_matches"]:
            problems.append(f"{name} n={n}: sums differ from the direct sum")
        if int(r["published_value"]) != pub or r["published_matches"] != (pub == total):
            problems.append(f"{name} n={n}: published form value or verdict wrong")
        ran = [m for m, note in expected_methods(ALL_METHODS, top).items() if note is None]
        if r["methods"] != ran or not r["norm_agrees"] or r["max_gap"] > 1e-8:
            problems.append(f"{name} n={n}: norm cross-check row wrong")
    return problems


CLI_CHECKS = {
    "seq": _check_cli_seq,
    "norm": _check_cli_norm,
    "bench": _check_cli_bench,
    "verify": _check_cli_verify,
}
