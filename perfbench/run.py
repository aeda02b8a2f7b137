"""steercert benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {conj1,seesaw,certify} --seed N \\
        --seconds S --trace {0,1} [--smoke]

The runner imports the package from ``src/`` of the checkout it sits in and
drives one workload in-process through ``steercert.harness`` (see
``workloads.py``). It prints a line of run facts (machine, host load,
host-clock readings, uncorrected times, checks) and then, as the last line
of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``attempted`` counts harness
calls and ``failed`` those whose summary reports ok=false. A run whose
outputs fail a check reports no metrics and exits with code 1.

With ``--trace 0`` the workload runs untraced for about ``--seconds``
seconds, starting no unit that its median unit time says would overrun, and
the end-to-end metrics are reported. Each harness call's time is divided
by the host factor that a fixed numpy kernel, timed before and after the
call, measures (see ``HostClock``); the uncorrected figures go in the run
facts. With
``--trace 1`` a fixed, seed-determined set of units runs in rounds: once
untraced, then once under the span tracer. Records of the two passes must
match once wall-time fields are stripped, and the exact counts must match
across rounds. Per-layer times are medians over rounds, uncorrected.

Seed ``DEFAULT_SEED`` is the one to tune a change against; validate a
claimed gain on ``VALIDATION_SEED`` as well, which the change was not tuned
on. ``--smoke`` shrinks every workload so that a run takes seconds; the
benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread unless the caller sets otherwise: the solver's dense
# algebra is small, and on a shared host a second BLAS thread mostly spins
# and adds noise. Set before anything imports numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

from tracer import SpanStats, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
VALIDATION_SEED = 2

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 9
SETUP_CODE = (
    "import time; t = time.perf_counter(); import steercert.cli; "
    "print(time.perf_counter() - t)"
)


def import_steercert():
    """Import the package from this checkout, never from anywhere else."""
    if not (SRC / "steercert" / "__init__.py").is_file():
        raise SystemExit(f"error: no steercert package under {SRC}")
    sys.path.insert(0, str(SRC))
    import steercert

    if Path(steercert.__file__).resolve().parent != SRC / "steercert":
        raise SystemExit(f"error: imported steercert from {steercert.__file__}")
    return steercert


# -- run facts ---------------------------------------------------------------


class HostClock:
    """Times a fixed kernel to gauge how fast the host runs at a given
    moment.

    On a shared host the same code can run at very different speeds from
    one minute to the next (on a 2-core VM, up to 1.8x for periods of 10 to
    90 seconds). Timing this kernel between harness calls and dividing each
    call's time by the kernel's, relative to ``REFERENCE_S``, removes most
    of that drift: the result is the call's time on a host where one kernel
    pass takes ``REFERENCE_S``. The kernel has two halves, because the host
    slows in two ways that steercert feels: small batched numpy calls, the
    kind the solver makes, and a dependent walk through a shuffled list of
    Python ints several MB in size, which feels contention for the caches
    that steercert's Python objects live in. It never calls steercert, so a
    change to steercert cannot move it.
    """

    REFERENCE_S = 0.008
    NUMPY_CALLS = 25
    WALK_STEPS = 10_000
    WALK_SIZE = 1 << 18

    def __init__(self) -> None:
        import random

        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
        self._a = a + a.conj().transpose(0, 2, 1)
        self._shift = 4.0 * np.eye(2)
        self._np = np
        # One cycle through every entry, so the walk never falls into a
        # short loop that stays in cache.
        order = list(range(self.WALK_SIZE))
        random.Random(0).shuffle(order)
        self._next = [0] * self.WALK_SIZE
        for here, there in zip(order, order[1:] + order[:1]):
            self._next[here] = there

    def kernel_s(self) -> float:
        """Wall time of one kernel pass."""
        np, a, shift, nxt = self._np, self._a, self._shift, self._next
        start = time.perf_counter()
        for _ in range(self.NUMPY_CALLS):
            np.linalg.eigvalsh(a)
            np.linalg.cholesky(a @ a + shift)
        j = 0
        for _ in range(self.WALK_STEPS):
            j = nxt[j]
        return time.perf_counter() - start

    def factor(self, before: float, after: float) -> float:
        """Host slowness over an interval, from the kernel passes that
        bracket it; 1 at the reference speed."""
        return 0.5 * (before + after) / self.REFERENCE_S


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        commit = proc.stdout.strip() or None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {key: os.environ.get(key) for key in BLAS_THREAD_VARS},
        "commit": commit,
        "loadavg_at_start": list(os.getloadavg()),
        "host_kernel_ms_at_start": 1000.0 * HostClock().kernel_s(),
    }


def setup_seconds() -> list:
    """Wall time to import steercert.cli, each in a fresh interpreter. Not
    host-corrected: the host-clock kernel reads several times slower just
    after a child interpreter exits, so it would add noise, not remove it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# -- measurement loops -------------------------------------------------------


def quantile(values, q: int) -> float:
    """q-th decile, interpolated between observed values (the inclusive
    method), so it never lies outside them; a single value is its own
    quantile, and no values give 0."""
    if len(values) <= 1:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def should_stop(start: float, unit_times: list, seconds: float) -> bool:
    return time.perf_counter() - start + statistics.median(unit_times) > seconds


def measure(workload, seconds: float) -> dict:
    """Untraced units until the time is used up, with a host-clock kernel
    pass before the first harness call and after each one; end-to-end
    metrics from host-corrected times."""
    clock = HostClock()
    kernel = [clock.kernel_s()]

    def between():
        kernel.append(clock.kernel_s())

    start = time.perf_counter()
    op_seconds, corrected, factors, evaluations = [], [], [], []
    index = 0
    while True:
        inputs = workload.prepare(index)
        op = workload.run(inputs, between)
        # Call j of the run lies between kernel passes j and j + 1.
        first = len(kernel) - 1 - len(op.calls)
        op_factors = [
            clock.factor(kernel[first + j], kernel[first + j + 1])
            for j in range(len(op.calls))
        ]
        factors += op_factors
        corrected.append(sum(t / f for t, f in zip(op.calls, op_factors)))
        op_seconds.append(op.seconds)
        evaluations.append(workload.evaluate(inputs, op))
        index += 1
        if should_stop(start, op_seconds, seconds):
            break
    records = sum(ev.count for ev in evaluations)
    metrics = {"records_per_s": (records / sum(corrected), "1/s")}
    call_seconds, tallies = {}, {}
    for ev in evaluations:
        for label, times in ev.call_seconds.items():
            call_seconds.setdefault(label, []).extend(times)
        for label, count in ev.tallies.items():
            tallies[label] = tallies.get(label, 0) + count
    facts = {
        "units": index,
        "records": records,
        "host_factor": {
            "min": min(factors),
            "p50": statistics.median(factors),
            "max": max(factors),
        },
        "uncorrected_records_per_s": records / sum(op_seconds),
        "tallies": tallies,
    }
    if call_seconds:
        facts["call_ms.p50"] = {
            label: 1000.0 * statistics.median(times)
            for label, times in sorted(call_seconds.items())
        }
    return {
        "metrics": metrics,
        "evaluations": evaluations,
        "problems": [],
        "facts": facts,
    }


def _layer_metrics(tracer, traced_s: float, plain_s: float) -> dict:
    def span(name):
        return tracer.spans.get(name, SpanStats())

    def total(key):
        return sum(tracer.counts.get(key, []))

    iters = tracer.counts.get("sdp.solve.iterations", [])
    ensemble_ms = [1000.0 * d for d in span("witness.ensemble").durations]
    solve, seesaw = span("sdp.solve"), span("witness.seesaw")
    out = {
        "sdp.solve.calls": (solve.calls, "count"),
        "sdp.solve.s": (solve.total_s, "s"),
        "sdp.solve.iterations": (sum(iters), "count"),
        "sdp.solve.iter.p50": (quantile(iters, 5), "count"),
        "sdp.solve.iter.p90": (quantile(iters, 9), "count"),
        "sdp.solve.iter.max": (max(iters, default=0), "count"),
        "sdp.solve.ms_per_iter": (
            1000.0 * solve.total_s / sum(iters) if iters else 0.0,
            "ms",
        ),
        "sdp.solve.not_optimal": (total("sdp.solve.not_optimal"), "count"),
        "linalg.hermitian.constructed": (span("linalg.hermitian").calls, "count"),
        "linalg.hermitian.s": (span("linalg.hermitian").total_s, "s"),
        "quantum.povm.constructed": (span("quantum.povm").calls, "count"),
        "quantum.povm.s": (span("quantum.povm").total_s, "s"),
        "witness.ensemble.ms.p50": (quantile(ensemble_ms, 5), "ms"),
        "witness.ensemble.ms.p90": (quantile(ensemble_ms, 9), "ms"),
        "witness.seesaw.s": (seesaw.total_s, "s"),
        "witness.seesaw.self_s": (seesaw.self_s, "s"),
        "harness.run_s": (span("harness").total_s, "s"),
        "harness.self_s": (span("harness").self_s, "s"),
        "harness.out_bytes": (total("harness.out_bytes"), "B"),
        "harness.post_selected": (total("harness.post_selected"), "count"),
        "trace.overhead_share": (traced_s / plain_s - 1.0, "ratio"),
    }
    for name in ("sdp.hvec", "sdp.unhvec", "sdp.rows", "sdp.build"):
        out[f"{name}.calls"] = (span(name).calls, "count")
        out[f"{name}.s"] = (span(name).total_s, "s")
    for name in ("quantum.sample", "quantum.depolarize", "quantum.assemblage"):
        out[f"{name}.s"] = (span(name).total_s, "s")
    for name in ("witness.ensemble", "certify.jm", "certify.lhs"):
        out[f"{name}.calls"] = (span(name).calls, "count")
        out[f"{name}.s"] = (span(name).total_s, "s")
        out[f"{name}.self_s"] = (span(name).self_s, "s")
    for name in ("restarts", "alternation_runs", "alternation_steps", "probes"):
        out[f"witness.seesaw.{name}"] = (total(f"witness.seesaw.{name}"), "count")
    return out


def measure_traced(workload, seconds: float) -> dict:
    """Rounds of one untraced and one traced pass over a fixed set of units
    until the time is used up; per-layer metrics."""
    from workloads import span_targets

    inputs = [workload.prepare(i) for i in range(workload.trace_units)]
    start = time.perf_counter()
    rounds, round_times, evaluations, problems = [], [], [], []
    while True:
        round_start = time.perf_counter()
        plain = [workload.run(x) for x in inputs]
        plain_s = time.perf_counter() - round_start
        tracer = Tracer(span_targets())
        with tracer:
            traced_start = time.perf_counter()
            traced = [workload.run(x) for x in inputs]
            traced_s = time.perf_counter() - traced_start
        round_times.append(time.perf_counter() - round_start)
        plain_ev = [workload.evaluate(x, op) for x, op in zip(inputs, plain)]
        traced_ev = [workload.evaluate(x, op) for x, op in zip(inputs, traced)]
        evaluations += plain_ev + traced_ev
        if [ev.records for ev in plain_ev] != [ev.records for ev in traced_ev]:
            problems.append(f"round {len(rounds)}: traced records differ from untraced")
        rounds.append(_layer_metrics(tracer, traced_s, plain_s))
        if should_stop(start, round_times, seconds):
            break
    metrics = {}
    for name, (value, unit) in rounds[0].items():
        values = [r[name][0] for r in rounds]
        if unit == "count":
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between rounds: {values}")
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    return {
        "metrics": metrics,
        "evaluations": evaluations,
        "problems": problems,
        "facts": {"rounds": len(rounds), "units": len(inputs)},
    }


# -- entry point -------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="steercert benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's tests"
    )
    return parser.parse_args(argv)


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run one workload; returns (run facts, result object)."""
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}"
        )
    facts = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "machine": machine_facts(),
    }
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = WORKLOADS[workload_name](workdir, seed, smoke)
        if trace:
            outcome = measure_traced(workload, seconds)
        else:
            outcome = measure(workload, seconds)
    metrics = outcome["metrics"]
    if not trace:
        setup = setup_seconds()
        facts["setup_s"] = setup
        metrics["setup_s"] = (statistics.median(setup), "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["rss_peak_mb"] = (peak_kb / 1024.0, "MB")
    evaluations = outcome["evaluations"]
    problems = outcome["problems"] + [
        p for ev in evaluations for p in ev.problems
    ]
    facts.update(outcome["facts"])
    facts["problems"] = problems
    correct = not problems
    result = {
        "correct": correct,
        "attempted": sum(ev.attempted for ev in evaluations),
        "failed": sum(ev.failed for ev in evaluations),
        "metrics": (
            {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in sorted(metrics.items())
            }
            if correct
            else {}
        ),
    }
    return facts, result


def main(argv=None) -> int:
    args = parse_args(argv)
    import_steercert()
    facts, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
