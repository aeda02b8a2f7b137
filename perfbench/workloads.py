"""The benchmark's workloads and the spans its traced run records.

Each workload is a sequence of units, numbered from 0, whose inputs are a
pure function of the benchmark seed and the unit number. A unit is one
operation: calls into the public ``steercert.harness`` entry points with
``threads=1``, which the runner times one call at a time. Inputs are
prepared and outputs checked outside the timed and traced region. A
harness call counts as failed when its summary reports ok=false.

- ``conj1``: one unit is ``run_conjecture1`` at n=3 and then at n=4, four
  samples each, timed together as one operation. It re-solves the cached
  ensemble program with fresh objectives and builds two joint-measurability
  programs per post-selected sample, so a post-selected sample takes 3 to 6
  times as long as one that is not; an operation of eight samples has a
  smoother time than one of a single sample. The throughput counts
  answers, one SDP optimum each: the witness value of every sample, and
  the two JM visibilities of a post-selected one. A run's samples/s moves
  with its share of post-selected samples; answers/s much less so.
  Samples whose ensemble solve stopped short of Optimal, or whose verdict
  was Inconclusive, are results the call reports, not failed calls; their
  counts go in the run facts.
- ``seesaw``: one unit is ``run_vn_table`` for n=2 at the default restarts
  and bisection width, timed as one operation. Long chains of small Alice
  SDPs against a cached program, plus the Bob step and the bisection. An
  n=3 entry takes 4 to 5 seconds and its time varies by up to a quarter
  between seeds, so a run would hold five of them and its figures would
  follow the seed; an n=4 entry fills a run on its own. A run holds about
  twenty n=2 tables.
- ``certify``: one unit is a cycle of ``run_jm_check`` and
  ``run_steer_check`` calls, one of each per n=2..8, timed together as one
  operation; call times span about 20x between n=2 and n=8, so a median
  over single calls would sit in whichever size happens to be in the
  middle. The measurement sets are drawn as ``sample_random_povm_set``
  draws them (uniform axes, sharpness uniform on [0, 1]) with the bias
  fixed to 1, so they are unbiased; each also steers from a noisy singlet
  whose visibility is uniform on [1/2, 1]. Below 1/2 the noisy singlet has
  a hidden-state model for every projective measurement (Werner's), so
  every steering answer there would be the cap of 1. Every call rebuilds
  its program.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from steercert import certify, harness, linalg, quantum, sdp, witness
from tracer import SpanTarget

OPTIMAL = sdp.STATUS_OPTIMAL
INCONCLUSIVE = "Inconclusive"

# See-saw reference and bound of acceptance criterion 2.
VN_REFERENCE = {2: 0.7071}
VN_TOLERANCE = {2: 5e-4}
# Bound on |computed - expected| for the closed-form checks of certify.
CERTIFY_TOL = 1e-6


def derive_seed(*parts) -> int:
    """64-bit seed for one input, from the benchmark seed and a label."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def strip_wall_time(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "wall_time"}


@dataclass
class Op:
    """One unit's timed operation: the wall time of each harness call in it
    and the raw outputs, in call order."""

    calls: list
    outputs: list

    @property
    def seconds(self) -> float:
        return sum(self.calls)


@dataclass
class Evaluation:
    """Checked outputs of one unit. ``records`` are the harness records with
    wall-time fields removed, so a traced and an untraced run compare equal."""

    records: list = field(default_factory=list)
    # Records the throughput metric counts: answers of conj1 samples,
    # table entries or check calls.
    count: int = 0
    # Harness calls made, and those whose summary reports ok=False.
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # Seconds of single calls inside an operation, by call label, and
    # counts of notable outcomes; both only describe the traffic.
    call_seconds: dict = field(default_factory=dict)
    tallies: dict = field(default_factory=dict)


def _idle() -> None:
    pass


def _run_calls(calls, between) -> Op:
    """Time each harness call ``fn(config)`` on its own, calling
    ``between()`` after each one, outside the timed region."""
    seconds, outputs = [], []
    for fn, config in calls:
        start = time.perf_counter()
        outputs.append(fn(config))
        seconds.append(time.perf_counter() - start)
        between()
    return Op(seconds, outputs)


def _tally(ev: Evaluation, key: str, count: int = 1) -> None:
    ev.tallies[key] = ev.tallies.get(key, 0) + count


def _call(ev: Evaluation, summary) -> None:
    """Count one harness call; it failed when its summary says so."""
    ev.attempted += 1
    ev.failed += int(not summary.ok)


class Conj1:
    name = "conj1"
    ns = (3, 4)

    def __init__(self, workdir: str, seed: int, smoke: bool) -> None:
        self.workdir = workdir
        self.seed = seed
        self.samples = 1 if smoke else 4
        self.trace_units = 4

    def prepare(self, index: int) -> list:
        return [
            harness.ExperimentConfig(
                experiment="conjecture1",
                n=n,
                samples=self.samples,
                seed=derive_seed(self.name, self.seed, index, n),
                threads=1,
                out=os.path.join(self.workdir, f"conj1_n{n}"),
            )
            for n in self.ns
        ]

    def run(self, configs: list, between=_idle) -> Op:
        return _run_calls([(harness.run_conjecture1, c) for c in configs], between)

    def evaluate(self, configs: list, op: Op) -> Evaluation:
        ev = Evaluation()
        for summary, records in op.outputs:
            counts = summary.counts
            ev.records.append(dict(counts))
            for key in ("errors", "incompatible_at_threshold", "compatible_at_probe"):
                if counts[key]:
                    ev.problems.append(
                        f"conj1 n={summary.config['n']} seed={summary.config['seed']}:"
                        f" {key}={counts[key]}"
                    )
            _call(ev, summary)
            n = summary.config["n"]
            for rec in records:
                ev.records.append(strip_wall_time(rec.to_json()))
                # Answers: the witness value, and for a post-selected
                # sample the JM visibilities at the threshold and the probe.
                ev.count += 1 + 2 * int(rec.post_selected)
                _tally(ev, f"n{n}.samples")
                _tally(ev, f"n{n}.post_selected", int(rec.post_selected))
                _tally(ev, f"n{n}.not_optimal", int(rec.solver_status != OPTIMAL))
                _tally(
                    ev,
                    f"n{n}.inconclusive",
                    int(
                        INCONCLUSIVE in (rec.verdict_at_threshold, rec.verdict_at_probe)
                    ),
                )
        return ev


class Seesaw:
    name = "seesaw"
    ns = (2,)

    def __init__(self, workdir: str, seed: int, smoke: bool) -> None:
        self.workdir = workdir
        self.seed = seed
        self.trace_units = 1

    def prepare(self, index: int):
        return harness.ExperimentConfig(
            experiment="vn_table",
            n=self.ns,
            seed=derive_seed(self.name, self.seed, index),
            threads=1,
            out=os.path.join(self.workdir, "vn"),
        )

    def run(self, config, between=_idle) -> Op:
        return _run_calls([(harness.run_vn_table, config)], between)

    def evaluate(self, config, op: Op) -> Evaluation:
        ev = Evaluation()
        summary, entries = op.outputs[0]
        _call(ev, summary)
        by_n = {}
        for entry in entries:
            ev.records.append(strip_wall_time(entry))
            ev.count += 1
            if "estimate" in entry:
                by_n[entry["n"]] = entry["estimate"]
        for n in self.ns:
            if n not in by_n:
                ev.problems.append(f"seesaw seed={config.seed}: no estimate for n={n}")
            elif abs(by_n[n] - VN_REFERENCE[n]) > VN_TOLERANCE[n]:
                ev.problems.append(
                    f"seesaw seed={config.seed}: v_{n}={by_n[n]:.6f} is more than"
                    f" {VN_TOLERANCE[n]:g} from {VN_REFERENCE[n]}"
                )
        return ev


@dataclass
class CheckInput:
    n: int
    visibility: float
    jm_config: object
    steer_config: object
    oracle: float | None


class Certify:
    name = "certify"

    def __init__(self, workdir: str, seed: int, smoke: bool) -> None:
        self.workdir = workdir
        self.seed = seed
        self.ns = range(2, 5) if smoke else range(2, 9)
        self.trace_units = 1 if smoke else 2

    def prepare(self, index: int) -> list:
        """Write one unbiased random measurement set per n, and an assemblage
        file steering it from a noisy singlet of random visibility."""
        inputs = []
        for n in self.ns:
            rng = np.random.default_rng(derive_seed(self.name, self.seed, index, n))
            params, _ = quantum.sample_random_povm_set(rng, n)
            visibility = float(rng.uniform(0.5, 1.0))
            rows = [
                [*axis, eta, 1.0] for axis, eta in zip(params.axes, params.sharpness)
            ]
            stem = os.path.join(self.workdir, f"check_{index}_n{n}")
            with open(stem + ".jm.json", "w", encoding="utf-8") as fh:
                json.dump({"bloch": rows}, fh)
            with open(stem + ".steer.json", "w", encoding="utf-8") as fh:
                json.dump({"alice": {"bloch": rows}, "visibility": visibility}, fh)
            oracle = None
            if n == 2:
                mset = quantum.povm_from_bloch(quantum.BlochPovmParams.from_json(rows))
                oracle = certify.pair_jm_oracle(mset)
            inputs.append(
                CheckInput(
                    n=n,
                    visibility=visibility,
                    jm_config=harness.ExperimentConfig(
                        experiment="jm_check",
                        input_path=stem + ".jm.json",
                        threads=1,
                        out=os.path.join(self.workdir, "jm"),
                    ),
                    steer_config=harness.ExperimentConfig(
                        experiment="steer_check",
                        input_path=stem + ".steer.json",
                        threads=1,
                        out=os.path.join(self.workdir, "steer"),
                    ),
                    oracle=oracle,
                )
            )
        return inputs

    def run(self, inputs: list, between=_idle) -> Op:
        """One operation: the whole cycle, jm then steer for each n."""
        calls = [
            (fn, cfg)
            for item in inputs
            for fn, cfg in (
                (harness.run_jm_check, item.jm_config),
                (harness.run_steer_check, item.steer_config),
            )
        ]
        return _run_calls(calls, between)

    def evaluate(self, inputs: list, op: Op) -> Evaluation:
        ev = Evaluation()
        calls = list(zip(op.calls, op.outputs))
        for k, item in enumerate(inputs):
            reports = []
            pair = calls[2 * k : 2 * k + 2]
            for kind, (seconds, (summary, (record,))) in zip(("jm", "lhs"), pair):
                ev.records.append(strip_wall_time(record))
                ev.count += 1
                _call(ev, summary)
                ev.call_seconds.setdefault(f"{kind}.n{item.n}", []).append(seconds)
                report = record["report"]
                _tally(ev, f"{kind}.calls")
                _tally(
                    ev,
                    f"{kind}.capped_at_1",
                    int(report["critical_visibility"] >= 1.0 - CERTIFY_TOL),
                )
                reports.append(report["critical_visibility"])
            jm_crit, lhs_crit = reports
            label = f"certify {item.jm_config.input_path}"
            if item.oracle is not None and abs(jm_crit - item.oracle) > CERTIFY_TOL:
                ev.problems.append(
                    f"{label}: JM {jm_crit:.9f} vs pair oracle {item.oracle:.9f}"
                )
            expected = min(1.0, jm_crit / item.visibility)
            if abs(lhs_crit - expected) > CERTIFY_TOL:
                ev.problems.append(
                    f"{label}: LHS {lhs_crit:.9f} vs min(1, JM/v) {expected:.9f}"
                )
        return ev


WORKLOADS = {cls.name: cls for cls in (Conj1, Seesaw, Certify)}


# -- spans of the traced run -------------------------------------------------


def _count_solve(tracer, args, kwargs, result) -> None:
    tracer.add("sdp.solve.iterations", result.iterations)
    tracer.add("sdp.solve.not_optimal", int(result.status != OPTIMAL))


def _count_seesaw(tracer, args, kwargs, result) -> None:
    tracer.add("witness.seesaw.restarts", result.restarts_used)
    tracer.add("witness.seesaw.alternation_runs", len(result.iteration_logs))
    tracer.add(
        "witness.seesaw.alternation_steps",
        sum(len(log) for log in result.iteration_logs),
    )
    tracer.add("witness.seesaw.probes", len(result.trace))


def _count_harness(tracer, args, kwargs, result) -> None:
    config, (summary, _) = args[0], result
    tracer.add(
        "harness.out_bytes",
        sum(
            os.path.getsize(config.out + suffix)
            for suffix in (".jsonl", ".summary.json", ".summary.csv")
        ),
    )
    tracer.add("harness.post_selected", summary.counts.get("post_selected", 0))


def span_targets() -> list:
    """Every patch point of the traced run, by span name."""
    return [
        SpanTarget("sdp.solve", sdp.PreparedSdp, "solve_with", _count_solve),
        SpanTarget("sdp.build", sdp.PreparedSdp, "__init__"),
        SpanTarget("sdp.rows", sdp.ProgramBuilder, "add_operator_equation"),
        SpanTarget("sdp.rows", sdp.ProgramBuilder, "add_scalar_row"),
        SpanTarget("sdp.hvec", sdp.__name__, "hvec"),
        SpanTarget("sdp.unhvec", sdp.__name__, "unhvec"),
        SpanTarget("linalg.hermitian", linalg.HermitianOperator, "__init__"),
        SpanTarget("quantum.povm", quantum.Povm, "__init__"),
        SpanTarget("quantum.sample", quantum.__name__, "sample_random_povm_set"),
        SpanTarget("quantum.depolarize", quantum.__name__, "depolarize_measurements"),
        SpanTarget("quantum.assemblage", quantum.__name__, "assemblage_from"),
        SpanTarget(
            "witness.ensemble", witness.__name__, "optimize_ensemble",
            keep_durations=True,
        ),
        SpanTarget(
            "witness.seesaw", witness.__name__, "seesaw_critical_visibility",
            _count_seesaw,
        ),
        SpanTarget("certify.jm", certify.__name__, "jm_critical_visibility"),
        SpanTarget("certify.lhs", certify.__name__, "lhs_critical_visibility"),
    ] + [
        SpanTarget("harness", harness.__name__, name, _count_harness)
        for name in ("run_conjecture1", "run_vn_table", "run_jm_check", "run_steer_check")
    ]
