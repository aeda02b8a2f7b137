"""Reproducible experiment runs: sampling conjecture scans, critical
visibility tables, classical-bound cross-checks and one-shot certifications.

Every run is driven by an ExperimentConfig. Sampling runs expand the master
seed into one 64-bit seed per sample with a splitmix64 step, so each sample
is an independent pure function of its seed; records come back in sample
order no matter how many worker processes execute them, and rerunning any
configuration reproduces the records exactly (wall-time fields aside). The
conjecture scan hands its samples to workers in fixed chunks of consecutive
indices (conj1_chunk) and solves each chunk's ensemble programs in one
batched IPM run and the JM programs of its post-selected samples in
another; a batched instance is bit for bit its solve alone.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .certify import (
    check_jm_input,
    check_lhs_input,
    jm_critical_visibility,
    lhs_critical_visibility,
)
from .linalg import HermitianOperator
from .quantum import (
    Assemblage,
    BlochPovmParams,
    MeasurementSet,
    Povm,
    assemblage_from,
    check_binary_qubit,
    depolarize_measurements,
    noisy_singlet,
    povm_from_bloch,
    sample_random_povm_set,
)
from .sdp import STATUS_OPTIMAL
from .tolerances import DEFAULT_FEAS_TOL, DEFAULT_GAP_TOL
from .witness import (
    Scenario,
    check_ensemble_input,
    noncontextual_bound,
    noncontextual_bound_oracle,
    optimize_ensemble,
    seesaw_critical_visibility,
    threshold_visibility,
)

MASK64 = (1 << 64) - 1
POST_SELECT_MARGIN = 1e-7
PROBE_STEP = 1e-3
# Witness value of any ensemble against all-trivial measurements: every
# winning probability is 1/2 and the ensemble's equalities fix its total
# weight, so the value is exactly 1/2.
TRIVIAL_BASELINE = 0.5
# The files a run with an output prefix writes, by suffix.
_OUT_SUFFIXES = (".jsonl", ".summary.json", ".summary.csv")
# The experiments that answer about one input file, which sets their n.
ONE_SHOT_EXPERIMENTS = ("jm_check", "steer_check", "witness_opt")


class ConfigError(ValueError):
    """Raised for configurations the harness refuses to run."""


def _converted(kind, name: str, value):
    """value as an int or a float, or a ConfigError naming the field.
    Booleans are refused, and an int field takes a float only when it is
    integral: int() would truncate 2.7 to 2."""
    what = "an integer" if kind is int else "a number"
    error = ConfigError(f"{name} must be {what}, got {value!r}")
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise error
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise error from None


def sample_seed(master_seed: int, index: int) -> int:
    """Expand a master seed into the per-sample seed for one index.

    One splitmix64 scramble of master + (index + 1) * golden gamma; the
    scramble decorrelates neighboring indices so per-sample generators do
    not overlap even for adjacent seeds.
    """
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def _check_out_prefix(out) -> None:
    """Raise ConfigError unless the outputs under prefix ``out`` can be
    written, without creating anything: the nearest existing ancestor of
    their directory must be a directory, and no output path a directory."""
    if not isinstance(out, str):
        raise ConfigError(f"out must be a path prefix, got {out!r}")
    directory = os.path.dirname(os.path.abspath(out))
    while not os.path.exists(directory):
        directory = os.path.dirname(directory)
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write under {out!r}: {directory} is not a directory")
    for suffix in _OUT_SUFFIXES:
        if os.path.isdir(out + suffix):
            raise ConfigError(f"cannot write {out + suffix}: it is a directory")


@dataclass
class ExperimentConfig:
    experiment: str
    n: object = None
    samples: int = 200
    seed: int = 0
    restarts: int | None = None
    threads: int = 1
    gap_tol: float = DEFAULT_GAP_TOL
    feas_tol: float = DEFAULT_FEAS_TOL
    out: str | None = None
    full: bool = False
    input_path: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in _RUNNERS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        self.samples = _converted(int, "samples", self.samples)
        self.seed = _converted(int, "seed", self.seed) & MASK64
        self.threads = _converted(int, "threads", self.threads)
        if self.samples < 0:
            raise ConfigError("samples must be nonnegative")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        for name in ("gap_tol", "feas_tol"):
            value = _converted(float, name, getattr(self, name))
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
            setattr(self, name, value)
        if self.restarts is not None:
            self.restarts = _converted(int, "restarts", self.restarts)
            if self.restarts < 1:
                raise ConfigError("restarts must be at least 1")
        # Any string is truthy, so {"full": "no"} would run the slow table.
        if not isinstance(self.full, bool):
            raise ConfigError(f"full must be true or false, got {self.full!r}")
        self.n = self._normalize_n()
        if self.experiment in ONE_SHOT_EXPERIMENTS:
            if not self.input_path:
                raise ConfigError(f"{self.experiment} needs an input file")
        if self.out:
            _check_out_prefix(self.out)

    def _n_list(self, default) -> tuple:
        """The setting counts of a table run, sorted and without repeats."""
        ns = self.n
        if ns is None:
            ns = default
        elif not isinstance(ns, (list, tuple)):
            ns = (ns,)
        if not ns:
            raise ConfigError("n must list at least one setting count")
        return tuple(sorted(set(_converted(int, "n", k) for k in ns)))

    def _normalize_n(self):
        if self.experiment == "vn_table":
            ns = self._n_list((2, 3, 4, 5, 6, 7) if self.full else (2, 3, 4, 5))
            for k in ns:
                if not 2 <= k <= 7:
                    raise ConfigError("table entries need 2 <= n <= 7")
            return ns
        if self.experiment == "nc_bound":
            ns = self._n_list((2, 3, 4))
            for k in ns:
                if not 2 <= k <= 4:
                    raise ConfigError(
                        "the classical-bound cross-check is exponential in n"
                        " and supports only 2 <= n <= 4"
                    )
            return ns
        if self.experiment == "conjecture1":
            k = 3 if self.n is None else _converted(int, "n", self.n)
            if not 2 <= k <= 7:
                raise ConfigError("supported range is 2 <= n <= 7")
            return k
        return None

    def to_json(self) -> dict:
        data = asdict(self)
        if isinstance(data["n"], tuple):
            data["n"] = list(data["n"])
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class SampleRecord:
    """One sampled measurement set and what became of it. Certification
    fields stay unset unless the sample cleared the classical bound;
    jm_margin also stays unset when jm_crit_at_probe reaches the cap of 1."""

    sample_index: int
    seed: int
    n: int
    post_selected: bool
    wall_time: float
    bloch: list | None = None
    witness_value: float | None = None
    witness_dual: float | None = None
    solver_status: str | None = None
    solver_gap: float | None = None
    baseline: float | None = None
    threshold_v: float | None = None
    probe_v: float | None = None
    verdict_at_threshold: str | None = None
    verdict_at_probe: str | None = None
    jm_crit_at_threshold: float | None = None
    jm_crit_at_probe: float | None = None
    jm_gap_at_threshold: float | None = None
    jm_gap_at_probe: float | None = None
    jm_margin: float | None = None
    error: str | None = None

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_json(cls, data: dict) -> "SampleRecord":
        return cls(**data)


@dataclass
class RunSummary:
    experiment: str
    config: dict
    counts: dict
    estimates: list
    total_runtime: float
    ok: bool
    notes: list = field(default_factory=list)
    # Per record field, the count of its values and their min, p50 and max.
    distributions: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "RunSummary":
        return cls(**data)


# -- sample workers (top level so process pools can import them) ------------


def _error_record(index: int, seed: int, n: int, exc: Exception) -> SampleRecord:
    return SampleRecord(
        sample_index=index,
        seed=seed,
        n=n,
        post_selected=False,
        wall_time=0.0,
        error=f"{type(exc).__name__}: {exc}",
    )


def _threshold(res, n: int) -> float | None:
    """The visibility threshold of a post-selected ensemble result (Optimal,
    and above the classical bound by POST_SELECT_MARGIN); None for any
    other. The dual value upper-bounds the true optimum, so the derived
    visibility under-shoots the exact threshold and the verdict at it is
    robust to solver error."""
    bound = noncontextual_bound(n)
    if res.status == STATUS_OPTIMAL and res.value > bound + POST_SELECT_MARGIN:
        return threshold_visibility(res.dual_value, TRIVIAL_BASELINE, n)
    return None


def _sample_record(index, seed, n, params, res) -> SampleRecord:
    """The record of one sample from its ensemble result. A post-selected
    sample also gets its threshold and probe visibilities here, and its JM
    fields from _add_jm."""
    v = _threshold(res, n)
    return SampleRecord(
        sample_index=index,
        seed=seed,
        n=n,
        post_selected=v is not None,
        wall_time=0.0,
        bloch=params.to_json(),
        witness_value=res.value,
        witness_dual=res.dual_value,
        solver_status=res.status,
        solver_gap=res.gap,
        baseline=TRIVIAL_BASELINE,
        threshold_v=v,
        probe_v=None if v is None else min(1.0, v + PROBE_STEP),
    )


def _add_jm(record: SampleRecord, rep_p, gap_tol: float) -> None:
    """Fill the JM fields of a post-selected record from the report of its
    set at the probe. That one solve answers both visibilities: the set at
    the threshold v is the probe's set depolarized by v / probe, and the
    capped critical visibility transports. Below the cap, the set's
    critical visibility v* = crit_at_probe * probe is known, and jm_margin
    is v* / v - 1."""
    v, probe = record.threshold_v, record.probe_v
    rep_v = rep_p.depolarized(v / probe, gap_tol)
    record.verdict_at_threshold = rep_v.verdict
    record.verdict_at_probe = rep_p.verdict
    record.jm_crit_at_threshold = rep_v.critical_visibility
    record.jm_crit_at_probe = rep_p.critical_visibility
    record.jm_gap_at_threshold = rep_v.solver_gap
    record.jm_gap_at_probe = rep_p.solver_gap
    if rep_p.critical_visibility < 1.0:
        record.jm_margin = rep_p.critical_visibility * probe / v - 1.0


def _batched(solve, check, items: list) -> list:
    """solve(items) in one batch over every item that check accepts, and
    for an item whose check raises that exception: one result or exception
    per item, in item order. check makes every check the solve would make,
    so that a refused item costs the others nothing. Should the batch still
    raise (no checked input is known to), each accepted item is solved
    alone: an exception then stays with its item, and the others get the
    results they get in the batch (an instance is bit for bit its solve
    alone)."""
    results: list = [None] * len(items)
    accepted = []
    for i, item in enumerate(items):
        try:
            check(item)
            accepted.append(i)
        except Exception as exc:
            results[i] = exc
    try:
        solved = solve([items[i] for i in accepted]) if accepted else []
    except Exception:
        solved = []
        for i in accepted:
            try:
                solved.extend(solve([items[i]]))
            except Exception as exc:
                solved.append(exc)
    for i, res in zip(accepted, solved):
        results[i] = res
    return results


def conj1_chunk(n: int) -> int:
    """conj1 samples per chunk at n settings; a chunk makes one batched
    ensemble solve and one batched JM solve. Chunks are runs of consecutive
    sample indices whatever the worker count, so records do not depend on
    --threads; each sample's solve is bit for bit its solve alone. A batch
    holds per-instance scaled rows and QR factors, so from n = 5 on a chunk
    of 16 costs a worker twice the memory of a chunk of 4 (ru_maxrss 298
    against 143 MB at n = 7) and runs no faster."""
    return 16 if n <= 4 else 4


def _conjecture1_chunk(args) -> list:
    """The records of one chunk of samples, given as (index, seed) pairs.

    Each sample draws its set alone. The sets drawn share one batched
    ensemble solve (optimize_ensemble over a list), and the post-selected
    samples' probe sets then share one batched JM solve
    (jm_critical_visibility over a list). Each stage first checks every
    input: a sample whose draw, check, threshold or probe raises gets an
    error record and leaves the chunk, and the others keep their records;
    so does a sample whose own solve raises. Every record's wall_time is an
    equal share of the chunk's ensemble stage (draws, batch and records),
    and a post-selected record's also an equal share of its JM stage."""
    samples, n, gap_tol, feas_tol = args
    scenario = Scenario(n)
    start = time.perf_counter()
    records: list = [None] * len(samples)
    drawn: list = []  # (position in the chunk, Bloch parameters, set)
    for pos, (index, seed) in enumerate(samples):
        try:
            params, mset = sample_random_povm_set(np.random.default_rng(seed), n)
            drawn.append((pos, params, mset))
        except Exception as exc:
            records[pos] = _error_record(index, seed, n, exc)
    results = _batched(
        lambda sets: optimize_ensemble(
            scenario, sets, gap_tol=gap_tol, feas_tol=feas_tol
        ),
        lambda mset: check_ensemble_input(scenario, mset),
        [mset for _, _, mset in drawn],
    )
    post: list = []  # (position in the chunk, probe set)
    for (pos, params, mset), res in zip(drawn, results):
        index, seed = samples[pos]
        try:
            if isinstance(res, Exception):
                raise res
            records[pos] = record = _sample_record(index, seed, n, params, res)
            if record.post_selected:
                post.append((pos, depolarize_measurements(mset, record.probe_v)))
        except Exception as exc:
            records[pos] = _error_record(index, seed, n, exc)
    ensemble_share = (time.perf_counter() - start) / max(1, len(samples))

    start = time.perf_counter()
    reports = _batched(
        lambda sets: jm_critical_visibility(sets, gap_tol, feas_tol),
        check_jm_input,
        [probe_set for _, probe_set in post],
    )
    for (pos, _), rep in zip(post, reports):
        try:
            if isinstance(rep, Exception):
                raise rep
            _add_jm(records[pos], rep, gap_tol)
        except Exception as exc:
            records[pos] = _error_record(*samples[pos], n, exc)
    jm_share = (time.perf_counter() - start) / max(1, len(post))
    for record in records:
        record.wall_time = ensemble_share + (jm_share if record.post_selected else 0.0)
    return records


def _vn_entry(args) -> dict:
    n, seed, restarts, gap_tol, feas_tol = args
    start = time.perf_counter()
    entry: dict = {"n": n, "seed": seed}
    try:
        res = seesaw_critical_visibility(
            n,
            restarts=restarts,
            rng=np.random.default_rng(seed),
            gap_tol=gap_tol,
            feas_tol=feas_tol,
        )
        entry.update(
            estimate=res.v_threshold,
            value_at_threshold=res.value_at_threshold,
            restarts_used=res.restarts_used,
        )
    except Exception as exc:
        entry["error"] = f"{type(exc).__name__}: {exc}"
    entry["wall_time"] = time.perf_counter() - start
    return entry


def _nc_entry(args) -> dict:
    (n,) = args
    start = time.perf_counter()
    lp_value = noncontextual_bound_oracle(n)
    closed = noncontextual_bound(n)
    return {
        "n": n,
        "lp_value": lp_value,
        "closed_form": closed,
        "difference": lp_value - closed,
        "wall_time": time.perf_counter() - start,
    }


def _run_tasks(worker, tasks, threads: int) -> list:
    tasks = list(tasks)
    if threads <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    # The pool starts all its workers at once, so start no idle ones.
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        return list(pool.map(worker, tasks))


# -- run entry points -------------------------------------------------------


def run_conjecture1(config: ExperimentConfig):
    """Sample random measurement sets, locate witness violations, and
    certify joint measurability at the derived visibility and just above.

    Samples go in chunks of conj1_chunk(n) consecutive indices, and worker
    processes take whole chunks. A chunk's ensemble programs are solved in
    one batched optimize_ensemble call, and the JM programs of its
    post-selected samples in one batched jm_critical_visibility call, each
    bit for bit as it would be alone, so records do not depend on the chunk
    size or --threads. One JM solve per post-selected sample, at the probe,
    gives both verdicts; the one at the threshold is carried down by
    CertificationReport.depolarized. ``counts["ensemble_not_optimal"]``
    counts the samples whose ensemble solve ended short of Optimal, and
    ``distributions["jm_margin"]`` summarizes the records' jm_margin, how
    far the JM critical visibility v* lies from the threshold v.

    Per-sample errors are recorded on the sample and never abort the run.
    """
    start = time.perf_counter()
    n = config.n
    seeds = [(i, sample_seed(config.seed, i)) for i in range(config.samples)]
    chunk = conj1_chunk(n)
    tasks = [
        (seeds[i : i + chunk], n, config.gap_tol, config.feas_tol)
        for i in range(0, len(seeds), chunk)
    ]
    records = [
        rec for chunk in _run_tasks(_conjecture1_chunk, tasks, config.threads)
        for rec in chunk
    ]
    counts = {
        "sampled": len(records),
        "ensemble_not_optimal": 0,
        "post_selected": 0,
        "compatible_at_threshold": 0,
        "incompatible_at_threshold": 0,
        "inconclusive_at_threshold": 0,
        "compatible_at_probe": 0,
        "incompatible_at_probe": 0,
        "inconclusive_at_probe": 0,
        "errors": 0,
    }
    for rec in records:
        if rec.error is not None:
            counts["errors"] += 1
        elif rec.solver_status != STATUS_OPTIMAL:
            counts["ensemble_not_optimal"] += 1
        if not rec.post_selected:
            continue
        counts["post_selected"] += 1
        for at in ("threshold", "probe"):
            verdict = getattr(rec, f"verdict_at_{at}")
            if verdict not in ("Compatible", "Incompatible"):
                verdict = "Inconclusive"
            counts[f"{verdict.lower()}_at_{at}"] += 1
    rows = [r.to_json() for r in records]
    ok = counts["errors"] == 0
    margins = [r.jm_margin for r in records if r.jm_margin is not None]
    spread = {"jm_margin": _distribution(margins)}
    return _finish(config, start, rows, counts, [], ok, [], spread), records


def run_vn_table(config: ExperimentConfig):
    """Estimate the critical visibility of the game per n via the see-saw.
    Entries run independently; a failed entry is recorded, not raised."""
    start = time.perf_counter()
    tasks = [
        (
            n,
            sample_seed(config.seed, n),
            config.restarts,
            config.gap_tol,
            config.feas_tol,
        )
        for n in config.n
    ]
    records = _run_tasks(_vn_entry, tasks, config.threads)
    estimates = [
        {"n": rec["n"], "estimate": rec["estimate"]}
        for rec in records
        if "estimate" in rec
    ]
    failed = sum(1 for rec in records if "error" in rec)
    counts = {"entries": len(records), "failed": failed}
    return _finish(config, start, records, counts, estimates, failed == 0, []), records


def run_nc_bound(config: ExperimentConfig):
    """Cross-check the closed-form classical bound against the from-scratch
    linear program for every requested n."""
    start = time.perf_counter()
    records = _run_tasks(_nc_entry, [(n,) for n in config.n], config.threads)
    worst = max(abs(rec["difference"]) for rec in records)
    estimates = [
        {
            "n": rec["n"],
            "estimate": rec["lp_value"],
            "bracket_lo": rec["closed_form"],
            "bracket_hi": rec["closed_form"],
        }
        for rec in records
    ]
    counts = {"entries": len(records)}
    ok = worst <= 1e-9
    notes = [f"largest deviation from closed form: {worst:.3e}"]
    return _finish(config, start, records, counts, estimates, ok, notes), records


def _measurements_from_json(data) -> MeasurementSet:
    """A measurement set from Bloch rows under "bloch" or explicit effect
    matrices under "effects"."""
    if "bloch" in data:
        return povm_from_bloch(BlochPovmParams.from_json(data["bloch"]))
    if "effects" in data:
        return MeasurementSet(
            [
                Povm([HermitianOperator.from_json(e) for e in setting])
                for setting in data["effects"]
            ]
        )
    raise ConfigError('measurement JSON needs a "bloch" or "effects" key')


def load_measurement_set(path: str) -> MeasurementSet:
    """Read a measurement set from JSON: either Bloch rows under "bloch" or
    explicit effect matrices under "effects". An optional "visibility" key
    depolarizes the set after loading."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    mset = _measurements_from_json(data)
    if "visibility" in data:
        mset = depolarize_measurements(mset, float(data["visibility"]))
    return mset


def load_assemblage(path: str) -> Assemblage:
    """Read an assemblage from JSON: either explicit entries (grouped per
    setting) under "assemblage", or a bipartite "state" (matrix, or a
    noisy-singlet "visibility") plus the steering party's measurements,
    in either form of load_measurement_set, under "alice"."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if "assemblage" in data:
        per_setting = [
            [HermitianOperator.from_json(op) for op in row] for row in data["assemblage"]
        ]
        if not per_setting:
            raise ValueError("assemblage needs at least one setting")
        n_outcomes = len(per_setting[0])
        if any(len(row) != n_outcomes for row in per_setting):
            raise ValueError("every setting needs the same number of outcomes")
        entries = [
            [per_setting[x][a] for x in range(len(per_setting))]
            for a in range(n_outcomes)
        ]
        return Assemblage(entries)
    if "alice" in data:
        if "state" in data:
            state = HermitianOperator.from_json(data["state"])
        elif "visibility" in data:
            state = noisy_singlet(float(data["visibility"]))
        else:
            raise ConfigError(
                'assemblage JSON needs a "state" or "visibility" key'
            )
        return assemblage_from(state, _measurements_from_json(data["alice"]))
    raise ConfigError('assemblage JSON needs an "assemblage" or "alice" key')


def _run_check(config, what: str, load, check, answer):
    """The summary and one record of a one-shot experiment. The input file
    is loaded and checked inside the ConfigError wrapping, so input that
    ``check`` refuses exits 2; answer(target, gap_tol, feas_tol) gives the
    record's fields, the estimate, whether the answer is inconclusive and
    the notes."""
    start = time.perf_counter()
    try:
        target = load(config.input_path)
        check(target)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load {what}: {exc}") from exc
    fields, estimate, inconclusive, notes = answer(
        target, config.gap_tol, config.feas_tol
    )
    record = {
        "input": config.input_path,
        **fields,
        "wall_time": time.perf_counter() - start,
    }
    counts = {"inconclusive": int(inconclusive)}
    ok = not inconclusive
    return _finish(config, start, [record], counts, [estimate], ok, notes), [record]


def _certified(report, n: int):
    """The answer of a certificate check with report ``report`` on an input
    of n settings: its critical visibility, bracketed by the solver gap."""
    crit, gap = report.critical_visibility, report.solver_gap
    estimate = {
        "n": n, "estimate": crit, "bracket_lo": crit - gap, "bracket_hi": crit + gap
    }
    fields = {"settings": n, "report": report.to_json()}
    inconclusive = report.verdict == "Inconclusive"
    return fields, estimate, inconclusive, [f"verdict: {report.verdict}"]


def run_jm_check(config: ExperimentConfig):
    """Certify joint measurability of a measurement set read from a file."""
    return _run_check(
        config, "measurement set", load_measurement_set, check_jm_input,
        lambda mset, *tols: _certified(jm_critical_visibility(mset, *tols), mset.n),
    )


def run_steer_check(config: ExperimentConfig):
    """Certify a local hidden-state model for an assemblage from a file."""
    return _run_check(
        config, "assemblage", load_assemblage, check_lhs_input,
        lambda assemblage, *tols: _certified(
            lhs_critical_visibility(assemblage, *tols), assemblage.n_settings
        ),
    )


def _check_witness_input(mset: MeasurementSet) -> None:
    """Raise ValueError unless witness-opt supports ``mset``."""
    check_binary_qubit(mset)
    if not 2 <= mset.n <= 7:
        raise ValueError("supported range is 2 <= n <= 7 settings")


def _optimized(mset: MeasurementSet, gap_tol: float, feas_tol: float):
    """The answer of witness-opt: the witness value, bracketed by the dual
    value, and the visibility threshold of a post-selected result."""
    res = optimize_ensemble(Scenario(mset.n), mset, gap_tol=gap_tol, feas_tol=feas_tol)
    fields = {
        "n": mset.n,
        "witness_value": res.value,
        "witness_dual": res.dual_value,
        "solver_status": res.status,
        "solver_gap": res.gap,
        "classical_bound": noncontextual_bound(mset.n),
    }
    v = _threshold(res, mset.n)
    if v is not None:
        fields["threshold_v"] = v
    value, dual = res.value, res.dual_value
    estimate = {"n": mset.n, "estimate": value, "bracket_lo": value, "bracket_hi": dual}
    return fields, estimate, res.status != STATUS_OPTIMAL, []


def run_witness_opt(config: ExperimentConfig):
    """Optimize the preparation ensemble for measurements from a file and
    report the witness value with its visibility threshold."""
    return _run_check(
        config, "measurement set", load_measurement_set, _check_witness_input,
        _optimized,
    )


_RUNNERS = {
    "conjecture1": run_conjecture1,
    "vn_table": run_vn_table,
    "nc_bound": run_nc_bound,
    "jm_check": run_jm_check,
    "steer_check": run_steer_check,
    "witness_opt": run_witness_opt,
}


def run_experiment(config: ExperimentConfig):
    return _RUNNERS[config.experiment](config)


# -- output files -----------------------------------------------------------


def _distribution(values: list) -> dict:
    """The count of ``values`` and, when there are any, their min, p50
    (the median) and max."""
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "min": min(values),
        "p50": float(np.median(values)),
        "max": max(values),
    }


def _finish(
    config, start, rows, counts, estimates, ok, notes, distributions=None
) -> RunSummary:
    """The run's summary, timed from ``start``, written to the outputs with
    its records ``rows``."""
    summary = RunSummary(
        experiment=config.experiment,
        config=config.to_json(),
        counts=counts,
        estimates=estimates,
        total_runtime=time.perf_counter() - start,
        ok=ok,
        notes=notes,
        distributions=distributions or {},
    )
    _write_outputs(config.out, summary, rows)
    return summary


def _write_outputs(out: str | None, summary: RunSummary, records: list) -> None:
    if not out:
        return
    directory = os.path.dirname(os.path.abspath(out))
    os.makedirs(directory, exist_ok=True)
    jsonl, summary_json, summary_csv = (out + suffix for suffix in _OUT_SUFFIXES)
    with open(jsonl, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(summary_json, "w", encoding="utf-8") as fh:
        json.dump(summary.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    # The estimates' keys in first-seen order, then the sorted counts.
    estimate_keys = dict.fromkeys(k for est in summary.estimates for k in est)
    fieldnames = [*estimate_keys, *sorted(summary.counts)]
    with open(summary_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in summary.estimates or [{}]:
            writer.writerow({**row, **summary.counts})
