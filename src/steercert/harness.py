"""Reproducible experiment runs: sampling conjecture scans, critical
visibility tables, classical-bound cross-checks and one-shot certifications.

Every run is driven by an ExperimentConfig. Sampling runs expand the master
seed into one 64-bit seed per sample with a splitmix64 step, so each sample
is an independent pure function of its seed; records come back in sample
order no matter how many worker processes execute them, and rerunning any
configuration reproduces the records exactly (wall-time fields aside).
"""

from __future__ import annotations

import csv
import json
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

EXPERIMENTS = (
    "conjecture1",
    "vn_table",
    "nc_bound",
    "jm_check",
    "steer_check",
    "witness_opt",
)


class ConfigError(ValueError):
    """Raised for configurations the harness refuses to run."""


def _converted(kind, name: str, value):
    """value as an int or a float, or a ConfigError naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}") from None


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
    bisect_tol: float = 2e-4
    out: str | None = None
    full: bool = False
    input_path: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        self.samples = _converted(int, "samples", self.samples)
        self.seed = _converted(int, "seed", self.seed) & MASK64
        self.threads = _converted(int, "threads", self.threads)
        if self.samples < 0:
            raise ConfigError("samples must be nonnegative")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        for name in ("gap_tol", "feas_tol", "bisect_tol"):
            value = _converted(float, name, getattr(self, name))
            if not value > 0.0:
                raise ConfigError(f"{name} must be positive")
            setattr(self, name, value)
        if self.restarts is not None:
            self.restarts = _converted(int, "restarts", self.restarts)
            if self.restarts < 1:
                raise ConfigError("restarts must be at least 1")
        self.n = self._normalize_n()
        if self.experiment in ("jm_check", "steer_check", "witness_opt"):
            if not self.input_path:
                raise ConfigError(f"{self.experiment} needs an input file")

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
        if self.experiment in ("conjecture1", "witness_opt"):
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
    fields stay unset unless the sample cleared the classical bound."""

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

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "RunSummary":
        return cls(**data)


# -- sample workers (top level so process pools can import them) ------------


def _conjecture1_sample(args) -> SampleRecord:
    index, seed, n, gap_tol, feas_tol = args
    start = time.perf_counter()
    try:
        rng = np.random.default_rng(seed)
        params, mset = sample_random_povm_set(rng, n)
        scenario = Scenario(n)
        res = optimize_ensemble(scenario, mset, gap_tol=gap_tol, feas_tol=feas_tol)
        bound = noncontextual_bound(n)
        post = res.status == STATUS_OPTIMAL and res.value > bound + POST_SELECT_MARGIN
        record = SampleRecord(
            sample_index=index,
            seed=seed,
            n=n,
            post_selected=post,
            wall_time=0.0,
            bloch=params.to_json(),
            witness_value=res.value,
            witness_dual=res.dual_value,
            solver_status=res.status,
            solver_gap=res.gap,
            baseline=TRIVIAL_BASELINE,
        )
        if post:
            # The dual value upper-bounds the true optimum, so the derived
            # visibility under-shoots the exact threshold and the verdict
            # at it is robust to solver error.
            v = threshold_visibility(res.dual_value, TRIVIAL_BASELINE, n)
            probe = min(1.0, v + PROBE_STEP)
            rep_v = jm_critical_visibility(
                depolarize_measurements(mset, v), gap_tol, feas_tol
            )
            rep_p = jm_critical_visibility(
                depolarize_measurements(mset, probe), gap_tol, feas_tol
            )
            record.threshold_v = v
            record.probe_v = probe
            record.verdict_at_threshold = rep_v.verdict
            record.verdict_at_probe = rep_p.verdict
            record.jm_crit_at_threshold = rep_v.critical_visibility
            record.jm_crit_at_probe = rep_p.critical_visibility
            record.jm_gap_at_threshold = rep_v.solver_gap
            record.jm_gap_at_probe = rep_p.solver_gap
    except Exception as exc:
        record = SampleRecord(
            sample_index=index,
            seed=seed,
            n=n,
            post_selected=False,
            wall_time=0.0,
            error=f"{type(exc).__name__}: {exc}",
        )
    record.wall_time = time.perf_counter() - start
    return record


def _vn_entry(args) -> dict:
    n, seed, restarts, bisect_tol, gap_tol, feas_tol = args
    start = time.perf_counter()
    try:
        res = seesaw_critical_visibility(
            n,
            restarts=restarts,
            bisect_tol=bisect_tol,
            rng=np.random.default_rng(seed),
            gap_tol=gap_tol,
            feas_tol=feas_tol,
        )
        return {
            "n": n,
            "seed": seed,
            "estimate": res.v_threshold,
            "bracket_lo": res.bracket[0],
            "bracket_hi": res.bracket[1],
            "value_at_threshold": res.value_at_threshold,
            "restarts_used": res.restarts_used,
            "wall_time": time.perf_counter() - start,
        }
    except Exception as exc:
        return {
            "n": n,
            "seed": seed,
            "error": f"{type(exc).__name__}: {exc}",
            "wall_time": time.perf_counter() - start,
        }


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
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, tasks))


# -- run entry points -------------------------------------------------------


def run_conjecture1(config: ExperimentConfig):
    """Sample random measurement sets, locate witness violations, and
    certify joint measurability at the derived visibility and just above.

    Per-sample errors are recorded on the sample and never abort the run.
    """
    start = time.perf_counter()
    n = config.n
    tasks = [
        (i, sample_seed(config.seed, i), n, config.gap_tol, config.feas_tol)
        for i in range(config.samples)
    ]
    records = _run_tasks(_conjecture1_sample, tasks, config.threads)
    counts = {
        "sampled": len(records),
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
        if not rec.post_selected:
            continue
        counts["post_selected"] += 1
        key = {
            "Compatible": "compatible_at_threshold",
            "Incompatible": "incompatible_at_threshold",
        }.get(rec.verdict_at_threshold, "inconclusive_at_threshold")
        counts[key] += 1
        key = {
            "Compatible": "compatible_at_probe",
            "Incompatible": "incompatible_at_probe",
        }.get(rec.verdict_at_probe, "inconclusive_at_probe")
        counts[key] += 1
    summary = RunSummary(
        experiment=config.experiment,
        config=config.to_json(),
        counts=counts,
        estimates=[],
        total_runtime=time.perf_counter() - start,
        ok=counts["errors"] == 0,
    )
    _write_outputs(config.out, summary, [r.to_json() for r in records])
    return summary, records


def run_vn_table(config: ExperimentConfig):
    """Estimate the critical visibility of the game per n via the see-saw.
    Entries run independently; a failed entry is recorded, not raised."""
    start = time.perf_counter()
    tasks = [
        (
            n,
            sample_seed(config.seed, n),
            config.restarts,
            config.bisect_tol,
            config.gap_tol,
            config.feas_tol,
        )
        for n in config.n
    ]
    records = _run_tasks(_vn_entry, tasks, config.threads)
    estimates = [
        {
            "n": rec["n"],
            "estimate": rec["estimate"],
            "bracket_lo": rec["bracket_lo"],
            "bracket_hi": rec["bracket_hi"],
        }
        for rec in records
        if "estimate" in rec
    ]
    failed = sum(1 for rec in records if "error" in rec)
    summary = RunSummary(
        experiment=config.experiment,
        config=config.to_json(),
        counts={"entries": len(records), "failed": failed},
        estimates=estimates,
        total_runtime=time.perf_counter() - start,
        ok=failed == 0,
    )
    _write_outputs(config.out, summary, records)
    return summary, records


def run_nc_bound(config: ExperimentConfig):
    """Cross-check the closed-form classical bound against the from-scratch
    linear program for every requested n."""
    start = time.perf_counter()
    records = _run_tasks(_nc_entry, [(n,) for n in config.n], config.threads)
    worst = max(abs(rec["difference"]) for rec in records)
    summary = RunSummary(
        experiment=config.experiment,
        config=config.to_json(),
        counts={"entries": len(records)},
        estimates=[
            {
                "n": rec["n"],
                "estimate": rec["lp_value"],
                "bracket_lo": rec["closed_form"],
                "bracket_hi": rec["closed_form"],
            }
            for rec in records
        ],
        total_runtime=time.perf_counter() - start,
        ok=worst <= 1e-9,
        notes=[f"largest deviation from closed form: {worst:.3e}"],
    )
    _write_outputs(config.out, summary, records)
    return summary, records


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


def _one_record(config, start, record, n, estimate, lo, hi, inconclusive, notes):
    """The summary of a run that yields one record, with that record
    written to the outputs."""
    summary = RunSummary(
        experiment=config.experiment,
        config=config.to_json(),
        counts={"inconclusive": int(inconclusive)},
        estimates=[{"n": n, "estimate": estimate, "bracket_lo": lo, "bracket_hi": hi}],
        total_runtime=time.perf_counter() - start,
        ok=not inconclusive,
        notes=notes,
    )
    _write_outputs(config.out, summary, [record])
    return summary, [record]


def _run_check(config, what: str, load, check, certifier, settings):
    """Load an input file, validate it for ``certifier`` inside the
    ConfigError wrapping, certify it and report the one record;
    settings(target) gives the input's setting count."""
    start = time.perf_counter()
    try:
        target = load(config.input_path)
        check(target)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load {what}: {exc}") from exc
    report = certifier(target, config.gap_tol, config.feas_tol)
    n = settings(target)
    record = {
        "input": config.input_path,
        "settings": n,
        "report": report.to_json(),
        "wall_time": time.perf_counter() - start,
    }
    crit, gap = report.critical_visibility, report.solver_gap
    return _one_record(
        config, start, record, n, crit, crit - gap, crit + gap,
        report.verdict == "Inconclusive", [f"verdict: {report.verdict}"],
    )


def run_jm_check(config: ExperimentConfig):
    """Certify joint measurability of a measurement set read from a file."""
    return _run_check(
        config, "measurement set", load_measurement_set, check_jm_input,
        jm_critical_visibility, lambda mset: mset.n,
    )


def run_steer_check(config: ExperimentConfig):
    """Certify a local hidden-state model for an assemblage from a file."""
    return _run_check(
        config, "assemblage", load_assemblage, check_lhs_input,
        lhs_critical_visibility, lambda assemblage: assemblage.n_settings,
    )


def run_witness_opt(config: ExperimentConfig):
    """Optimize the preparation ensemble for measurements from a file and
    report the witness value with its visibility threshold."""
    start = time.perf_counter()
    try:
        mset = load_measurement_set(config.input_path)
        check_binary_qubit(mset)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load measurement set: {exc}") from exc
    if not 2 <= mset.n <= 7:
        raise ConfigError("supported range is 2 <= n <= 7 settings")
    scenario = Scenario(mset.n)
    res = optimize_ensemble(
        scenario, mset, gap_tol=config.gap_tol, feas_tol=config.feas_tol
    )
    bound = noncontextual_bound(mset.n)
    record = {
        "input": config.input_path,
        "n": mset.n,
        "witness_value": res.value,
        "witness_dual": res.dual_value,
        "solver_status": res.status,
        "solver_gap": res.gap,
        "classical_bound": bound,
        "wall_time": time.perf_counter() - start,
    }
    if res.status == STATUS_OPTIMAL and res.value > bound + POST_SELECT_MARGIN:
        record["threshold_v"] = threshold_visibility(
            res.dual_value, TRIVIAL_BASELINE, mset.n
        )
    return _one_record(
        config, start, record, mset.n, res.value, res.value, res.dual_value,
        res.status != STATUS_OPTIMAL, [],
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


def _write_outputs(out: str | None, summary: RunSummary, records: list) -> None:
    if not out:
        return
    directory = os.path.dirname(os.path.abspath(out))
    os.makedirs(directory, exist_ok=True)
    with open(out + ".jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(out + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    count_keys = sorted(summary.counts)
    fieldnames = ["n", "estimate", "bracket_lo", "bracket_hi"] + count_keys
    rows = summary.estimates or [{}]
    with open(out + ".summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            flat = {k: row.get(k, "") for k in ("n", "estimate", "bracket_lo", "bracket_hi")}
            flat.update({k: summary.counts[k] for k in count_keys})
            writer.writerow(flat)
