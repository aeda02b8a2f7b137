import csv
import json

import numpy as np
import pytest

from steercert import harness
from steercert.certify import jm_critical_visibility
from steercert.harness import (
    ConfigError,
    ExperimentConfig,
    SampleRecord,
    RunSummary,
    run_conjecture1,
    run_experiment,
    run_jm_check,
    run_nc_bound,
    run_steer_check,
    run_vn_table,
    run_witness_opt,
    sample_seed,
)
from steercert.quantum import (
    MeasurementSet,
    depolarize_measurements,
    sample_random_povm_set,
)
from steercert.tolerances import DEFAULT_FEAS_TOL, DEFAULT_GAP_TOL
from steercert.witness import Scenario, optimize_ensemble

SQRT2 = float(np.sqrt(2.0))


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="conjecture1", n=9)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nc_bound", n=5)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="conjecture1", samples=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="conjecture1", gap_tol=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="conjecture1", restarts=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="jm_check")
    cfg = ExperimentConfig(experiment="vn_table")
    assert cfg.n == (2, 3, 4, 5)
    cfg = ExperimentConfig(experiment="vn_table", full=True)
    assert cfg.n == (2, 3, 4, 5, 6, 7)
    cfg = ExperimentConfig(experiment="nc_bound")
    assert cfg.n == (2, 3, 4)


@pytest.mark.parametrize("full", ["no", "false", 0, 1, None])
def test_config_full_must_be_a_boolean(full):
    # Any non-empty string is truthy: {"full": "no"} would run n=6,7.
    with pytest.raises(ConfigError, match="full"):
        ExperimentConfig(experiment="vn_table", full=full)


def test_config_round_trip():
    cfg = ExperimentConfig(experiment="vn_table", n=(3, 4), seed=9, threads=2)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"experiment": "vn_table", "bogus": 1})


def test_sample_seed_is_stable_and_spread():
    first = sample_seed(0, 0)
    assert first == sample_seed(0, 0)
    seeds = {sample_seed(12345, i) for i in range(200)}
    assert len(seeds) == 200
    assert all(0 <= s <= (1 << 64) - 1 for s in seeds)
    assert sample_seed(1, 0) != sample_seed(0, 0)


def test_conjecture1_small_run():
    cfg = ExperimentConfig(
        experiment="conjecture1", n=2, samples=6, seed=5, threads=1
    )
    summary, records = run_conjecture1(cfg)
    assert [r.sample_index for r in records] == list(range(6))
    for rec in records:
        has_fields = rec.threshold_v is not None
        assert has_fields == rec.post_selected
        assert (rec.verdict_at_threshold is not None) == rec.post_selected
        assert (rec.verdict_at_probe is not None) == rec.post_selected
        back = SampleRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert back == rec
    c = summary.counts
    assert c["sampled"] == 6
    assert (
        c["compatible_at_threshold"]
        + c["incompatible_at_threshold"]
        + c["inconclusive_at_threshold"]
        == c["post_selected"]
    )
    assert summary.ok
    assert c["errors"] == 0
    assert c["ensemble_not_optimal"] == 0


def _stripped(rec) -> str:
    data = rec.to_json()
    data.pop("wall_time")
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_conjecture1_chunks_match_per_sample_solves(n):
    """Two full chunks and a partial one, in one process and in three: every
    record is the one that a batch-of-one ensemble solve of its seed and,
    when post-selected, a batch-of-one JM solve of its probe set give."""
    samples = 2 * harness.conj1_chunk(n) + 3
    expected = []
    for i in range(samples):
        seed = sample_seed(11, i)
        params, mset = sample_random_povm_set(np.random.default_rng(seed), n)
        res = optimize_ensemble(Scenario(n), mset)
        rec = harness._sample_record(i, seed, n, params, res)
        if rec.post_selected:
            rep = jm_critical_visibility(depolarize_measurements(mset, rec.probe_v))
            harness._add_jm(rec, rep, DEFAULT_GAP_TOL)
        expected.append(_stripped(rec))
    assert any('"post_selected": true' in rec for rec in expected)
    for threads in (1, 3):
        cfg = ExperimentConfig(
            experiment="conjecture1", n=n, samples=samples, seed=11, threads=threads
        )
        _, records = run_conjecture1(cfg)
        assert [_stripped(rec) for rec in records] == expected


@pytest.mark.parametrize(
    "fault, error",
    [
        ("draw", "RuntimeError: draw failed"),
        ("check", "ValueError: measurement count does not match the scenario"),
        ("ensemble", "RuntimeError: ensemble solve failed"),
        ("probe", "ValueError: parent search is exponential in n; refusing n > 8"),
        ("jm", "RuntimeError: jm solve failed"),
    ],
)
def test_conjecture1_error_stays_with_its_sample(monkeypatch, fault, error):
    """Sample 5, in the middle of the first chunk, fails its draw, hands the
    batched ensemble solve a set its check refuses, or makes that solve
    raise; sample 6, post-selected with others in its chunk, has a probe
    set the JM check refuses or makes the batched JM solve raise. A refused
    set costs the others no second solve; a batch that raises is solved set
    by set. Either way only the bad sample gets an error record."""
    cfg = ExperimentConfig(
        experiment="conjecture1", n=3, samples=harness.conj1_chunk(3) + 2, seed=4
    )
    _, clean = run_conjecture1(cfg)
    assert clean[6].post_selected and not clean[5].post_selected
    bad = 6 if fault in ("probe", "jm") else 5
    bad_seed = sample_seed(4, bad)
    marked = []  # the bad sample's set, then its probe set
    solved = {"ensemble": [], "jm": []}

    def draw(rng, n):
        if rng.bit_generator.seed_seq.entropy != bad_seed:
            return sample_random_povm_set(rng, n)
        if fault == "draw":
            raise RuntimeError("draw failed")
        params, mset = sample_random_povm_set(rng, n - 1 if fault == "check" else n)
        marked.append(mset)
        return params, mset

    def ensemble(scenario, sets, **kwargs):
        solved["ensemble"].append(len(sets))
        if fault == "ensemble" and any(mset is marked[0] for mset in sets):
            raise RuntimeError("ensemble solve failed")
        return optimize_ensemble(scenario, sets, **kwargs)

    def depolarize(mset, v):
        out = depolarize_measurements(mset, v)
        if marked and mset is marked[0]:
            if fault == "probe":
                out = MeasurementSet(list(out.settings) * 3)
            marked.append(out)
        return out

    def jm(sets, *args, **kwargs):
        solved["jm"].append(len(sets))
        if fault == "jm" and any(mset is marked[-1] for mset in sets):
            raise RuntimeError("jm solve failed")
        return jm_critical_visibility(sets, *args, **kwargs)

    monkeypatch.setattr(harness, "sample_random_povm_set", draw)
    monkeypatch.setattr(harness, "optimize_ensemble", ensemble)
    monkeypatch.setattr(harness, "depolarize_measurements", depolarize)
    monkeypatch.setattr(harness, "jm_critical_visibility", jm)
    summary, records = run_conjecture1(cfg)
    assert summary.counts["errors"] == 1 and not summary.ok
    assert records[bad].error == error
    assert not records[bad].post_selected and records[bad].witness_value is None
    others = [i for i in range(len(records)) if i != bad]
    assert [_stripped(records[i]) for i in others] == [
        _stripped(clean[i]) for i in others
    ]
    post = sum(rec.post_selected for rec in clean)
    if fault == "ensemble":
        assert solved["ensemble"] == [16] + [1] * 16 + [2]
    else:
        assert solved["ensemble"] == [16 - (fault in ("draw", "check")), 2]
    if fault == "jm":
        assert solved["jm"] == [post] + [1] * post
    else:
        assert solved["jm"] == [post - (fault == "probe")]


def test_conjecture1_wall_time_is_a_share_of_its_chunk():
    """Every record of a chunk gets an equal share of the ensemble stage,
    and a post-selected record an equal share of the JM stage on top."""
    chunk = harness.conj1_chunk(3)
    cfg = ExperimentConfig(experiment="conjecture1", n=3, samples=chunk + 2, seed=4)
    _, records = run_conjecture1(cfg)
    first = records[:chunk]
    plain = {rec.wall_time for rec in first if not rec.post_selected}
    post = {rec.wall_time for rec in first if rec.post_selected}
    assert len(plain) == 1 and len(post) == 1
    assert post.pop() > plain.pop() > 0.0


def test_conjecture1_jm_margin_and_its_distribution(tmp_path):
    """Below the cap, jm_margin is v* / v - 1 with v* = crit_at_probe *
    probe; the paper's equality v* = v holds to within the verdict margin.
    The summary gives the margins' count, min, p50 and max."""
    out = str(tmp_path / "conj1")
    cfg = ExperimentConfig(
        experiment="conjecture1", n=3, samples=20, seed=1, out=out
    )
    summary, records = run_conjecture1(cfg)
    margins = []
    for rec in records:
        below_cap = rec.post_selected and rec.jm_crit_at_probe < 1.0
        assert (rec.jm_margin is not None) == below_cap
        if below_cap:
            expected = rec.jm_crit_at_probe * rec.probe_v / rec.threshold_v - 1.0
            assert rec.jm_margin == expected
            assert abs(rec.jm_margin) <= 1e-8
            margins.append(rec.jm_margin)
    assert margins
    spread = summary.distributions["jm_margin"]
    assert spread == {
        "count": len(margins),
        "min": min(margins),
        "p50": float(np.median(margins)),
        "max": max(margins),
    }
    with open(out + ".summary.json", encoding="utf-8") as fh:
        written = RunSummary.from_json(json.load(fh))
    assert written.distributions == {"jm_margin": spread}
    cfg = ExperimentConfig(experiment="conjecture1", n=2, samples=0)
    empty, _ = run_conjecture1(cfg)
    assert empty.distributions == {"jm_margin": {"count": 0}}


def test_conjecture1_counts_ensemble_solves_short_of_optimal():
    # A feasibility tolerance below what double precision reaches: the
    # solves stop short of Optimal. A batch that raises would be solved set
    # by set, so each sample keeps its own outcome.
    cfg = ExperimentConfig(
        experiment="conjecture1", n=3, samples=4, seed=1, feas_tol=1e-17
    )
    summary, records = run_conjecture1(cfg)
    short = [r for r in records if r.error is None and r.solver_status != "Optimal"]
    assert short
    assert summary.counts["ensemble_not_optimal"] == len(short)
    assert summary.counts["errors"] == len(records) - len(short)


def test_conjecture1_iteration_tail_sample_reaches_optimal():
    # Sample 3 of the seed-0 n=4 scan: its ensemble solve used to stop at
    # MaxIterations after 200 iterations, with the Schur complement
    # factored from a product that squares the conditioning of blocks near
    # the boundary.
    _, records = run_conjecture1(
        ExperimentConfig(experiment="conjecture1", n=4, samples=6, seed=0)
    )
    rec = records[3]
    assert rec.error is None
    assert rec.solver_status == "Optimal"


def test_conjecture1_solves_jm_once_per_post_selected_sample(monkeypatch):
    """One JM instance per post-selected sample, in one batched call per
    chunk: 30 samples are two chunks at n = 3 and at n = 4."""
    calls = []

    def counted(msets, *args, **kwargs):
        calls.append(len(msets))
        return jm_critical_visibility(msets, *args, **kwargs)

    monkeypatch.setattr(harness, "jm_critical_visibility", counted)
    post_selected = []
    for n in (3, 4):
        cfg = ExperimentConfig(experiment="conjecture1", n=n, samples=30, seed=1)
        summary, records = run_conjecture1(cfg)
        assert summary.counts["errors"] == 0
        post_selected += [rec for rec in records if rec.post_selected]
    monkeypatch.undo()
    assert post_selected
    assert sum(calls) == len(post_selected)
    assert len(calls) <= 4 and max(calls) > 1
    for rec in post_selected:
        _, mset = sample_random_povm_set(np.random.default_rng(rec.seed), rec.n)
        for at in ("threshold", "probe"):
            v = getattr(rec, f"{at}_v")
            direct = jm_critical_visibility(depolarize_measurements(mset, v))
            crit = getattr(rec, f"jm_crit_at_{at}")
            assert abs(crit - direct.critical_visibility) <= 1e-9
            assert getattr(rec, f"verdict_at_{at}") == direct.verdict


def test_conjecture1_zero_samples():
    cfg = ExperimentConfig(experiment="conjecture1", n=2, samples=0)
    summary, records = run_conjecture1(cfg)
    assert records == []
    assert summary.counts["sampled"] == 0
    assert summary.ok


def test_thread_count_does_not_change_records():
    base = dict(experiment="conjecture1", n=2, samples=4, seed=77)
    _, records1 = run_conjecture1(ExperimentConfig(threads=1, **base))
    _, records2 = run_conjecture1(ExperimentConfig(threads=2, **base))
    assert [_stripped(r) for r in records1] == [_stripped(r) for r in records2]


def test_worker_count_is_capped_at_the_task_count(monkeypatch):
    """A process pool starts all its workers at once, so a run asks for no
    more than it has tasks. The fake pool starts no process."""
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    assert harness._run_tasks(abs, [-1, -2, -3], threads=10_000) == [1, 2, 3]
    assert started == [3]


def test_vn_table_entry_and_outputs(tmp_path):
    out = str(tmp_path / "runs" / "table")
    cfg = ExperimentConfig(
        experiment="vn_table",
        n=(2,),
        restarts=3,
        seed=1,
        out=out,
    )
    summary, records = run_vn_table(cfg)
    assert summary.ok
    assert len(records) == 1
    est = summary.estimates[0]
    assert abs(est["estimate"] - 1.0 / SQRT2) < 5e-3

    with open(out + ".jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == 1 and lines[0]["n"] == 2
    with open(out + ".summary.json") as fh:
        stored = RunSummary.from_json(json.load(fh))
    assert stored.experiment == "vn_table"
    with open(out + ".summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["n"] == "2"
    assert float(rows[0]["estimate"]) == pytest.approx(est["estimate"])
    # The see-saw threshold is an exact crossing: no bracket anywhere.
    assert not any(key.startswith("bracket") for key in rows[0])
    assert not any(key.startswith("bracket") for key in lines[0])
    assert not any(key.startswith("bracket") for key in est)


def test_nc_bound_run():
    cfg = ExperimentConfig(experiment="nc_bound", n=(2, 3))
    summary, records = run_nc_bound(cfg)
    assert summary.ok
    for rec in records:
        assert abs(rec["difference"]) < 1e-9


def test_jm_check_run(tmp_path):
    path = tmp_path / "zx.json"
    path.write_text(
        json.dumps(
            {"bloch": [[0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0, 1.0]]}
        )
    )
    cfg = ExperimentConfig(experiment="jm_check", input_path=str(path))
    summary, records = run_jm_check(cfg)
    report = records[0]["report"]
    assert report["verdict"] == "Incompatible"
    assert abs(report["critical_visibility"] - 1.0 / SQRT2) < 1e-6
    assert summary.ok


def test_jm_check_with_visibility_key(tmp_path):
    path = tmp_path / "zx_mixed.json"
    path.write_text(
        json.dumps(
            {
                "bloch": [[0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0, 1.0]],
                "visibility": 0.5,
            }
        )
    )
    cfg = ExperimentConfig(experiment="jm_check", input_path=str(path))
    _, records = run_jm_check(cfg)
    assert records[0]["report"]["verdict"] == "Compatible"


def test_jm_check_bad_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"wrong": []}))
    cfg = ExperimentConfig(experiment="jm_check", input_path=str(path))
    with pytest.raises(ConfigError):
        run_jm_check(cfg)


def test_steer_check_run(tmp_path):
    path = tmp_path / "steer.json"
    path.write_text(
        json.dumps(
            {
                "visibility": 0.8,
                "alice": {
                    "bloch": [
                        [0.0, 0.0, 1.0, 1.0, 1.0],
                        [1.0, 0.0, 0.0, 1.0, 1.0],
                    ]
                },
            }
        )
    )
    cfg = ExperimentConfig(experiment="steer_check", input_path=str(path))
    summary, records = run_steer_check(cfg)
    report = records[0]["report"]
    assert report["verdict"] == "Steerable"
    assert abs(report["critical_visibility"] - (1.0 / SQRT2) / 0.8) < 1e-6


def test_witness_opt_run(tmp_path):
    path = tmp_path / "bob.json"
    path.write_text(
        json.dumps(
            {"bloch": [[0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0, 1.0]]}
        )
    )
    # The input file sets n; a config value is not read.
    cfg = ExperimentConfig(experiment="witness_opt", n=9, input_path=str(path))
    summary, records = run_witness_opt(cfg)
    rec = records[0]
    assert abs(rec["witness_value"] - (2.0 + SQRT2) / 4.0) < 1e-6
    assert abs(rec["threshold_v"] - 1.0 / SQRT2) < 1e-6
    assert summary.ok
    assert summary.config["n"] is None
    assert summary.estimates[0]["n"] == rec["n"] == 2


def test_run_experiment_dispatch():
    cfg = ExperimentConfig(experiment="nc_bound", n=(2,))
    summary, _ = run_experiment(cfg)
    assert summary.experiment == "nc_bound"


_ZX_BLOCH = [[0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0, 1.0]]
_SAMPLE_KEYS = {
    "sample_index", "seed", "n", "post_selected", "wall_time", "bloch",
    "witness_value", "witness_dual", "solver_status", "solver_gap", "baseline",
}
_POST_SELECTED_KEYS = _SAMPLE_KEYS | {
    "threshold_v", "probe_v", "verdict_at_threshold", "verdict_at_probe",
    "jm_crit_at_threshold", "jm_crit_at_probe", "jm_gap_at_threshold",
    "jm_gap_at_probe",
}
_BRACKETED = ["n", "estimate", "bracket_lo", "bracket_hi"]


def _csv_header_follows_estimates(summary):
    """The summary CSV's header is the estimates' keys in first-seen order,
    then the sorted counts."""
    with open(summary.config["out"] + ".summary.csv", newline="") as fh:
        header = next(csv.reader(fh))
    keys = dict.fromkeys(k for est in summary.estimates for k in est)
    assert header == [*keys, *sorted(summary.counts)]


def test_record_and_estimate_keys_are_pinned(tmp_path, monkeypatch):
    """The key set of every experiment's records, the keys of its summary
    estimates in order, and the header of its summary CSV. A format change
    has to edit this test, and CHANGES.md lists it."""
    bad_seed = sample_seed(4, 0)

    def draw(rng, n):
        if rng.bit_generator.seed_seq.entropy == bad_seed:
            raise RuntimeError("draw failed")
        return sample_random_povm_set(rng, n)

    monkeypatch.setattr(harness, "sample_random_povm_set", draw)
    summary, records = run_conjecture1(
        ExperimentConfig(
            experiment="conjecture1", n=3, samples=16, seed=4, out=str(tmp_path / "c")
        )
    )
    assert summary.estimates == []
    _csv_header_follows_estimates(summary)
    shapes = {"error": 0, "plain": 0, "post": 0}
    for rec in (r.to_json() for r in records):
        if "error" in rec:
            shapes["error"] += 1
            assert set(rec) == {
                "sample_index", "seed", "n", "post_selected", "wall_time", "error"
            }
        elif rec["post_selected"]:
            shapes["post"] += 1
            margin = {"jm_margin"} if rec["jm_crit_at_probe"] < 1.0 else set()
            assert set(rec) == _POST_SELECTED_KEYS | margin
        else:
            shapes["plain"] += 1
            assert set(rec) == _SAMPLE_KEYS
    assert all(shapes.values())

    summary, records = run_vn_table(
        ExperimentConfig(
            experiment="vn_table", n=(2,), restarts=3, seed=1, out=str(tmp_path / "v")
        )
    )
    assert [set(rec) for rec in records] == [
        {"n", "seed", "estimate", "value_at_threshold", "restarts_used", "wall_time"}
    ]
    assert [list(est) for est in summary.estimates] == [["n", "estimate"]]
    _csv_header_follows_estimates(summary)

    summary, records = run_nc_bound(
        ExperimentConfig(experiment="nc_bound", n=(2,), out=str(tmp_path / "nc"))
    )
    assert [set(rec) for rec in records] == [
        {"n", "lp_value", "closed_form", "difference", "wall_time"}
    ]
    assert [list(est) for est in summary.estimates] == [_BRACKETED]
    _csv_header_follows_estimates(summary)

    path = tmp_path / "zx.json"
    path.write_text(json.dumps({"bloch": _ZX_BLOCH}))
    steer = tmp_path / "steer.json"
    steer.write_text(json.dumps({"visibility": 0.8, "alice": {"bloch": _ZX_BLOCH}}))
    report_keys = {"kind", "critical_visibility", "verdict", "status", "solver_gap"}
    for run, experiment, input_path in (
        (run_jm_check, "jm_check", path),
        (run_steer_check, "steer_check", steer),
    ):
        out = str(tmp_path / experiment)
        cfg = ExperimentConfig(experiment=experiment, input_path=str(input_path), out=out)
        summary, (record,) = run(cfg)
        assert set(record) == {"input", "settings", "report", "wall_time"}
        assert set(record["report"]) == report_keys
        assert [list(est) for est in summary.estimates] == [_BRACKETED]
        _csv_header_follows_estimates(summary)
        (est,) = summary.estimates
        # crit -+ gap.
        assert est["bracket_lo"] <= est["estimate"] <= est["bracket_hi"]

    cfg = ExperimentConfig(
        experiment="witness_opt", input_path=str(path), out=str(tmp_path / "w")
    )
    summary, (record,) = run_witness_opt(cfg)
    assert set(record) == {
        "input", "n", "witness_value", "witness_dual", "solver_status",
        "solver_gap", "classical_bound", "wall_time", "threshold_v",
    }
    assert [list(est) for est in summary.estimates] == [_BRACKETED]
    _csv_header_follows_estimates(summary)
