import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from steercert import witness
from steercert.quantum import (
    MeasurementSet,
    noisy_singlet,
    sharp_povm,
    trivial_povm,
)
from steercert.sdp import STATUS_OPTIMAL, hvec
from steercert.witness import (
    Scenario,
    Statistics,
    evaluate_witness,
    noncontextual_bound,
    noncontextual_bound_oracle,
    optimize_ensemble,
    seesaw_critical_visibility,
    statistics_from_strategy,
    threshold_visibility,
)

CHSH_QUANTUM = (2.0 + np.sqrt(2.0)) / 4.0


def test_scenario_counts():
    expected = {2: 0, 3: 1, 4: 4, 5: 11, 6: 26, 7: 57}
    for n, count in expected.items():
        s = Scenario(n)
        assert len(s.constraint_strings) == count
        assert len(s.x_strings) == 2 ** (n - 1)
        assert len(s.preparations) == 2 ** n
    with pytest.raises(ValueError):
        Scenario(1)


def test_target_string():
    s = Scenario(3)
    assert tuple(s.targets[s.preparations.index((1, (0, 1)))]) == (1, 1, 0)
    assert tuple(s.targets[s.preparations.index((0, (0, 1)))]) == (0, 0, 1)
    # Bob's winning outcome for setting y is bit y of the target.
    for p, (a, x) in enumerate(s.preparations):
        xi = s.x_strings.index(x)
        for y in range(3):
            b = s.targets[p, y]
            assert s.success_mask[a, b, xi, y] == 1.0
            assert s.success_mask[a, 1 - b, xi, y] == 0.0


def test_parity_sides_balanced():
    for n in (3, 4, 5):
        s = Scenario(n)
        signs = s.parity_signs(s.constraint_strings)
        for r, row in zip(s.constraint_strings, signs):
            # The side of (a, x) is the parity of r . t(a, x).
            sides = [sum(ri * ti for ri, ti in zip(r, t)) % 2 for t in s.targets]
            assert list(row) == [1.0 if side == 0 else -1.0 for side in sides]
            assert sides.count(0) == sides.count(1)


@pytest.mark.parametrize("n", range(2, 8))
def test_game_arrays_match_their_definition(n):
    s = Scenario(n)
    expected = [(a,) + tuple(bit ^ a for bit in x) for a, x in s.preparations]
    assert s.targets.shape == (2 ** n, n)
    assert [tuple(t) for t in s.targets] == expected
    assert s.weight == 1.0 / (n * 2 ** (n - 1))
    assert s.success_mask.flags["C_CONTIGUOUS"]
    assert s.success_mask.shape == (2, 2, 2 ** (n - 1), n)
    signs = s.parity_signs(s.constraint_strings)
    assert signs.shape == (len(s.constraint_strings), 2 ** n)
    assert np.all(signs.sum(axis=1) == 0)


def test_classical_bound_oracle():
    assert abs(noncontextual_bound_oracle(2) - 0.75) < 1e-9
    assert abs(noncontextual_bound_oracle(3) - 2.0 / 3.0) < 1e-9
    assert abs(noncontextual_bound_oracle(4) - 0.625) < 1e-9
    for n in (2, 3, 4):
        assert abs(noncontextual_bound_oracle(n) - noncontextual_bound(n)) < 1e-9
    with pytest.raises(ValueError):
        noncontextual_bound_oracle(5)


def _shared_setting_table(n):
    """Classical strategy: a shared setting pick y*, Alice answering so the
    target bit at y* is 0, Bob answering 0 there and guessing elsewhere."""
    s = Scenario(n)
    n_x = len(s.x_strings)
    table = np.zeros((2, 2, n_x, n))
    for ystar in range(1, n + 1):
        for xi, x in enumerate(s.x_strings):
            a = 0 if ystar == 1 else x[ystar - 2]
            for yi in range(n):
                for b in (0, 1):
                    if yi + 1 == ystar:
                        q = 1.0 if b == 0 else 0.0
                    else:
                        q = 0.5
                    table[a, b, xi, yi] += q / n
    return s, Statistics(s, table)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shared_setting_strategy_meets_bound(n):
    s, stats = _shared_setting_table(n)
    assert abs(evaluate_witness(s, stats) - noncontextual_bound(n)) < 1e-12


def test_uniform_statistics_score_half():
    s = Scenario(3)
    stats = Statistics(s, np.full((2, 2, 4, 3), 0.25))
    assert abs(evaluate_witness(s, stats) - 0.5) < 1e-12


def test_statistics_validation():
    s = Scenario(2)
    with pytest.raises(ValueError):
        Statistics(s, np.zeros((2, 2, 3, 2)))
    bad = np.full((2, 2, 2, 2), 0.25)
    bad[0, 0, 0, 0] = -1e-6
    with pytest.raises(ValueError):
        Statistics(s, bad)
    with pytest.raises(ValueError):
        Statistics(s, np.full((2, 2, 2, 2), 0.3))


def _constrained_model_vertex(n, rng):
    """A vertex of the constrained classical polytope, found by optimizing a
    random cost over response-function mixtures."""
    s = Scenario(n)
    preps = s.preparations
    lams = list(itertools.product((0, 1), repeat=n))
    n_p, n_l = len(preps), len(lams)
    rows, rhs = [], []
    for pi in range(n_p):
        row = np.zeros(n_p * n_l)
        row[pi * n_l : (pi + 1) * n_l] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for r in itertools.product((0, 1), repeat=n):
        if sum(r) < 2:
            continue
        (signs,) = s.parity_signs([r])
        for li in range(n_l):
            row = np.zeros(n_p * n_l)
            for pi in range(n_p):
                row[pi * n_l + li] = signs[pi]
            rows.append(row)
            rhs.append(0.0)
    res = linprog(
        rng.normal(size=n_p * n_l),
        A_eq=np.array(rows),
        b_eq=np.array(rhs),
        bounds=(0.0, 1.0),
        method="highs",
    )
    assert res.success
    mu = res.x.reshape(n_p, n_l)
    table = np.zeros((2, 2, len(s.x_strings), n))
    for pi, (a, x) in enumerate(preps):
        xi = s.x_strings.index(x)
        for li, lam in enumerate(lams):
            for yi in range(n):
                table[a, lam[yi], xi, yi] += 0.5 * mu[pi, li]
    return s, Statistics(s, table)


def test_constrained_classical_models_respect_oracle():
    rng = np.random.default_rng(5)
    oracle = noncontextual_bound_oracle(3)
    for _ in range(15):
        s, stats = _constrained_model_vertex(3, rng)
        assert evaluate_witness(s, stats) <= oracle + 1e-9


def test_optimize_ensemble_chsh():
    s = Scenario(2)
    bob = MeasurementSet([sharp_povm((0, 0, 1)), sharp_povm((1, 0, 0))])
    res = optimize_ensemble(s, bob)
    assert res.status == "Optimal"
    assert abs(res.value - CHSH_QUANTUM) < 1e-6
    assert res.dual_value >= res.value - 1e-9
    assert res.gap < 1e-8
    assert len(res.states) == 4
    for rho in res.states:
        vals = np.linalg.eigvalsh(rho.entries)
        assert vals.min() > -1e-8
    for xi in range(2):
        pair = res.states[xi].trace() + res.states[2 + xi].trace()
        assert abs(pair - 1.0) < 1e-7
    ns0 = res.states[0].entries + res.states[2].entries
    ns1 = res.states[1].entries + res.states[3].entries
    assert np.linalg.norm(ns0 - ns1) < 1e-6


def test_optimize_ensemble_parity_residuals():
    s = Scenario(3)
    rng = np.random.default_rng(9)
    from steercert.quantum import sample_random_povm_set

    _, bob = sample_random_povm_set(rng, 3)
    res = optimize_ensemble(s, bob)
    assert res.status == "Optimal"
    (signs,) = s.parity_signs(s.constraint_strings[:1])
    acc = np.zeros((2, 2), dtype=complex)
    for sign, state in zip(signs, res.states):
        acc += sign * state.entries
    assert np.linalg.norm(acc) < 1e-7


def test_optimize_ensemble_trivial_bob_scores_half():
    s = Scenario(2)
    bob = MeasurementSet([trivial_povm(), trivial_povm()])
    res = optimize_ensemble(s, bob)
    assert abs(res.value - 0.5) < 1e-7


def test_optimize_ensemble_takes_a_sequence_of_sets():
    from steercert.quantum import sample_random_povm_set

    s = Scenario(3)
    rng = np.random.default_rng(21)
    sets = [sample_random_povm_set(rng, 3)[1] for _ in range(3)]
    batch = optimize_ensemble(s, sets)
    assert isinstance(batch, list) and len(batch) == 3
    for mset, res in zip(sets, batch):
        alone = optimize_ensemble(s, mset)
        assert (res.value, res.dual_value, res.status, res.gap) == (
            alone.value, alone.dual_value, alone.status, alone.gap,
        )
        pairs = zip(res.states, alone.states)
        assert all(np.array_equal(a.entries, b.entries) for a, b in pairs)
    assert optimize_ensemble(s, []) == []
    pair = MeasurementSet([sharp_povm((0, 0, 1)), sharp_povm((1, 0, 0))])
    with pytest.raises(ValueError, match="scenario"):
        optimize_ensemble(s, sets[:1] + [pair])


def test_threshold_visibility():
    assert threshold_visibility(noncontextual_bound(3), 0.5, 3) == 1.0
    v = threshold_visibility(CHSH_QUANTUM, 0.5, 2)
    assert abs(v - 1.0 / np.sqrt(2.0)) < 1e-12
    with pytest.raises(ValueError):
        threshold_visibility(0.5, 0.5, 2)
    with pytest.raises(ValueError):
        threshold_visibility(0.7, 0.5, 2)


@pytest.mark.parametrize(
    "witness_value, baseline",
    [(np.nan, 0.5), (CHSH_QUANTUM, np.nan), (np.inf, 0.5), (CHSH_QUANTUM, -np.inf)],
)
def test_threshold_visibility_rejects_non_finite_values(witness_value, baseline):
    """A NaN passes both guards (comparisons with NaN are false) and
    min(1.0, nan) is 1.0; +inf would give visibility 0."""
    with pytest.raises(ValueError, match="finite"):
        threshold_visibility(witness_value, baseline, 2)


def test_statistics_from_strategy_is_normalized():
    s = Scenario(2)
    alice = MeasurementSet([sharp_povm((0, 0, 1)), sharp_povm((0, 1, 0))])
    bob = MeasurementSet([sharp_povm((0, 0, 1)), sharp_povm((1, 0, 0))])
    stats = statistics_from_strategy(noisy_singlet(0.8), alice, bob, s)
    totals = stats.table.sum(axis=(0, 1))
    assert np.max(np.abs(totals - 1.0)) < 1e-12


def test_seesaw_chsh_threshold():
    rng = np.random.default_rng(11)
    res = seesaw_critical_visibility(2, restarts=4, rng=rng)
    bound = noncontextual_bound(2)
    assert abs(res.v_threshold - 1.0 / np.sqrt(2.0)) < 1.5e-3
    vs = [v for v, _ in res.trace]
    vals = [w for _, w in res.trace]
    assert vs == sorted(vs)
    for earlier, later in zip(vals, vals[1:]):
        assert later >= earlier - 1e-10
    assert abs(res.value_at_threshold - bound) <= 1e-12
    # The returned strategy as the see-saw's arrays: Alice effects in block
    # order 2 x + a, Bob effects indexed [y, b].
    alice = np.array([e.entries for p in res.alice_effects.settings for e in p.effects])
    bob = np.array([[e.entries for e in p.effects] for p in res.bob_effects.settings])
    rhot = noisy_singlet(res.v_threshold + 1e-6).entries.reshape(2, 2, 2, 2)
    value = witness._strategy_value(alice, bob, rhot, Scenario(2))
    assert value > bound + witness.VIOLATION_MARGIN
    assert res.restarts_used > 0
    assert res.alice_effects.n == 2
    assert res.bob_effects.n == 2
    assert res.iteration_logs
    for run in res.iteration_logs:
        for earlier, later in zip(run, run[1:]):
            assert later >= earlier - 1e-8


def test_seesaw_rejects_unsupported_n():
    with pytest.raises(ValueError):
        seesaw_critical_visibility(1)
    with pytest.raises(ValueError):
        seesaw_critical_visibility(8)


@pytest.mark.parametrize("restarts", (0, -3))
def test_seesaw_rejects_fewer_than_one_restart(restarts):
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        seesaw_critical_visibility(2, restarts=restarts)


def _fresh_state_after(seed, n, draws):
    """Generator state after ``draws`` random Alice strategies for n settings."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        witness._random_sharp_alice(rng, 2 ** (n - 1))
    return rng.bit_generator.state


def _sequential_first_probe(n, v, seed, budget):
    """A first probe (empty pool) with its restarts run one after another,
    each through one-objective solves. Returns the restarts used, the
    iteration logs and the generator state."""
    scenario, prepared, select = witness._alice_program(n)
    rng = np.random.default_rng(seed)
    rhot = noisy_singlet(v).entries.reshape(2, 2, 2, 2)
    bound = noncontextual_bound(n)

    def solve_one(objectives):
        return [prepared.solve_with(objectives[0])]

    logs = []
    for used in range(1, budget + 1):
        raw = witness._random_sharp_alice(rng, len(scenario.x_strings))
        sol = prepared.solve_with(hvec(np.array(raw)).ravel())
        if sol.status != STATUS_OPTIMAL:
            continue
        start = np.array(sol.block_values)[None]
        ((val, _, _, ok, log),) = witness._alternate(
            solve_one, scenario, rhot, select, start
        )
        if not ok:
            continue
        logs.append(tuple(log))
        if val > bound + witness.VIOLATION_MARGIN:
            return used, logs, rng.bit_generator.state
    return budget, logs, rng.bit_generator.state


@pytest.mark.parametrize("n, v, seed", [(2, 0.72, 0), (3, 0.58, 1), (4, 0.556, 2)])
def test_seesaw_probe_replays_a_sequential_run(n, v, seed):
    """Restarts run side by side, yet the probe uses the restarts, logs and
    random draws of running them one after another: after a violation at
    restart i the generator is that of a fresh one that drew i + 1
    strategies. With v_lo = v_hi = v the second probe ends on the pool, so
    the run is this one probe."""
    used, logs, state = _sequential_first_probe(n, v, seed, budget=20)
    rng = np.random.default_rng(seed)
    res = seesaw_critical_visibility(n, rng=rng, v_lo=v, v_hi=v)
    assert res.restarts_used == used
    assert res.iteration_logs == tuple(logs)
    assert rng.bit_generator.state == state == _fresh_state_after(seed, n, used)


def test_seesaw_probe_without_violation_keeps_every_draw():
    rng = np.random.default_rng(5)
    with pytest.raises(RuntimeError, match="no violation"):
        seesaw_critical_visibility(2, restarts=6, rng=rng, v_lo=0.6, v_hi=0.6)
    assert rng.bit_generator.state == _fresh_state_after(5, 2, 6)


# v_threshold per (n, seed); every run uses 22 restarts.
_PINNED_THRESHOLDS = {
    (2, 0): 0.7071067818390472,
    (2, 1): 0.707106781839047,
    (2, 2): 0.707106781839047,
    (2, 3): 0.707106781839047,
    (3, 0): 0.5773502692142455,
    (3, 1): 0.5773502692142453,
    (3, 2): 0.5773502692142453,
    (3, 3): 0.5773502692142455,
}


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("seed", range(4))
def test_seesaw_threshold_is_pinned(n, seed):
    res = seesaw_critical_visibility(n, rng=np.random.default_rng(seed))
    v_threshold = _PINNED_THRESHOLDS[n, seed]
    assert res.v_threshold == v_threshold
    assert res.restarts_used == 22
    assert abs(v_threshold - 1.0 / np.sqrt(n)) <= 1e-9


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1)])
def test_seesaw_threshold_is_the_crossing_of_its_strategy(n, seed):
    """Solver-free: the returned effects, through the Born rule alone, meet
    the classical bound at v_threshold."""
    res = seesaw_critical_visibility(n, rng=np.random.default_rng(seed))
    scenario = Scenario(n)
    bound = noncontextual_bound(n)

    def value(v):
        stats = statistics_from_strategy(
            noisy_singlet(v), res.alice_effects, res.bob_effects, scenario
        )
        return evaluate_witness(scenario, stats)

    s0, s1 = value(0.0), value(1.0)
    assert abs((bound - s0) / (s1 - s0) - res.v_threshold) <= 1e-12
    assert abs(value(res.v_threshold) - bound) <= 1e-12
