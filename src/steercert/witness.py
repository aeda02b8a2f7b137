"""Parity-constrained guessing games on qubit ensembles.

A game with n Bob settings uses 2^n preparations labeled by an outcome bit a
and an (n-1)-bit string x. Each preparation fixes a target string t(a, x):
its first bit is a and bit y (for y >= 2) is x_{y-1} XOR a. Bob, given
setting y, wins by outputting bit y of the target. The uniform average of
the winning probabilities is the witness value; classical models respecting
the parity mixing equivalences among the preparations cannot exceed
(n + 1) / (2n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import HermitianOperator
from .quantum import (
    MeasurementSet, Povm, bloch_effect, check_binary_qubit, noisy_singlet, random_axis,
)
from .sdp import STATUS_OPTIMAL, ProgramBuilder, hermitian_hvec, hvec
from .tolerances import DEFAULT_FEAS_TOL, DEFAULT_GAP_TOL

VIOLATION_MARGIN = 1e-8
SEESAW_IMPROVEMENT_TOL = 1e-10
SEESAW_MAX_ROUNDS = 300


class Scenario:
    """The n-setting game as arrays, in preparation order: preparation
    p = a 2^(n-1) + xi is (a, x_strings[xi]).

    targets[p] is the target string t(a, x) = (a, x XOR a) of preparation p,
    shape (2^n, n). weight is 1 / (n 2^(n-1)), the uniform weight of one
    (x, y) pair. success_mask[a, b, xi, y] is 1 where b is bit y of
    t(a, x_strings[xi]) and 0 elsewhere (C-contiguous, since sums over it
    follow its memory order). parity_signs(strings) gives the side of each
    preparation in the mixing equivalence of each string. The constraint
    strings are the parity strings with an odd number of ones, at least
    three, whose mixtures the game constrains."""

    def __init__(self, n: int) -> None:
        n = int(n)
        if n < 2:
            raise ValueError("the game needs at least two settings")
        self.n = n
        self.x_strings = tuple(itertools.product((0, 1), repeat=n - 1))
        self.preparations = tuple(
            (a, x) for a in (0, 1) for x in self.x_strings
        )
        self.constraint_strings = tuple(
            r
            for r in itertools.product((0, 1), repeat=n)
            if sum(r) >= 3 and sum(r) % 2 == 1
        )
        n_x = len(self.x_strings)
        a = np.repeat((0, 1), n_x)[:, None]
        self.targets = np.hstack([a, np.tile(self.x_strings, (2, 1)) ^ a])
        self.weight = 1.0 / (n * n_x)
        t = self.targets.reshape(2, 1, n_x, n)
        self.success_mask = np.ascontiguousarray(
            t == np.arange(2)[:, None, None], dtype=float
        )

    def parity_signs(self, strings) -> np.ndarray:
        """Sign (-1)^(r . t) per string r and preparation, shape (k, 2^n):
        +1 for the preparations on side 0 of r's mixing equivalence."""
        strings = np.asarray(strings, dtype=int).reshape(len(strings), self.n)
        return 1.0 - 2.0 * (strings @ self.targets.T % 2)

    def score(self, table) -> float:
        """Average winning probability of a table p(a, b | x, y)."""
        return float(self.weight * np.sum(self.success_mask * table))


class Statistics:
    """Joint conditional outcome table p(a, b | x, y) for one game."""

    def __init__(self, scenario: Scenario, table) -> None:
        n_x = len(scenario.x_strings)
        table = np.asarray(table, dtype=float)
        if table.shape != (2, 2, n_x, scenario.n):
            raise ValueError(
                f"expected table of shape (2, 2, {n_x}, {scenario.n})"
            )
        if table.min() < -1e-9:
            raise ValueError("probabilities must be nonnegative")
        totals = table.sum(axis=(0, 1))
        if np.max(np.abs(totals - 1.0)) > 1e-9:
            raise ValueError("outcome distributions must be normalized")
        self.scenario = scenario
        self.table = table

    def __getitem__(self, key) -> float:
        return float(self.table[key])


def evaluate_witness(scenario: Scenario, stats: Statistics) -> float:
    """Average winning probability of the statistics in the n-setting game."""
    return scenario.score(stats.table)


def _born_table(a_mats, b_mats, rhot) -> np.ndarray:
    """p(a, b | x, y) for Alice effects a_mats[a, x], Bob effects b_mats[b, y]
    and the state rhot reshaped to (dA, dB, dA, dB)."""
    return np.einsum("axji,bylk,ikjl->abxy", a_mats, b_mats, rhot).real


def statistics_from_strategy(
    state: HermitianOperator,
    alice: MeasurementSet,
    bob: MeasurementSet,
    scenario: Scenario,
) -> Statistics:
    """Born-rule table for a bipartite state with Alice keyed by x and Bob
    keyed by y."""
    n_x = len(scenario.x_strings)
    if alice.n != n_x or bob.n != scenario.n:
        raise ValueError("measurement counts do not match the scenario")
    if state.dim != alice.dim * bob.dim:
        raise ValueError("state dimension does not match the measurements")
    rhot = state.entries.reshape(alice.dim, bob.dim, alice.dim, bob.dim)
    a_mats = np.stack(
        [[alice[x][a].entries for x in range(n_x)] for a in (0, 1)]
    )
    b_mats = np.stack(
        [[bob[y][b].entries for y in range(scenario.n)] for b in (0, 1)]
    )
    table = np.clip(_born_table(a_mats, b_mats, rhot), 0.0, 1.0)
    return Statistics(scenario, table)


def noncontextual_bound(n: int) -> float:
    """Best classical score (n + 1) / (2n) under the mixing equivalences."""
    if n < 2:
        raise ValueError("the game needs at least two settings")
    return (n + 1) / (2 * n)


def noncontextual_bound_oracle(n: int) -> float:
    """Classical bound computed from scratch as a linear program over
    deterministic response mixtures.

    Every preparation gets a distribution over Bob response functions, tied
    together by one equality per response function for each parity pattern
    with at least two ones (uniform mixtures over the two sides of such a
    pattern are required to agree). Exponential in n; refuses n > 4.
    """
    if n < 2:
        raise ValueError("the game needs at least two settings")
    if n > 4:
        raise ValueError("oracle is exponential in n; refusing n > 4")
    from scipy.optimize import linprog  # the package's largest import; only here

    scenario = Scenario(n)
    lams = np.array(list(itertools.product((0, 1), repeat=n)))
    n_p, n_l = len(scenario.targets), len(lams)
    weight = 0.5 * scenario.weight  # 1 / (n n_p), exactly
    # Variable (p, l) is the weight of response function l in preparation p;
    # it wins on the settings where l agrees with the target of p.
    matches = (scenario.targets[:, None, :] == lams[None, :, :]).sum(axis=2)
    cost = (-weight * matches).ravel()
    # Each preparation's weights sum to one, and per pattern r and response
    # function l the two sides of r carry equal weight.
    patterns = lams[lams.sum(axis=1) >= 2]
    rows = np.vstack([
        np.kron(np.eye(n_p), np.ones(n_l)),
        np.kron(scenario.parity_signs(patterns), np.eye(n_l)),
    ])
    rhs = np.concatenate([np.ones(n_p), np.zeros(len(patterns) * n_l)])

    res = linprog(cost, A_eq=rows, b_eq=rhs, bounds=(0.0, 1.0), method="highs")
    if not res.success:
        raise RuntimeError(f"classical-bound LP failed: {res.message}")
    return float(-res.fun)


@dataclass
class EnsembleResult:
    """Outcome of the preparation-ensemble optimization."""

    value: float
    dual_value: float
    states: tuple
    status: str
    gap: float


def _add_parity_rows(builder: ProgramBuilder, scenario: Scenario, blocks) -> None:
    """The mixing equivalences on 2x2 blocks: per constraint string r, the
    blocks of the preparations on side 0 of r sum to those on side 1.
    blocks lists the block of each preparation, in preparation order."""
    zero = np.zeros((2, 2))
    for signs in scenario.parity_signs(scenario.constraint_strings):
        builder.add_operator_equation(dict(zip(blocks, signs)), zero)


@lru_cache(maxsize=None)
def _ensemble_program(n: int):
    """The ensemble program: a block per preparation, in preparation order."""
    scenario = Scenario(n)
    n_x = len(scenario.x_strings)
    builder = ProgramBuilder([2] * (2 * n_x))
    ident = np.eye(2)
    zero = np.zeros((2, 2))
    for xi in range(n_x):
        builder.add_scalar_row({xi: ident, n_x + xi: ident}, 1.0)
    _add_parity_rows(builder, scenario, range(2 * n_x))
    for xi in range(1, n_x):
        terms = {xi: 1.0, n_x + xi: 1.0, 0: -1.0, n_x: -1.0}
        builder.add_operator_equation(terms, zero)
    return builder.prepared()


def check_ensemble_input(scenario: Scenario, mset: MeasurementSet) -> None:
    """Raise ValueError unless optimize_ensemble takes ``mset``: binary qubit
    measurements, one per setting of the scenario."""
    if mset.n != scenario.n:
        raise ValueError("measurement count does not match the scenario")
    check_binary_qubit(mset)


def optimize_ensemble(
    scenario: Scenario,
    bob,
    gap_tol: float = DEFAULT_GAP_TOL,
    feas_tol: float = DEFAULT_FEAS_TOL,
):
    """Best witness value over qubit preparation ensembles satisfying the
    mixing equivalences, for fixed Bob measurements.

    The optimization covers the full ensemble: both the states and the
    conditional weight of each outcome bit. The returned states are the
    weighted preparations, so the trace of entry (a, x) is the probability
    of bit a in setting x and the two traces of a setting sum to one.
    Preparations may not signal the removed setting bit. The returned
    states follow the scenario's preparation order.

    ``bob`` is one MeasurementSet, which gives one EnsembleResult, or a
    sequence of them, which gives a list of results in the same order.
    Every set of n settings shares one cached program and differs only in
    its objective, so a sequence is solved in one batched IPM run
    (PreparedSdp.solve_batch), and each result is bit for bit the one its
    set gets alone. A single set is a batch of one.
    """
    single = isinstance(bob, MeasurementSet)
    sets = [bob] if single else list(bob)
    for mset in sets:
        check_ensemble_input(scenario, mset)
    if not sets:
        return []
    prepared = _ensemble_program(scenario.n)
    settings = np.arange(scenario.n)

    def scores(mset: MeasurementSet) -> np.ndarray:
        # Preparation (a, x) scores sum_y B_{t_y|y} with target
        # t = t(a, x); the sum runs over y in order.
        effects = np.array([[e.entries for e in p.effects] for p in mset.settings])
        return scenario.weight * effects[settings, scenario.targets].sum(axis=1)

    objectives = hvec(np.array([scores(mset) for mset in sets])).reshape(len(sets), -1)
    sols = prepared.solve_batch(objectives, gap_tol=gap_tol, feas_tol=feas_tol)
    results = [
        EnsembleResult(
            value=sol.primal_value,
            dual_value=sol.dual_value,
            states=tuple(HermitianOperator(bv) for bv in sol.block_values),
            status=sol.status,
            gap=sol.gap,
        )
        for sol in sols
    ]
    return results[0] if single else results


def threshold_visibility(witness_value: float, baseline: float, n: int) -> float:
    """Visibility at which linear interpolation toward the baseline meets
    the classical bound."""
    bound = noncontextual_bound(n)
    if witness_value <= baseline + 1e-12:
        raise ValueError("witness value does not exceed the baseline")
    if witness_value < bound - 1e-12:
        raise ValueError("witness value does not exceed the classical bound")
    return min(1.0, (bound - baseline) / (witness_value - baseline))


# -- see-saw over Bell strategies on the noisy singlet ----------------------


@dataclass
class SeesawResult:
    """Best-found critical visibility of the game on the noisy singlet.

    v_threshold is the exact crossing of the classical bound by the strategy
    in alice_effects/bob_effects (or v_lo, if that is larger), so
    value_at_threshold is the bound up to rounding. trace holds (v, best
    pool value at v) per probed visibility."""

    n: int
    v_threshold: float
    value_at_threshold: float
    trace: tuple
    alice_effects: MeasurementSet
    bob_effects: MeasurementSet
    restarts_used: int
    iteration_logs: tuple = ()


@lru_cache(maxsize=None)
def _alice_program(n: int):
    """The scenario, the Alice effect program, blocks 2 x + a for effect a
    of setting x, and select, which marks with select[2 y + b, 2 x + a] = 1
    that bit y of the target t(a, x) is b: the Alice effects Bob's effect b
    of setting y wins with."""
    scenario = Scenario(n)
    n_x = len(scenario.x_strings)
    builder = ProgramBuilder([2] * (2 * n_x))
    ident = np.eye(2)
    for xi in range(n_x):
        builder.add_operator_equation({2 * xi: 1.0, 2 * xi + 1: 1.0}, ident)
    blocks = [2 * xi + a for a in (0, 1) for xi in range(n_x)]
    _add_parity_rows(builder, scenario, blocks)
    select = scenario.success_mask.transpose(3, 1, 2, 0).reshape(2 * n, -1)
    return scenario, builder.prepared(), select


# The see-saw works on stacks of strategies: Alice effects (k, 2 n_x, 2, 2)
# in block order 2 x + a, Bob effects (k, n, 2, 2, 2) indexed [y, b]. Each
# product below is one matmul per strategy, so a strategy's numbers do not
# depend on the rest of its stack.


def _strategy_value(alice, bob, rhot, scenario: Scenario) -> float:
    n_x = len(scenario.x_strings)
    a_arr = alice.reshape(n_x, 2, 2, 2).swapaxes(0, 1)
    return scenario.score(_born_table(a_arr, bob.swapaxes(0, 1), rhot))


def _bob_step(alice, rhot, scenario: Scenario, select):
    """Optimal Bob effects for a stack of Alice strategies: per setting,
    project onto the nonnegative eigenspace of the effect-weighted
    reduced-state difference. Ties at zero go to the larger effect.
    Returns the Bob effects and the values (k,)."""
    k = len(alice)
    n = scenario.n
    # Tr_A[(A x I) rho] as a map on flattened 2x2 matrices.
    to_bob = rhot.transpose(1, 3, 2, 0).reshape(4, 4)
    reduced = np.matmul(alice.reshape(k, -1, 4), to_bob.T)
    l_mats = scenario.weight * np.matmul(select, reduced).reshape(k, n, 2, 2, 2)
    delta = l_mats[:, :, 0] - l_mats[:, :, 1]
    delta = 0.5 * (delta + np.swapaxes(delta.conj(), -1, -2))
    vals, vecs = np.linalg.eigh(delta)
    b0 = (vecs * (vals >= 0.0)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    bob = np.stack([b0, np.eye(2) - b0], axis=2)
    per_setting = (
        (b0.conj() * l_mats[:, :, 0]).sum(axis=(-2, -1))
        + (bob[:, :, 1].conj() * l_mats[:, :, 1]).sum(axis=(-2, -1))
    ).real
    return bob, per_setting.sum(axis=1)


def _alice_objective(bob, rhot, scenario: Scenario, select) -> np.ndarray:
    """Objective rows of the Alice program for a stack of Bob strategies."""
    k = len(bob)
    # Tr_B[rho (I x B)] as a map on flattened 2x2 matrices.
    to_alice = rhot.transpose(0, 2, 3, 1).reshape(4, 4)
    reduced = np.matmul(bob.reshape(k, -1, 4), to_alice.T)
    coeffs = scenario.weight * np.matmul(select.T, reduced)
    return hermitian_hvec(coeffs.reshape(k, -1, 2, 2)).reshape(k, -1)


def _random_sharp_alice(rng, n_x: int):
    mats = []
    for _ in range(n_x):
        e = bloch_effect(random_axis(rng))
        mats += [e, np.eye(2, dtype=np.complex128) - e]
    return mats


def _alternate(solve, scenario: Scenario, rhot, select, alice) -> list:
    """Alternate closed-form Bob updates with Alice effect SDPs, side by side
    for a stack of starting Alice strategies, each until its own value stops
    improving; a start leaves the stack when its alternation ends. ``solve``
    maps the Alice objective rows of the starts still on the stack to their
    SdpSolutions.

    Returns one (value, alice, bob, ok, log) per start. ok is False when a
    step lost value or an Alice solve fell short of Optimal; log lists every
    intermediate value, Bob step and Alice step in order."""
    alice = np.array(alice, dtype=np.complex128)
    k = len(alice)
    prev = np.full(k, -np.inf)
    logs: list = [[] for _ in range(k)]
    results: list = [None] * k
    live = np.arange(k)
    settled: list = []
    for _ in range(SEESAW_MAX_ROUNDS):
        if not live.size:
            break
        bob, val_b = _bob_step(alice[live], rhot, scenario, select)
        for i, val in zip(live, val_b):
            logs[i].append(float(val))
        lost = val_b < prev[live] - 1e-8
        go = np.flatnonzero(~lost)
        sols = solve(_alice_objective(bob[go], rhot, scenario, select)) if go.size else []
        sol_of = dict(zip(go, sols))
        still = []
        for j, i in enumerate(live):
            sol = sol_of.get(j)
            if (
                sol is None
                or sol.status != STATUS_OPTIMAL
                or sol.primal_value < val_b[j] - 1e-8
            ):
                results[i] = (float(val_b[j]), alice[i].copy(), bob[j], False, logs[i])
                continue
            alice[i] = sol.block_values
            logs[i].append(sol.primal_value)
            if sol.primal_value - prev[i] < SEESAW_IMPROVEMENT_TOL:
                settled.append(i)
            else:
                still.append(i)
            prev[i] = sol.primal_value
        live = np.array(still, dtype=int)
    # Converged, or out of rounds: one last Bob step.
    done = np.array(settled + list(live), dtype=int)
    if done.size:
        bob, value = _bob_step(alice[done], rhot, scenario, select)
        for j, i in enumerate(done):
            logs[i].append(float(value[j]))
            results[i] = (float(value[j]), alice[i].copy(), bob[j], True, logs[i])
    return results


def seesaw_critical_visibility(
    n: int,
    restarts: int | None = None,
    rng=None,
    gap_tol: float = DEFAULT_GAP_TOL,
    feas_tol: float = DEFAULT_FEAS_TOL,
    v_lo: float = 0.4,
    v_hi: float = 1.0,
) -> SeesawResult:
    """Smallest noisy-singlet visibility at which a see-saw strategy still
    violates the classical bound, by Dinkelbach iteration.

    For a fixed strategy the game value on the noisy singlet is affine in
    the visibility, S(v) = S0 + v (S1 - S0), so it meets the bound exactly
    at (bound - S0) / (S1 - S0): the strategy's crossing. The search probes
    v_hi, then the smallest crossing of the strategy pool, and repeats at
    each new smallest crossing while a probe finds a violation there. A
    violation at v has its crossing below v, so the crossings decrease
    strictly; the first probe without a violation ends the search. A
    crossing at or below v_lo is replaced by one last probe at v_lo.

    Each probe first evaluates the pool of previously discovered strategies
    (their constraints do not depend on the visibility) and refines the
    best of them, then tries the full budget of random restarts, stopping
    at the first violation. The restarts of a probe run side by side: all
    of its raw Alice strategies are drawn, repaired in one batched solve
    and alternated in lockstep, and the results are then taken in restart
    order. At a violation in restart i the later results are dropped and
    the generator is set back to its state after draw i, so the restarts
    used, the iteration logs, the pool and the random stream are those of
    running the restarts one after another. The pool keeps the four
    strategies with the smallest crossings.

    The threshold is max(v_lo, smallest crossing of the final pool), the
    returned effects are that strategy's, and value_at_threshold is its
    value there: the bound, up to rounding, unless v_lo cut the crossing.
    The returned trace re-evaluates the final strategy pool at every probed
    visibility, so it is nondecreasing in v by construction. Every completed
    alternation run contributes its per-iteration value sequence to
    iteration_logs; runs abandoned on solver failure are discarded.
    """
    if not 2 <= n <= 7:
        raise ValueError("supported range is 2 <= n <= 7")
    if restarts is None:
        restarts = 20 if n <= 4 else 50
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if rng is None:
        rng = np.random.default_rng(0)
    scenario, prepared, select = _alice_program(n)
    n_x = len(scenario.x_strings)
    bound = noncontextual_bound(n)
    pool: list = []
    probed: list = []
    logs: list = []
    used = 0

    def solve_stack(objectives) -> list:
        return prepared.solve_batch(objectives, gap_tol=gap_tol, feas_tol=feas_tol)

    def rhot_at(v: float) -> np.ndarray:
        return noisy_singlet(v).entries.reshape(2, 2, 2, 2)

    rhot_0, rhot_1 = rhot_at(0.0), rhot_at(1.0)

    def crossing(alice, bob) -> float:
        s0 = _strategy_value(alice, bob, rhot_0, scenario)
        s1 = _strategy_value(alice, bob, rhot_1, scenario)
        return (bound - s0) / (s1 - s0) if s1 > s0 else np.inf

    def add_to_pool(alice, bob) -> None:
        pool.append((alice, bob, crossing(alice, bob)))
        pool.sort(key=lambda s: s[2])
        del pool[4:]

    def probe(v: float) -> bool:
        nonlocal used
        rhot = rhot_at(v)
        best_val = -np.inf
        best_pool = None
        for alice, bob, _ in pool:
            val = _strategy_value(alice, bob, rhot, scenario)
            if val > best_val:
                best_val = val
                best_pool = alice
        probed.append(v)
        if best_val > bound + VIOLATION_MARGIN:
            return True
        if best_pool is not None:
            # Refined alone and first: it ends many probes.
            used += 1
            ((val, alice, bob, ok, run_log),) = _alternate(
                solve_stack, scenario, rhot, select, best_pool[None]
            )
            if ok:
                logs.append(tuple(run_log))
                if val > best_val:
                    best_val = val
                    add_to_pool(alice, bob)
            if best_val > bound + VIOLATION_MARGIN:
                return True
        raw, states = [], []
        for _ in range(restarts):
            raw.append(_random_sharp_alice(rng, n_x))
            states.append(rng.bit_generator.state)
        repairs = prepared.solve_batch(
            hvec(np.array(raw)).reshape(restarts, -1),
            gap_tol=gap_tol,
            feas_tol=feas_tol,
        )
        repaired = [i for i, sol in enumerate(repairs) if sol.status == STATUS_OPTIMAL]
        starts = np.array([repairs[i].block_values for i in repaired]).reshape(
            len(repaired), 2 * n_x, 2, 2
        )
        run_of = dict(
            zip(repaired, _alternate(solve_stack, scenario, rhot, select, starts))
        )
        for i in range(restarts):
            used += 1
            if i not in run_of:
                continue
            val, alice, bob, ok, run_log = run_of[i]
            if not ok:
                continue
            logs.append(tuple(run_log))
            if val > best_val:
                best_val = val
                add_to_pool(alice, bob)
            if best_val > bound + VIOLATION_MARGIN:
                rng.bit_generator.state = states[i]
                return True
        return False

    if not probe(v_hi):
        raise RuntimeError("see-saw found no violation at the top visibility")
    while True:
        v = pool[0][2]
        if v <= v_lo:
            probe(v_lo)
            break
        if not probe(v):
            break
    # The solver's completeness residual can sit a hair above the POVM
    # validation tolerance, so snap the Alice effects onto exact
    # completeness; the threshold is the crossing of the snapped strategy.
    raw_alice, bob, _ = pool[0]
    alice = []
    for xi in range(n_x):
        vals, vecs = np.linalg.eigh(raw_alice[2 * xi])
        first = (vecs * np.clip(vals, 0.0, 1.0)) @ vecs.conj().T
        alice += [first, np.eye(2) - first]
    alice = np.array(alice)
    v_threshold = max(v_lo, crossing(alice, bob))

    trace = []
    for v in sorted(set(probed)):
        rhot = rhot_at(v)
        trace.append(
            (v, max(_strategy_value(a, b, rhot, scenario) for a, b, _ in pool))
        )
    alice_set, bob_set = (
        MeasurementSet(
            [Povm([HermitianOperator(e0), HermitianOperator(e1)]) for e0, e1 in pairs]
        )
        for pairs in (alice.reshape(n_x, 2, 2, 2), bob)
    )
    return SeesawResult(
        n=n,
        v_threshold=v_threshold,
        value_at_threshold=_strategy_value(alice, bob, rhot_at(v_threshold), scenario),
        trace=tuple(trace),
        alice_effects=alice_set,
        bob_effects=bob_set,
        restarts_used=used,
        iteration_logs=tuple(logs),
    )
