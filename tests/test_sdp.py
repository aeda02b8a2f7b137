import dataclasses
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize

from steercert import sdp
from steercert.linalg import HermitianOperator, min_eigenvalue
from steercert.sdp import (
    STATUS_MAX_ITERATIONS,
    STATUS_NUMERICAL_FAILURE,
    STATUS_OPTIMAL,
    PreparedSdp,
    ProgramBuilder,
    SdpProblem,
    hermitian_basis,
    hvec,
    operator_rows,
    solve,
    unhvec,
)
from steercert.tolerances import DEFAULT_GAP_TOL

from randsdp import random_feasible_problem, random_hermitian


def test_hvec_isometry():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 5):
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        va, vb = hvec(a), hvec(b)
        assert va.shape == (dim * dim,)
        assert np.dot(va, vb) == pytest.approx(np.sum(a.conj() * b).real, abs=1e-12)
        assert np.max(np.abs(unhvec(va, dim) - a)) < 1e-14


def test_hermitian_basis_orthonormal():
    for dim in (2, 3):
        basis = hermitian_basis(dim)
        gram = np.einsum("kij,lij->kl", basis.conj(), basis).real
        assert np.max(np.abs(gram - np.eye(dim * dim))) < 1e-14
        flat = hvec(basis)
        assert np.max(np.abs(flat - np.eye(dim * dim))) < 1e-14


def _hvec_reference(mats):
    """hvec as fancy indexing over np.triu_indices: the oracle for the
    cached gather plan."""
    mats = np.asarray(mats)
    dim = mats.shape[-1]
    iu, ju = np.triu_indices(dim, k=1)
    out = np.empty(mats.shape[:-2] + (dim * dim,), dtype=np.float64)
    rng = np.arange(dim)
    out[..., :dim] = mats[..., rng, rng].real
    npairs = iu.size
    out[..., dim : dim + npairs] = np.sqrt(2.0) * mats[..., iu, ju].real
    out[..., dim + npairs :] = np.sqrt(2.0) * mats[..., iu, ju].imag
    return out


def _unhvec_reference(vecs, dim):
    """unhvec as fancy indexing over np.triu_indices with a complex division
    by sqrt(2): the oracle for the cached scatter plan."""
    vecs = np.asarray(vecs, dtype=np.float64)
    iu, ju = np.triu_indices(dim, k=1)
    npairs = iu.size
    out = np.zeros(vecs.shape[:-1] + (dim, dim), dtype=np.complex128)
    rng = np.arange(dim)
    out[..., rng, rng] = vecs[..., :dim]
    upper = (
        vecs[..., dim : dim + npairs] + 1j * vecs[..., dim + npairs :]
    ) / np.sqrt(2.0)
    out[..., iu, ju] = upper
    out[..., ju, iu] = upper.conj()
    return out


LEADING_SHAPES = [(), (5,), (3, 4), (0,)]


@pytest.mark.parametrize("lead", LEADING_SHAPES, ids=str)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_hvec_matches_reference_bit_for_bit(dim, lead):
    rng = np.random.default_rng(dim)
    shape = lead + (dim, dim)
    mats = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    real = rng.normal(size=shape)
    # Non-contiguous inputs: a transposed view and a strided view.
    transposed = np.swapaxes(mats, -1, -2)
    big = rng.normal(size=lead + (2 * dim, 2 * dim)) + 1j * rng.normal(
        size=lead + (2 * dim, 2 * dim)
    )
    strided = big[..., ::2, 1::2]
    if mats.size and dim > 1:
        assert not strided.flags.c_contiguous
        assert not transposed.flags.c_contiguous
    for inp in (mats, real, transposed, strided):
        got = hvec(inp)
        want = _hvec_reference(inp)
        assert got.shape == want.shape == lead + (dim * dim,)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lead", LEADING_SHAPES, ids=str)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_unhvec_matches_reference_bit_for_bit(dim, lead):
    rng = np.random.default_rng(10 + dim)
    vecs = rng.normal(size=lead + (dim * dim,))
    strided = rng.normal(size=lead + (2 * dim * dim,))[..., ::2]
    for inp in (vecs, strided):
        got = unhvec(inp, dim)
        want = _unhvec_reference(inp, dim)
        assert got.shape == want.shape == lead + (dim, dim)
        assert got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_unhvec_inverts_hvec(dim):
    rng = np.random.default_rng(20 + dim)
    mats = np.stack([random_hermitian(rng, dim) for _ in range(6)]).reshape(
        2, 3, dim, dim
    )
    back = unhvec(hvec(mats), dim)
    assert np.max(np.abs(back - mats)) < 1e-15
    # The image is Hermitian exactly, not only to rounding.
    assert np.array_equal(back, np.swapaxes(back, -1, -2).conj())
    vecs = rng.normal(size=(4, dim * dim))
    assert np.max(np.abs(hvec(unhvec(vecs, dim)) - vecs)) < 1e-15


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cached_plan_and_basis_are_read_only(dim):
    plan = sdp._vec_plan(dim)
    assert plan is sdp._vec_plan(dim)
    for arr in plan:
        if arr.size == 0:
            continue
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    basis = hermitian_basis(dim)
    assert basis is hermitian_basis(dim)
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 2.0


def test_fully_constrained_scalar():
    problem = SdpProblem(
        dims=(1,),
        objective=[HermitianOperator([[1.0]])],
        constraints=[([HermitianOperator([[1.0]])], 0.3)],
        maximize=True,
    )
    sol = solve(problem)
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_value == pytest.approx(0.3, abs=1e-8)
    assert sol.block_values[0][0, 0].real == pytest.approx(0.3, abs=1e-8)


def test_diagonal_lp_matches_linprog():
    rng = np.random.default_rng(42)
    k = 6
    x0 = rng.uniform(0.2, 1.5, size=k)
    a_eq = np.vstack([rng.normal(size=(3, k)), np.ones(k)])
    b_eq = a_eq @ x0
    c = rng.normal(size=k)

    res = scipy.optimize.linprog(
        -c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * k, method="highs"
    )
    assert res.status == 0

    constraints = [
        ([HermitianOperator([[a_eq[i, j]]]) for j in range(k)], float(b_eq[i]))
        for i in range(a_eq.shape[0])
    ]
    problem = SdpProblem(
        dims=(1,) * k,
        objective=[HermitianOperator([[c[j]]]) for j in range(k)],
        constraints=constraints,
        maximize=True,
    )
    sol = solve(problem)
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_value == pytest.approx(-res.fun, abs=1e-6)


@pytest.mark.parametrize("dim", [2, 4])
def test_max_eigenvalue_oracle(dim):
    rng = np.random.default_rng(dim)
    c = random_hermitian(rng, dim)
    lam_max = float(np.linalg.eigvalsh(c)[-1])
    problem = SdpProblem(
        dims=(dim,),
        objective=[HermitianOperator(c)],
        constraints=[([HermitianOperator.identity(dim)], 1.0)],
        maximize=True,
    )
    sol = solve(problem)
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_value == pytest.approx(lam_max, abs=1e-7)
    assert sol.dual_value >= sol.primal_value - 1e-8


def test_objective_constant_and_minimize():
    dim = 3
    rng = np.random.default_rng(8)
    c = random_hermitian(rng, dim)
    lam_min = float(np.linalg.eigvalsh(c)[0])
    problem = SdpProblem(
        dims=(dim,),
        objective=[HermitianOperator(c)],
        constraints=[([HermitianOperator.identity(dim)], 1.0)],
        maximize=False,
        objective_const=2.5,
    )
    sol = solve(problem)
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_value == pytest.approx(lam_min + 2.5, abs=1e-7)
    # minimization: the dual certifies from below
    assert sol.dual_value <= sol.primal_value + 1e-8


def test_solve_maps_a_minimization_onto_a_maximization():
    """solve() of a minimization with a constant is, bit for bit, the
    maximization of the negated objective with its values negated back and
    shifted, and the gap taken between the shifted values."""
    rng = np.random.default_rng(17)
    for _ in range(12):
        problem = random_feasible_problem(rng)
        problem.maximize = False
        problem.objective_const = float(rng.normal())
        prep = PreparedSdp(problem.dims, *operator_rows(problem.dims, problem.constraints))
        ref = prep.solve_with(-_objective(problem.dims, problem.objective))
        primal = -ref.primal_value + problem.objective_const
        dual = -ref.dual_value + problem.objective_const
        expected = dataclasses.replace(
            ref, primal_value=primal, dual_value=dual, gap=abs(primal - dual)
        )
        assert _solution_key(solve(problem)) == _solution_key(expected)


def test_random_problems_weak_duality_and_feasibility():
    rng = np.random.default_rng(2024)
    n_ok = 0
    for _ in range(120):
        problem = random_feasible_problem(rng)
        sol = solve(problem)
        assert sol.status == STATUS_OPTIMAL, sol.message
        n_ok += 1
        if problem.maximize:
            assert sol.primal_value <= sol.dual_value + 1e-7
        else:
            assert sol.primal_value >= sol.dual_value - 1e-7
        assert sol.gap <= 1e-8
        assert sol.primal_infeasibility <= 1e-7
        for block in sol.block_values:
            assert min_eigenvalue(HermitianOperator(block)) >= -1e-8
        # residual of every original constraint, including redundant ones
        for coeffs, rhs in problem.constraints:
            val = sum(
                float(np.sum(c.entries.conj() * sol.block_values[j]).real)
                for j, c in enumerate(coeffs)
                if c is not None
            )
            assert val == pytest.approx(rhs, abs=1e-6 * (1 + abs(rhs)))
    assert n_ok == 120


def test_bit_for_bit_determinism():
    rng = np.random.default_rng(77)
    problem = random_feasible_problem(rng)
    first = solve(problem)
    second = solve(problem)
    assert first.primal_value == second.primal_value
    assert first.dual_value == second.dual_value
    assert first.iterations == second.iterations
    for a, b in zip(first.block_values, second.block_values):
        assert np.array_equal(a, b)


def test_inconsistent_rows_fail():
    one = HermitianOperator([[1.0]])
    problem = SdpProblem(
        dims=(1,),
        objective=[one],
        constraints=[([one], 1.0), ([one], 2.0)],
        maximize=True,
    )
    sol = solve(problem)
    assert sol.status == STATUS_NUMERICAL_FAILURE
    assert "inconsistent" in sol.message


def test_redundant_rows_are_harmless():
    dim = 2
    ident = HermitianOperator.identity(dim)
    c = HermitianOperator([[1.0, 0.0], [0.0, 0.0]])
    problem = SdpProblem(
        dims=(dim,),
        objective=[c],
        constraints=[([ident], 1.0), ([2.0 * ident], 2.0), ([ident], 1.0)],
        maximize=True,
    )
    sol = solve(problem)
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_value == pytest.approx(1.0, abs=1e-7)


def test_max_iterations_status():
    rng = np.random.default_rng(13)
    problem = random_feasible_problem(rng)
    sol = solve(problem, max_iter=1)
    assert sol.status == STATUS_MAX_ITERATIONS


def _objective(dims, coeffs):
    """An SdpProblem-style objective, one operator or None per block, in
    the hvec layout that solve_with takes."""
    (objective,), _ = operator_rows(dims, [(coeffs, 0.0)])
    return objective


def test_prepared_reuse_matches_fresh_solve():
    dim = 3
    rng = np.random.default_rng(0)
    constraints = [([HermitianOperator.identity(dim)], 1.0)]
    prep = PreparedSdp((dim,), *operator_rows((dim,), constraints))
    for seed in range(4):
        c = HermitianOperator(random_hermitian(np.random.default_rng(seed), dim))
        fresh = solve(
            SdpProblem(dims=(dim,), objective=[c], constraints=constraints)
        )
        reused = prep.solve_with(_objective((dim,), [c]))
        assert reused.primal_value == fresh.primal_value
        assert reused.iterations == fresh.iterations


def _povm_program(n_blocks):
    """Blocks X_j >= 0 (3x3) summing to the identity; a fresh seeded
    objective. The Schur contraction path is stored only on groups of
    Hermitian blocks, d >= 3; 2x2 and 1x1 blocks are cones with closed-form
    scalings."""
    builder = ProgramBuilder([3] * n_blocks)
    builder.add_operator_equation({j: 1.0 for j in range(n_blocks)}, np.eye(3))
    rng = np.random.default_rng(n_blocks)
    objective = [
        HermitianOperator(random_hermitian(rng, 3)) for _ in range(n_blocks)
    ]
    return builder.prepared(), _objective(builder.dims, objective)


def _solution_bytes(sol):
    return (
        sol.iterations,
        sol.primal_value,
        sol.dual_value,
        [block.tobytes() for block in sol.block_values],
    )


def test_stored_schur_path_is_per_program():
    prep, objective = _povm_program(3)
    first = _solution_bytes(prep.solve_with(objective))
    assert first[0] > 1
    assert _solution_bytes(prep.solve_with(objective)) == first
    # A program of another block count in between must not disturb the
    # solve of the first one.
    other, other_objective = _povm_program(9)
    other_first = _solution_bytes(other.solve_with(other_objective))
    assert _solution_bytes(prep.solve_with(objective)) == first
    assert _solution_bytes(other.solve_with(other_objective)) == other_first


def _without_rows(dims):
    return PreparedSdp(dims, *operator_rows(dims, []))


# -- cone kernels -------------------------------------------------------------


def _lorentz_primal(mats):
    """Cone coordinates x = Q hvec(X) / sqrt(2) of 2x2 primal blocks."""
    return hvec(mats) @ sdp._SOC_M / 2.0


def _lorentz_dual(mats):
    """Cone coordinates z = sqrt(2) Q hvec(Z) of 2x2 dual blocks."""
    return hvec(mats) @ sdp._SOC_M


def _random_pd(rng, n, dim=2):
    """n random positive definite blocks, some of them near singular."""
    out = []
    for k in range(n):
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        floor = 10.0 ** -(k % 7)
        out.append(raw @ raw.conj().T / dim + floor * np.eye(dim))
    return np.stack(out)


def _soc_h(x, z):
    """Schur kernel sqrt(det x / det z) (2 w w^T - J) from its formula."""
    jmat = np.diag([1.0, -1.0, -1.0, -1.0])
    det_x = np.einsum("ni,ij,nj->n", x, jmat, x)
    det_z = np.einsum("ni,ij,nj->n", z, jmat, z)
    xb = x / np.sqrt(det_x)[:, None]
    zb = z / np.sqrt(det_z)[:, None]
    gamma = np.sqrt(0.5 * (1.0 + np.sum(xb * zb, axis=1)))
    wb = (xb + zb @ jmat) / (2.0 * gamma)[:, None]
    return np.sqrt(det_x / det_z)[:, None, None] * (
        2.0 * wb[:, :, None] * wb[:, None, :] - jmat
    )


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("seed", range(4))
def test_lorentz_scaling_identities(seed):
    rng = np.random.default_rng(seed)
    x = _lorentz_primal(_random_pd(rng, 12))
    z = _lorentz_dual(_random_pd(rng, 12))
    s = sdp._LorentzScaling(x, z)
    w = s.w  # W is symmetric, so W^T = W
    assert s.wt is w
    assert np.array_equal(w, np.swapaxes(w, 1, 2))
    h = w @ w
    assert _rel(h, _soc_h(x, z)) < 1e-12
    assert _rel(np.einsum("nij,nj->ni", h, z), x) < 1e-12
    assert _rel(sdp._matvec(s.w, z), s.lam) < 1e-12
    assert _rel(np.linalg.solve(w, x[..., None])[..., 0], s.lam) < 1e-12
    assert _rel(sdp._matvec(s.wt, s.lam), x) < 1e-12
    # lam o g = r is solved exactly.
    r = rng.normal(size=x.shape)
    g = sdp._LorentzGroup.jordan(s.lam, s.solve(r))
    assert _rel(g, r) < 1e-12


def test_hermitian_scaling_identities():
    rng = np.random.default_rng(4)
    group = sdp._HermitianGroup(3, list(range(5)), 0)
    xm = _random_pd(rng, 5, dim=3)
    zm = _random_pd(rng, 5, dim=3)
    x, z = hvec(xm), hvec(zm)
    s = group.nt(x, z)
    # w holds W: column k is W applied to basis vector k, the congruence
    # R^H B_k R of basis matrix B_k. wt holds its transpose.
    lx = np.linalg.cholesky(xm)
    _, sig, vh = np.linalg.svd(np.linalg.cholesky(zm).conj().transpose(0, 2, 1) @ lx)
    r = (lx @ vh.conj().transpose(0, 2, 1)) / np.sqrt(sig)[:, None, :]
    r_h = r.conj().transpose(0, 2, 1)
    for k in range(9):
        want = hvec(r_h @ sdp.hermitian_basis(3)[k] @ r)
        assert _rel(sdp._matvec(s.w, np.tile(np.eye(9)[k], (5, 1))), want) < 1e-12
    assert np.array_equal(s.w, np.swapaxes(s.wt, 1, 2))
    assert s.w.flags.c_contiguous
    h = s.wt @ s.w
    assert _rel(np.einsum("nij,nj->ni", h, z), x) < 1e-12
    assert _rel(sdp._matvec(s.w, z), s.lam) < 1e-12
    assert _rel(sdp._matvec(s.wt, s.lam), x) < 1e-12
    r = rng.normal(size=x.shape)
    assert _rel(group.jordan(s.lam, s.solve(r)), r) < 1e-12


def _max_step(scaling, delta):
    """Largest step along the scaled direction delta over all blocks."""
    least = scaling.least_eig(delta).min(keepdims=True)
    return sdp._steps_from_min_eig(least)[0]


def test_orthant_scaling_identities():
    rng = np.random.default_rng(3)
    x = rng.uniform(1e-6, 2.0, size=(9, 1))
    z = rng.uniform(1e-6, 2.0, size=(9, 1))
    s = sdp._OrthantScaling(x, z)
    assert s.w is s.wt
    h = s.wt @ s.w
    assert _rel(h[:, :, 0] * z, x) < 1e-12
    assert _rel(sdp._matvec(s.w, z), s.lam) < 1e-12
    assert _rel(x / s.wt[:, :, 0], s.lam) < 1e-12
    r = rng.normal(size=x.shape)
    assert _rel(s.lam * s.solve(r), r) < 1e-12
    delta = rng.normal(size=x.shape)
    want = min(-s.lam[i, 0] / delta[i, 0] for i in range(9) if delta[i, 0] < 0)
    assert _max_step(s, delta) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_null_form_scalings_hold_the_inverse(dim):
    """Built with ``inverse``, as the null-space form builds it, the scaling
    of every cone holds W^-1 and W^-T beside W and W^T."""
    rng = np.random.default_rng(20 + dim)
    xm = _random_pd(rng, 7, dim)
    zm = _random_pd(rng, 7, dim)
    if dim == 2:
        x, z = _lorentz_primal(xm), _lorentz_dual(zm)
    else:
        x, z = hvec(xm), hvec(zm)
    s = sdp._make_group(dim, list(range(7)), 0).nt(x, z, inverse=True)
    eye = np.broadcast_to(np.eye(dim * dim), s.w.shape)
    assert _rel(s.winv @ s.w, eye) < 1e-12
    assert np.array_equal(s.winv_t, np.swapaxes(s.winv, 1, 2))
    assert np.array_equal(s.w, np.swapaxes(s.wt, 1, 2))
    assert _rel(sdp._matvec(s.winv_t, x), s.lam) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_lorentz_step_length_matches_eigvalsh(seed):
    """The step to the boundary from x along dx is minus the inverse of the
    least eigenvalue of X^-1/2 dX X^-1/2, for any NT scaling at x."""
    rng = np.random.default_rng(10 + seed)
    n = 10
    xm = _random_pd(rng, n)
    s = sdp._LorentzScaling(_lorentz_primal(xm), _lorentz_dual(_random_pd(rng, n)))
    for trial in range(5):
        dxm = np.stack([random_hermitian(rng, 2) for _ in range(n)])
        if trial == 0:
            dxm = _random_pd(rng, n)  # never leaves the cone
        scaled = np.linalg.solve(s.wt, _lorentz_primal(dxm)[..., None])[..., 0]
        got = _max_step(s, scaled)
        want = np.inf
        for xb, db in zip(xm, dxm):
            evals, evecs = np.linalg.eigh(xb)
            isqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
            lam_min = np.linalg.eigvalsh(isqrt @ db @ isqrt)[0]
            if lam_min < 0:
                want = min(want, -1.0 / lam_min)
        if np.isinf(want):
            assert np.isinf(got)
        else:
            assert got == pytest.approx(want, rel=1e-10)


def test_lorentz_interior_agrees_with_cholesky():
    rng = np.random.default_rng(21)
    mats = [random_hermitian(rng, 2) for _ in range(200)]
    mats += list(_random_pd(rng, 50))
    for mat in mats:
        try:
            np.linalg.cholesky(mat)
            definite = True
        except np.linalg.LinAlgError:
            definite = False
        x = _lorentz_primal(mat[None])
        assert sdp._LorentzGroup.interior(x) == definite


def test_lorentz_coordinates_round_trip_and_pairing():
    rng = np.random.default_rng(22)
    xm = np.stack([random_hermitian(rng, 2) for _ in range(8)])
    zm = np.stack([random_hermitian(rng, 2) for _ in range(8)])
    group = sdp._LorentzGroup(2, list(range(8)), 0)
    x = _lorentz_primal(xm)
    z = group.dual_coords(hvec(zm))
    assert np.max(np.abs(group.matrices(x) - xm)) < 1e-15
    assert np.max(np.abs(unhvec(z @ sdp._SOC_M / 2.0, 2) - zm)) < 1e-15
    # x.z is the trace pairing, x0 +- |x1| are X's eigenvalues, and the
    # cone's Jordan product is the symmetrized matrix product.
    traces = np.einsum("nij,nji->n", xm, zm).real
    assert np.max(np.abs(np.sum(x * z, axis=1) - traces)) < 1e-14
    lo, hi = sdp._soc_bounds(x)
    evals = np.linalg.eigvalsh(xm)
    assert np.max(np.abs(np.stack([lo, hi], axis=1) - evals)) < 1e-14
    sym = 0.5 * (xm @ zm + zm @ xm)
    assert np.max(np.abs(group.jordan(x, z) - group.dual_coords(hvec(sym)))) < 1e-14


def test_block_dimension_picks_the_cone():
    prep = _without_rows((3, 1, 2, 2, 1, 4))
    kinds = {g.dim: type(g) for g in prep.groups}
    assert kinds == {
        1: sdp._OrthantGroup,
        2: sdp._LorentzGroup,
        3: sdp._HermitianGroup,
        4: sdp._HermitianGroup,
    }


def test_backtracking_admits_only_interior_rows():
    """Every row _backtrack_into_cone returns is finite and passes each
    group's strict-interior test, the test the orthant and Lorentz
    scalings rely on in place of failure flags: huge directions are halved
    or refused, and directions with non-finite entries are refused."""
    prep = _without_rows((3, 1, 2, 2, 1))
    rng = np.random.default_rng(41)
    k = 8
    state = prep._x_start + 0.2 * rng.normal(size=(k, prep.n_cols))
    assert prep._interior(state).all()
    delta = rng.normal(size=(k, prep.n_cols))
    delta[1] *= 1e3
    delta[2] *= 1e150
    delta[3, 2] = 1e150  # a Lorentz block's x_0: inside at any step
    delta[4, 0] = np.nan
    delta[5, 1] = np.inf  # an orthant coordinate
    delta[6, 2] = np.inf  # a Lorentz block's x_0
    delta[7, 12] = -np.inf  # a 3x3 block's diagonal
    for sign in (1.0, -1.0):
        alpha, new = prep._backtrack_into_cone(state, sign * delta, np.ones(k))
        assert np.isfinite(new).all()
        for g in prep.groups:
            assert g.interior(g.seg(new)).all()
        moved = alpha > 0
        assert np.array_equal(new[~moved], state[~moved])
        step = state[moved] + alpha[moved, None] * (sign * delta[moved])
        assert np.array_equal(new[moved], step)
        assert not moved[4:].any()
        assert moved[:4].any()


def test_program_without_equalities():
    # min tr X1 + tr X2 + x3 over the cones, as the maximum of its
    # negation: the optimum is 0.
    prep = _without_rows((1, 2, 3))
    objective = [
        HermitianOperator([[1.0]]),
        HermitianOperator.identity(2),
        HermitianOperator.identity(3),
    ]
    sol = prep.solve_with(-_objective((1, 2, 3), objective))
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_value == pytest.approx(0.0, abs=1e-8)


def test_builder_operator_equation():
    builder = ProgramBuilder([2, 2])
    builder.add_operator_equation({0: 1.0, 1: 1.0}, np.eye(2))
    objective = [HermitianOperator([[1.0, 0.0], [0.0, 0.0]]), None]
    sol = builder.prepared().solve_with(_objective(builder.dims, objective))
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_value == pytest.approx(1.0, abs=1e-7)
    total = sol.block_values[0] + sol.block_values[1]
    assert np.max(np.abs(total - np.eye(2))) <= 1e-6


def test_builder_matrix_term_on_scalar_block():
    # X = t * diag(1, 2) with Tr X = 1 forces t = 1/3.
    builder = ProgramBuilder([2, 1])
    target = np.diag([1.0, 2.0])
    builder.add_operator_equation({0: 1.0, 1: -1.0 * target}, np.zeros((2, 2)))
    builder.add_scalar_row({0: np.eye(2)}, 1.0)
    sol = builder.prepared().solve_with(
        _objective(builder.dims, [None, HermitianOperator([[1.0]])])
    )
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_value == pytest.approx(1.0 / 3.0, abs=1e-7)


def test_builder_scalar_equation():
    builder = ProgramBuilder([1, 1])
    builder.add_operator_equation({0: 1.0, 1: 1.0}, 1.0)
    sol = builder.prepared().solve_with(
        _objective(builder.dims, [HermitianOperator([[1.0]]), None])
    )
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_value == pytest.approx(1.0, abs=1e-7)


def test_non_finite_rows_are_rejected():
    builder = ProgramBuilder([1, 1])
    builder.add_operator_equation({0: 1.0, 1: 1.0}, float("nan"))
    with pytest.raises(ValueError, match="finite"):
        builder.prepared()
    builder = ProgramBuilder([2, 1])
    nan_term = np.array([[np.nan, 0.0], [0.0, 1.0]])
    builder.add_operator_equation({0: 1.0, 1: nan_term}, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        builder.prepared()
    with pytest.raises(ValueError, match="finite"):
        PreparedSdp((1, 1), [[1.0, np.nan]], [1.0])
    with pytest.raises(ValueError, match="finite"):
        PreparedSdp((1, 1), [[1.0, 1.0]], [np.inf])


class _RecordingBuilder(ProgramBuilder):
    """A ProgramBuilder that also keeps every call, for the reference rows."""

    def __init__(self, dims):
        super().__init__(dims)
        self.calls = []
        _RecordingBuilder.built.append(self)

    def add_scalar_row(self, coeffs, rhs):
        self.calls.append((None, dict(coeffs), rhs))
        super().add_scalar_row(coeffs, rhs)

    def add_operator_equation(self, terms, rhs):
        self.calls.append((dict(terms), None, rhs))
        super().add_operator_equation(terms, rhs)


def _reference_rows(builder):
    """The rows of the operator-row path: every scalar row and every basis
    matrix B_k of an equation's dimension wrapped one coefficient per block
    in a HermitianOperator, a matrix term M on a 1x1 block weighted by
    <B_k, M>, and each HermitianOperator vectorized with hvec."""
    start = np.cumsum([0] + [d * d for d in builder.dims])
    rows, rhs = [], []
    for terms, coeffs, r in builder.calls:
        if coeffs is not None:
            row = np.zeros(start[-1])
            for j, op in coeffs.items():
                op = HermitianOperator(op)
                row[start[j] : start[j + 1]] = hvec(op.entries)
            rows.append(row)
            rhs.append(float(r))
            continue
        rhs_mat = np.asarray(r) if np.ndim(r) == 2 else np.array([[r]])
        for bk in hermitian_basis(rhs_mat.shape[0]):
            row = np.zeros(start[-1])
            for j, c in terms.items():
                if isinstance(c, np.ndarray):
                    row[start[j]] = np.sum(bk.conj() * c).real
                else:
                    op = HermitianOperator(float(c) * bk)
                    row[start[j] : start[j + 1]] = hvec(op.entries)
            rows.append(row)
            rhs.append(float(np.sum(bk.conj() * rhs_mat).real))
    return np.array(rows), np.array(rhs)


def _production_builders(monkeypatch):
    from steercert import certify, witness
    from steercert.quantum import assemblage_from, noisy_singlet, sample_random_povm_set

    _RecordingBuilder.built = []
    monkeypatch.setattr(certify, "ProgramBuilder", _RecordingBuilder)
    monkeypatch.setattr(witness, "ProgramBuilder", _RecordingBuilder)
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        _, mset = sample_random_povm_set(rng, n)
        certify.jm_critical_visibility(mset)
        certify.lhs_critical_visibility(assemblage_from(noisy_singlet(0.8), mset))
    witness._ensemble_program.__wrapped__(3)
    witness._alice_program.__wrapped__(3)
    return _RecordingBuilder.built


def _mixed_builder():
    # Dimensions out of order, so block order and group order differ; the
    # matrix term on block 1 is not Hermitian.
    builder = _RecordingBuilder((3, 1, 2, 2, 1))
    rng = np.random.default_rng(12)
    skew = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rhs2 = random_hermitian(rng, 2)
    builder.add_operator_equation({2: 0.7, 3: -1.3, 1: skew, 4: rhs2}, rhs2)
    builder.add_operator_equation({0: 2.0}, random_hermitian(rng, 3) + 4.0 * np.eye(3))
    builder.add_operator_equation({1: 1.0, 4: 0.5}, 1.5)
    builder.add_scalar_row(
        {
            0: np.eye(3),
            1: [[2.0]],
            2: random_hermitian(rng, 2),
            3: np.eye(2),
        },
        4.0,
    )
    return builder


def test_rows_match_the_operator_row_path(monkeypatch):
    _RecordingBuilder.built = []
    mixed = _mixed_builder()
    builders = _production_builders(monkeypatch) + [mixed]
    assert len(builders) == 3 * 2 + 2 + 1
    for builder in builders:
        a, b = builder.constraint_matrix()
        a_ref, b_ref = _reference_rows(builder)
        assert a.shape == a_ref.shape
        assert np.max(np.abs(a - a_ref)) <= 1e-15
        assert np.max(np.abs(b - b_ref)) <= 1e-15


def test_prepared_gathers_block_columns_by_dimension():
    _RecordingBuilder.built = []
    builder = _mixed_builder()
    a, _ = builder.constraint_matrix()
    prep = builder.prepared()
    # Full row rank: a_red keeps every row, in order.
    assert prep.m == a.shape[0]
    start = np.cumsum([0] + [d * d for d in builder.dims])
    for g in prep.groups:
        d2 = g.dim * g.dim
        for pos, j in enumerate(g.blocks):
            cols = slice(g.col_start + pos * d2, g.col_start + (pos + 1) * d2)
            expected = g.dual_coords(a[:, start[j] : start[j + 1]])
            assert np.array_equal(prep.a_red[0][:, cols], expected)


def _solution_key(sol):
    """Every field of a solution, floats and blocks as bytes (NaN-safe)."""
    floats = [
        sol.primal_value,
        sol.dual_value,
        sol.gap,
        sol.primal_infeasibility,
        sol.dual_infeasibility,
    ]
    return (
        sol.status,
        sol.message,
        sol.iterations,
        np.array(floats).tobytes(),
        [block.tobytes() for block in sol.block_values],
    )


def _certify_programs(run):
    """The arguments of every PreparedSdp that certify builds in run()."""
    from steercert import certify

    built = []

    class Recording(PreparedSdp):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "PreparedSdp", Recording)
        run()
    return built


def _unbiased_sets(n, count, seed):
    """Sharp measurement sets of n settings on random axes."""
    from steercert.quantum import MeasurementSet, sharp_povm

    rng = np.random.default_rng(seed)
    return [
        MeasurementSet([sharp_povm(axis) for axis in rng.normal(size=(n, 3))])
        for _ in range(count)
    ]


def _batch_program(name):
    """The program of a batch case, and a function that prepares the
    programs of the instances at some indices: the shared program itself,
    or that sub-stack of a stack of six."""
    from steercert import certify, witness

    if name == "jm_half2":
        sets = _unbiased_sets(2, 6, 41)
        ((dims, a, b),) = _certify_programs(lambda: certify.jm_critical_visibility(sets))
        return PreparedSdp(dims, a, b), lambda idx: PreparedSdp(dims, a[list(idx)], b)
    if name == "alice2":
        prep = witness._alice_program(2)[1]
    elif name == "alice3":
        prep = witness._alice_program(3)[1]
    elif name.startswith("ensemble"):
        prep = witness._ensemble_program(int(name[-1]))
    else:
        _RecordingBuilder.built = []
        prep = _mixed_builder().prepared()
    return prep, lambda idx: prep


# The batch cases whose programs take the null-space Newton form.
_NULL_FORM_CASES = {"alice2", "alice3", "ensemble3", "ensemble4", "mixed", "jm_half2"}


@pytest.mark.parametrize(
    "name",
    ["alice2", "alice3", "ensemble2", "ensemble3", "ensemble4", "mixed", "jm_half2"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_instances_match_their_batch_of_one(name):
    """Each instance of a batch is bit for bit its own batch of one,
    whatever else the batch holds and in whatever order, in both Newton
    forms, over a shared program and over a stack of six JM programs. The
    mixed program is unbounded for most objectives, so its instances also
    stop on NumericalFailure and MaxIterations, at different iterations."""
    prep, programs = _batch_program(name)
    assert prep.null_form == (name in _NULL_FORM_CASES)
    rng = np.random.default_rng(len(name))
    objectives = rng.normal(size=(6, prep.n_cols))
    for signed in (objectives, -objectives):
        alone = [_solution_key(programs([i]).solve_with(c)) for i, c in enumerate(signed)]
        assert len({key[2] for key in alone}) > 1
        batch = prep.solve_batch(signed)
        assert [_solution_key(sol) for sol in batch] == alone
        batch = programs(range(5, -1, -1)).solve_batch(signed[::-1])[::-1]
        assert [_solution_key(sol) for sol in batch] == alone
        pair = programs([2, 3]).solve_batch(signed[2:4])
        assert [_solution_key(sol) for sol in pair] == alone[2:4]
    if name == "mixed":
        assert STATUS_NUMERICAL_FAILURE in {key[0] for key in alone}
    # A cap between the fastest and the slowest instance stops some early;
    # alone holds the iterations of the last signed set, so cap that set.
    cap = sorted(key[2] for key in alone)[2]
    capped = [
        _solution_key(programs([i]).solve_with(c, max_iter=cap))
        for i, c in enumerate(signed)
    ]
    assert STATUS_MAX_ITERATIONS in {key[0] for key in capped}
    batch = prep.solve_batch(signed, max_iter=cap)
    assert [_solution_key(sol) for sol in batch] == capped


def _solves_in_form(run, force_range: bool) -> list:
    """(null_form, p, m, solution) of every solve in run(), with the
    witness programs built afresh; with force_range, every program takes
    the range form."""
    from steercert import witness

    solves = []
    solve_batch = PreparedSdp.solve_batch

    def recording(self, objectives, *args, **kwargs):
        sols = solve_batch(self, objectives, *args, **kwargs)
        p = self.n_cols - self.m
        solves.extend((self.null_form, p, self.m, sol) for sol in sols)
        return sols

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PreparedSdp, "solve_batch", recording)
        mp.setattr(witness, "_ensemble_program", witness._ensemble_program.__wrapped__)
        mp.setattr(witness, "_alice_program", witness._alice_program.__wrapped__)
        if force_range:
            mp.setattr(sdp, "_null_space_form", lambda m, n_cols: False)
        run()
    return solves


def _production_null_form_run(family: str, n: int):
    """Solves of one production family whose programs have p <= m."""
    from steercert import certify, witness
    from steercert.quantum import (
        BlochPovmParams,
        assemblage_from,
        noisy_singlet,
        povm_from_bloch,
    )

    rng = np.random.default_rng(60 + n)
    if family in ("ensemble", "jm_full"):
        draws = [_random_bloch_set(rng, n) for _ in range(6)]
        sets = [povm_from_bloch(BlochPovmParams(*d)) for d in draws]
        if family == "jm_full":
            return lambda: certify.jm_critical_visibility(sets)
        return lambda: witness.optimize_ensemble(witness.Scenario(n), sets)
    if family == "alice":
        n_x = 2 ** (n - 1)
        raw = [witness._random_sharp_alice(rng, n_x) for _ in range(6)]
        objectives = hvec(np.array(raw)).reshape(6, -1)
        return lambda: witness._alice_program(n)[1].solve_batch(objectives)
    sets = _unbiased_sets(n, 4, 70 + n)
    if family == "jm_half":
        return lambda: certify.jm_critical_visibility(sets)
    return lambda: [
        certify.lhs_critical_visibility(assemblage_from(noisy_singlet(v), mset))
        for v, mset in zip((0.55, 0.7, 0.85, 1.0), sets)
    ]


def _random_bloch_set(rng, n):
    """Axes, sharpness and bias of n random biased measurements."""
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    eta = rng.uniform(0.0, 1.0, size=n)
    alpha = rng.uniform(eta, 2.0 - eta)
    return tuple(map(tuple, axes)), tuple(eta), tuple(alpha)


@pytest.mark.parametrize(
    "family, n",
    [("ensemble", n) for n in (3, 4, 5)]
    + [("alice", n) for n in (2, 3, 4, 5)]
    + [(kind, n) for kind in ("jm_half", "lhs_half") for n in (1, 2, 3)]
    + [("jm_full", n) for n in (1, 2)],
)
def test_null_form_agrees_with_the_range_form(family, n):
    """Every production program with no more free coordinates than rows
    takes the null-space form, and solves as the range form does: the same
    status, primal and dual values within the gap tolerance."""
    run = _production_null_form_run(family, n)
    null = _solves_in_form(run, force_range=False)
    ranged = _solves_in_form(run, force_range=True)
    assert null and len(null) == len(ranged)
    for (form, p, m, sol), (other_form, _, _, other) in zip(null, ranged):
        assert form and p <= m and not other_form
        assert sol.status == other.status == STATUS_OPTIMAL
        assert abs(sol.primal_value - other.primal_value) <= DEFAULT_GAP_TOL
        assert abs(sol.dual_value - other.dual_value) <= DEFAULT_GAP_TOL


def test_null_form_rule_includes_p_equal_m():
    """The null-space form is taken up to p = m free coordinates (Alice's
    (8, 16) program at n = 2) and no further."""
    assert sdp._null_space_form(8, 16)
    assert not sdp._null_space_form(8, 17)


def test_random_programs_take_both_forms():
    """The random programs of the acceptance suite's property check cover
    both Newton forms."""
    forms = set()
    for i in range(500):
        problem = random_feasible_problem(np.random.default_rng(7000 + i))
        prep = PreparedSdp(problem.dims, *operator_rows(problem.dims, problem.constraints))
        forms.add(prep.null_form)
    assert forms == {False, True}


def test_every_single_solve_passes_through_solve_with(monkeypatch):
    """solve_batch hands a batch of one to solve_with, so a wrapper on
    solve_with sees every single solve, whichever module asked for it, and
    none of a batch of two."""
    from steercert import certify, witness
    from steercert.quantum import assemblage_from, noisy_singlet

    calls = []
    solve_with = PreparedSdp.solve_with

    def counting(self, *args, **kwargs):
        calls.append(1)
        return solve_with(self, *args, **kwargs)

    monkeypatch.setattr(PreparedSdp, "solve_with", counting)

    def count(run) -> int:
        calls.clear()
        run()
        return len(calls)

    prep, _ = _batch_program("alice2")
    objectives = np.random.default_rng(5).normal(size=(2, prep.n_cols))
    assert count(lambda: prep.solve_batch(objectives[:1])) == 1
    assert count(lambda: prep.solve_batch(objectives)) == 0
    sets = _unbiased_sets(3, 2, 90)
    assert count(lambda: certify.jm_critical_visibility(sets[0])) == 1
    assert count(lambda: certify.jm_critical_visibility(sets)) == 0
    assemblage = assemblage_from(noisy_singlet(0.8), sets[0])
    assert count(lambda: certify.lhs_critical_visibility(assemblage)) == 1
    assert count(lambda: witness.optimize_ensemble(witness.Scenario(3), sets[0])) == 1
    assert count(lambda: witness.optimize_ensemble(witness.Scenario(3), sets)) == 0
    assert count(lambda: witness.seesaw_critical_visibility(2, restarts=2)) >= 1


def test_batch_input_checks():
    prep, _ = _batch_program("alice2")
    assert prep.solve_batch(np.zeros((0, prep.n_cols))) == []
    with pytest.raises(ValueError, match="hvec"):
        prep.solve_batch(np.zeros(prep.n_cols))
    with pytest.raises(ValueError, match="hvec"):
        prep.solve_with(np.zeros(prep.n_cols + 1))
    bad = np.zeros((2, prep.n_cols))
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        prep.solve_batch(bad)


_STACK_DIMS = (3, 1, 2, 2, 1)


def _stacked_rows(seed: int, k: int, dependent=()):
    """The rows of k programs over blocks of mixed dimension that share the
    right-hand side and differ in random coefficients. The last row is a
    tenth of the sum of the two scalar rows before it for a program in
    dependent, which is consistent, and a tenth of their difference
    otherwise, which contradicts the right-hand side. It is small, so the
    pivoted QR drops it in either case."""
    rng = np.random.default_rng(seed)
    stack = []
    for i in range(k):
        builder = ProgramBuilder(_STACK_DIMS)
        skew = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        builder.add_operator_equation(
            {2: rng.normal(), 3: rng.normal(), 1: skew}, np.eye(2)
        )
        builder.add_operator_equation({0: 1.0 + rng.random()}, 3.0 * np.eye(3))
        c = 10.0 * rng.normal()
        builder.add_scalar_row({1: [[10.0]], 4: [[c]]}, 15.0)
        builder.add_scalar_row({1: [[-10.0]], 4: [[10.0]]}, 15.0)
        sign = 1.0 if i in dependent else -1.0
        builder.add_scalar_row(
            {1: [[0.1 * (10.0 - 10.0 * sign)]], 4: [[0.1 * (c + 10.0 * sign)]]}, 3.0
        )
        stack.append(builder.constraint_matrix())
    return np.array([a for a, _ in stack]), stack[0][1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stack_instances_match_their_programs_alone():
    """solve_batch pairs objective i with program i of a stack, and each
    solution is bit for bit that of program i prepared and solved alone;
    the instances stop at different iterations, some unbounded. A program
    whose equalities contradict each other fails alone."""
    a, b = _stacked_rows(5, 6, dependent=(0, 1, 2, 3, 5))
    stack = PreparedSdp(_STACK_DIMS, a, b)
    assert stack.m == a.shape[1] - 1
    objectives = np.random.default_rng(6).normal(size=(len(a), stack.n_cols))
    for signed in (objectives, -objectives):
        alone = [
            _solution_key(PreparedSdp(_STACK_DIMS, a_i, b).solve_with(c))
            for a_i, c in zip(a, signed)
        ]
        assert len({key[2] for key in alone}) > 2
        assert "inconsistent" in alone[4][1]
        assert [_solution_key(sol) for sol in stack.solve_batch(signed)] == alone
    for i in (0, 4):
        one = PreparedSdp(_STACK_DIMS, a[i : i + 1], b)
        assert _solution_key(one.solve_with(objectives[i])) == _solution_key(
            PreparedSdp(_STACK_DIMS, a[i], b).solve_with(objectives[i])
        )
    with pytest.raises(ValueError, match="one objective each"):
        stack.solve_batch(objectives[:3])


def test_stack_programs_must_keep_the_same_rows():
    a, b = _stacked_rows(7, 2)
    rows = a[1].copy()
    rows[-1] = np.random.default_rng(9).normal(size=rows.shape[1])
    with pytest.raises(ValueError, match="same rows"):
        PreparedSdp(_STACK_DIMS, np.array([a[0], rows]), b)
    # Each program alone is fine.
    PreparedSdp(_STACK_DIMS, a[0], b)
    PreparedSdp(_STACK_DIMS, rows, b)
    with pytest.raises(ValueError, match="constraint matrix"):
        PreparedSdp(_STACK_DIMS, a[None], b)
    with pytest.raises(ValueError, match="at least one program"):
        PreparedSdp(_STACK_DIMS, a[:0], b)


def test_sdp_loads_without_linalg():
    """The solver layer works on numpy arrays alone: importing it loads no
    Hermitian operator class."""
    code = "import sys, steercert.sdp; print('steercert.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
