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
    solve,
    unhvec,
)

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
    assert sol.block_values[0].entries[0, 0].real == pytest.approx(0.3, abs=1e-8)


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
        for op in sol.block_values:
            assert min_eigenvalue(op) >= -1e-8
        # residual of every original constraint, including redundant ones
        for coeffs, rhs in problem.constraints:
            val = sum(
                float(np.sum(c.entries.conj() * sol.block_values[j].entries).real)
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
        assert np.array_equal(a.entries, b.entries)


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


def test_prepared_reuse_matches_fresh_solve():
    dim = 3
    rng = np.random.default_rng(0)
    constraints = [([HermitianOperator.identity(dim)], 1.0)]
    prep = PreparedSdp((dim,), constraints)
    for seed in range(4):
        c = HermitianOperator(random_hermitian(np.random.default_rng(seed), dim))
        fresh = solve(
            SdpProblem(dims=(dim,), objective=[c], constraints=constraints)
        )
        reused = prep.solve_with([c])
        assert reused.primal_value == fresh.primal_value
        assert reused.iterations == fresh.iterations


def _povm_program(n_blocks):
    """Blocks X_j >= 0 (2x2) summing to the identity; a fresh seeded objective."""
    builder = ProgramBuilder([2] * n_blocks)
    builder.add_operator_equation(
        {j: 1.0 for j in range(n_blocks)}, HermitianOperator.identity(2)
    )
    rng = np.random.default_rng(n_blocks)
    objective = [
        HermitianOperator(random_hermitian(rng, 2)) for _ in range(n_blocks)
    ]
    return builder.prepared(), objective


def _solution_bytes(sol):
    return (
        sol.iterations,
        sol.primal_value,
        sol.dual_value,
        [op.entries.tobytes() for op in sol.block_values],
    )


def test_stored_schur_path_is_per_program():
    prep, objective = _povm_program(3)
    first = _solution_bytes(prep.solve_with(objective))
    assert first[0] > 1
    assert _solution_bytes(prep.solve_with(objective)) == first
    # A program of another block count in between must not disturb the
    # path stored for the first one; 3 and 9 blocks contract in different
    # orders.
    other, other_objective = _povm_program(9)
    assert other.groups[0].wbw_path != prep.groups[0].wbw_path
    other_first = _solution_bytes(other.solve_with(other_objective))
    assert _solution_bytes(prep.solve_with(objective)) == first
    assert _solution_bytes(other.solve_with(other_objective)) == other_first


@pytest.mark.parametrize("dims", [(2,), (2, 2, 2), (1, 1, 3, 3), (2,) * 9])
def test_stored_schur_path_matches_fresh_planning(dims):
    prep = PreparedSdp(dims, [])
    rng = np.random.default_rng(len(dims))
    for g in prep.groups:
        w = np.stack([random_hermitian(rng, g.dim) for _ in g.blocks])
        stored = np.einsum(sdp._WBW, w, g.basis, w, optimize=g.wbw_path)
        planned = np.einsum(sdp._WBW, w, g.basis, w, optimize=True)
        assert stored.tobytes() == planned.tobytes()


def test_builder_operator_equation():
    builder = ProgramBuilder([2, 2])
    ident = HermitianOperator.identity(2)
    builder.add_operator_equation({0: 1.0, 1: 1.0}, ident)
    builder.set_objective({0: HermitianOperator([[1.0, 0.0], [0.0, 0.0]])})
    sol = solve(builder.problem())
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_value == pytest.approx(1.0, abs=1e-7)
    total = sol.block_values[0] + sol.block_values[1]
    assert total.allclose(ident, tol=1e-6)


def test_builder_matrix_term_on_scalar_block():
    # X = t * diag(1, 2) with Tr X = 1 forces t = 1/3.
    builder = ProgramBuilder([2, 1])
    target = HermitianOperator([[1.0, 0.0], [0.0, 2.0]])
    builder.add_operator_equation({0: 1.0, 1: -1.0 * target}, HermitianOperator.zeros(2))
    builder.add_scalar_row({0: HermitianOperator.identity(2)}, 1.0)
    builder.set_objective({1: 1.0})
    sol = solve(builder.problem())
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_value == pytest.approx(1.0 / 3.0, abs=1e-7)


def test_builder_scalar_equation():
    builder = ProgramBuilder([1, 1])
    builder.add_operator_equation({0: 1.0, 1: 1.0}, 1.0)
    builder.set_objective({0: 1.0})
    sol = solve(builder.problem())
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_value == pytest.approx(1.0, abs=1e-7)
