import warnings

import numpy as np
import pytest

from steercert.linalg import HermitianOperator, min_eigenvalue
from steercert.tolerances import STRUCTURAL_TOL


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(raw + raw.conj().T)


def test_construction_symmetrizes():
    op = HermitianOperator([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
    assert np.max(np.abs(op.entries - op.entries.conj().T)) == 0.0
    skew = HermitianOperator([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(skew.entries, [[0.0, 0.5], [0.5, 0.0]])


def test_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError):
        HermitianOperator([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        HermitianOperator([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        HermitianOperator(np.zeros((2, 3)))


def test_entries_immutable():
    op = HermitianOperator.identity(2)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_eig_reconstruction(dim):
    rng = np.random.default_rng(11 + dim)
    op = random_hermitian(rng, dim)
    vals, vecs = np.linalg.eigh(op.entries)
    rebuilt = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(rebuilt - op.entries)) < 1e-10
    assert min_eigenvalue(op) == pytest.approx(vals[0], abs=1e-10)


def test_scalar_multiplication_requires_real():
    op = HermitianOperator.identity(2)
    with pytest.raises(ValueError):
        op * (1.0 + 1j)
    with pytest.raises(ValueError):
        np.complex128(1.0 + 1j) * op
    assert (2 * op).trace() == pytest.approx(4.0)
    # A complex scalar with no imaginary part scales like its real part.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scalar in (2 + 0j, np.complex128(2), 2.0):
            assert np.array_equal((op * scalar).entries, 2.0 * np.eye(2))


def test_json_round_trip():
    rng = np.random.default_rng(23)
    op = random_hermitian(rng, 3)
    back = HermitianOperator.from_json(op.to_json())
    assert np.array_equal(back.entries, op.entries)


def test_json_round_trip_through_string():
    import json

    rng = np.random.default_rng(29)
    op = random_hermitian(rng, 2)
    back = HermitianOperator.from_json(json.loads(json.dumps(op.to_json())))
    assert np.array_equal(back.entries, op.entries)


def test_json_rejects_bad_length():
    with pytest.raises(ValueError):
        HermitianOperator.from_json({"dim": 2, "entries": [[1.0, 0.0]]})


def test_algebra():
    a = HermitianOperator([[1.0, 0.0], [0.0, 2.0]])
    b = HermitianOperator([[0.0, 1.0], [1.0, 0.0]])
    assert (a + b).allclose(HermitianOperator([[1.0, 1.0], [1.0, 2.0]]))
    assert (a - b).allclose(HermitianOperator([[1.0, -1.0], [-1.0, 2.0]]))
    assert (-b).allclose(HermitianOperator([[0.0, -1.0], [-1.0, 0.0]]))
    assert abs((a + b).trace() - 3.0) < STRUCTURAL_TOL
