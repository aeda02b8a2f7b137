import numpy as np
import pytest

from steercert.linalg import HermitianOperator
from steercert.quantum import (
    Assemblage,
    BlochPovmParams,
    MeasurementSet,
    Povm,
    assemblage_from,
    bloch_from_povm,
    depolarize_measurements,
    noisy_singlet,
    povm_from_bloch,
    sample_random_povm_set,
    sharp_povm,
    trivial_povm,
)


def test_sharp_z_effects():
    params = BlochPovmParams(((0.0, 0.0, 1.0),), (1.0,), (1.0,))
    mset = povm_from_bloch(params)
    assert np.allclose(mset[0][0].entries, np.diag([1.0, 0.0]))
    assert np.allclose(mset[0][1].entries, np.diag([0.0, 1.0]))


def test_zero_sharpness_gives_trivial_measurement():
    params = BlochPovmParams(((0.0, 0.0, 1.0),), (0.0,), (1.0,))
    mset = povm_from_bloch(params)
    assert np.allclose(mset[0][0].entries, 0.5 * np.eye(2))
    assert np.allclose(mset[0][1].entries, 0.5 * np.eye(2))


def test_depolarized_sharp_z():
    mset = povm_from_bloch(BlochPovmParams(((0.0, 0.0, 1.0),), (1.0,), (1.0,)))
    noisy = depolarize_measurements(mset, 0.6)
    assert np.allclose(noisy[0][0].entries, np.diag([0.8, 0.2]))


def test_depolarize_composes():
    rng = np.random.default_rng(7)
    _, mset = sample_random_povm_set(rng, 3)
    once = depolarize_measurements(depolarize_measurements(mset, 0.9), 0.7)
    direct = depolarize_measurements(mset, 0.63)
    for y in range(3):
        for b in range(2):
            assert np.linalg.norm(
                once[y][b].entries - direct[y][b].entries
            ) < 1e-12


def test_noisy_singlet_spectrum():
    vals = np.linalg.eigvalsh(noisy_singlet(0.5).entries)
    assert np.allclose(vals, [0.125, 0.125, 0.125, 0.625])
    assert abs(noisy_singlet(0.3).trace() - 1.0) < 1e-14


def test_singlet_anticorrelation():
    alice = MeasurementSet([sharp_povm((0.0, 0.0, 1.0))])
    sigma = assemblage_from(noisy_singlet(1.0), alice)
    assert np.allclose(sigma[0, 0].entries, np.diag([0.0, 0.5]), atol=1e-12)
    assert np.allclose(sigma[1, 0].entries, np.diag([0.5, 0.0]), atol=1e-12)


def test_povm_validation():
    with pytest.raises(ValueError):
        Povm([HermitianOperator(np.diag([1.0, -0.5])),
              HermitianOperator(np.diag([0.0, 1.5]))])
    with pytest.raises(ValueError):
        Povm([HermitianOperator(np.diag([0.5, 0.5]))])


def test_bloch_params_validation():
    with pytest.raises(ValueError):
        BlochPovmParams(((0.0, 0.0, 2.0),), (1.0,), (1.0,))
    with pytest.raises(ValueError):
        BlochPovmParams(((0.0, 0.0, 1.0),), (1.5,), (1.0,))
    with pytest.raises(ValueError):
        BlochPovmParams(((0.0, 0.0, 1.0),), (0.8,), (0.5,))


def test_bloch_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(50):
        params, mset = sample_random_povm_set(rng, 4)
        back = bloch_from_povm(mset)
        assert np.allclose(params.sharpness, back.sharpness, atol=1e-10)
        assert np.allclose(params.bias, back.bias, atol=1e-10)
        again = povm_from_bloch(back)
        for y in range(4):
            for b in range(2):
                assert np.linalg.norm(
                    again[y][b].entries - mset[y][b].entries
                ) < 1e-10


def test_bloch_json_round_trip():
    params = BlochPovmParams(
        ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)), (0.5, 0.25), (0.75, 1.5)
    )
    back = BlochPovmParams.from_json(params.to_json())
    assert back == params


def test_sample_returns_matching_pair():
    rng = np.random.default_rng(3)
    params, mset = sample_random_povm_set(rng, 5)
    rebuilt = povm_from_bloch(params)
    for y in range(5):
        for b in range(2):
            assert np.array_equal(rebuilt[y][b].entries, mset[y][b].entries)


def test_axis_sphere_uniformity():
    rng = np.random.default_rng(2024)
    total = np.zeros(3)
    draws = 0
    while draws < 10000:
        params, _ = sample_random_povm_set(rng, 2)
        for v in params.axes:
            total += v
        draws += 2
    assert np.linalg.norm(total / draws) < 0.05


@pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
def test_assemblage_invariants(v):
    rng = np.random.default_rng(int(10 * v) + 1)
    _, alice = sample_random_povm_set(rng, 3)
    sigma = assemblage_from(noisy_singlet(v), alice)
    dim = sigma.dim
    totals = []
    for x in range(3):
        total = sum(sigma[a, x].entries for a in range(2))
        totals.append(total)
    for x in range(1, 3):
        assert np.linalg.norm(totals[x] - totals[0]) < 1e-12
    assert abs(np.trace(totals[0]).real - 1.0) < 1e-12
    assert dim == 2


def test_assemblage_rejects_signaling():
    good = np.diag([0.25, 0.25])
    rows = [
        [HermitianOperator(good), HermitianOperator(np.diag([0.4, 0.1]))],
        [HermitianOperator(good), HermitianOperator(np.diag([0.1, 0.1]))],
    ]
    with pytest.raises(ValueError):
        Assemblage(rows)


def test_trivial_povm():
    p = trivial_povm()
    assert np.allclose(p[0].entries + p[1].entries, np.eye(2))
