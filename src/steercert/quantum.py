"""Qubit states, two-outcome POVMs, Bloch parameterization and assemblages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianOperator, min_eigenvalue
from .tolerances import PSD_TOL, STRUCTURAL_TOL

SIGMA_X = HermitianOperator([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = HermitianOperator([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = HermitianOperator([[1.0, 0.0], [0.0, -1.0]])
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class Povm:
    """Finite measurement: PSD effects summing to the identity."""

    def __init__(self, effects) -> None:
        effects = tuple(effects)
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        dim = effects[0].dim
        if any(e.dim != dim for e in effects):
            raise ValueError("all effects must share one dimension")
        for k, e in enumerate(effects):
            if min_eigenvalue(e) < -PSD_TOL:
                raise ValueError(f"effect {k} is not positive semidefinite")
        total = sum((e.entries for e in effects), np.zeros((dim, dim)))
        if np.linalg.norm(total - np.eye(dim)) > PSD_TOL:
            raise ValueError("effects do not sum to the identity")
        self.effects = effects

    @property
    def dim(self) -> int:
        return self.effects[0].dim

    def __len__(self) -> int:
        return len(self.effects)

    def __getitem__(self, k: int) -> HermitianOperator:
        return self.effects[k]


class MeasurementSet:
    """A finite family of POVMs on one system."""

    def __init__(self, settings) -> None:
        settings = tuple(settings)
        if not settings:
            raise ValueError("a measurement set needs at least one setting")
        dim = settings[0].dim
        if any(p.dim != dim for p in settings):
            raise ValueError("all settings must share one dimension")
        self.settings = settings

    @property
    def dim(self) -> int:
        return self.settings[0].dim

    @property
    def n(self) -> int:
        return len(self.settings)

    def __len__(self) -> int:
        return len(self.settings)

    def __getitem__(self, y: int) -> Povm:
        return self.settings[y]


class Assemblage:
    """Subnormalized conditional states sigma_{a|x}, validated no-signaling.

    entries[a][x] is the state left on the unmeasured party for outcome a of
    setting x; the outcome-sums must agree across settings and have unit
    trace.
    """

    def __init__(self, entries) -> None:
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("assemblage needs at least one outcome and setting")
        n_settings = len(entries[0])
        if any(len(row) != n_settings for row in entries):
            raise ValueError("ragged assemblage")
        dim = entries[0][0].dim
        for a, row in enumerate(entries):
            for x, op in enumerate(row):
                if op.dim != dim:
                    raise ValueError("assemblage entries must share one dimension")
                if min_eigenvalue(op) < -PSD_TOL:
                    raise ValueError(f"entry (a={a}, x={x}) is not PSD")
        totals = [
            sum((entries[a][x].entries for a in range(len(entries))),
                np.zeros((dim, dim)))
            for x in range(n_settings)
        ]
        for x in range(1, n_settings):
            if np.linalg.norm(totals[x] - totals[0]) > PSD_TOL:
                raise ValueError("assemblage signals between settings")
        if abs(float(np.trace(totals[0]).real) - 1.0) > PSD_TOL:
            raise ValueError("assemblage outcome-sums must have unit trace")
        self.entries = entries
        self.n_outcomes = len(entries)
        self.n_settings = n_settings
        self.reduced_state = HermitianOperator(totals[0])

    @property
    def dim(self) -> int:
        return self.entries[0][0].dim

    def __getitem__(self, key) -> HermitianOperator:
        a, x = key
        return self.entries[a][x]


@dataclass(frozen=True)
class BlochPovmParams:
    """Bloch-sphere data of a family of two-outcome qubit measurements:
    axis, sharpness and bias per setting."""

    axes: tuple
    sharpness: tuple
    bias: tuple

    def __post_init__(self) -> None:
        axes = tuple(tuple(float(c) for c in v) for v in self.axes)
        eta = tuple(float(e) for e in self.sharpness)
        alpha = tuple(float(a) for a in self.bias)
        if not (len(axes) == len(eta) == len(alpha)) or not axes:
            raise ValueError("per-setting parameter lists must align")
        if any(len(v) != 3 for v in axes):
            raise ValueError("axes are 3-vectors")
        if not np.all(np.isfinite([*(c for v in axes for c in v), *eta, *alpha])):
            raise ValueError("Bloch parameters must be finite")
        for v in axes:
            if abs(np.linalg.norm(v) - 1.0) > STRUCTURAL_TOL:
                raise ValueError("axes must be unit vectors")
        for e, a in zip(eta, alpha):
            if not -1e-9 <= e <= 1 + 1e-9:
                raise ValueError("sharpness must lie in [0, 1]")
            if not e - 1e-9 <= a <= 2 - e + 1e-9:
                raise ValueError("bias must lie in [sharpness, 2 - sharpness]")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(
            self, "sharpness", tuple(min(1.0, max(0.0, e)) for e in eta)
        )
        object.__setattr__(
            self,
            "bias",
            tuple(min(2 - e, max(e, a)) for e, a in zip(self.sharpness, alpha)),
        )

    @property
    def n(self) -> int:
        return len(self.axes)

    def to_json(self) -> list:
        return [
            [vx, vy, vz, e, a]
            for (vx, vy, vz), e, a in zip(self.axes, self.sharpness, self.bias)
        ]

    @classmethod
    def from_json(cls, data) -> "BlochPovmParams":
        axes, eta, alpha = [], [], []
        for row in data:
            vx, vy, vz, e, a = (float(t) for t in row)
            axes.append((vx, vy, vz))
            eta.append(e)
            alpha.append(a)
        return cls(tuple(axes), tuple(eta), tuple(alpha))


def bloch_effect(axis, sharpness: float = 1.0, bias: float = 1.0) -> np.ndarray:
    """The qubit effect (bias I + sharpness axis.sigma)/2 as a complex 2x2
    array; the defaults give the projector onto the Bloch vector ``axis``."""
    pauli_part = sum(c * s.entries for c, s in zip(axis, PAULIS))
    return 0.5 * (bias * np.eye(2, dtype=np.complex128) + sharpness * pauli_part)


def povm_from_bloch(params: BlochPovmParams) -> MeasurementSet:
    """Effects B_0 = (alpha I + eta n.sigma)/2 and B_1 = I - B_0 per setting."""
    settings = []
    for v, eta, alpha in zip(params.axes, params.sharpness, params.bias):
        b0 = bloch_effect(v, eta, alpha)
        settings.append(Povm([HermitianOperator(b0), HermitianOperator(np.eye(2) - b0)]))
    return MeasurementSet(settings)


def check_binary_qubit(mset: MeasurementSet) -> None:
    """Raise ValueError unless every setting is a two-outcome qubit measurement."""
    if mset.dim != 2 or any(len(p) != 2 for p in mset.settings):
        raise ValueError("expected two-outcome qubit measurements")


def bloch_from_povm(mset: MeasurementSet) -> BlochPovmParams:
    """Read Bloch parameters back off a two-outcome qubit measurement set."""
    check_binary_qubit(mset)
    axes, eta, alpha = [], [], []
    for p in mset.settings:
        b0 = p[0].entries
        alpha.append(float(np.trace(b0).real))
        g = np.array([float(np.trace(b0 @ s.entries).real) for s in PAULIS])
        norm = float(np.linalg.norm(g))
        eta.append(norm)
        axes.append(tuple(g / norm) if norm > 1e-14 else (0.0, 0.0, 1.0))
    return BlochPovmParams(tuple(axes), tuple(eta), tuple(alpha))


def random_axis(rng) -> np.ndarray:
    """A unit vector uniform on the sphere: a Gaussian triple, normalized,
    drawn again while its norm is below 1e-12."""
    v = rng.normal(size=3)
    norm = float(np.linalg.norm(v))
    while norm < 1e-12:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
    return v / norm


def sample_random_povm_set(rng, n: int):
    """Draw n random two-outcome qubit measurements.

    Axes are uniform on the sphere (normalized Gaussian triples), sharpness
    uniform on [0, 1], bias uniform on the admissible interval. The draw
    order (per setting: axis, sharpness, bias) is fixed, so a seeded rng
    reproduces the same parameters exactly.
    """
    if n < 2:
        raise ValueError("need at least two settings")
    axes, eta, alpha = [], [], []
    for _ in range(n):
        axes.append(tuple(random_axis(rng)))
        e = float(rng.uniform(0.0, 1.0))
        eta.append(e)
        alpha.append(float(rng.uniform(e, 2.0 - e)))
    params = BlochPovmParams(tuple(axes), tuple(eta), tuple(alpha))
    return params, povm_from_bloch(params)


def depolarize_measurements(mset: MeasurementSet, v: float) -> MeasurementSet:
    """Mix every effect with white noise: B -> v B + (1 - v) I/2."""
    if not 0.0 <= v <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    check_binary_qubit(mset)
    half = 0.5 * np.eye(2, dtype=np.complex128)
    out = []
    for p in mset.settings:
        out.append(
            Povm(
                [
                    HermitianOperator(v * e.entries + (1.0 - v) * half)
                    for e in p.effects
                ]
            )
        )
    return MeasurementSet(out)


def noisy_singlet(v: float) -> HermitianOperator:
    """Two-qubit state v |psi-><psi-| + (1 - v) I/4 (unit trace)."""
    if not 0.0 <= v <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    psi = np.zeros(4, dtype=np.complex128)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    rho = v * np.outer(psi, psi.conj()) + (1.0 - v) * np.eye(4) / 4.0
    return HermitianOperator(rho)


def assemblage_from(state: HermitianOperator, alice: MeasurementSet) -> Assemblage:
    """Conditional states Tr_A[(A_{a|x} x I) rho] for each outcome/setting."""
    dim_a = alice.dim
    if state.dim % dim_a != 0:
        raise ValueError("state dimension incompatible with measurement dimension")
    dim_b = state.dim // dim_a
    rho = state.entries.reshape(dim_a, dim_b, dim_a, dim_b)
    n_outcomes = len(alice.settings[0])
    if any(len(p) != n_outcomes for p in alice.settings):
        raise ValueError("settings must share an outcome count")
    entries = [
        [
            HermitianOperator(
                np.einsum("im,mkil->kl", alice[x][a].entries, rho)
            )
            for x in range(alice.n)
        ]
        for a in range(n_outcomes)
    ]
    return Assemblage(entries)


def sharp_povm(axis) -> Povm:
    """Projective two-outcome qubit measurement along a Bloch axis."""
    axis = np.asarray(axis, dtype=float)
    b0 = HermitianOperator(bloch_effect(axis / np.linalg.norm(axis)))
    return Povm([b0, HermitianOperator(np.eye(2)) - b0])


def trivial_povm() -> Povm:
    half = HermitianOperator(0.5 * np.eye(2))
    return Povm([half, half])
