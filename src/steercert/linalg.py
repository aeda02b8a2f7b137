"""Hermitian matrix primitives shared by the solver and the physics layers."""

from __future__ import annotations

import numpy as np

from .tolerances import STRUCTURAL_TOL


class HermitianOperator:
    """Immutable Hermitian matrix.

    Construction symmetrizes the input as (H + H*)/2 and rejects non-finite
    entries, so downstream code never has to re-check hermiticity.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise ValueError(f"expected a nonempty square matrix, got {arr.shape}")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("matrix entries must be finite")
        arr = 0.5 * (arr + arr.conj().T)
        arr.flags.writeable = False
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        return cls(np.eye(dim))

    def trace(self) -> float:
        return float(np.trace(self._entries).real)

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self._entries + other._entries)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self._entries - other._entries)

    def __neg__(self) -> "HermitianOperator":
        return HermitianOperator(-self._entries)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        if np.imag(scalar) != 0:
            raise ValueError("scaling a Hermitian matrix requires a real scalar")
        return HermitianOperator(self._entries * float(np.real(scalar)))

    __rmul__ = __mul__

    def allclose(self, other: "HermitianOperator", tol: float = STRUCTURAL_TOL) -> bool:
        return bool(np.max(np.abs(self._entries - other._entries)) <= tol)

    def to_json(self) -> dict:
        flat = self._entries.reshape(-1)
        return {
            "dim": self.dim,
            "entries": [[float(z.real), float(z.imag)] for z in flat],
        }

    @classmethod
    def from_json(cls, data: dict) -> "HermitianOperator":
        try:
            dim = int(data["dim"])
        except OverflowError:
            raise ValueError(f"dim must be finite, got {data['dim']!r}") from None
        flat = np.array(
            [complex(re, im) for re, im in data["entries"]], dtype=np.complex128
        )
        if flat.size != dim * dim:
            raise ValueError(f"expected {dim * dim} entries, got {flat.size}")
        return cls(flat.reshape(dim, dim))

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def min_eigenvalue(op: HermitianOperator) -> float:
    return float(np.linalg.eigvalsh(op.entries)[0])
