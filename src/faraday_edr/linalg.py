"""Minimal dense complex linear algebra kernel for the oracle routes.

Operators and kets are plain complex ``numpy`` arrays, held as read-only
views (a complex128 input is not copied), with dimension checks so that
mixing spaces of different size fails loudly with DimensionMismatchError
instead of silently producing garbage.  Functions of Hermitian operators
are evaluated through a full eigendecomposition; the spaces here are small
enough that spectral accuracy beats any series expansion and independently
validates the closed-form operator identities used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError
from .tolerances import TOL


def _readonly(data, ndim: int, what: str) -> np.ndarray:
    """A read-only complex128 view of data, refusing the wrong rank or non-finite entries."""
    a = np.asarray(data, dtype=np.complex128).view()
    if a.ndim != ndim:
        raise DimensionMismatchError(f"{what} must have {ndim} axes, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} entries must be finite")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Operator:
    """Dense complex square matrix.

    Setting ``hermitian=True`` asserts Hermiticity at construction time
    (max|M - M^dag| <= TOL.hermiticity).  Sums, scalar multiples, adjoints
    and tensor products of flagged operators inherit the flag without a
    re-check; it is never inferred silently.
    """

    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        m = _readonly(self.matrix, 2, "operator")
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        if self.hermitian:
            dev = self.hermiticity_defect()
            if dev > TOL.hermiticity:
                raise NonHermitianError(
                    f"operator flagged Hermitian deviates by {dev:.3e} "
                    f"(> {TOL.hermiticity:.0e})"
                )

    @classmethod
    def _derived(cls, matrix: np.ndarray, hermitian: bool) -> "Operator":
        """Result of arithmetic on checked operands: the flag is inherited."""
        op = cls(matrix)
        object.__setattr__(op, "hermitian", hermitian)
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def dag(self) -> "Operator":
        return Operator._derived(self.matrix.conj().T, self.hermitian)

    def _require_same_dim(self, other: "Operator") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Operator") -> "Operator":
        self._require_same_dim(other)
        return Operator._derived(self.matrix + other.matrix,
                                 self.hermitian and other.hermitian)

    def __sub__(self, other: "Operator") -> "Operator":
        self._require_same_dim(other)
        return Operator._derived(self.matrix - other.matrix,
                                 self.hermitian and other.hermitian)

    def __mul__(self, scalar: complex) -> "Operator":
        herm = self.hermitian and getattr(scalar, "imag", 0.0) == 0.0
        return Operator._derived(self.matrix * scalar, herm)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._require_same_dim(other)
        return Operator(self.matrix @ other.matrix)

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())


@dataclass(frozen=True)
class Ket:
    """Complex state vector.

    Prepared states are deliberately not renormalized; ``norm_deficit``
    surfaces how much probability mass the truncation dropped.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _readonly(self.amplitudes, 1, "ket"))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm_deficit(self) -> float:
        """Probability mass lost to truncation: 1 - ||psi||^2."""
        return 1.0 - float(np.vdot(self.amplitudes, self.amplitudes).real)


def tensor(a, b):
    """Kronecker product of two operators or two kets.

    Index convention: the row/component index of the result is
    (i_a * dim_b + i_b), i.e. the left factor is the slow index.
    """
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator._derived(np.kron(a.matrix, b.matrix), a.hermitian and b.hermitian)
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket(np.kron(a.amplitudes, b.amplitudes))
    raise TypeError("tensor expects two Operators or two Kets")


def expectation(op: Operator, state: Ket) -> complex:
    """<state|op|state>, without normalization of the state.

    Callers that work with truncated (norm-deficient) states divide by
    <state|state> explicitly; see e.g. meter.stokes_moments.
    """
    if op.dim != state.dim:
        raise DimensionMismatchError(f"expectation of a {op.dim}-dim operator "
                                     f"on a {state.dim}-dim state")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator, reusable for many maps."""

    values: np.ndarray
    vectors: np.ndarray

    @classmethod
    def of(cls, op: Operator) -> "Spectrum":
        defect = op.hermiticity_defect()
        if defect > TOL.hermiticity:
            raise NonHermitianError(
                f"spectral decomposition input deviates from Hermiticity by {defect:.3e}"
            )
        return cls(*np.linalg.eigh(op.matrix))

    def map(self, f: Callable[[np.ndarray], np.ndarray]) -> Operator:
        """V f(Lambda) V^dag for a vectorised scalar map f.

        ``f`` may return complex values (e.g. a phase map
        lambda -> exp(-1j*lambda), which yields a unitary); if it is
        real-valued on the spectrum the result is flagged Hermitian.
        """
        vals = np.asarray(f(self.values), dtype=np.complex128)
        mat = (self.vectors * vals) @ self.vectors.conj().T
        return Operator(mat, hermitian=bool(np.all(vals.imag == 0.0)))


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=np.complex128), hermitian=True)


def sigma_x() -> Operator:
    return Operator(np.array([[0, 1], [1, 0]], dtype=np.complex128), hermitian=True)


def sigma_y() -> Operator:
    return Operator(np.array([[0, -1j], [1j, 0]], dtype=np.complex128), hermitian=True)


def sigma_z() -> Operator:
    return Operator(np.array([[1, 0], [0, -1]], dtype=np.complex128), hermitian=True)


_SPIN_STATES = {
    "z+": np.array([1.0, 0.0]),
    "z-": np.array([0.0, 1.0]),
    "x+": np.array([1.0, 1.0]) / np.sqrt(2.0),
    "x-": np.array([1.0, -1.0]) / np.sqrt(2.0),
    "y+": np.array([1.0, 1.0j]) / np.sqrt(2.0),
    "y-": np.array([1.0, -1.0j]) / np.sqrt(2.0),
}

SPIN_STATE_LABELS = tuple(_SPIN_STATES)


def spin_state(label: str) -> Ket:
    """One of the six Pauli eigenstates: z+/z-/x+/x-/y+/y-."""
    try:
        return Ket(_SPIN_STATES[label])
    except KeyError:
        raise ValueError(f"unknown spin state {label!r}; choose from {SPIN_STATE_LABELS}")
