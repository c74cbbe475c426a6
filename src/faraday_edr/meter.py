"""Two-mode polarization meter: truncated Fock basis, Stokes operators, states.

The basis is truncated by TOTAL photon number.  All four Stokes operators
commute with the total photon number, so that truncation closes their
commutation algebra: there is no leakage at the boundary, and the only
residual in [Sx,Sy] - 2i Sz etc. is floating-point rounding (exactly zero
at cutoff 1, below 1e-12 at any tested cutoff).  Per-mode truncation would
not have this property.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CutoffCeilingError, DimensionMismatchError, NormDeficitError
from .linalg import Ket, Operator
from .tolerances import TOL


@dataclass(frozen=True, eq=False)
class MeterBasis:
    """Fock states (n_H, n_V) with n_H + n_V <= n_max.

    Enumeration is lexicographic by (n_H + n_V, n_H), so states of equal
    total photon number are contiguous blocks.
    """

    n_max: int
    states: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")
        states = tuple((nh, n - nh) for n in range(self.n_max + 1) for nh in range(n + 1))
        object.__setattr__(self, "states", states)

    def __eq__(self, other) -> bool:
        return isinstance(other, MeterBasis) and other.n_max == self.n_max

    def __hash__(self) -> int:
        return hash(("MeterBasis", self.n_max))

    @property
    def size(self) -> int:
        return len(self.states)

    def block_slice(self, n: int) -> slice:
        """Indices of the total-photon-number-n block."""
        start = n * (n + 1) // 2
        return slice(start, start + n + 1)

    def totals(self) -> np.ndarray:
        return np.array([nh + nv for nh, nv in self.states], dtype=float)


def _occupations(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_H, n_V) index arrays of MeterBasis(n_max), in its basis order."""
    n = np.repeat(np.arange(n_max + 1), np.arange(1, n_max + 2))
    nh = np.arange(n.size) - n * (n + 1) // 2
    return nh, n - nh


def apply_band(band: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """T vec for the Hermitian tridiagonal T with zero diagonal and
    superdiagonal ``band``; vec is (m,) or (k, m), applied along the last axis."""
    out = np.zeros_like(vec)
    out[..., :-1] = band * vec[..., 1:]
    out[..., 1:] += band.conj() * vec[..., :-1]
    return out


@dataclass(frozen=True, eq=False)
class StokesSet:
    """The four Stokes operators on a truncated two-mode basis, stored by band.

    S0 and Sx are diagonal.  Sy and Sz couple (n_H, n_V) only to
    (n_H + 1, n_V - 1) inside one photon-number sector, so in the basis
    order they are tridiagonal with the one coupling band ``hop``:
    hop[i] = <i+1| aH^t aV |i> = sqrt((n_H + 1) n_V), which is zero across
    every sector boundary (the last state of a sector has n_V = 0).

        Sy = hop on both off-diagonals,  Sz = i hop above, -i hop below.

    The dense ``Operator`` views are assembled on first access, for the
    oracle routes only.
    """

    basis: MeterBasis
    s0_diag: np.ndarray
    sx_diag: np.ndarray
    hop: np.ndarray

    def _tridiagonal(self, diag, upper, lower) -> Operator:
        m = np.zeros((self.basis.size, self.basis.size), dtype=np.complex128)
        idx = np.arange(self.basis.size)
        m[idx, idx] = diag
        m[idx[:-1], idx[1:]] = upper
        m[idx[1:], idx[:-1]] = lower
        return Operator(m, hermitian=True)

    @cached_property
    def s0(self) -> Operator:
        return self._tridiagonal(self.s0_diag, 0.0, 0.0)

    @cached_property
    def sx(self) -> Operator:
        return self._tridiagonal(self.sx_diag, 0.0, 0.0)

    @cached_property
    def sy(self) -> Operator:
        return self._tridiagonal(0.0, self.hop, self.hop)

    @cached_property
    def sz(self) -> Operator:
        return self._tridiagonal(0.0, 1j * self.hop, -1j * self.hop)


@dataclass(frozen=True)
class SqueezeSpec:
    """Two-mode squeezing z = r e^{i theta}.

    theta=None selects the amplitude-squeezing phase convention
    theta = 2*arg(alpha) automatically during state preparation (for the
    default real positive alpha this is theta = 0).  An explicit theta
    must match that convention or preparation refuses.
    """

    r: float
    theta: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.r):
            raise ValueError("squeeze magnitude r must be finite")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError("squeeze phase theta must be finite")


def build_stokes(basis: MeterBasis) -> StokesSet:
    """S0 = nH+nV, Sx = nH-nV, Sy = aH^t aV + aH aV^t, Sz = -i(aH^t aV - aH aV^t).

    The diagonals and the coupling band are written directly from the
    ladder actions; both ladder hops conserve the total photon number, so
    every target state is inside the basis.  (tests cross-check against
    explicit ladder-matrix products.)
    """
    nh, nv = (k.astype(float) for k in _occupations(basis.n_max))
    s0_diag, sx_diag, hop = nh + nv, nh - nv, np.sqrt((nh[:-1] + 1.0) * nv[:-1])
    for arr in (s0_diag, sx_diag, hop):
        arr.flags.writeable = False
    return StokesSet(basis=basis, s0_diag=s0_diag, sx_diag=sx_diag, hop=hop)


@dataclass(frozen=True, eq=False)
class SzEigensystem:
    """Spectral decomposition of Sz, computed block-by-block.

    Sz conserves the total photon number, so it is block tridiagonal in
    this enumeration; each total-n block diagonalizes independently.  The
    spectrum is the integers n_L - n_R of the circular modes, ascending
    within each block.  ``blocks[n]`` holds the (n+1) x (n+1) eigenvectors
    of block n; the dense block-diagonal ``vectors`` is assembled on first
    access, for the oracle routes only.
    """

    basis: MeterBasis
    values: np.ndarray
    blocks: tuple

    @cached_property
    def vectors(self) -> np.ndarray:
        size = self.basis.size
        vectors = np.zeros((size, size), dtype=np.complex128)
        for n, v in enumerate(self.blocks):
            sl = self.basis.block_slice(n)
            vectors[sl, sl] = v
        vectors.flags.writeable = False
        return vectors

    def to_eigenbasis(self, amps: np.ndarray) -> np.ndarray:
        """V^dag amps, sector by sector."""
        out = np.empty(self.basis.size, dtype=np.complex128)
        for n, v in enumerate(self.blocks):
            sl = self.basis.block_slice(n)
            out[sl] = v.conj().T @ amps[sl]
        return out


def sz_eigensystem(basis: MeterBasis) -> SzEigensystem:
    values = np.zeros(basis.size)
    blocks = []
    hop = build_stokes(basis).hop
    for n in range(basis.n_max + 1):
        h = hop[basis.block_slice(n)][:n]  # Sz = i hop above, -i hop below
        w, v = np.linalg.eigh(np.diag(1j * h, 1) + np.diag(-1j * h, -1))
        values[basis.block_slice(n)] = w
        v.flags.writeable = False
        blocks.append(v)
    values.flags.writeable = False
    return SzEigensystem(basis=basis, values=values, blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# state preparation


def _squeeze_phase(alpha: complex, squeeze: SqueezeSpec) -> float:
    """Enforce the amplitude-squeezing convention arg(alpha) - theta/2 = 0."""
    if alpha == 0:
        return squeeze.theta if squeeze.theta is not None else 0.0
    want = 2.0 * float(np.angle(alpha))
    if squeeze.theta is None:
        return want
    gap = (squeeze.theta - want + math.pi) % (2.0 * math.pi) - math.pi
    if abs(gap) > 1e-9:
        raise ValueError(
            f"squeeze phase theta={squeeze.theta} violates the amplitude-squeezing "
            f"convention theta = 2*arg(alpha) = {want}"
        )
    return squeeze.theta


def _mode_amplitudes(alpha: complex, r: float, theta: float, n_max: int) -> np.ndarray:
    """c_n = <n|D(alpha) S(r e^{i theta})|0>, n = 0..n_max, from the exact recurrence

        sqrt(n+1) c_{n+1} = beta c_n - t sqrt(n) c_{n-1},
        c_0 = exp(-|alpha|^2/2 - alpha^*^2 t/2) / sqrt(cosh r),

    t = e^{i theta} tanh r, beta = alpha + t alpha^*, which follows from
    (a + t a^t) D S|0> = beta D S|0>; at r = 0 it is the coherent recursion.
    t comes from (r, theta), not z/|z| (NaN for a subnormal r), and
    1/cosh r from exp(-|r|), which cannot overflow.
    """
    alpha = complex(alpha)
    t = cmath.rect(math.tanh(r), theta)
    beta = alpha + t * alpha.conjugate()
    e = math.exp(-abs(r))
    phase = -0.5 * alpha.conjugate() ** 2 * t
    # np.exp, not math.exp: they differ in the last bit for some arguments,
    # and np.exp reproduces the coherent amplitudes behind tests/golden exactly
    cur = (float(np.exp(-0.5 * abs(alpha) ** 2 + phase.real)) * cmath.exp(1j * phase.imag)
           * math.sqrt(2.0 * e / (1.0 + e * e)))
    prev = 0j
    c = np.empty(n_max + 1, dtype=np.complex128)
    for n in range(n_max + 1):
        c[n] = cur
        prev, cur = cur, (beta * cur - t * math.sqrt(n) * prev) / math.sqrt(n + 1)
    return c


def _mode_pair(alpha: complex, squeeze: SqueezeSpec | None,
               n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(H, V) amplitudes of D(alpha) S(z)|0>_H |0>_V: the two-mode squeezer of
    the circular modes is one single-mode squeezer on each of H and V."""
    if squeeze is None or squeeze.r == 0.0:
        r = theta = 0.0
    else:
        r, theta = squeeze.r, _squeeze_phase(alpha, squeeze)
    return _mode_amplitudes(alpha, r, theta, n_max), _mode_amplitudes(0.0, r, theta, n_max)


def _deficits(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """1 - (mass with n_H + n_V <= n), n = 0..len(h) - 1.  Entry n reads only
    h[:n+1] and v[:n+1], so the cutoff choice and the check at preparation
    see the same number."""
    h2, v2 = np.abs(h) ** 2, np.abs(v) ** 2
    return 1.0 - np.cumsum([np.dot(h2[: n + 1], v2[n::-1]) for n in range(h.size)])


def prepare_meter_state(alpha: complex, squeeze: SqueezeSpec | None, basis: MeterBasis,
                        tail_tol: float = TOL.tail) -> Ket:
    """D(alpha) S(z)|0>_H |0>_V (squeeze None: coherent), exact per entry and
    not renormalized; NormDeficitError when the cutoff drops > tail_tol."""
    h, v = _mode_pair(alpha, squeeze, basis.n_max)
    deficit = _deficits(h, v)[-1]
    if deficit > tail_tol:
        r = squeeze.r if squeeze is not None else 0.0
        raise NormDeficitError(
            f"meter state |alpha|^2={abs(alpha)**2:.6g}, r={r} at cutoff {basis.n_max} "
            f"has norm deficit {deficit:.3e} > tail_tol {tail_tol:.1e}"
        )
    nh, nv = _occupations(basis.n_max)
    return Ket(h[nh] * v[nv])


def choose_cutoff(alpha2: float, r: float = 0.0, tail_tol: float = TOL.tail) -> int:
    """Smallest n_max whose prepared-state norm deficit is within tail_tol,
    read off the two modes prepared once up to TOL.cutoff_ceiling (the
    recurrence costs O(ceiling) per mode)."""
    if not (math.isfinite(alpha2) and alpha2 >= 0):
        raise ValueError(f"alpha2 must be finite and non-negative, got {alpha2!r}")
    if not 0.0 < tail_tol <= 1e-6:
        raise ValueError("tail_tol must lie in (0, 1e-6]")
    ceiling = TOL.cutoff_ceiling
    squeeze = SqueezeSpec(r) if r != 0.0 else None
    deficit = _deficits(*_mode_pair(math.sqrt(alpha2), squeeze, ceiling))
    if deficit[-1] > tail_tol:
        raise CutoffCeilingError(
            f"norm deficit {deficit[-1]:.3e} still exceeds {tail_tol:.1e} at the "
            f"cutoff ceiling {ceiling}"
        )
    return int(np.argmax(deficit <= tail_tol))


# ---------------------------------------------------------------------------
# moments


@dataclass(frozen=True)
class StokesMoments:
    """Means and variances of the Stokes operators on a prepared state.

    Expectations are corrected for truncation by dividing out <psi|psi>;
    the raw deficit is carried along for traceability.
    """

    mean_s0: float
    var_s0: float
    mean_sx: float
    var_sx: float
    mean_sy: float
    var_sy: float
    mean_sz: float
    var_sz: float
    norm_deficit: float


def _mean_var(w: np.ndarray, amps: np.ndarray, n2: float) -> tuple[float, float]:
    """Mean and variance of an operator X on amps, given w = X amps."""
    mean = float(np.vdot(amps, w).real) / n2
    var = float(np.vdot(w, w).real) / n2 - mean * mean
    return mean, var


def stokes_moments(state: Ket, stokes: StokesSet) -> StokesMoments:
    if state.dim != stokes.basis.size:
        raise DimensionMismatchError(
            f"a {state.dim}-dim state on a {stokes.basis.size}-dim Stokes set"
        )
    amps = state.amplitudes
    n2 = float(np.vdot(amps, amps).real)
    m0, v0 = _mean_var(stokes.s0_diag * amps, amps, n2)
    mx, vx = _mean_var(stokes.sx_diag * amps, amps, n2)
    my, vy = _mean_var(apply_band(stokes.hop, amps), amps, n2)
    mz, vz = _mean_var(apply_band(1j * stokes.hop, amps), amps, n2)
    return StokesMoments(m0, v0, mx, vx, my, vy, mz, vz, state.norm_deficit)


def predicted_moments(alpha2: float, r: float) -> StokesMoments:
    """Analytic moments of the squeezed coherent meter state.

    <S0> = |a|^2 + 2 sinh^2 r, <Sx> = |a|^2, <Sy> = <Sz> = 0,
    var S0 = var Sx = var Sy = |a|^2 e^{-2r} + sinh^2(2r),
    var Sz = |a|^2 e^{2r}.

    The sinh^2(2r) term in the Sy variance is the full (not half) one: the
    per-mode photon-number variances carry sinh^2(2r)/2 each, and the
    ladder cross terms of Sy contribute the same amount again.  Both
    statements hold exactly and are verified numerically in the tests.
    r = 0 reduces everything to the Poissonian coherent values.
    """
    s2 = math.sinh(r) ** 2
    v_perp = alpha2 * math.exp(-2.0 * r) + math.sinh(2.0 * r) ** 2
    return StokesMoments(
        mean_s0=alpha2 + 2.0 * s2,
        var_s0=v_perp,
        mean_sx=alpha2,
        var_sx=v_perp,
        mean_sy=0.0,
        var_sy=v_perp,
        mean_sz=0.0,
        var_sz=alpha2 * math.exp(2.0 * r),
        norm_deficit=0.0,
    )
