"""Two-mode polarization meter: truncated Fock basis, Stokes operators, states.

The basis is truncated by TOTAL photon number.  All four Stokes operators
commute with the total photon number, so that truncation closes their
commutation algebra: there is no leakage at the boundary, and the only
residual in [Sx,Sy] - 2i Sz etc. is floating-point rounding (exactly zero
at cutoff 1, below 1e-12 at any tested cutoff).  Per-mode truncation would
not have this property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CutoffCeilingError, DimensionMismatchError, NormDeficitError
from .linalg import Ket, Operator, hermitian_function
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
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(states)})

    def __eq__(self, other) -> bool:
        return isinstance(other, MeterBasis) and other.n_max == self.n_max

    def __hash__(self) -> int:
        return hash(("MeterBasis", self.n_max))

    @property
    def size(self) -> int:
        return len(self.states)

    def index_of(self, nh: int, nv: int) -> int:
        return self._index[(nh, nv)]

    def block_slice(self, n: int) -> slice:
        """Indices of the total-photon-number-n block."""
        start = n * (n + 1) // 2
        return slice(start, start + n + 1)

    def totals(self) -> np.ndarray:
        return np.array([nh + nv for nh, nv in self.states], dtype=float)


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
    nh = np.array([s[0] for s in basis.states], dtype=float)
    nv = np.array([s[1] for s in basis.states], dtype=float)
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
    for n in range(basis.n_max + 1):
        d = n + 1
        blk = np.zeros((d, d), dtype=np.complex128)
        for k in range(n):  # couples (k, n-k) <-> (k+1, n-k-1)
            amp = np.sqrt((k + 1) * (n - k))
            blk[k + 1, k] = -1j * amp
            blk[k, k + 1] = 1j * amp
        w, v = np.linalg.eigh(blk)
        values[basis.block_slice(n)] = w
        v.flags.writeable = False
        blocks.append(v)
    values.flags.writeable = False
    return SzEigensystem(basis=basis, values=values, blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# state preparation


def _single_mode_ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(np.complex128)


def _exp_antihermitian(gen: np.ndarray) -> np.ndarray:
    """exp(G) for anti-Hermitian G, via hermitian_function of K = iG."""
    k = Operator(1j * gen)
    return hermitian_function(k, lambda lam: np.exp(-1j * lam)).matrix


def _displaced_squeezed_mode(alpha: complex, z: complex, dim: int) -> np.ndarray:
    """Single-mode amplitudes of D(alpha) S(z) |0> on a dim-level Fock space."""
    a = _single_mode_ladder(dim)
    ad = a.conj().T
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    if z != 0:
        gen_s = 0.5 * (np.conj(z) * (a @ a) - z * (ad @ ad))
        psi = _exp_antihermitian(gen_s) @ psi
    if alpha != 0:
        gen_d = alpha * ad - np.conj(alpha) * a
        psi = _exp_antihermitian(gen_d) @ psi
    return psi


def _working_dim(n_max: int) -> int:
    # +40% padding, min +10: squeeze/displace do not conserve photon number,
    # so they are exponentiated in a larger space before projecting back.
    return n_max + max(10, math.ceil(0.4 * n_max)) + 1


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


def _mode_amplitudes(alpha: complex, squeeze: SqueezeSpec | None,
                     n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(H-mode, V-mode) single-mode amplitudes, prepared in a padded space."""
    dim = _working_dim(n_max)
    if squeeze is None or squeeze.r == 0.0:
        z = 0.0
    else:
        z = squeeze.r * np.exp(1j * _squeeze_phase(alpha, squeeze))
    psi_h = _displaced_squeezed_mode(alpha, z, dim)
    psi_v = _displaced_squeezed_mode(0.0, z, dim)
    return psi_h, psi_v


def _combine_modes(psi_h: np.ndarray, psi_v: np.ndarray, basis: MeterBasis) -> np.ndarray:
    amps = np.empty(basis.size, dtype=np.complex128)
    for i, (nh, nv) in enumerate(basis.states):
        amps[i] = psi_h[nh] * psi_v[nv]
    return amps


def coherent_state(alpha: complex, basis: MeterBasis, tail_tol: float = TOL.tail) -> Ket:
    """|alpha>_H |0>_V with exact per-entry amplitudes; not renormalized.

    Raises NormDeficitError when the basis cutoff drops more than tail_tol
    of probability mass.
    """
    amps = np.zeros(basis.size, dtype=np.complex128)
    c = np.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(basis.n_max + 1):
        amps[basis.index_of(n, 0)] = c
        c = c * alpha / np.sqrt(n + 1.0)
    ket = Ket(amps)
    if ket.norm_deficit > tail_tol:
        raise NormDeficitError(
            f"coherent state |alpha|^2={abs(alpha)**2:.6g} at cutoff {basis.n_max} "
            f"has norm deficit {ket.norm_deficit:.3e} > tail_tol {tail_tol:.1e}"
        )
    return ket


def squeezed_coherent_state(alpha: complex, squeeze: SqueezeSpec, basis: MeterBasis,
                            tail_tol: float = TOL.tail) -> Ket:
    """D(alpha) S(z) |0>_H |0>_V truncated to the analysis basis.

    The two-mode squeezer in the circular modes factorizes into identical
    single-mode squeezers on H and V, so each mode is prepared by
    exponentiating its generators (via hermitian_function) in a padded
    working space and the product is projected onto n_H + n_V <= n_max.
    The projection loss is the reported norm deficit.
    """
    psi_h, psi_v = _mode_amplitudes(alpha, squeeze, basis.n_max)
    ket = Ket(_combine_modes(psi_h, psi_v, basis))
    if ket.norm_deficit > tail_tol:
        raise NormDeficitError(
            f"squeezed state |alpha|^2={abs(alpha)**2:.6g}, r={squeeze.r} at cutoff "
            f"{basis.n_max} has norm deficit {ket.norm_deficit:.3e} > tail_tol {tail_tol:.1e}"
        )
    return ket


def prepare_meter_state(alpha: complex, squeeze: SqueezeSpec | None, basis: MeterBasis,
                        tail_tol: float = TOL.tail) -> Ket:
    if squeeze is None:
        return coherent_state(alpha, basis, tail_tol)
    return squeezed_coherent_state(alpha, squeeze, basis, tail_tol)


def choose_cutoff(alpha2: float, r: float = 0.0, tail_tol: float = TOL.tail,
                  ceiling: int = TOL.cutoff_ceiling) -> int:
    """Smallest n_max whose prepared-state norm deficit is within tail_tol.

    The photon-number mass profile is computed once at a generous scan
    cutoff (starting from ceil(alpha2 + 8*sqrt(alpha2+1)), grown if that
    is still lossy), then the smallest adequate n_max is read off the
    cumulative mass.  The result can sit well below the scan start: a
    vacuum meter needs no photons at all.
    """
    if alpha2 < 0:
        raise ValueError("alpha2 must be non-negative")
    if not 0.0 < tail_tol <= 1e-6:
        raise ValueError("tail_tol must lie in (0, 1e-6]")
    alpha = math.sqrt(alpha2)
    squeeze = SqueezeSpec(r) if r != 0.0 else None

    scan = max(0, math.ceil(alpha2 + 8.0 * math.sqrt(alpha2 + 1.0)))
    scan = min(scan, ceiling)
    while True:
        psi_h, psi_v = _mode_amplitudes(alpha, squeeze, scan)
        # mass per total photon number n, summed over the (nh, n-nh) splits
        ph2 = np.abs(psi_h[: scan + 1]) ** 2
        pv2 = np.abs(psi_v[: scan + 1]) ** 2
        mass = np.array([np.dot(ph2[: n + 1], pv2[: n + 1][::-1]) for n in range(scan + 1)])
        deficit = 1.0 - np.cumsum(mass)
        if deficit[-1] <= tail_tol:
            break
        if scan >= ceiling:
            raise CutoffCeilingError(
                f"norm deficit {deficit[-1]:.3e} still exceeds {tail_tol:.1e} at the "
                f"cutoff ceiling {ceiling}"
            )
        scan = min(math.ceil(scan * 1.5) + 10, ceiling)

    n_star = int(np.argmax(deficit <= tail_tol))
    # confirm against an actual preparation at the candidate cutoff
    while n_star <= ceiling:
        try:
            prepare_meter_state(alpha, squeeze, MeterBasis(n_star), tail_tol)
            return n_star
        except NormDeficitError:
            n_star += 1
    raise CutoffCeilingError(f"no adequate cutoff below the ceiling {ceiling}")


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
