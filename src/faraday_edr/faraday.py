"""Faraday interaction U = exp(-i g sigma_z (x) Sz) and Heisenberg evolution.

Sz conserves the total photon number, so it diagonalizes block by block.
Sweeps evolve nothing: they read ``MeterWorkspace.sweep_moments``.  The
banded vector oracle in edr reads the meter state and Sy in the Sz
eigenbasis (Sy as one band), where U is a diagonal phase.  The
joint-matrix routes below are oracles on the dense views.  The structured
one assembles the joint unitary from per-spin-sign phase factors; the
generic one eigendecomposes the full joint generator.  Both must agree
with each other and with the closed-form rotated operators

    U^dag (I (x) Sy) U = (I (x) Sy) cos 2g + (sigma_z (x) Sx) sin 2g
    U^dag (sigma_x (x) I) U = sigma_x (x) cos(2g Sz) - sigma_y (x) sin(2g Sz)

which hold because sigma_z squares to the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BandStructureError,
    CalibrationSingular,
    CutoffCeilingError,
    NonUnitaryError,
    ZeroMeanSx,
)
from .linalg import Ket, Operator, Spectrum, identity, sigma_x, sigma_y, sigma_z, tensor
from .meter import (
    MeterBasis,
    SqueezeSpec,
    StokesSet,
    SzEigensystem,
    apply_band,
    build_stokes,
    choose_cutoff,
    prepare_meter_state,
    sz_eigensystem,
)
from .tolerances import TOL


@dataclass(frozen=True)
class MeterWorkspace:
    """The g-independent part of a measurement: basis, operators, meter state.

    Shared read-only between all interaction strengths of a sweep, which
    read only ``sweep_moments``.  The tilde attributes are the Sz eigenbasis
    representations the banded vector oracle in edr uses, built sector by
    sector.  The dense spectra are the oracles' own eigendecompositions,
    built on first use and independent of the per-sector ``eig``.
    """

    basis: MeterBasis
    stokes: StokesSet
    meter_state: Ket
    eig: SzEigensystem

    @cached_property
    def mean_sx(self) -> float:
        amps = self.meter_state.amplitudes
        n2 = float(np.vdot(amps, amps).real)
        return float(np.vdot(amps, self.stokes.sx_diag * amps).real) / n2

    @cached_property
    def sweep_moments(self) -> tuple[float, float, float, np.ndarray]:
        """(<Sy>, <Sy^2>, var Sx, w), with w the weights |<lambda|xi>|^2 / <xi|xi>
        over ``eig.values``: the g-independent numbers every sweep point is a
        function of, built on first use.  The second moments are taken as
        ||Sy xi||^2 and ||(Sx - <Sx>) xi||^2 over <xi|xi>, so nothing cancels."""
        amps = self.meter_state.amplitudes
        n2 = float(np.vdot(amps, amps).real)
        sy = apply_band(self.stokes.hop, amps)
        dsx = (self.stokes.sx_diag - self.mean_sx) * amps
        weights = np.abs(self.state_tilde) ** 2
        weights /= float(np.vdot(self.state_tilde, self.state_tilde).real)
        weights.flags.writeable = False
        return (float(np.vdot(amps, sy).real) / n2, float(np.vdot(sy, sy).real) / n2,
                float(np.vdot(dsx, dsx).real) / n2, weights)

    @cached_property
    def state_tilde(self) -> np.ndarray:
        xt = self.eig.to_eigenbasis(self.meter_state.amplitudes)
        xt.flags.writeable = False
        return xt

    @cached_property
    def sy_tilde(self) -> np.ndarray:
        """Superdiagonal of V^dag Sy V, length m - 1, zero across sectors.

        Inside photon-number sector n, Sy = 2 Jx and Sz = 2 Jy of spin n/2
        (Schwinger's two-mode map), so Sy only links neighbouring Sz
        eigenvalues: V_n^dag Sy_n V_n is Hermitian tridiagonal with a zero
        diagonal, up to rounding.  Everything outside that band is checked
        against TOL.hermiticity times the block's largest entry and dropped.
        """
        band = np.zeros(self.basis.size - 1, dtype=np.complex128)
        hop = self.stokes.hop
        for n, v in enumerate(self.eig.blocks):
            start = self.basis.block_slice(n).start
            h = hop[start:start + n]
            t = v.conj().T @ (np.diag(h, 1) + np.diag(h, -1)) @ v
            upper = np.diag(t, 1)
            defect = np.abs(t - np.diag(upper, 1) - np.diag(upper.conj(), -1)).max()
            if defect > TOL.hermiticity * np.abs(t).max():
                raise BandStructureError(
                    f"V^dag Sy V of photon-number sector {n} leaves {defect:.3e} "
                    f"outside its band (> {TOL.hermiticity:.0e} of its largest entry)"
                )
            band[start:start + n] = upper
        band.flags.writeable = False
        return band

    @cached_property
    def joint_generator_spectrum(self) -> Spectrum:
        """Eigendecomposition of the dense 2m x 2m sigma_z (x) Sz."""
        return Spectrum.of(tensor(sigma_z(), self.stokes.sz))

    @cached_property
    def sz_spectrum(self) -> Spectrum:
        """Eigendecomposition of the dense m x m Sz."""
        return Spectrum.of(self.stokes.sz)


def build_workspace(alpha: complex, squeeze: SqueezeSpec | None = None,
                    cutoff: int | None = None, tail_tol: float = TOL.tail) -> MeterWorkspace:
    if cutoff is None:
        cutoff = choose_cutoff(abs(alpha) ** 2,
                               squeeze.r if squeeze is not None else 0.0, tail_tol)
    elif cutoff > TOL.cutoff_ceiling:
        raise CutoffCeilingError(
            f"cutoff {cutoff} exceeds the ceiling {TOL.cutoff_ceiling}"
        )
    basis = MeterBasis(cutoff)
    stokes = build_stokes(basis)
    state = prepare_meter_state(alpha, squeeze, basis, tail_tol)
    return MeterWorkspace(basis=basis, stokes=stokes, meter_state=state,
                          eig=sz_eigensystem(basis))


@dataclass(frozen=True)
class JointContext:
    """A measurement at a definite interaction strength g.

    ``u_t`` materializes the full joint unitary on demand (sweeps never
    need the matrix; tests and small-space consumers do) and verifies
    unitarity when built.
    """

    workspace: MeterWorkspace
    g: float

    @property
    def basis(self) -> MeterBasis:
        return self.workspace.basis

    @property
    def stokes(self) -> StokesSet:
        return self.workspace.stokes

    @property
    def meter_state(self) -> Ket:
        return self.workspace.meter_state

    @property
    def mean_sx(self) -> float:
        return self.workspace.mean_sx

    @cached_property
    def phases(self) -> np.ndarray:
        """exp(-i g lambda) over the Sz spectrum; U^dag and the spin-down
        block use its conjugate."""
        ph = np.exp(-1j * self.g * self.workspace.eig.values)
        ph.flags.writeable = False
        return ph

    @cached_property
    def u_t(self) -> Operator:
        eig = self.workspace.eig
        m = self.basis.size
        ph = self.phases
        u_plus = (eig.vectors * ph) @ eig.vectors.conj().T
        u_minus = (eig.vectors * ph.conj()) @ eig.vectors.conj().T
        joint = np.zeros((2 * m, 2 * m), dtype=np.complex128)
        joint[:m, :m] = u_plus
        joint[m:, m:] = u_minus
        op = Operator(joint)
        defect = float(np.abs(op.matrix.conj().T @ op.matrix - np.eye(2 * m)).max())
        if defect > TOL.unitarity:
            raise NonUnitaryError(f"joint unitary deviates from unitarity by {defect:.3e}")
        return op


def context_at(workspace: MeterWorkspace, g: float) -> JointContext:
    """A context at strength g sharing an already-built workspace."""
    return JointContext(workspace=workspace, g=g)


def unitary_generic(ctx: JointContext) -> Operator:
    """exp(-i g sigma_z (x) Sz) via eigendecomposition of the full joint generator.

    Slow-path oracle for the block-structured ``ctx.u_t``; the generator's
    spectrum is taken once per workspace and the phase mapped onto it.
    """
    g = ctx.g
    return ctx.workspace.joint_generator_spectrum.map(lambda lam: np.exp(-1j * g * lam))


def lift_meter(ctx: JointContext, op: Operator) -> Operator:
    return tensor(identity(2), op)


def lift_spin(ctx: JointContext, op: Operator) -> Operator:
    return tensor(op, identity(ctx.basis.size))


def heisenberg_sy(ctx: JointContext) -> Operator:
    """U^dag (I (x) Sy) U as a full joint operator."""
    u = ctx.u_t
    return Operator(u.matrix.conj().T @ lift_meter(ctx, ctx.stokes.sy).matrix @ u.matrix,
                    hermitian=True)


def heisenberg_sy_closed_form(ctx: JointContext) -> Operator:
    """(I (x) Sy) cos 2g + (sigma_z (x) Sx) sin 2g."""
    c, s = math.cos(2.0 * ctx.g), math.sin(2.0 * ctx.g)
    return lift_meter(ctx, ctx.stokes.sy) * c + tensor(sigma_z(), ctx.stokes.sx) * s


def heisenberg_bx(ctx: JointContext) -> Operator:
    """U^dag (sigma_x (x) I) U as a full joint operator."""
    u = ctx.u_t
    return Operator(u.matrix.conj().T @ lift_spin(ctx, sigma_x()).matrix @ u.matrix,
                    hermitian=True)


def heisenberg_bx_closed_form(ctx: JointContext) -> Operator:
    """sigma_x (x) cos(2g Sz) - sigma_y (x) sin(2g Sz).

    The trigonometric operator functions go through the generic
    eigendecomposition of dense Sz, independent of the structured evolution
    path, so this doubles as its oracle.
    """
    g2 = 2.0 * ctx.g
    spectrum = ctx.workspace.sz_spectrum
    cos_op = spectrum.map(lambda lam: np.cos(g2 * lam))
    sin_op = spectrum.map(lambda lam: np.sin(g2 * lam))
    return tensor(sigma_x(), cos_op) - tensor(sigma_y(), sin_op)


def calibration_scale(ctx: JointContext) -> float:
    """<Sx> sin 2g, guarding both singularities with explicit errors."""
    s2g = math.sin(2.0 * ctx.g)
    if abs(s2g) <= TOL.sin2g_min:
        raise CalibrationSingular(
            f"|sin 2g| = {abs(s2g):.3e} at g = {ctx.g!r}: no meter shift, "
            "calibrated readout diverges"
        )
    if abs(ctx.mean_sx) <= TOL.mean_sx_min:
        raise ZeroMeanSx(f"<Sx> = {ctx.mean_sx:.3e} is too small to calibrate against")
    return ctx.mean_sx * s2g


def calibrated_meter(ctx: JointContext) -> Operator:
    """M = U^dag (I (x) Sy) U / (<Sx> sin 2g); unbiased when <Sy> = 0."""
    scale = calibration_scale(ctx)
    return heisenberg_sy(ctx) * (1.0 / scale)
