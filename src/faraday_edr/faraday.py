"""Faraday interaction U = exp(-i g sigma_z (x) Sz) and Heisenberg evolution.

Two construction paths are implemented.  The structured path diagonalizes
Sz block-by-block (it conserves total photon number) and assembles the
joint unitary from per-spin-sign phase factors; it is the fast default.
The generic path eigendecomposes the full joint generator and serves as
the test oracle.  Both must agree with each other and with the
closed-form rotated operators

    U^dag (I (x) Sy) U = (I (x) Sy) cos 2g + (sigma_z (x) Sx) sin 2g
    U^dag (sigma_x (x) I) U = sigma_x (x) cos(2g Sz) - sigma_y (x) sin(2g Sz)

which hold because sigma_z squares to the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CalibrationSingular, NonUnitaryError, ZeroMeanSx
from .linalg import Ket, Operator, identity, sigma_x, sigma_y, sigma_z, tensor
from .meter import (
    MeterBasis,
    SqueezeSpec,
    StokesSet,
    SzEigensystem,
    build_stokes,
    choose_cutoff,
    prepare_meter_state,
    sz_eigensystem,
)
from .tolerances import TOL


@dataclass(frozen=True)
class MeterWorkspace:
    """The g-independent part of a measurement: basis, operators, meter state.

    Shared read-only between all interaction strengths of a sweep.  The
    tilde attributes are the Sz eigenbasis
    representations used by the fast vector evaluators in edr.
    """

    basis: MeterBasis
    stokes: StokesSet
    meter_state: Ket
    eig: SzEigensystem

    @cached_property
    def mean_sx(self) -> float:
        amps = self.meter_state.amplitudes
        n2 = float(np.vdot(amps, amps).real)
        return float(np.vdot(amps, self.stokes.sx.matrix @ amps).real) / n2

    @cached_property
    def state_tilde(self) -> np.ndarray:
        xt = self.eig.vectors.conj().T @ self.meter_state.amplitudes
        xt.flags.writeable = False
        return xt

    @cached_property
    def sy_tilde(self) -> np.ndarray:
        v = self.eig.vectors
        st = v.conj().T @ self.stokes.sy.matrix @ v
        st.flags.writeable = False
        return st


def build_workspace(alpha: complex, squeeze: SqueezeSpec | None = None,
                    cutoff: int | None = None, tail_tol: float = TOL.tail) -> MeterWorkspace:
    if cutoff is None:
        cutoff = choose_cutoff(abs(alpha) ** 2,
                               squeeze.r if squeeze is not None else 0.0, tail_tol)
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
    def basis_tag(self) -> str:
        return self.workspace.basis.joint_tag

    @property
    def stokes(self) -> StokesSet:
        return self.workspace.stokes

    @property
    def meter_state(self) -> Ket:
        return self.workspace.meter_state

    @property
    def mean_sx(self) -> float:
        return self.workspace.mean_sx

    def phases(self, sign: float = 1.0) -> np.ndarray:
        """exp(-i g * sign * lambda) over the Sz spectrum."""
        return np.exp(-1j * self.g * sign * self.workspace.eig.values)

    @cached_property
    def u_t(self) -> Operator:
        eig = self.workspace.eig
        m = self.basis.size
        ph = self.phases()
        u_plus = (eig.vectors * ph) @ eig.vectors.conj().T
        u_minus = (eig.vectors * ph.conj()) @ eig.vectors.conj().T
        joint = np.zeros((2 * m, 2 * m), dtype=np.complex128)
        joint[:m, :m] = u_plus
        joint[m:, m:] = u_minus
        op = Operator(joint, self.basis_tag)
        defect = float(np.abs(op.matrix.conj().T @ op.matrix - np.eye(2 * m)).max())
        if defect > TOL.unitarity:
            raise NonUnitaryError(f"joint unitary deviates from unitarity by {defect:.3e}")
        return op


def context_at(workspace: MeterWorkspace, g: float) -> JointContext:
    """A context at strength g sharing an already-built workspace."""
    return JointContext(workspace=workspace, g=g)


def unitary_generic(ctx: JointContext) -> Operator:
    """exp(-i g sigma_z (x) Sz) via eigendecomposition of the full joint generator.

    Slow-path oracle for the block-structured ``ctx.u_t``.
    """
    from .linalg import hermitian_function

    gen = tensor(sigma_z(), ctx.stokes.sz) * ctx.g
    return hermitian_function(gen, lambda lam: np.exp(-1j * lam))


def lift_meter(ctx: JointContext, op: Operator) -> Operator:
    return tensor(identity(2, "spin"), op)


def lift_spin(ctx: JointContext, op: Operator) -> Operator:
    return tensor(op, identity(ctx.basis.size, ctx.basis.tag))


def heisenberg_sy(ctx: JointContext) -> Operator:
    """U^dag (I (x) Sy) U as a full joint operator."""
    u = ctx.u_t
    return Operator(
        u.matrix.conj().T @ lift_meter(ctx, ctx.stokes.sy).matrix @ u.matrix,
        ctx.basis_tag, hermitian=True,
    )


def heisenberg_sy_closed_form(ctx: JointContext) -> Operator:
    """(I (x) Sy) cos 2g + (sigma_z (x) Sx) sin 2g."""
    c, s = math.cos(2.0 * ctx.g), math.sin(2.0 * ctx.g)
    return lift_meter(ctx, ctx.stokes.sy) * c + tensor(sigma_z(), ctx.stokes.sx) * s


def heisenberg_bx(ctx: JointContext) -> Operator:
    """U^dag (sigma_x (x) I) U as a full joint operator."""
    u = ctx.u_t
    return Operator(
        u.matrix.conj().T @ lift_spin(ctx, sigma_x()).matrix @ u.matrix,
        ctx.basis_tag, hermitian=True,
    )


def heisenberg_bx_closed_form(ctx: JointContext) -> Operator:
    """sigma_x (x) cos(2g Sz) - sigma_y (x) sin(2g Sz).

    The trigonometric operator functions go through the generic
    eigendecomposition of Sz, independent of the structured evolution
    path, so this doubles as its oracle.
    """
    from .linalg import hermitian_function

    g2 = 2.0 * ctx.g
    cos_op = hermitian_function(ctx.stokes.sz, lambda lam: np.cos(g2 * lam))
    sin_op = hermitian_function(ctx.stokes.sz, lambda lam: np.sin(g2 * lam))
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
