"""Square error and square disturbance: matrix simulation and closed forms.

The primary numeric path works in the Heisenberg picture, sandwiching the
evolved operators with the initial product state.  It never materializes a
joint matrix: states are kept as 2 x m arrays (spin row, meter column) in
the Sz eigenbasis, where the evolution is a diagonal phase and the only
matrix-vector product is with the transformed Sy.  A Schroedinger-picture
recomputation (evolving the state instead) is retained as a secondary
oracle; the two routes must agree to 1e-10.

Closed forms for the coherent meter:

    eps2 = 1 / (alpha2 sin^2 2g)        eta2 = 2 (1 - exp(-2 alpha2 sin^2 g))

and their squeezed-meter generalizations (phase convention theta = 2 phi),
which this package derives from the meter moments / the displaced
two-mode-squeezed characteristic function and validates numerically:

    eps2 = (alpha2 e^{-2r} + sinh^2 2r) / (alpha2^2 sin^2 2g)
    eta2 = 2 (1 - exp(-2 alpha2 e^{2r} sin^2 g))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationSingular
from .faraday import (
    JointContext,
    MeterWorkspace,
    calibration_scale,
    context_at,
    heisenberg_bx,
    calibrated_meter,
    lift_spin,
)
from .linalg import Ket, Operator, sigma_x, sigma_z, spin_state, SPIN_STATE_LABELS
from .tolerances import TOL

#: system preparation used for all sweep points: the sigma_y eigenstate,
#: which maximizes the right-hand side of the uncertainty relations
SWEEP_SPIN_STATE = "y+"


# ---------------------------------------------------------------------------
# operators (full-matrix route, for moderate cutoffs and tests)


def noise_operator(ctx: JointContext) -> Operator:
    """N = M_T - sigma_z (x) I."""
    return calibrated_meter(ctx) - lift_spin(ctx, sigma_z())


def disturbance_operator(ctx: JointContext) -> Operator:
    """D = U^dag (sigma_x (x) I) U - sigma_x (x) I."""
    return heisenberg_bx(ctx) - lift_spin(ctx, sigma_x())


# ---------------------------------------------------------------------------
# fast vector route


def _joint_tilde(ctx: JointContext, psi: Ket, xi: Ket | None) -> np.ndarray:
    """Initial product state as a (2, m) array in the Sz eigenbasis."""
    if psi.basis_tag != "spin":
        raise ValueError("psi must be a spin-basis ket")
    if xi is None:
        xt = ctx.workspace.state_tilde
    else:
        if xi.basis_tag != ctx.basis.tag:
            raise ValueError("xi must live on the context's meter basis")
        xt = ctx.workspace.eig.vectors.conj().T @ xi.amplitudes
    return np.array([psi.amplitudes[0] * xt, psi.amplitudes[1] * xt])


def _evolve(ctx: JointContext, vec2m: np.ndarray, dagger: bool = False) -> np.ndarray:
    """Apply U (or U^dag) to a (2, m) tilde-basis vector; diagonal phases."""
    ph = ctx.phases()
    if dagger:
        ph = ph.conj()
    return np.array([ph * vec2m[0], ph.conj() * vec2m[1]])


def _apply_noise(ctx: JointContext, psi_t: np.ndarray, scale: float) -> np.ndarray:
    st = ctx.workspace.sy_tilde
    t = _evolve(ctx, psi_t)
    y = np.array([st @ t[0], st @ t[1]])
    m_psi = _evolve(ctx, y, dagger=True) / scale
    a_psi = np.array([psi_t[0], -psi_t[1]])
    return m_psi - a_psi


def _apply_disturbance(ctx: JointContext, psi_t: np.ndarray) -> np.ndarray:
    t = _evolve(ctx, psi_t)
    bt_psi = _evolve(ctx, t[::-1], dagger=True)
    return bt_psi - psi_t[::-1]


def square_error_numeric(ctx: JointContext, psi: Ket, xi: Ket | None = None) -> float:
    """eps2 = <N^2> on |psi> (x) |xi> by matrix simulation (Heisenberg picture).

    xi defaults to the context's prepared meter state.  Expectations are
    normalized by <Psi|Psi> to correct for the truncation deficit.
    """
    scale = calibration_scale(ctx)
    psi_t = _joint_tilde(ctx, psi, xi)
    n2 = float(np.vdot(psi_t, psi_t).real)
    n_psi = _apply_noise(ctx, psi_t, scale)
    return float(np.vdot(n_psi, n_psi).real) / n2


def square_disturbance_numeric(ctx: JointContext, psi: Ket, xi: Ket | None = None) -> float:
    """eta2 = <D^2> on |psi> (x) |xi> by matrix simulation (Heisenberg picture)."""
    psi_t = _joint_tilde(ctx, psi, xi)
    n2 = float(np.vdot(psi_t, psi_t).real)
    d_psi = _apply_disturbance(ctx, psi_t)
    return float(np.vdot(d_psi, d_psi).real) / n2


def noise_mean(ctx: JointContext, psi: Ket, xi: Ket | None = None) -> complex:
    """<N> on |psi> (x) |xi>; zero for any psi when <Sy> = 0 (unbiasedness)."""
    scale = calibration_scale(ctx)
    psi_t = _joint_tilde(ctx, psi, xi)
    n2 = float(np.vdot(psi_t, psi_t).real)
    return complex(np.vdot(psi_t, _apply_noise(ctx, psi_t, scale))) / n2


def disturbance_mean(ctx: JointContext, psi: Ket, xi: Ket | None = None) -> complex:
    """<D> on |psi> (x) |xi>; biased by <sigma_x>(exp(-2 alpha2 sin^2 g) - 1)."""
    psi_t = _joint_tilde(ctx, psi, xi)
    n2 = float(np.vdot(psi_t, psi_t).real)
    return complex(np.vdot(psi_t, _apply_disturbance(ctx, psi_t))) / n2


def square_error_schrodinger(ctx: JointContext, psi: Ket, xi: Ket | None = None) -> float:
    """Secondary oracle: evolve the state, expand <(M - A)^2> term by term."""
    scale = calibration_scale(ctx)
    psi_t = _joint_tilde(ctx, psi, xi)
    n2 = float(np.vdot(psi_t, psi_t).real)
    st = ctx.workspace.sy_tilde
    t = _evolve(ctx, psi_t)
    sy_t = np.array([st @ t[0], st @ t[1]])
    a_psi = np.array([psi_t[0], -psi_t[1]])
    q = _evolve(ctx, a_psi)
    m2 = float(np.vdot(sy_t, sy_t).real) / (scale * scale * n2)
    cross = 2.0 * float(np.vdot(sy_t, q).real) / (scale * n2)
    return m2 - cross + 1.0


def square_disturbance_schrodinger(ctx: JointContext, psi: Ket,
                                   xi: Ket | None = None) -> float:
    """Secondary oracle: eta2 = 2 - 2 Re <U Psi|(sigma_x (x) I)|U B0 Psi>."""
    psi_t = _joint_tilde(ctx, psi, xi)
    n2 = float(np.vdot(psi_t, psi_t).real)
    t = _evolve(ctx, psi_t)
    r = _evolve(ctx, psi_t[::-1])
    return 2.0 - 2.0 * float(np.vdot(t[::-1], r).real) / n2


# ---------------------------------------------------------------------------
# closed forms


def square_error_analytic(g: float, alpha2: float) -> float:
    """Coherent-meter closed form 1 / (alpha2 sin^2 2g)."""
    s2g = math.sin(2.0 * g)
    if abs(s2g) <= TOL.sin2g_min:
        raise CalibrationSingular(f"square error diverges at g = {g!r} (sin 2g ~ 0)")
    return 1.0 / (alpha2 * s2g * s2g)


def square_disturbance_analytic(g: float, alpha2: float) -> float:
    """Coherent-meter closed form 2 (1 - exp(-2 alpha2 sin^2 g))."""
    s = math.sin(g)
    return 2.0 * (1.0 - math.exp(-2.0 * alpha2 * s * s))


def square_error_analytic_squeezed(g: float, alpha2: float, r: float) -> float:
    """(alpha2 e^{-2r} + sinh^2 2r) / (alpha2^2 sin^2 2g); reduces to the
    coherent form at r = 0."""
    s2g = math.sin(2.0 * g)
    if abs(s2g) <= TOL.sin2g_min:
        raise CalibrationSingular(f"square error diverges at g = {g!r} (sin 2g ~ 0)")
    var_perp = alpha2 * math.exp(-2.0 * r) + math.sinh(2.0 * r) ** 2
    return var_perp / (alpha2 * alpha2 * s2g * s2g)


def square_disturbance_analytic_squeezed(g: float, alpha2: float, r: float) -> float:
    """2 (1 - exp(-2 alpha2 e^{2r} sin^2 g)); reduces to the coherent form
    at r = 0."""
    s = math.sin(g)
    return 2.0 * (1.0 - math.exp(-2.0 * alpha2 * math.exp(2.0 * r) * s * s))


def disturbance_bias_coefficient(g: float, alpha2: float) -> float:
    """exp(-2 alpha2 sin^2 g) - 1: the <D> bias per unit <sigma_x>."""
    s = math.sin(g)
    return math.exp(-2.0 * alpha2 * s * s) - 1.0


# ---------------------------------------------------------------------------
# sweep samples


@dataclass(frozen=True)
class EDRPoint:
    """One sweep sample.

    eps2/eta2 are the matrix-simulation values, the _analytic fields the
    closed forms (squeezed generalization when r != 0).  bias_noise and
    bias_disturbance are max |<N>| and max |<D>| over the six Pauli
    eigenstates.  sigma_a, sigma_b, c_ab are the standard deviations of
    sigma_z, sigma_x and half the commutator mean on the sweep spin state
    (all 1 for the sigma_y eigenstate).  Samples where the calibration is
    singular carry NaN in the error channel and the flag "SINGULAR".
    """

    g: float
    alpha2: float
    r: float
    eps2: float
    eta2: float
    eps2_analytic: float
    eta2_analytic: float
    bias_noise: float
    bias_disturbance: float
    sigma_a: float
    sigma_b: float
    c_ab: float
    norm_deficit: float
    flags: tuple[str, ...] = ()

    @property
    def singular(self) -> bool:
        return "SINGULAR" in self.flags


def _spin_sigmas(psi: Ket) -> tuple[float, float, float]:
    amps = psi.amplitudes

    def _std(op: Operator) -> float:
        w = op.matrix @ amps
        mean = float(np.vdot(amps, w).real)
        return math.sqrt(max(float(np.vdot(w, w).real) - mean * mean, 0.0))

    from .linalg import sigma_y

    c_ab = abs(float(np.vdot(amps, sigma_y().matrix @ amps).real))
    return _std(sigma_z()), _std(sigma_x()), c_ab


def edr_point_at(workspace: MeterWorkspace, g: float, alpha2: float, r: float) -> EDRPoint:
    """Assemble the full per-sample record at interaction strength g."""
    ctx = context_at(workspace, g)
    psi = spin_state(SWEEP_SPIN_STATE)
    sigma_a, sigma_b, c_ab = _spin_sigmas(psi)
    deficit = workspace.meter_state.norm_deficit

    eta2 = square_disturbance_numeric(ctx, psi)
    if r == 0.0:
        eta2_analytic = square_disturbance_analytic(g, alpha2)
    else:
        eta2_analytic = square_disturbance_analytic_squeezed(g, alpha2, r)
    bias_d = max(abs(disturbance_mean(ctx, spin_state(lbl))) for lbl in SPIN_STATE_LABELS)

    flags: tuple[str, ...] = ()
    try:
        eps2 = square_error_numeric(ctx, psi)
        if r == 0.0:
            eps2_analytic = square_error_analytic(g, alpha2)
        else:
            eps2_analytic = square_error_analytic_squeezed(g, alpha2, r)
        bias_n = max(abs(noise_mean(ctx, spin_state(lbl))) for lbl in SPIN_STATE_LABELS)
    except CalibrationSingular:
        eps2 = eps2_analytic = bias_n = math.nan
        flags = ("SINGULAR",)

    return EDRPoint(
        g=g, alpha2=alpha2, r=r,
        eps2=eps2, eta2=eta2,
        eps2_analytic=eps2_analytic, eta2_analytic=eta2_analytic,
        bias_noise=bias_n, bias_disturbance=bias_d,
        sigma_a=sigma_a, sigma_b=sigma_b, c_ab=c_ab,
        norm_deficit=deficit, flags=flags,
    )
