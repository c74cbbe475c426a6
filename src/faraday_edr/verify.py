"""Numeric-vs-analytic verification suites behind the ``verify`` CLI command.

Each suite compares an independent pair of computation routes and reports
its worst error; the CLI exits 3 if any suite fails, naming the invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edr import (
    square_disturbance_analytic,
    square_disturbance_numeric,
    square_disturbance_schrodinger,
    square_error_analytic,
    square_error_numeric,
    square_error_schrodinger,
)
from .errors import FaradayEdrError, ZeroMeanSx
from .faraday import (
    build_workspace,
    context_at,
    heisenberg_bx,
    heisenberg_bx_closed_form,
    heisenberg_sy,
    heisenberg_sy_closed_form,
    unitary_generic,
)
from .linalg import spin_state
from .meter import MeterBasis, SqueezeSpec, build_stokes, predicted_moments, stokes_moments
from .psa import PsaConfig, gaussian_oracle, wia_hak_product
from .tolerances import TOL


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_err: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        txt = f"suite {self.name:<18} {status}  max err {self.max_err:.3e} (tol {self.tol:.0e})"
        if self.detail:
            txt += f"  [{self.detail}]"
        return txt


def _g_grid(points: int = 20) -> np.ndarray:
    g = np.linspace(0.0, math.pi, points + 2)[1:-1]
    return g[np.abs(np.sin(2.0 * g)) > 1e-3]


def suite_edr_agreement(alpha2_values=(2.0, 6.0, 12.0), cutoff: int | None = None,
                        tail_tol: float = TOL.tail) -> SuiteResult:
    """Exact coherent simulation against the closed forms, plus the
    Heisenberg/Schroedinger route cross-check."""
    tol = 1e-6
    worst = 0.0
    psi = spin_state("y+")
    try:
        for alpha2 in alpha2_values:
            ws = build_workspace(math.sqrt(alpha2), None, cutoff, tail_tol)
            for g in _g_grid():
                ctx = context_at(ws, float(g))
                eps2 = square_error_numeric(ctx, psi)
                eta2 = square_disturbance_numeric(ctx, psi)
                ea = square_error_analytic(float(g), alpha2)
                da = square_disturbance_analytic(float(g), alpha2)
                worst = max(worst, abs(eps2 - ea) / ea, abs(eta2 - da) / da)
                worst = max(worst,
                            abs(eps2 - square_error_schrodinger(ctx, psi)),
                            abs(eta2 - square_disturbance_schrodinger(ctx, psi)))
    except ZeroMeanSx:
        raise  # no meter to calibrate: the request is unusable, not a failed check
    except FaradayEdrError as exc:
        return SuiteResult("edr-agreement", False, math.inf, tol,
                           f"{type(exc).__name__}: {exc}")
    return SuiteResult("edr-agreement", worst <= tol, worst, tol)


def suite_bch_oracle() -> SuiteResult:
    """Spectral Heisenberg evolution against the rotation closed forms, and
    the block-structured unitary against the generic eigendecomposition."""
    tol = TOL.bch_max_entry
    worst = 0.0
    g_values = (0.1, 0.5, math.pi / 4, 1.3, math.pi / 2, 2.5, math.pi)
    for cutoff in (8, 16, 24):
        ws = build_workspace(0.0, None, cutoff)  # vacuum meter: operators only
        for g in g_values:
            ctx = context_at(ws, g)
            sy_diff = np.abs(heisenberg_sy(ctx).matrix
                             - heisenberg_sy_closed_form(ctx).matrix).max()
            bx_diff = np.abs(heisenberg_bx(ctx).matrix
                             - heisenberg_bx_closed_form(ctx).matrix).max()
            u_diff = np.abs(ctx.u_t.matrix - unitary_generic(ctx).matrix).max()
            worst = max(worst, float(sy_diff), float(bx_diff), float(u_diff))
    return SuiteResult("bch-oracle", worst <= tol, worst, tol)


def suite_stokes_algebra() -> SuiteResult:
    """Commutation closure under total-number truncation.

    The algebra closes exactly; the only residual is floating-point
    rounding in the matrix products (zero at cutoff 1, ~1e-14 at larger
    cutoffs), far below anything truncation leakage would produce.
    """
    tol = 1e-12
    worst = 0.0
    for cutoff in (1, 4, 9, 16):
        s = build_stokes(MeterBasis(cutoff))
        pairs = ((s.sx, s.sy, s.sz), (s.sy, s.sz, s.sx), (s.sz, s.sx, s.sy))
        for a, b, c in pairs:
            res = a.matrix @ b.matrix - b.matrix @ a.matrix - 2j * c.matrix
            worst = max(worst, float(np.abs(res).max()))
        for other in (s.sx, s.sy, s.sz):
            res = s.s0.matrix @ other.matrix - other.matrix @ s.s0.matrix
            worst = max(worst, float(np.abs(res).max()))
    return SuiteResult("stokes-algebra", worst <= tol, worst, tol)


def suite_squeezed_moments() -> SuiteResult:
    """Squeezed-meter Stokes moments against the analytic predictions.

    Variances are held to 1e-4 relative, the mean <Sx> = |alpha|^2 to 1e-8.
    """
    tol = 1e-4
    worst_var = 0.0
    worst_mean = 0.0
    try:
        for alpha2, r in ((9.0, 0.3), (9.0, -0.3)):
            ws = build_workspace(math.sqrt(alpha2), SqueezeSpec(r))
            mom = stokes_moments(ws.meter_state, ws.stokes)
            pred = predicted_moments(alpha2, r)
            worst_var = max(worst_var,
                            abs(mom.var_sz - pred.var_sz) / pred.var_sz,
                            abs(mom.var_sy - pred.var_sy) / pred.var_sy)
            worst_mean = max(worst_mean, abs(mom.mean_sx - pred.mean_sx) / pred.mean_sx)
    except FaradayEdrError as exc:
        return SuiteResult("squeezed-moments", False, math.inf, tol,
                           f"{type(exc).__name__}: {exc}")
    passed = worst_var <= tol and worst_mean <= 1e-8
    return SuiteResult("squeezed-moments", passed, worst_var, tol,
                       f"mean <Sx> rel err {worst_mean:.3e} (tol 1e-08)")


def suite_psa_quadrature() -> SuiteResult:
    """Gauss-Hermite oracle against the closed-form Gaussian moments, plus
    the WIA product identity."""
    tol = 1e-9
    worst = 0.0
    for sigma in np.linspace(0.5, 2.0, 10):
        for galpha in np.linspace(0.05, 1.0, 10):
            cfg = PsaConfig(g=float(galpha), alpha_mag=1.0, sigma=float(sigma))
            mom = gaussian_oracle(cfg)
            chi = cfg.chi
            worst = max(worst,
                        abs(mom.q2_mean - sigma ** 2) / sigma ** 2,
                        abs(mom.cos_mean - math.exp(-2.0 * chi * chi))
                        / math.exp(-2.0 * chi * chi))
    hak_residual = abs(wia_hak_product() - 1.0)
    worst = max(worst, hak_residual)
    return SuiteResult("psa-quadrature", worst <= tol, worst, tol,
                       f"wia hak residual {hak_residual:g}")


def run_all_suites(alpha2: float | None = None, cutoff: int | None = None,
                   tail_tol: float = TOL.tail) -> list[SuiteResult]:
    alpha2_values = (2.0, 6.0, 12.0) if alpha2 is None else (alpha2,)
    return [
        suite_edr_agreement(alpha2_values, cutoff, tail_tol),
        suite_bch_oracle(),
        suite_stokes_algebra(),
        suite_squeezed_moments(),
        suite_psa_quadrature(),
    ]
