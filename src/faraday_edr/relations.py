"""Uncertainty-relation evaluation and error-disturbance tradeoff curves.

Four expressions, all specialized to sigma_A = sigma_B = C = 1 (the
sigma_y-eigenstate preparation with A = sigma_z, B = sigma_x):

    HAK   eps2 * eta2                          >= 1   (often violated here)
    Ozawa eps*eta + eps*sigma_B + eta*sigma_A  >= 1
    BO    eps2 + eta2                          >= 1
    BOt   eps2 + eta2 (1 - eta2/4)             >= 1   (tight qubit variant)

Everything is evaluated from the squares to avoid precision loss; only the
Ozawa form needs square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edr import EDRPoint, edr_point_at
from .errors import UsageError
from .faraday import build_workspace
from .meter import SqueezeSpec
from .psa import eps2_psa, eta2_psa, eps2_wia, eta2_wia, wia_hak_product
from .tolerances import TOL

EXACT_MODELS = ("exact-coherent", "exact-squeezed")
CHI_MODELS = ("psa", "wia")
TRADEOFF_MODELS = EXACT_MODELS + CHI_MODELS


@dataclass(frozen=True)
class BoundsRecord:
    """Left-hand sides of the four relations plus violation flags.

    Flags compare against 1 with a symmetric band of TOL.bounds_band;
    values inside the band are classified "boundary" by status().
    """

    hak: float
    ozawa_lhs: float
    bo_lhs: float
    bot_lhs: float
    hak_violated: bool
    bo_satisfied: bool
    bot_satisfied: bool

    def status(self, which: str) -> str:
        """'violated' / 'satisfied' / 'boundary' for hak, ozawa, bo or bot."""
        value = {"hak": self.hak, "ozawa": self.ozawa_lhs,
                 "bo": self.bo_lhs, "bot": self.bot_lhs}[which]
        if abs(value - 1.0) <= TOL.bounds_band:
            return "boundary"
        return "satisfied" if value > 1.0 else "violated"


def evaluate_bounds(eps2: float, eta2: float, sigma_a: float = 1.0,
                    sigma_b: float = 1.0, c_ab: float = 1.0,
                    hak_value: float | None = None) -> BoundsRecord:
    """Evaluate all four relations for one (eps2, eta2) sample.

    The specialized forms assume sigma_a = sigma_b = c_ab = 1 and refuse
    anything else.  ``hak_value`` lets a model substitute an algebraically
    exact product (the WIA identity) for the rounded float one.
    """
    if eps2 < 0 or eta2 < 0:
        raise ValueError(f"squares must be non-negative: eps2={eps2!r}, eta2={eta2!r}")
    for name, val in (("sigma_a", sigma_a), ("sigma_b", sigma_b), ("c_ab", c_ab)):
        if abs(val - 1.0) > TOL.bounds_band:
            raise ValueError(
                f"{name} = {val!r}: the specialized bound forms require the "
                "sigma_y-eigenstate preparation where sigma_A = sigma_B = C = 1"
            )
    hak = eps2 * eta2 if hak_value is None else hak_value
    eps = math.sqrt(eps2)
    eta = math.sqrt(eta2)
    ozawa = math.sqrt(hak) + eps * sigma_b + eta * sigma_a
    bo = eps2 + eta2
    bot = eps2 + eta2 * (1.0 - eta2 / 4.0)
    band = TOL.bounds_band
    return BoundsRecord(
        hak=hak, ozawa_lhs=ozawa, bo_lhs=bo, bot_lhs=bot,
        hak_violated=hak < 1.0 - band,
        bo_satisfied=bo >= 1.0 - band,
        bot_satisfied=bot >= 1.0 - band,
    )


def hak_frontier(eps2: float) -> float:
    """The HAK boundary eta2 = 1/eps2."""
    if eps2 <= 0:
        raise ValueError("eps2 must be positive on the HAK frontier")
    return 1.0 / eps2


def bot_frontier(eps2: float) -> float:
    """Smallest eta2 >= 0 with eps2 + eta2 (1 - eta2/4) = 1.

    The physical branch is eta2 = 2 (1 - sqrt(eps2)) <= 2 (the disturbance
    of a calibrated sigma_x measurement saturates at 2).  For eps2 > 1 the
    relation already holds at eta2 = 0.
    """
    if eps2 < 0:
        raise ValueError("eps2 must be non-negative")
    if eps2 > 1.0:
        return 0.0
    return 2.0 * (1.0 - math.sqrt(eps2))


@dataclass(frozen=True)
class TradeoffSample:
    """One point of a tradeoff curve: parameter, squares, bound values.

    Singular samples (sin 2g ~ 0 for the exact models, chi = 0 otherwise)
    carry NaN eps2, no bounds record and the flag "SINGULAR".
    """

    param: float  # g for the exact models, chi for psa/wia
    eps2: float
    eta2: float
    bounds: BoundsRecord | None
    flags: tuple[str, ...] = ()
    point: EDRPoint | None = None

    @property
    def singular(self) -> bool:
        return "SINGULAR" in self.flags


def _grid(model: str, start: float, stop: float, steps: int) -> np.ndarray:
    if steps < 2:
        raise UsageError("steps must be >= 2")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError("sweep range must be finite")
    grid = np.linspace(start, stop, steps)
    if model in CHI_MODELS and grid.min() < 0:
        raise UsageError("the measurement strength chi cannot be negative")
    return grid


def _exact_sample(pt: EDRPoint) -> TradeoffSample:
    # a singular point already carries NaN eps2
    bounds = None if pt.singular else evaluate_bounds(
        pt.eps2, pt.eta2, pt.sigma_a, pt.sigma_b, pt.c_ab)
    return TradeoffSample(pt.g, pt.eps2, pt.eta2, bounds, pt.flags, pt)


def _chi_sample(model: str, chi: float) -> TradeoffSample:
    if chi == 0.0:
        # zero measurement strength: the error diverges, the disturbance is 0
        return TradeoffSample(chi, math.nan, 0.0, None, ("SINGULAR",))
    if model == "psa":
        eps2, eta2 = eps2_psa(chi), eta2_psa(chi)
        bounds = evaluate_bounds(eps2, eta2)
    else:
        eps2, eta2 = eps2_wia(chi), eta2_wia(chi)
        bounds = evaluate_bounds(eps2, eta2, hak_value=wia_hak_product())
    return TradeoffSample(chi, eps2, eta2, bounds)


def tradeoff_curve(model: str, start: float, stop: float, steps: int,
                   alpha2: float = 6.0, r: float = 0.0,
                   tail_tol: float = TOL.tail, cutoff: int | None = None,
                   ) -> list[TradeoffSample]:
    """Parametric (eps2, eta2) sweep: over g for the exact models, chi otherwise.

    Samples come serially in grid order.  Singular samples propagate as
    flagged entries rather than aborting the sweep.  Bad arguments (unknown
    model, steps < 2, a non-finite range, negative chi) raise UsageError.
    """
    if model not in TRADEOFF_MODELS:
        raise UsageError(f"unknown model {model!r}; choose from {TRADEOFF_MODELS}")
    grid = _grid(model, start, stop, steps)
    if model in CHI_MODELS:
        return [_chi_sample(model, float(chi)) for chi in grid]
    squeeze = SqueezeSpec(r) if model == "exact-squeezed" and r != 0.0 else None
    ws = build_workspace(math.sqrt(alpha2), squeeze, cutoff, tail_tol)
    r_eff = squeeze.r if squeeze is not None else 0.0
    return [_exact_sample(edr_point_at(ws, float(g), alpha2, r_eff)) for g in grid]
