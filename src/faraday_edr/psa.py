"""Phase-space (canonical) approximation and weak-interaction limits.

The canonical pair is q = Sy/sqrt(<Sx>), p = Sz/sqrt(<Sx>) with the
commutator convention [q, p] = 2i (inherited from the Stokes algebra, NOT
the textbook hbar/2 one).  Consequently the squeezed meter wavefunction
psi(q) ~ exp(-q^2 / 4 sigma^2) has position variance sigma^2 and momentum
variance 1/sigma^2, and with chi = g|alpha|/sigma:

    eps2_psa = 1 / (4 chi^2)        eta2_psa = 2 (1 - exp(-2 chi^2))
    eps2_wia = 1 / (4 chi^2)        eta2_wia = 4 chi^2        (chi << 1)

The Gaussian-quadrature oracle integrates the same two meter moments
(<q^2> and <cos(2 g|alpha| p)>) numerically and must reproduce sigma^2
and exp(-2 chi^2).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CalibrationSingular, NonFiniteValueError, QuadratureError

#: chi at and above which the WIA forms deviate appreciably from the PSA ones
WIA_VALIDITY_CHI = 0.3


class WiaValidityWarning(UserWarning):
    """The weak-interaction forms are being evaluated outside chi << 1."""


@dataclass(frozen=True)
class PsaConfig:
    """Measurement-strength bookkeeping: chi = g * alpha_mag / sigma.

    sigma = e^{-r} is the squeezing parameter (sigma = 1 coherent,
    sigma < 1 amplitude-squeezed, sigma > 1 phase-squeezed).  chi is always
    derived, never stored.
    """

    g: float
    alpha_mag: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g) and math.isfinite(self.alpha_mag)
                and math.isfinite(self.sigma)):
            raise ValueError("PsaConfig fields must be finite")
        if self.sigma <= 0:
            raise ValueError("squeezing parameter sigma must be positive")

    @property
    def chi(self) -> float:
        return self.g * self.alpha_mag / self.sigma


def _require_positive_chi(chi: float) -> None:
    if not math.isfinite(chi) or chi <= 0:
        raise CalibrationSingular(f"square error diverges as chi -> 0 (chi = {chi!r})")


def _inverse_four_chi2(chi: float) -> float:
    """1 / (4 chi^2), refusing a chi so small that the value is not a float."""
    _require_positive_chi(chi)
    four_chi2 = 4.0 * chi * chi
    eps2 = 1.0 / four_chi2 if four_chi2 > 0.0 else math.inf
    if math.isinf(eps2):
        raise NonFiniteValueError(f"1 / (4 chi^2) overflows at chi = {chi!r}")
    return eps2


def eps2_psa(chi: float) -> float:
    """1 / (4 chi^2)."""
    return _inverse_four_chi2(chi)


def eta2_psa(chi: float) -> float:
    """2 (1 - exp(-2 chi^2)); monotone, saturates at 2."""
    return -2.0 * math.expm1(-2.0 * chi * chi)


def eps2_wia(chi: float) -> float:
    """Weak-interaction square error; warns when chi is not small."""
    eps2 = _inverse_four_chi2(chi)
    _warn_wia(chi)
    return eps2


def eta2_wia(chi: float) -> float:
    """Weak-interaction square disturbance 4 chi^2; warns when chi is not small."""
    _require_positive_chi(chi)
    _warn_wia(chi)
    return 4.0 * chi * chi


def wia_hak_product() -> float:
    """eps2_wia * eta2_wia as the algebraic identity it is: exactly 1.

    Multiplying the two floating-point values can land one ulp off 1 for
    some chi; the identity is what the model asserts, so sweep records use
    this instead of the rounded product.
    """
    return 1.0


def _warn_wia(chi: float) -> None:
    # static message so the default warning filter deduplicates sweeps
    if chi >= WIA_VALIDITY_CHI:
        warnings.warn(
            f"WIA evaluated at chi >= {WIA_VALIDITY_CHI}; the 4 chi^2 "
            "disturbance deviates appreciably from the PSA form there",
            WiaValidityWarning,
            stacklevel=3,
        )


class GaussianMoments(NamedTuple):
    q2_mean: float
    cos_mean: float


@functools.lru_cache(maxsize=16)
def _hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, read-only because the cache shares them."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _gauss_hermite_mean(f, std: float, nodes: int) -> float:
    """E[f(X)] for X ~ N(0, std^2), via Gauss-Hermite with substitution."""
    t, w = _hermite_rule(nodes)
    vals = f(math.sqrt(2.0) * std * t)
    return float(np.dot(w, vals) / w.sum())


def gaussian_oracle(cfg: PsaConfig, atol: float = 1e-12, max_nodes: int = 256) -> GaussianMoments:
    """Quadrature values of <q^2> and <cos(2 g|alpha| p)> for the Gaussian meter.

    Node-doubling until two successive rules agree to ``atol`` absolutely;
    the integrands are analytic Gaussians so convergence is fast.  Must
    match sigma^2 and exp(-2 chi^2).
    """
    c = 2.0 * cfg.g * cfg.alpha_mag
    results = []
    for f, std in ((lambda x: x * x, cfg.sigma), (lambda x: np.cos(c * x), 1.0 / cfg.sigma)):
        nodes = 8
        prev = _gauss_hermite_mean(f, std, nodes)
        while True:
            nodes *= 2
            if nodes > max_nodes:
                raise QuadratureError(
                    f"Gauss-Hermite did not converge to {atol:.1e} within {max_nodes} nodes"
                )
            cur = _gauss_hermite_mean(f, std, nodes)
            if abs(cur - prev) <= atol:
                results.append(cur)
                break
            prev = cur
    return GaussianMoments(q2_mean=results[0], cos_mean=results[1])


def eps2_from_oracle(cfg: PsaConfig) -> float:
    """Quadrature-backed square error <q^2> / (4 g^2 |alpha|^2)."""
    denom = 4.0 * cfg.g * cfg.g * cfg.alpha_mag * cfg.alpha_mag
    if denom <= 0:
        raise CalibrationSingular("square error diverges at g|alpha| = 0")
    return gaussian_oracle(cfg).q2_mean / denom


def eta2_from_oracle(cfg: PsaConfig) -> float:
    """Quadrature-backed square disturbance 2 (1 - <cos(2 g|alpha| p)>)."""
    return 2.0 * (1.0 - gaussian_oracle(cfg).cos_mean)
