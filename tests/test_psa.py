import math

import numpy as np
import pytest

from faraday_edr.edr import square_disturbance_numeric, square_error_numeric
from faraday_edr.errors import CalibrationSingular, NonFiniteValueError, QuadratureError
from faraday_edr.faraday import context_at
from faraday_edr.linalg import spin_state
from faraday_edr.psa import (
    PsaConfig,
    WiaValidityWarning,
    eps2_from_oracle,
    eps2_psa,
    eps2_wia,
    eta2_from_oracle,
    eta2_psa,
    eta2_wia,
    gaussian_oracle,
    wia_hak_product,
)


def test_psa_reference_values():
    assert eps2_psa(0.5) == 1.0
    assert eta2_psa(0.5) == pytest.approx(0.7869386805747332, rel=1e-15)
    assert eta2_psa(0.5) == pytest.approx(2.0 * (1.0 - math.exp(-0.5)), rel=1e-15)


def test_psa_limits():
    assert eta2_psa(10.0) == pytest.approx(2.0, abs=1e-9)  # strong measurement
    chi = 1e-4
    assert eta2_psa(chi) == pytest.approx(4.0 * chi * chi, rel=1e-4)  # WIA limit


def test_psa_monotonicity():
    grid = np.linspace(0.05, 3.0, 120)
    eps = [eps2_psa(c) for c in grid]
    eta = [eta2_psa(c) for c in grid]
    assert all(a > b for a, b in zip(eps, eps[1:]))
    assert all(a < b for a, b in zip(eta, eta[1:]))
    assert all(v < 2.0 for v in eta)


def test_eps2_divergence_at_zero_chi():
    with pytest.raises(CalibrationSingular):
        eps2_psa(0.0)
    with pytest.raises(CalibrationSingular):
        eps2_wia(-1.0)


@pytest.mark.parametrize("chi", [1e-160, 1e-200])
def test_eps2_refuses_overflow_near_zero_chi(chi):
    # 4 chi^2 is subnormal at 1e-160 and underflows to 0 at 1e-200
    for eps2 in (eps2_psa, eps2_wia):
        with pytest.raises(NonFiniteValueError):
            eps2(chi)
    assert eps2_psa(1e-150) == pytest.approx(0.25e300, rel=1e-12)


def test_wia_reference_values():
    assert eps2_wia(0.1) == pytest.approx(25.0, rel=1e-12)
    assert eta2_wia(0.1) == pytest.approx(0.04, rel=1e-12)
    assert eps2_wia(0.05) == pytest.approx(100.0, rel=1e-12)
    assert eta2_wia(0.05) == pytest.approx(0.01, rel=1e-12)
    # the product identity: exact for these chis even as a float product,
    # and exact by construction through wia_hak_product
    assert eps2_wia(0.1) * eta2_wia(0.1) == 1.0
    assert eps2_wia(0.05) * eta2_wia(0.05) == 1.0
    assert wia_hak_product() == 1.0


def test_wia_product_identity_near_one_everywhere():
    # the float product may sit one ulp off 1 for some chi; the model
    # identity is represented exactly by wia_hak_product
    for chi in np.linspace(0.01, 0.29, 29):
        prod = eps2_wia(float(chi)) * eta2_wia(float(chi))
        assert abs(prod - 1.0) <= 4e-16


def test_wia_validity_warning():
    import warnings

    with pytest.warns(WiaValidityWarning):
        eta2_wia(0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eta2_wia(0.29)  # below threshold: no warning


def test_psa_config():
    cfg = PsaConfig(g=0.1, alpha_mag=3.0, sigma=0.5)
    assert cfg.chi == pytest.approx(0.6)
    with pytest.raises(ValueError):
        PsaConfig(g=0.1, alpha_mag=3.0, sigma=0.0)
    with pytest.raises(ValueError):
        PsaConfig(g=math.inf, alpha_mag=1.0)


def test_gaussian_oracle_reference_cases():
    q2, cm = gaussian_oracle(PsaConfig(g=0.0, alpha_mag=1.0, sigma=1.0))
    assert q2 == pytest.approx(1.0, abs=1e-10)
    assert cm == pytest.approx(1.0, abs=1e-12)

    q2, cm = gaussian_oracle(PsaConfig(g=0.5, alpha_mag=1.0, sigma=1.0))
    assert q2 == pytest.approx(1.0, abs=1e-10)
    assert cm == pytest.approx(math.exp(-0.5), rel=1e-10)
    assert math.exp(-0.5) == pytest.approx(0.6065306597126334, rel=1e-15)

    q2, cm = gaussian_oracle(PsaConfig(g=0.5, alpha_mag=1.0, sigma=0.5))
    assert q2 == pytest.approx(0.25, rel=1e-10)
    assert cm == pytest.approx(math.exp(-2.0), rel=1e-10)


def test_oracle_agreement_grid():
    for sigma in np.linspace(0.5, 2.0, 10):
        for galpha in np.linspace(0.05, 1.0, 10):
            cfg = PsaConfig(g=float(galpha), alpha_mag=1.0, sigma=float(sigma))
            assert eps2_from_oracle(cfg) == pytest.approx(eps2_psa(cfg.chi), rel=1e-9)
            assert eta2_from_oracle(cfg) == pytest.approx(eta2_psa(cfg.chi), rel=1e-9)


def test_quadrature_nonconvergence_raises():
    with pytest.raises(QuadratureError):
        gaussian_oracle(PsaConfig(g=50.0, alpha_mag=1.0, sigma=0.1))


def test_psa_matches_exact_simulation_in_validity_regime(ws6):
    # sigma = 1 (coherent), g <= 0.05, |alpha|^2 >= 6: both squares agree
    # with the exact simulation within 1 percent
    psi = spin_state("y+")
    for g in (0.02, 0.05):
        chi = g * math.sqrt(6.0)
        ctx = context_at(ws6, g)
        eps_exact = square_error_numeric(ctx, psi)
        eta_exact = square_disturbance_numeric(ctx, psi)
        assert eps2_psa(chi) == pytest.approx(eps_exact, rel=1e-2)
        assert eta2_psa(chi) == pytest.approx(eta_exact, rel=1e-2)