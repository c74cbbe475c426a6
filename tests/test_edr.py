import math

import numpy as np
import pytest

from faraday_edr.edr import (
    disturbance_bias_coefficient,
    disturbance_mean,
    disturbance_operator,
    edr_point_at,
    noise_mean,
    noise_operator,
    square_disturbance_analytic,
    square_disturbance_analytic_squeezed,
    square_disturbance_numeric,
    square_disturbance_schrodinger,
    square_error_analytic,
    square_error_analytic_squeezed,
    square_error_numeric,
    square_error_schrodinger,
)
from faraday_edr.errors import CalibrationSingular
from faraday_edr.faraday import build_workspace, context_at
from faraday_edr.linalg import SPIN_STATE_LABELS, expectation, spin_state, tensor

from conftest import acceptance_g_grid

Y_PLUS = spin_state("y+")


# ---------------------------------------------------------------------------
# noise operator


def test_noise_mean_vanishes_for_all_spin_states(ws2):
    for g in (0.2, 0.77, 2.0):
        ctx = context_at(ws2, g)
        for label in SPIN_STATE_LABELS:
            assert abs(noise_mean(ctx, spin_state(label))) <= 1e-10


def test_noise_second_moment_quarter_turn(ws6):
    # <N^2> at g = pi/4, |alpha|^2 = 6 equals 1/6 by both the vector route
    # and the full-matrix operator route
    ctx = context_at(ws6, math.pi / 4)
    eps2 = square_error_numeric(ctx, Y_PLUS)
    assert abs(eps2 - 1.0 / 6.0) * 6.0 <= 1e-9

    n_op = noise_operator(ctx)
    state = tensor(Y_PLUS, ws6.meter_state)
    n2 = 1.0 - ws6.meter_state.norm_deficit
    matrix_route = expectation(n_op @ n_op, state).real / n2
    assert abs(matrix_route - eps2) <= 1e-10


def test_noise_second_moment_generic_g(ws6):
    # frozen oracle: 1/(6 sin^2 0.4) evaluated from the closed form
    ctx = context_at(ws6, 0.2)
    expected = 1.0 / (6.0 * math.sin(0.4) ** 2)
    assert expected == pytest.approx(1.0990461827092777, rel=1e-14)
    assert square_error_numeric(ctx, Y_PLUS) == pytest.approx(expected, rel=1e-9)


def test_square_error_diverges_with_guard(ws6):
    with pytest.raises(CalibrationSingular):
        square_error_numeric(context_at(ws6, math.pi / 2), Y_PLUS)
    with pytest.raises(CalibrationSingular):
        square_error_analytic(math.pi, 6.0)


# ---------------------------------------------------------------------------
# disturbance operator


def test_disturbance_operator_zero_at_g_zero_and_revival(ws2):
    for g in (0.0, math.pi):
        d = disturbance_operator(context_at(ws2, g))
        assert np.abs(d.matrix).max() <= 1e-10


def test_disturbance_bias_law(ws6):
    # <D> = <sigma_x>_psi (exp(-2 alpha2 sin^2 g) - 1); at g = 0.3 the
    # coefficient is exp(-12 sin^2 0.3) - 1
    g = 0.3
    coef = disturbance_bias_coefficient(g, 6.0)
    assert coef == pytest.approx(-0.6493568749668047, rel=1e-14)
    ctx = context_at(ws6, g)
    for label, sx_mean in (("x+", 1.0), ("x-", -1.0), ("z+", 0.0), ("y+", 0.0)):
        bias = disturbance_mean(ctx, spin_state(label))
        assert abs(bias - sx_mean * coef) <= 1e-8


def test_disturbance_bias_matrix_route(ws2):
    ctx = context_at(ws2, 0.45)
    d_op = disturbance_operator(ctx)
    state = tensor(spin_state("x+"), ws2.meter_state)
    n2 = 1.0 - ws2.meter_state.norm_deficit
    matrix_route = expectation(d_op, state).real / n2
    assert abs(matrix_route - disturbance_bias_coefficient(0.45, 2.0)) <= 1e-8


# ---------------------------------------------------------------------------
# square error / disturbance values


def test_square_disturbance_reference_values(ws6):
    cases = (
        (math.pi / 4, 2.0 * (1.0 - math.exp(-6.0))),
        (math.pi / 2, 2.0 * (1.0 - math.exp(-12.0))),
    )
    for g, expected in cases:
        eta2 = square_disturbance_numeric(context_at(ws6, g), Y_PLUS)
        assert eta2 == pytest.approx(expected, rel=1e-9)
    assert 2.0 * (1.0 - math.exp(-6.0)) == pytest.approx(1.9950424956466672, rel=1e-15)


def test_square_disturbance_revival(ws6):
    assert square_disturbance_numeric(context_at(ws6, math.pi), Y_PLUS) <= 1e-10


def test_square_error_periodicity(ws6):
    for g in (math.pi / 4, 0.33):
        a = square_error_numeric(context_at(ws6, g), Y_PLUS)
        b = square_error_numeric(context_at(ws6, g + math.pi / 2), Y_PLUS)
        assert b == pytest.approx(a, rel=1e-9)
    assert square_error_analytic(0.33 + math.pi / 2, 6.0) == pytest.approx(
        square_error_analytic(0.33, 6.0), rel=1e-12)


def test_square_disturbance_periodicity(ws6):
    for g in (0.4, 1.1):
        a = square_disturbance_numeric(context_at(ws6, g), Y_PLUS)
        b = square_disturbance_numeric(context_at(ws6, g + math.pi), Y_PLUS)
        assert abs(a - b) <= 1e-10


def test_square_disturbance_range(ws6):
    cap = 2.0 * (1.0 - math.exp(-12.0))
    for g in np.linspace(0.05, math.pi, 25):
        eta2 = square_disturbance_numeric(context_at(ws6, float(g)), Y_PLUS)
        assert 0.0 <= eta2 <= 4.0
        assert eta2 <= cap + 1e-9


def test_heisenberg_vs_schrodinger_routes(ws6, ws_squeezed):
    for ws in (ws6, ws_squeezed):
        for g in (0.15, 0.8, 1.9, 2.9):
            ctx = context_at(ws, g)
            eps_h = square_error_numeric(ctx, Y_PLUS)
            eps_s = square_error_schrodinger(ctx, Y_PLUS)
            eta_h = square_disturbance_numeric(ctx, Y_PLUS)
            eta_s = square_disturbance_schrodinger(ctx, Y_PLUS)
            assert abs(eps_h - eps_s) <= 1e-10
            assert abs(eta_h - eta_s) <= 1e-10


def test_numeric_matches_analytic_on_grid(ws2):
    for g in acceptance_g_grid()[::6]:
        ctx = context_at(ws2, float(g))
        eps2 = square_error_numeric(ctx, Y_PLUS)
        eta2 = square_disturbance_numeric(ctx, Y_PLUS)
        ea = square_error_analytic(float(g), 2.0)
        da = square_disturbance_analytic(float(g), 2.0)
        assert eps2 == pytest.approx(ea, rel=1e-6)
        assert eta2 == pytest.approx(da, rel=1e-6)


def test_squeezed_numeric_matches_squeezed_closed_forms(ws_squeezed):
    # the squeezed-meter generalizations, validated against full simulation
    for g in acceptance_g_grid()[::6]:
        ctx = context_at(ws_squeezed, float(g))
        eps2 = square_error_numeric(ctx, Y_PLUS)
        eta2 = square_disturbance_numeric(ctx, Y_PLUS)
        ea = square_error_analytic_squeezed(float(g), 9.0, 0.3)
        da = square_disturbance_analytic_squeezed(float(g), 9.0, 0.3)
        assert eps2 == pytest.approx(ea, rel=1e-6)
        assert eta2 == pytest.approx(da, rel=1e-6)


def test_squeezed_forms_reduce_to_coherent_at_r_zero():
    for g in (0.2, 1.0, 2.5):
        assert square_error_analytic_squeezed(g, 6.0, 0.0) == pytest.approx(
            square_error_analytic(g, 6.0), rel=1e-15)
        assert square_disturbance_analytic_squeezed(g, 6.0, 0.0) == \
            square_disturbance_analytic(g, 6.0)


def test_wia_limit_of_analytic_error():
    # small g: eps2 ~ 1/(4 g^2 alpha2)
    g, alpha2 = 0.01, 6.0
    assert square_error_analytic(g, alpha2) == pytest.approx(
        1.0 / (4.0 * g * g * alpha2), rel=1e-3)


# ---------------------------------------------------------------------------
# edr_point assembly


def test_edr_point_quarter_turn(ws6):
    pt = edr_point_at(ws6, math.pi / 4, 6.0, 0.0)
    assert pt.eps2 == pytest.approx(1.0 / 6.0, rel=1e-8)
    assert pt.eta2 == pytest.approx(1.9950424956466672, rel=1e-9)
    assert pt.eps2_analytic == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert pt.sigma_a == pytest.approx(1.0, abs=1e-12)
    assert pt.sigma_b == pytest.approx(1.0, abs=1e-12)
    assert pt.c_ab == pytest.approx(1.0, abs=1e-12)
    assert pt.bias_noise <= 1e-10
    assert pt.bias_disturbance == pytest.approx(1.0 - math.exp(-6.0), abs=1e-8)
    assert pt.flags == ()
    assert pt.norm_deficit <= 1e-12


def test_edr_point_small_g():
    pt = edr_point_at(build_workspace(math.sqrt(2.0)), 0.05, 2.0, 0.0)
    assert pt.eps2 == pytest.approx(1.0 / (2.0 * math.sin(0.1) ** 2), rel=1e-9)
    assert pt.eta2 == pytest.approx(2.0 * (1.0 - math.exp(-4.0 * math.sin(0.05) ** 2)),
                                    rel=1e-9)


def test_edr_point_flags_singular_error_channel(ws6):
    pt = edr_point_at(ws6, math.pi, 6.0, 0.0)
    assert pt.singular
    assert "SINGULAR" in pt.flags
    assert math.isnan(pt.eps2)
    assert pt.eta2 <= 1e-10  # revival: disturbance vanishes
    assert not math.isnan(pt.bias_disturbance)


def test_edr_point_squeezed(ws_squeezed):
    pt = edr_point_at(ws_squeezed, 0.4, 9.0, 0.3)
    assert pt.eps2_analytic == square_error_analytic_squeezed(0.4, 9.0, 0.3)
    assert pt.eps2 == pytest.approx(pt.eps2_analytic, rel=1e-6)
    assert pt.eta2 == pytest.approx(pt.eta2_analytic, rel=1e-6)
    assert pt.bias_noise <= 1e-10