import math

import numpy as np
import pytest

from faraday_edr.errors import UsageError
from faraday_edr.relations import (
    bot_frontier,
    evaluate_bounds,
    hak_frontier,
    tradeoff_curve,
)


def test_bounds_at_quarter_turn_coherent_six():
    # eps2 = 1/6, eta2 = 2(1 - e^-6): HAK violated, BOt satisfied; the
    # algebraic identity eta2 (1 - eta2/4) = 1 - e^-12 pins bot_lhs
    eps2 = 1.0 / 6.0
    eta2 = 2.0 * (1.0 - math.exp(-6.0))
    rec = evaluate_bounds(eps2, eta2)
    assert rec.hak == pytest.approx(0.33250708260777784, rel=1e-12)
    assert rec.hak_violated
    assert rec.bot_lhs == pytest.approx(1.0 / 6.0 + 1.0 - math.exp(-12.0), rel=1e-12)
    assert rec.bot_lhs >= 1.0 - 1e-9
    assert rec.bot_satisfied
    assert rec.status("hak") == "violated"
    assert rec.status("bot") == "satisfied"


def test_bounds_wia_boundary_point():
    rec = evaluate_bounds(25.0, 0.04, hak_value=1.0)
    assert rec.hak == 1.0
    assert not rec.hak_violated
    assert rec.status("hak") == "boundary"
    assert rec.ozawa_lhs == pytest.approx(1.0 + 5.0 + 0.2, rel=1e-12)


def test_bounds_degenerate_point():
    rec = evaluate_bounds(1.0, 0.0)
    assert rec.hak == 0.0
    assert rec.bo_lhs == 1.0
    assert rec.bot_lhs == 1.0
    assert rec.status("bo") == "boundary"


def test_bounds_input_validation():
    with pytest.raises(ValueError):
        evaluate_bounds(-0.1, 1.0)
    with pytest.raises(ValueError):
        evaluate_bounds(1.0, 1.0, sigma_a=0.9)
    with pytest.raises(ValueError):
        evaluate_bounds(1.0, 1.0, c_ab=1.5)


def test_bot_frontier_reference_points():
    assert bot_frontier(1.0) == 0.0
    assert bot_frontier(0.0) == 2.0
    assert bot_frontier(0.25) == pytest.approx(1.0, rel=1e-15)
    assert bot_frontier(2.0) == 0.0  # bound already holds
    with pytest.raises(ValueError):
        bot_frontier(-0.1)


def test_bot_frontier_substitutes_back():
    for eps2 in np.linspace(0.0, 1.0, 21):
        eta2 = bot_frontier(float(eps2))
        assert eta2 <= 2.0
        assert eps2 + eta2 * (1.0 - eta2 / 4.0) == pytest.approx(1.0, abs=1e-12)


def test_hak_frontier():
    assert hak_frontier(0.5) == 2.0
    with pytest.raises(ValueError):
        hak_frontier(0.0)


def test_bot_below_bo_strictly_inside_range():
    for eps2, eta2 in ((0.2, 0.5), (1.0, 1.9950424956466672), (3.0, 3.5)):
        rec = evaluate_bounds(eps2, eta2)
        assert rec.bot_lhs < rec.bo_lhs
    rec = evaluate_bounds(0.7, 0.0)
    assert rec.bot_lhs == rec.bo_lhs


def test_wia_curve_sits_on_hak_frontier():
    curve = tradeoff_curve("wia", 0.05, 2.0, 40)
    for sample in curve:
        assert sample.bounds is not None
        assert sample.bounds.hak == 1.0  # identity, not a rounded product
        assert sample.eta2 == pytest.approx(hak_frontier(sample.eps2), rel=1e-12)


def test_psa_curve_strong_measurement_endpoint():
    curve = tradeoff_curve("psa", 0.05, 3.0, 60)
    last = curve[-1]
    assert last.eta2 == pytest.approx(2.0, abs=1e-7)
    assert last.eps2 < 0.03
    for sample in curve:
        assert sample.bounds.bot_lhs >= 1.0 - 1e-9
        assert sample.bounds.ozawa_lhs >= 1.0 - 1e-9


def test_exact_coherent_curve_topology(ws6):
    # descending error branch, then a near-horizontal branch at eta2 ~ 2
    curve = tradeoff_curve("exact-coherent", 0.02, math.pi / 2 - 0.05, 50, alpha2=6.0)
    eps = [s.eps2 for s in curve]
    eta = [s.eta2 for s in curve]
    k_min = int(np.argmin(eps))
    assert 0 < k_min < len(curve) - 1
    assert all(a > b for a, b in zip(eps[: k_min - 1], eps[1:k_min]))  # descending
    tail = curve[k_min:]
    assert all(s.eta2 > 1.95 for s in tail)  # near-horizontal segment
    assert eps[-1] > eps[k_min]  # error regrows
    assert min(s.bounds.bot_lhs for s in curve) >= 1.0 - 1e-9
    hak_values = [s.bounds.hak for s in curve]
    assert min(hak_values) < 1.0  # violation region reached


def test_exact_curve_flags_singular_samples():
    curve = tradeoff_curve("exact-coherent", 0.0, math.pi, 3, alpha2=2.0)
    assert [s.flags for s in curve] == [("SINGULAR",), ("SINGULAR",), ("SINGULAR",)]
    mid = curve[1]  # g = pi/2: maximal disturbance, no bounds record
    assert mid.bounds is None
    assert mid.eta2 == pytest.approx(2.0 * (1.0 - math.exp(-4.0)), rel=1e-9)


def test_exact_squeezed_curve_runs(ws_squeezed):
    curve = tradeoff_curve("exact-squeezed", 0.1, 1.2, 12, alpha2=9.0, r=0.3)
    for s in curve:
        assert s.bounds.bot_lhs >= 1.0 - 1e-9


@pytest.mark.parametrize("model", ["psa", "wia"])
def test_chi_curve_flags_zero_strength_sample(model):
    curve = tradeoff_curve(model, 0.0, 0.2, 5)
    assert [s.param for s in curve] == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2])
    first = curve[0]
    assert first.singular and first.flags == ("SINGULAR",)
    assert math.isnan(first.eps2)
    assert first.eta2 == 0.0
    assert first.bounds is None and first.point is None
    for s in curve[1:]:  # the rest of the curve is intact
        assert s.flags == () and s.bounds is not None
        assert s.eps2 == pytest.approx(1.0 / (4.0 * s.param ** 2), rel=1e-12)


def test_tradeoff_rejects_unknown_model():
    with pytest.raises(ValueError):
        tradeoff_curve("exact", 0.1, 1.0, 10)
    with pytest.raises(ValueError):
        tradeoff_curve("psa", 0.1, 1.0, 1)  # steps < 2
    with pytest.raises(UsageError):
        tradeoff_curve("wia", -0.5, 1.0, 4)  # negative measurement strength
    with pytest.raises(UsageError):
        tradeoff_curve("psa", 0.1, math.inf, 4)