import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from faraday_edr.errors import CalibrationSingular, ZeroMeanSx
from faraday_edr.faraday import (
    build_workspace,
    calibrated_meter,
    context_at,
    heisenberg_bx,
    heisenberg_bx_closed_form,
    heisenberg_sy,
    heisenberg_sy_closed_form,
    unitary_generic,
)
from faraday_edr.linalg import (
    SPIN_STATE_LABELS,
    expectation,
    identity,
    sigma_x,
    sigma_z,
    spin_state,
    tensor,
)
from faraday_edr.meter import sz_eigensystem


@pytest.fixture(scope="module")
def vacuum_ws():
    return build_workspace(0.0, cutoff=8)


def test_g_zero_gives_identity(vacuum_ws):
    ctx = context_at(vacuum_ws, 0.0)
    dim = 2 * vacuum_ws.basis.size
    assert np.abs(ctx.u_t.matrix - np.eye(dim)).max() <= 1e-12


def test_unitarity_at_generic_g(ws6):
    ctx = context_at(ws6, 0.37)
    u = ctx.u_t.matrix
    dim = u.shape[0]
    assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-11


def test_unitary_composes_additively(vacuum_ws):
    g = 0.431
    u1 = context_at(vacuum_ws, g).u_t.matrix
    u2 = context_at(vacuum_ws, 2 * g).u_t.matrix
    assert np.abs(u1 @ u1 - u2).max() <= 1e-12


def test_structured_matches_generic_eigendecomposition(vacuum_ws):
    for g in (0.1, 0.9, math.pi / 2, 2.7):
        ctx = context_at(vacuum_ws, g)
        assert np.abs(ctx.u_t.matrix - unitary_generic(ctx).matrix).max() <= 1e-11


def test_unitary_matches_scipy_expm():
    ws = build_workspace(0.0, cutoff=6)
    ctx = context_at(ws, 0.83)
    gen = tensor(sigma_z(), ws.stokes.sz).matrix
    assert np.abs(ctx.u_t.matrix - expm(-1j * 0.83 * gen)).max() <= 1e-11


def test_norm_preservation(ws6):
    ctx = context_at(ws6, 1.234)
    rng = np.random.default_rng(11)
    dim = 2 * ws6.basis.size
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    assert abs(np.linalg.norm(ctx.u_t.matrix @ v) - 1.0) <= 1e-12


@pytest.mark.parametrize("g", [0.1, 0.5, math.pi / 4, 1.3, math.pi / 2, 2.5, math.pi])
def test_bch_closed_forms(vacuum_ws, g):
    ctx = context_at(vacuum_ws, g)
    sy_t = heisenberg_sy(ctx)
    bx_t = heisenberg_bx(ctx)
    assert np.abs(sy_t.matrix - heisenberg_sy_closed_form(ctx).matrix).max() <= 1e-10
    assert np.abs(bx_t.matrix - heisenberg_bx_closed_form(ctx).matrix).max() <= 1e-10


def test_sy_quarter_turn_is_pure_sx_channel(vacuum_ws):
    # cos(2g) vanishes at g = pi/4: the meter reads sigma_z (x) Sx alone
    ctx = context_at(vacuum_ws, math.pi / 4)
    target = tensor(sigma_z(), vacuum_ws.stokes.sx)
    assert np.abs(heisenberg_sy(ctx).matrix - target.matrix).max() <= 1e-10


def test_sy_half_turn_flips_sign(vacuum_ws):
    ctx = context_at(vacuum_ws, math.pi / 2)
    target = tensor(identity(2), vacuum_ws.stokes.sy) * (-1.0)
    assert np.abs(heisenberg_sy(ctx).matrix - target.matrix).max() <= 1e-10


def test_sy_expectation_vanishes_on_sigma_y_eigenstate(ws6):
    psi = spin_state("y+")
    xi = ws6.meter_state
    state = tensor(psi, xi)
    for g in (0.0, 0.3, math.pi / 4, 1.1):
        ctx = context_at(ws6, g)
        val = expectation(heisenberg_sy(ctx), state)
        assert abs(val) <= 1e-10


def test_bx_identity_at_g_zero_and_revival_at_pi(vacuum_ws):
    target = tensor(sigma_x(), identity(vacuum_ws.basis.size))
    for g in (0.0, math.pi):
        ctx = context_at(vacuum_ws, g)
        assert np.abs(heisenberg_bx(ctx).matrix - target.matrix).max() <= 1e-10


def test_bx_periodicity_in_pi(vacuum_ws):
    for g in (0.2, 1.0, 2.2):
        a = heisenberg_bx(context_at(vacuum_ws, g)).matrix
        b = heisenberg_bx(context_at(vacuum_ws, g + math.pi)).matrix
        assert np.abs(a - b).max() <= 1e-10


def test_bx_odd_sz_sector_rotates_by_pi(vacuum_ws):
    # at g = pi/2 the spin is rotated by pi on odd-Sz eigenspaces
    eig = sz_eigensystem(vacuum_ws.basis)
    odd = np.abs(np.round(eig.values)) % 2 == 1
    vecs = eig.vectors[:, odd]
    proj = vecs @ vecs.conj().T
    p_joint = np.kron(np.eye(2), proj)
    bx = heisenberg_bx(context_at(vacuum_ws, math.pi / 2)).matrix
    minus_sx = -np.kron(sigma_x().matrix, proj)
    assert np.abs(p_joint @ bx @ p_joint - minus_sx).max() <= 1e-10


def test_calibrated_meter_quarter_turn_value(ws6):
    # at g = pi/4 the calibrated meter is (sigma_z (x) Sx) / <Sx>, the
    # cot(2g) correction being zero
    ctx = context_at(ws6, math.pi / 4)
    m_t = calibrated_meter(ctx)
    target = tensor(sigma_z(), ws6.stokes.sx) * (1.0 / ctx.mean_sx)
    assert np.abs(m_t.matrix - target.matrix).max() <= 1e-10


def test_calibrated_meter_unbiased_over_spin_states(ws6):
    ctx = context_at(ws6, 0.61)
    m_t = calibrated_meter(ctx)
    a0 = tensor(sigma_z(), identity(ws6.basis.size))
    xi = ws6.meter_state
    n2 = 1.0 - xi.norm_deficit
    for label in SPIN_STATE_LABELS:
        state = tensor(spin_state(label), xi)
        bias = expectation(m_t - a0, state) / n2
        assert abs(bias) <= 1e-10


def test_calibration_singular_at_half_turn(ws6):
    with pytest.raises(CalibrationSingular):
        calibrated_meter(context_at(ws6, math.pi / 2))


def test_zero_mean_sx_on_vacuum_meter(vacuum_ws):
    with pytest.raises(ZeroMeanSx):
        calibrated_meter(context_at(vacuum_ws, 0.3))


def test_build_joint_context_roundtrip():
    ctx = context_at(build_workspace(math.sqrt(2.0)), 0.25)
    assert ctx.meter_state.dim == ctx.basis.size
    assert ctx.mean_sx == pytest.approx(2.0, rel=1e-9)
    assert ctx.meter_state.norm_deficit <= 1e-12


def test_dense_oracles_eigendecompose_once_per_workspace(monkeypatch):
    ws = build_workspace(0.0, cutoff=4)
    shapes = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a):
        shapes.append(a.shape)
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    m = ws.basis.size
    for g in (0.3, 1.1, 2.9):
        ctx = context_at(ws, g)
        unitary_generic(ctx)
        heisenberg_bx_closed_form(ctx)
    assert sorted(shapes) == [(m, m), (2 * m, 2 * m)]


def test_phases_cached_per_context(ws6):
    ctx = context_at(ws6, 0.4)
    assert ctx.phases is ctx.phases
    assert not ctx.phases.flags.writeable
    assert np.array_equal(ctx.phases, np.exp(-0.4j * ws6.eig.values))


def test_importing_faraday_loads_no_sweep_modules():
    import faraday_edr

    src = str(Path(faraday_edr.__file__).resolve().parents[1])
    code = ("import sys, faraday_edr.faraday; print(sorted(m for m in "
            "('edr', 'psa', 'relations', 'verify', 'cli') if 'faraday_edr.' + m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
