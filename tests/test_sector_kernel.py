"""The photon-number-sector kernel against the dense oracle routes.

The workspace keeps the Stokes operators, the Sz eigenvectors and the
transformed Sy as per-sector data and bands, and sweeps read only meter
moments; the dense matrices are only assembled for the oracle routes.
These tests hold them together at cutoffs small enough for the dense
joint operators.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faraday_edr.edr import (
    disturbance_mean,
    disturbance_operator,
    edr_point_at,
    noise_mean,
    noise_operator,
    square_disturbance_numeric,
    square_error_numeric,
)
from faraday_edr.errors import BandStructureError
from faraday_edr.faraday import MeterWorkspace, build_workspace, context_at
from faraday_edr.linalg import SPIN_STATE_LABELS, Operator, expectation, spin_state, tensor
from faraday_edr.meter import SqueezeSpec, StokesSet, apply_band, choose_cutoff, stokes_moments


def dense_moments(ws):
    """(mean, var) per Stokes operator from the assembled dense matrices."""
    amps = ws.meter_state.amplitudes
    n2 = float(np.vdot(amps, amps).real)
    out = {}
    for name in ("s0", "sx", "sy", "sz"):
        w = getattr(ws.stokes, name).matrix @ amps
        mean = float(np.vdot(amps, w).real) / n2
        out[name] = (mean, float(np.vdot(w, w).real) / n2 - mean * mean)
    return out


@settings(max_examples=12, deadline=None)
@given(alpha2=st.floats(0.5, 3.5), r=st.floats(-0.2, 0.2), g=st.floats(0.05, 3.1))
def test_sector_kernel_matches_dense_oracle(alpha2, r, g):
    assume(abs(math.sin(2.0 * g)) > 0.05)
    squeeze = SqueezeSpec(r) if r != 0.0 else None
    assume(choose_cutoff(alpha2, r) <= 24)
    ws = build_workspace(math.sqrt(alpha2), squeeze)

    # banded square error / disturbance against <N^2>, <D^2> of the dense operators
    ctx = context_at(ws, g)
    psi = spin_state("y+")
    state = tensor(psi, ws.meter_state)
    n2 = 1.0 - ws.meter_state.norm_deficit
    n_op, d_op = noise_operator(ctx), disturbance_operator(ctx)
    assert square_error_numeric(ctx, psi) == pytest.approx(
        expectation(n_op @ n_op, state).real / n2, rel=1e-10, abs=1e-10)
    assert square_disturbance_numeric(ctx, psi) == pytest.approx(
        expectation(d_op @ d_op, state).real / n2, rel=1e-10, abs=1e-10)
    # and the sweep's moment route against the same dense values
    pt = edr_point_at(ws, g, alpha2, r)
    assert pt.eps2 == pytest.approx(
        expectation(n_op @ n_op, state).real / n2, rel=1e-10, abs=1e-10)
    assert pt.eta2 == pytest.approx(
        expectation(d_op @ d_op, state).real / n2, rel=1e-10, abs=1e-10)

    # sector moments against the dense matrices
    mom = stokes_moments(ws.meter_state, ws.stokes)
    for name, (mean, var) in dense_moments(ws).items():
        assert getattr(mom, f"mean_{name}") == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert getattr(mom, f"var_{name}") == pytest.approx(var, rel=1e-12, abs=1e-12)

    # the stored band is the band of the dense V^dag Sy V, and nothing is outside it
    v = ws.eig.vectors
    dense = v.conj().T @ ws.stokes.sy.matrix @ v
    scale = np.abs(dense).max()
    assert np.abs(np.diag(dense, 1) - ws.sy_tilde).max() <= 1e-12 * scale
    # apply_band acts along the last axis, so on the identity it yields T^T
    rebuilt = apply_band(ws.sy_tilde, np.eye(ws.basis.size, dtype=complex)).T
    assert np.abs(dense - rebuilt).max() <= 1e-12 * scale


def test_sweep_path_assembles_no_dense_matrix():
    ws = build_workspace(math.sqrt(6.0), SqueezeSpec(0.1))
    m = ws.basis.size
    for g in (0.3, math.pi / 4, math.pi / 2):
        edr_point_at(ws, g, 6.0, 0.1)
    stokes_moments(ws.meter_state, ws.stokes)
    holders = (ws, ws.stokes, ws.eig, ws.meter_state)
    for obj in holders:
        for name, value in vars(obj).items():
            assert not isinstance(value, Operator), name
            if isinstance(value, np.ndarray):
                assert value.ndim < 2 or max(value.shape) < m, name
    for block in ws.eig.blocks:
        assert block.shape[0] <= ws.basis.n_max + 1
    assert ws.sy_tilde.shape == (m - 1,)


@pytest.mark.parametrize("alpha2, r", [(6.0, 0.0), (9.0, 0.3)])
def test_moment_biases_match_six_state_vector_route(alpha2, r):
    ws = build_workspace(math.sqrt(alpha2), SqueezeSpec(r) if r else None)
    for g in (1e-4, 0.2, 0.77, math.pi / 4, 2.0, 2.9):
        pt = edr_point_at(ws, g, alpha2, r)
        ctx = context_at(ws, g)
        states = [spin_state(label) for label in SPIN_STATE_LABELS]
        assert pt.bias_noise == pytest.approx(
            max(abs(noise_mean(ctx, psi)) for psi in states), abs=1e-12)
        assert pt.bias_disturbance == pytest.approx(
            max(abs(disturbance_mean(ctx, psi)) for psi in states), abs=1e-12)


def test_non_tridiagonal_sector_is_refused():
    # a Sy that is no longer 2 Jx inside its sectors has weight off the band
    ws = build_workspace(math.sqrt(2.0))
    s = ws.stokes
    bent = np.array(s.hop) * (1.0 + 0.1 * (np.arange(s.hop.size) % 3))
    broken = MeterWorkspace(basis=ws.basis, meter_state=ws.meter_state, eig=ws.eig,
                            stokes=StokesSet(ws.basis, s.s0_diag, s.sx_diag, bent))
    with pytest.raises(BandStructureError):
        broken.sy_tilde

