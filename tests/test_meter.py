import math

import numpy as np
import pytest

from faraday_edr.errors import CutoffCeilingError, DimensionMismatchError, NormDeficitError
from faraday_edr.faraday import build_workspace
from faraday_edr.linalg import Operator, Spectrum, expectation
from faraday_edr.meter import (
    MeterBasis,
    SqueezeSpec,
    build_stokes,
    choose_cutoff,
    predicted_moments,
    prepare_meter_state,
    stokes_moments,
    sz_eigensystem,
)


def poisson_tail_cutoff(mean, tol):
    """Independent oracle: smallest n with the cumulative Poisson tail <= tol."""
    cum = math.exp(-mean)
    n = 0
    while 1.0 - cum > tol:
        n += 1
        cum += math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))
    return n


def ladder_h(basis):
    """Annihilation operator of the H mode, confined to the truncated basis."""
    m = np.zeros((basis.size, basis.size), dtype=np.complex128)
    for i, (nh, nv) in enumerate(basis.states):
        if nh >= 1:
            m[basis.states.index((nh - 1, nv)), i] = np.sqrt(nh)
    return Operator(m)


def ladder_v(basis):
    m = np.zeros((basis.size, basis.size), dtype=np.complex128)
    for i, (nh, nv) in enumerate(basis.states):
        if nv >= 1:
            m[basis.states.index((nh, nv - 1)), i] = np.sqrt(nv)
    return Operator(m)


# ---------------------------------------------------------------------------
# basis and Stokes operators


def test_basis_enumeration_and_size():
    basis = MeterBasis(2)
    assert basis.states == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert basis.size == 6
    for n_max in (0, 1, 5, 9):
        b = MeterBasis(n_max)
        assert b.size == (n_max + 1) * (n_max + 2) // 2
        totals = [nh + nv for nh, nv in b.states]
        assert totals == sorted(totals)


def test_stokes_matches_ladder_products():
    basis = MeterBasis(4)
    s = build_stokes(basis)
    ah, av = ladder_h(basis), ladder_v(basis)
    # aH aV^t = aV^t aH (different modes commute); the latter grouping keeps
    # the intermediate state inside the truncated basis, the former leaks at
    # the top total-number block.  Products also round (sqrt(n)*sqrt(n) != n),
    # so the direct construction is the exact one.
    sy = ah.dag @ av + av.dag @ ah
    sz = (ah.dag @ av - av.dag @ ah) * (-1j)
    s0 = ah.dag @ ah + av.dag @ av
    sx = ah.dag @ ah - av.dag @ av
    assert np.abs(s.sy.matrix - sy.matrix).max() <= 1e-13
    assert np.abs(s.sz.matrix - sz.matrix).max() <= 1e-13
    assert np.abs(s.s0.matrix - s0.matrix).max() <= 1e-13
    assert np.abs(s.sx.matrix - sx.matrix).max() <= 1e-13


def test_naive_ladder_product_leaks_at_top_block():
    # documents why build_stokes writes matrix elements directly: applying
    # aV^t first pushes total-n_max states out of the basis and the product
    # silently drops them
    basis = MeterBasis(4)
    s = build_stokes(basis)
    ah, av = ladder_h(basis), ladder_v(basis)
    naive = ah.dag @ av + ah @ av.dag
    diff = np.abs(s.sy.matrix - naive.matrix)
    top = basis.block_slice(4)
    assert diff[top, top].max() > 1.0  # the lost hop is order sqrt(n)
    inner = slice(0, basis.block_slice(4).start)
    assert diff[inner, inner].max() <= 1e-13


def test_sx_diagonal_number_difference():
    basis = MeterBasis(3)
    s = build_stokes(basis)
    i10 = basis.states.index((1, 0))
    i01 = basis.states.index((0, 1))
    assert s.sx.matrix[i10, i10] == 1.0
    assert s.sx.matrix[i01, i01] == -1.0


def test_stokes_commutators_exact_at_cutoff_one():
    s = build_stokes(MeterBasis(1))
    for a, b, c in ((s.sx, s.sy, s.sz), (s.sy, s.sz, s.sx), (s.sz, s.sx, s.sy)):
        res = a.matrix @ b.matrix - b.matrix @ a.matrix - 2j * c.matrix
        assert np.abs(res).max() == 0.0


@pytest.mark.parametrize("n_max", [2, 4, 9, 16])
def test_stokes_commutators_close_under_truncation(n_max):
    # closure is exact; the only residual is floating-point rounding of the
    # matrix products, orders of magnitude below any truncation leakage
    s = build_stokes(MeterBasis(n_max))
    for a, b, c in ((s.sx, s.sy, s.sz), (s.sy, s.sz, s.sx), (s.sz, s.sx, s.sy)):
        res = a.matrix @ b.matrix - b.matrix @ a.matrix - 2j * c.matrix
        assert np.abs(res).max() <= 1e-12


@pytest.mark.parametrize("n_max", [1, 4, 9, 16])
def test_s0_commutes_exactly(n_max):
    s = build_stokes(MeterBasis(n_max))
    for other in (s.sx, s.sy, s.sz):
        res = s.s0.matrix @ other.matrix - other.matrix @ s.s0.matrix
        assert np.abs(res).max() == 0.0


def test_sz_spectrum_is_integer():
    basis = MeterBasis(8)
    eig = sz_eigensystem(basis)
    assert np.abs(eig.values - np.round(eig.values)).max() <= 1e-10
    # block n carries exactly the circular-mode values n_L - n_R
    for n in range(basis.n_max + 1):
        block = np.sort(eig.values[basis.block_slice(n)])
        assert np.allclose(block, np.arange(-n, n + 1, 2), atol=1e-10)


def test_sz_eigensystem_reconstructs_sz():
    basis = MeterBasis(7)
    s = build_stokes(basis)
    eig = sz_eigensystem(basis)
    rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
    assert np.abs(rebuilt - s.sz.matrix).max() <= 1e-12
    # each block is the eigh of its sector written out entry by entry, exactly
    for n, v in enumerate(eig.blocks):
        blk = np.zeros((n + 1, n + 1), dtype=np.complex128)
        for k in range(n):  # couples (k, n-k) <-> (k+1, n-k-1)
            blk[k, k + 1] = 1j * np.sqrt((k + 1) * (n - k))
            blk[k + 1, k] = -1j * np.sqrt((k + 1) * (n - k))
        w, vectors = np.linalg.eigh(blk)
        assert np.array_equal(eig.values[basis.block_slice(n)], w)
        assert np.array_equal(v, vectors)


# ---------------------------------------------------------------------------
# cutoff selection


def test_choose_cutoff_vacuum():
    assert choose_cutoff(0.0, 0.0, 1e-12) == 0


def test_choose_cutoff_matches_poisson_oracle():
    for alpha2 in (2.0, 6.0, 12.0):
        assert choose_cutoff(alpha2, 0.0, 1e-12) == poisson_tail_cutoff(alpha2, 1e-12)
    # spec anchor: mean 6 at 1e-12 lands at 30
    assert choose_cutoff(6.0, 0.0, 1e-12) == 30


def test_choose_cutoff_squeezing_direction():
    # phase squeezing (r < 0) broadens the photon distribution; amplitude
    # squeezing (r > 0) narrows it below the coherent (Poisson) width
    coherent = choose_cutoff(9.0, 0.0, 1e-12)
    assert choose_cutoff(9.0, -0.3, 1e-12) > coherent
    assert choose_cutoff(9.0, 0.3, 1e-12) <= coherent


def test_choose_cutoff_validation_and_ceiling():
    with pytest.raises(ValueError):
        choose_cutoff(-1.0)
    with pytest.raises(ValueError):
        choose_cutoff(6.0, 0.0, 1e-3)  # tail_tol must be <= 1e-6
    with pytest.raises(CutoffCeilingError):
        choose_cutoff(1e5, 0.0, 1e-12)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            choose_cutoff(bad)


# cutoffs the earlier scan-and-confirm selection (padded preparation) chose
# on the same inputs; None marks its CutoffCeilingError
@pytest.mark.parametrize("alpha2, r, tail_tol, expected", [
    (0.0, 0.0, 1e-12, 0),
    (0.0, 1.2, 1e-12, 150),
    (1.0, -1.2, 1e-12, 167),
    (1.0, 1.2, 1e-12, 152),
    (9.0, 0.3, 1e-12, 33),
    (50.0, -0.6, 1e-12, 181),
    (50.0, 1.2, 1e-9, 163),
    (150.0, 0.2, 1e-6, 198),
    (6.0, -1.2, 1e-12, None),
    (50.0, 1.2, 1e-12, None),
])
def test_choose_cutoff_pinned(alpha2, r, tail_tol, expected):
    if expected is None:
        with pytest.raises(CutoffCeilingError):
            choose_cutoff(alpha2, r, tail_tol)
    else:
        assert choose_cutoff(alpha2, r, tail_tol) == expected


def test_stokes_moments_checks_dimension():
    state = prepare_meter_state(1.0, None, MeterBasis(20))
    with pytest.raises(DimensionMismatchError):
        stokes_moments(state, build_stokes(MeterBasis(21)))


def test_build_workspace_refuses_cutoff_above_ceiling():
    with pytest.raises(CutoffCeilingError):
        build_workspace(1.0, cutoff=201)


# ---------------------------------------------------------------------------
# state preparation


def test_coherent_vacuum_is_exact():
    basis = MeterBasis(3)
    ket = prepare_meter_state(0.0, None, basis)
    expected = np.zeros(basis.size)
    expected[basis.states.index((0, 0))] = 1.0
    assert np.array_equal(ket.amplitudes, expected)
    assert ket.norm_deficit == 0.0


def test_coherent_transverse_means_vanish():
    basis = MeterBasis(30)
    s = build_stokes(basis)
    xi = prepare_meter_state(math.sqrt(6.0), None, basis)
    assert expectation(s.sy, xi) == 0.0
    assert expectation(s.sz, xi) == 0.0


def test_coherent_sx_second_moment():
    # <Sx^2> = |alpha|^2 + |alpha|^4 -> 42 at |alpha|^2 = 6
    basis = MeterBasis(30)
    s = build_stokes(basis)
    xi = prepare_meter_state(math.sqrt(6.0), None, basis)
    n2 = 1.0 - xi.norm_deficit
    val = expectation(s.sx @ s.sx, xi).real / n2
    assert abs(val - 42.0) / 42.0 <= 1e-9


def test_coherent_poissonian_s0():
    basis = MeterBasis(30)
    s = build_stokes(basis)
    mom = stokes_moments(prepare_meter_state(math.sqrt(6.0), None, basis), s)
    assert abs(mom.mean_s0 - 6.0) / 6.0 <= 1e-9
    assert abs(mom.var_s0 - 6.0) / 6.0 <= 1e-9
    assert abs(mom.var_sy - 6.0) / 6.0 <= 1e-9
    assert abs(mom.var_sz - 6.0) / 6.0 <= 1e-9


def test_coherent_norm_deficit_raises():
    with pytest.raises(NormDeficitError):
        prepare_meter_state(math.sqrt(6.0), None, MeterBasis(4), tail_tol=1e-12)


def test_squeezed_r_zero_reduces_to_coherent():
    basis = MeterBasis(choose_cutoff(4.0))
    direct = prepare_meter_state(math.sqrt(4.0), None, basis)
    via_squeeze = prepare_meter_state(math.sqrt(4.0), SqueezeSpec(0.0), basis)
    assert np.abs(direct.amplitudes - via_squeeze.amplitudes).max() <= 1e-10


def _expm_mode(alpha, z, dim):
    """Oracle: exp of the single-mode squeeze and displacement generators
    applied to |0> (scipy's expm_multiply) in a dim-level Fock space."""
    from scipy.sparse import diags
    from scipy.sparse.linalg import expm_multiply

    a = diags(np.sqrt(np.arange(1.0, dim)), 1, format="csr", dtype=np.complex128)
    ad = a.conj().T.tocsr()
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    psi = expm_multiply(0.5 * (np.conj(z) * (a @ a) - z * (ad @ ad)), psi)
    return expm_multiply(alpha * ad - np.conj(alpha) * a, psi)


@pytest.mark.parametrize("alpha2, r", [(0.0, 0.5), (1.0, 1.2), (1.0, -1.2), (9.0, 0.3),
                                       (40.0, 1.0), (50.0, -0.6)])
def test_preparation_matches_padded_expm_oracle(alpha2, r):
    n_max = choose_cutoff(alpha2, r)
    basis = MeterBasis(n_max)
    alpha = math.sqrt(alpha2)
    oracle = []
    for dim in (2 * n_max + 40, 3 * n_max + 80):
        h = _expm_mode(alpha, r, dim)[: n_max + 1]
        v = _expm_mode(0.0, r, dim)[: n_max + 1]
        oracle.append(np.array([h[nh] * v[nv] for nh, nv in basis.states]))
    # the oracle has converged in its padding
    assert np.abs(oracle[0] - oracle[1]).max() <= 1e-14
    amps = prepare_meter_state(alpha, SqueezeSpec(r), basis).amplitudes
    assert np.abs(amps - oracle[1]).max() <= 1e-12


@pytest.mark.parametrize("r", [0.5, -0.6, 1.2])
def test_squeezed_vacuum_closed_form(r):
    # c_2k = (-t)^k sqrt((2k)!) / (2^k k! sqrt(cosh r)), odd amplitudes zero
    n_max = choose_cutoff(0.0, r)
    basis = MeterBasis(n_max)
    t = math.tanh(r)
    c = np.zeros(n_max + 1)
    for k in range(n_max // 2 + 1):
        log_mag = 0.5 * math.lgamma(2 * k + 1) - k * math.log(2.0) - math.lgamma(k + 1)
        c[2 * k] = (-t) ** k * math.exp(log_mag) / math.sqrt(math.cosh(r))
    expected = np.array([c[nh] * c[nv] for nh, nv in basis.states])
    amps = prepare_meter_state(0.0, SqueezeSpec(r), basis).amplitudes
    assert np.abs(amps - expected).max() <= 1e-13


def test_subnormal_squeezing_gives_the_coherent_state():
    basis = MeterBasis(choose_cutoff(4.0))
    coherent = prepare_meter_state(2.0, None, basis).amplitudes
    for r in (2.2e-313, -5e-324):
        amps = prepare_meter_state(2.0, SqueezeSpec(r), basis).amplitudes
        assert np.isfinite(amps).all()
        assert np.abs(amps - coherent).max() <= 1e-300


def test_squeezed_moments_against_predictions(ws_squeezed):
    mom = stokes_moments(ws_squeezed.meter_state, ws_squeezed.stokes)
    pred = predicted_moments(9.0, 0.3)
    assert abs(mom.mean_sx - 9.0) / 9.0 <= 1e-8
    assert abs(mom.mean_sy) <= 1e-10
    assert abs(mom.mean_sz) <= 1e-10
    assert abs(mom.mean_s0 - pred.mean_s0) / pred.mean_s0 <= 1e-8
    assert abs(mom.var_sz - pred.var_sz) / pred.var_sz <= 1e-4
    assert abs(mom.var_sy - pred.var_sy) / pred.var_sy <= 1e-4
    assert abs(mom.var_sx - pred.var_sx) / pred.var_sx <= 1e-4


def test_squeezed_mean_photon_in_v_mode(ws_squeezed):
    # <n_V> = sinh^2 r, via n_V = (S0 - Sx)/2
    mom = stokes_moments(ws_squeezed.meter_state, ws_squeezed.stokes)
    n_v = (mom.mean_s0 - mom.mean_sx) / 2.0
    expected = math.sinh(0.3) ** 2
    assert abs(n_v - expected) / expected <= 1e-6


def test_sy_variance_reconciliation(ws_squeezed):
    """The Stokes Sy variance carries the full sinh^2(2r), the per-mode
    photon-number variances half of it each; both hold simultaneously."""
    mom = stokes_moments(ws_squeezed.meter_state, ws_squeezed.stokes)
    full = 9.0 * math.exp(-0.6) + math.sinh(0.6) ** 2
    half = 9.0 * math.exp(-0.6) + 0.5 * math.sinh(0.6) ** 2
    assert abs(mom.var_sy - full) / full <= 1e-4
    assert abs(mom.var_sy - half) / half > 1e-3  # clearly not the half form

    # per-mode check: n_H = (S0 + Sx)/2
    basis = ws_squeezed.basis
    amps = ws_squeezed.meter_state.amplitudes
    nh = np.array([s[0] for s in basis.states], dtype=float)
    n2 = float(np.vdot(amps, amps).real)
    mean_nh = float(np.vdot(amps, nh * amps).real) / n2
    var_nh = float(np.vdot(amps, nh * nh * amps).real) / n2 - mean_nh ** 2
    assert abs(var_nh - half) / half <= 1e-4
    assert abs(mean_nh - (9.0 + math.sinh(0.3) ** 2)) <= 1e-6


def test_squeezing_sign_swaps_variance_scalings():
    ws = build_workspace(3.0, SqueezeSpec(-0.3))
    mom = stokes_moments(ws.meter_state, ws.stokes)
    pred = predicted_moments(9.0, -0.3)
    assert abs(mom.var_sz - 9.0 * math.exp(-0.6)) / mom.var_sz <= 1e-4
    assert abs(mom.var_sy - pred.var_sy) / pred.var_sy <= 1e-4


def test_squeezed_phase_convention():
    alpha = 2.0 * np.exp(1j * math.pi / 3)
    basis = MeterBasis(choose_cutoff(4.0, 0.25, 1e-12))
    # auto phase: theta = 2*arg(alpha)
    ket = prepare_meter_state(alpha, SqueezeSpec(0.25), basis)
    s = build_stokes(basis)
    mom = stokes_moments(ket, s)
    assert abs(mom.mean_sx - 4.0) / 4.0 <= 1e-8  # phase invariant
    n_v = (mom.mean_s0 - mom.mean_sx) / 2.0
    assert abs(n_v - math.sinh(0.25) ** 2) <= 1e-6
    # explicit matching theta accepted, mismatched refused
    prepare_meter_state(alpha, SqueezeSpec(0.25, theta=2 * math.pi / 3), basis)
    with pytest.raises(ValueError):
        prepare_meter_state(alpha, SqueezeSpec(0.25, theta=0.0), basis)


def test_cos_2g_sz_expectation_on_coherent_state():
    # <cos(2g Sz)> on |alpha_H, 0_V> is exp(-2 |alpha|^2 sin^2 g): the operator
    # function goes through the generic eigendecomposition of Sz
    basis = MeterBasis(30)
    s = build_stokes(basis)
    xi = prepare_meter_state(math.sqrt(6.0), None, basis)
    n2 = 1.0 - xi.norm_deficit
    for g in (0.3, 1.0, math.pi / 2):
        cos_op = Spectrum.of(s.sz).map(lambda lam: np.cos(2.0 * g * lam))
        val = expectation(cos_op, xi).real / n2
        expected = math.exp(-12.0 * math.sin(g) ** 2)
        assert val == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_squeeze_spec_validation():
    with pytest.raises(ValueError):
        SqueezeSpec(math.inf)
    with pytest.raises(ValueError):
        SqueezeSpec(0.1, theta=math.nan)
