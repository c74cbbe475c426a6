import math

import numpy as np
import pytest

from faraday_edr.errors import DimensionMismatchError, NonHermitianError
from faraday_edr.linalg import (
    Ket,
    Operator,
    Spectrum,
    expectation,
    identity,
    sigma_x,
    sigma_y,
    sigma_z,
    spin_state,
    tensor,
)
from faraday_edr.meter import MeterBasis, build_stokes, prepare_meter_state


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator((m + m.conj().T) / 2, hermitian=True)


def random_ket(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Ket(v / np.linalg.norm(v))


def test_tensor_identity_is_identity():
    i2 = identity(2)
    i3 = identity(3)
    assert np.array_equal(tensor(i2, i3).matrix, np.eye(6))


def test_tensor_of_hermitian_is_hermitian():
    stokes = build_stokes(MeterBasis(3))
    joint = tensor(sigma_z(), stokes.sz)
    assert joint.hermitian
    assert joint.hermiticity_defect() == 0.0
    assert joint.dim == 2 * MeterBasis(3).size


def test_product_state_expectation_factorizes():
    a = random_hermitian(2, 1)
    m = random_hermitian(5, 2)
    psi = random_ket(2, 3)
    xi = random_ket(5, 4)
    lhs = expectation(tensor(a, m), tensor(psi, xi))
    rhs = expectation(a, psi) * expectation(m, xi)
    assert abs(lhs - rhs) < 1e-12


def test_tensor_associativity_exact_on_artifact_operators():
    # operator entries are {0, +-1, +-i} times sqrt(integer): every triple
    # product in the two association orders is exactly representable
    stokes = build_stokes(MeterBasis(3))
    for mid in (stokes.sy, stokes.sz, stokes.sx):
        lhs = tensor(tensor(sigma_z(), mid), sigma_x())
        rhs = tensor(sigma_z(), tensor(mid, sigma_x()))
        assert np.array_equal(lhs.matrix, rhs.matrix)


def test_hermitian_function_identity_map():
    op = random_hermitian(7, 5)
    back = Spectrum.of(op).map(lambda lam: lam)
    assert np.abs(back.matrix - op.matrix).max() <= 1e-12


def test_hermitian_function_phase_map_is_unitary():
    op = random_hermitian(9, 6)
    u = Spectrum.of(op).map(lambda lam: np.exp(-1j * lam))
    defect = np.abs(u.matrix.conj().T @ u.matrix - np.eye(9)).max()
    assert defect <= 1e-11
    assert not u.hermitian


def test_hermitian_function_cos_of_sigma_z():
    # eigenvalues are +-1 and cos is even
    out = Spectrum.of(sigma_z()).map(np.cos)
    assert np.abs(out.matrix - math.cos(1.0) * np.eye(2)).max() <= 1e-15


def test_hermitian_function_integer_spectrum_kills_sin_2pi():
    stokes = build_stokes(MeterBasis(6))
    out = Spectrum.of(stokes.sz).map(lambda lam: np.sin(2.0 * math.pi * lam))
    assert np.abs(out.matrix).max() <= 1e-10


def test_expectation_normalized_identity():
    psi = random_ket(6, 7)
    assert abs(expectation(identity(6), psi) - 1.0) <= 1e-12


def test_expectation_sigma_y_eigenstate():
    assert abs(expectation(sigma_y(), spin_state("y+")) - 1.0) <= 1e-15
    assert abs(expectation(sigma_y(), spin_state("y-")) + 1.0) <= 1e-15


def test_expectation_sx_on_coherent_state():
    # <Sx> on |alpha_H, 0_V> is |alpha|^2
    basis = MeterBasis(30)
    stokes = build_stokes(basis)
    xi = prepare_meter_state(math.sqrt(6.0), None, basis)
    val = expectation(stokes.sx, xi) / (1.0 - xi.norm_deficit)
    assert abs(val.imag) <= 1e-12
    assert abs(val.real - 6.0) / 6.0 <= 1e-9


def test_expectation_hermitian_imaginary_part_small():
    op = random_hermitian(8, 9)
    for seed in range(4):
        psi = random_ket(8, 20 + seed)
        assert abs(expectation(op, psi).imag) <= 1e-12


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        expectation(sigma_z(), random_ket(3, 1))


def test_hermitian_function_rejects_non_hermitian():
    bad = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonHermitianError):
        Spectrum.of(bad).map(np.cos)


def test_hermitian_flag_verified_at_construction():
    with pytest.raises(NonHermitianError):
        Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)


def test_operator_rejects_non_finite():
    with pytest.raises(ValueError):
        Operator(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Ket(np.array([np.nan, 0.0]))


def test_operator_and_ket_reject_wrong_shape():
    with pytest.raises(DimensionMismatchError):
        Operator(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        Operator(np.ones(4))
    with pytest.raises(DimensionMismatchError):
        Ket(np.ones((2, 2)))


def test_operator_is_immutable():
    op = sigma_x()
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_operator_wraps_complex_input_without_copy_or_lock():
    data = np.eye(2, dtype=np.complex128)
    op = Operator(data)
    assert np.shares_memory(op.matrix, data)
    data[0, 1] = 3.0  # the caller's array stays writeable
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_arithmetic_inherits_hermitian_flag_without_recheck():
    # within tolerance as built; scaled by 10 its defect would fail a re-check
    a = Operator(np.array([[0.0, 1.0], [1.0 + 0.6e-12, 0.0]]), hermitian=True)
    b = sigma_z()
    for op in (a * 10.0, 10.0 * a, a + b, a - b, a.dag, tensor(a, b)):
        assert op.hermitian
    assert not (a * 1j).hermitian
    assert not (a @ b).hermitian


def test_operator_arithmetic_checks_basis():
    with pytest.raises(DimensionMismatchError):
        sigma_x() + identity(6)
    with pytest.raises(DimensionMismatchError):
        sigma_x() @ identity(3)


def test_spin_state_labels():
    for label, op, sign in (("z+", sigma_z(), 1), ("x-", sigma_x(), -1)):
        assert abs(expectation(op, spin_state(label)) - sign) <= 1e-15
    with pytest.raises(ValueError):
        spin_state("w+")
