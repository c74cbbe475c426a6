"""Error-disturbance uncertainty relations in Faraday-type spin measurements.

A spin-1/2 system is measured indirectly through the Faraday rotation it
imprints on a polarized light meter (coherent or polarization-squeezed),
U = exp(-i g sigma_z (x) Sz).  The package simulates the process exactly
on a truncated two-mode Fock space, evaluates the closed-form square
error / square disturbance expressions, and checks the
Heisenberg-Arthurs-Kelly, Ozawa and (tight) Branciard-Ozawa relations.
"""

from .edr import (
    EDRPoint,
    disturbance_operator,
    edr_point_at,
    noise_operator,
    square_disturbance_analytic,
    square_disturbance_analytic_squeezed,
    square_disturbance_numeric,
    square_error_analytic,
    square_error_analytic_squeezed,
    square_error_numeric,
)
from .errors import (
    CalibrationSingular,
    CutoffCeilingError,
    DimensionMismatchError,
    FaradayEdrError,
    NonHermitianError,
    NormDeficitError,
    QuadratureError,
    UsageError,
    ZeroMeanSx,
)
from .faraday import (
    JointContext,
    MeterWorkspace,
    build_workspace,
    calibrated_meter,
    context_at,
    heisenberg_bx,
    heisenberg_bx_closed_form,
    heisenberg_sy,
    heisenberg_sy_closed_form,
    unitary_generic,
)
from .linalg import Ket, Operator, expectation, hermitian_function, spin_state, tensor
from .meter import (
    MeterBasis,
    SqueezeSpec,
    StokesSet,
    build_stokes,
    choose_cutoff,
    coherent_state,
    predicted_moments,
    squeezed_coherent_state,
    stokes_moments,
    sz_eigensystem,
)
from .psa import PsaConfig, eps2_psa, eps2_wia, eta2_psa, eta2_wia, gaussian_oracle
from .relations import (
    BoundsRecord,
    TradeoffSample,
    bot_frontier,
    evaluate_bounds,
    hak_frontier,
    tradeoff_curve,
)
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"
