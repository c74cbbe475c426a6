"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: usage problems exit 1,
resource/truncation problems exit 2, verification failures and failed
numerical checks exit 3.
"""

from __future__ import annotations


class FaradayEdrError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(FaradayEdrError):
    """Operands live on different bases or have inconsistent dimensions."""


class NonHermitianError(FaradayEdrError):
    """An operator required to be Hermitian is not, beyond tolerance."""


class NonUnitaryError(FaradayEdrError):
    """A constructed evolution operator failed the unitarity check."""


class CutoffCeilingError(FaradayEdrError):
    """The requested truncation would exceed the configured hard ceiling."""


class NormDeficitError(FaradayEdrError):
    """A prepared state lost more norm to truncation than the tail budget."""


class CalibrationSingular(FaradayEdrError):
    """Meter calibration is singular: |sin 2g| is numerically zero.

    At g = n*pi/2 no mean shift appears in the meter, so the calibrated
    readout (and with it the square error) diverges.
    """


class ZeroMeanSx(FaradayEdrError):
    """The meter state has <Sx> ~ 0, so the calibration factor is undefined."""


class QuadratureError(FaradayEdrError):
    """Gaussian quadrature failed to converge within the node budget."""


class UsageError(FaradayEdrError, ValueError):
    """Bad command line, config file, or argument combination.

    Also a ValueError, so library callers handle a rejected argument the
    usual way.
    """


class NonFiniteValueError(FaradayEdrError):
    """A value bound for the output is NaN or infinite.

    Expected divergences are flagged SINGULAR before formatting; anything
    else non-finite is a numerical failure and must not reach the CSV.
    """
