"""Exception hierarchy shared across the package.

Everything raised on a bad model, bad configuration or failed numerical
construction derives from RKLabError so the command line can map it to a
configuration/runtime exit code.  Statistical *failures* are not exceptions:
they are pass/fail verdicts in a ComparisonReport.
"""


class RKLabError(Exception):
    """Base class for all model/configuration/runtime errors."""


# chain construction ------------------------------------------------------

class DetailedBalanceViolation(RKLabError):
    """Rates are not in detailed balance with the reference measure."""


class NonPositiveMeasure(RKLabError):
    """Some state carries a nonpositive reference mass."""


class ZeroUnreachable(RKLabError):
    """The distinguished state 0 cannot be reached from every state."""


class SingularResolvent(RKLabError):
    """Numerical inversion of the resolvent failed."""


class NonPositiveP(RKLabError):
    """Rebirthed kernels need a strictly positive rate parameter."""


class ZeroF(RKLabError):
    """The rebirth smoothing function vanished (defensive; should not occur)."""


class ZeroDiagonal(RKLabError):
    """Kernel diagonal at the distinguished state vanished (defensive)."""


# Gaussian factorisation --------------------------------------------------

class NotPSD(RKLabError):
    """Covariance has a significantly negative eigenvalue, or a chain's
    precision is not certified positive definite."""


class ZeroShift(RKLabError):
    """Composite squared fields require a nonzero shift."""


# path simulation ---------------------------------------------------------

class EpochBudgetExceeded(RKLabError):
    """A rebirthed run exceeded the configured epoch budget before stopping."""


# statistics --------------------------------------------------------------

class DegenerateESS(RKLabError):
    """Effective sample size of a weighted ensemble fell below the floor."""


class ConditioningTooRare(RKLabError):
    """Too few samples satisfied the conditioning event."""


class GridTooCoarse(RKLabError):
    """Sweep scales reach below the resolution of the chain grid."""


# configuration -----------------------------------------------------------

class SchemaError(RKLabError):
    """Malformed configuration document (unknown/missing/ill-typed keys)."""


class InvariantError(RKLabError):
    """Well-formed configuration violating a model invariant."""
