"""Exception types raised by the library.

Domain- and value-style failures subclass ``ValueError`` so that generic
callers can still catch them the usual way.  The command line exits 2 on
any ``ValueError``; the other ``DegenpopError`` types exit 3.

Nothing in the package raises :class:`DegenerateSpectrum` or
:class:`FirstComponentZero`, so ``degenpop`` does not export them; the
closed-form test oracles raise them and the benchmark checks for them,
both importing them from this module.
"""


class DegenpopError(Exception):
    """Base class for all library-specific errors."""


class PointwiseUndefined(DegenpopError, ValueError):
    """The envelope has no pointwise value (distributional kick)."""


class OutOfDomain(DegenpopError, ValueError):
    """Argument lies outside the function's domain (e.g. negative time)."""


class Unattainable(DegenpopError, ValueError):
    """Requested action value is never reached by this envelope."""


class DomainError(DegenpopError, ValueError):
    """Scalar input outside the admissible range of a closed-form formula."""


class DimensionTooSmall(DegenpopError, ValueError):
    """State-space dimension below the minimum the construction needs."""


class InvalidQuantumNumbers(DegenpopError, ValueError):
    """Transfer quantum numbers violate the parity/divisibility rules."""


class DegenerateSpectrum(DegenpopError, ArithmeticError):
    """Two dressed eigenvalues coincide, so the dressed rows are not unique."""


class FirstComponentZero(DegenpopError, ArithmeticError):
    """An eigenvector cannot be scaled to leading component one."""


class UnresolvedTimescale(DegenpopError, ValueError):
    """Integrator step too coarse for the fastest dynamical timescale."""


class GridMismatch(DegenpopError, ValueError):
    """Two trajectories do not share the same time grid."""


class ConfigError(DegenpopError, ValueError):
    """Run configuration file is malformed or inconsistent."""
