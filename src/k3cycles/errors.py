"""Exception hierarchy shared by all modules; every error carries a stable code."""


class K3CyclesError(Exception):
    """Base class for domain validation errors (CLI exit code 2)."""

    code = "validation"


class DimensionMismatchError(K3CyclesError):
    code = "dimension_mismatch"


class NotSymmetricError(K3CyclesError):
    code = "not_symmetric"


class NotHermitianError(K3CyclesError):
    code = "not_hermitian"


class DegenerateGramError(K3CyclesError):
    code = "degenerate_gram"


class NotIntegralError(K3CyclesError):
    code = "not_integral"


class NotIsometryError(K3CyclesError):
    code = "not_isometry"


class NotARootError(K3CyclesError):
    code = "not_a_root"


class NotPositiveDefiniteError(K3CyclesError):
    code = "not_positive_definite"


class NotPositiveError(K3CyclesError):
    """A three-space required to be positive is not."""

    code = "not_positive"


class AmbientMismatchError(K3CyclesError):
    code = "ambient_mismatch"


class FrameError(K3CyclesError):
    """Ambient space has no designated positive reference frame."""

    code = "no_positive_frame"


class WallError(K3CyclesError):
    """Chamber representative pairs to zero against a root."""

    code = "wall"


class NonPositiveKappaError(K3CyclesError):
    code = "non_positive_kappa"


class InternalCheckError(K3CyclesError):
    """A computed result failed its exact self-check (a library bug, not bad input)."""

    code = "internal_check"


class BudgetExceededError(K3CyclesError):
    """A search would exceed its fixed work budget (the input is valid)."""

    code = "budget_exceeded"


class InputError(K3CyclesError):
    """Malformed structured input (JSON schema violations, bad flags)."""

    code = "input"
