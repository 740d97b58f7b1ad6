"""Exception hierarchy shared by all freefock modules.

The CLI maps these onto exit codes: InputError -> 3, ScopeError -> 4,
InfeasibleError -> 1, and any other exception -> 5 (internal error).
Exit code 2 (no convergence) is retired: no solver iterates.
"""


class InputError(ValueError):
    """Malformed user data: bad word, wrong shape, out-of-range parameter."""


class ScopeError(ArithmeticError):
    """Operation outside its numerical scope (divergence, non-Hermitian
    input, singular system, size limit)."""


class SizeLimitError(ScopeError):
    """Requested matrix exceeds the configured size limit."""


class InfeasibleError(RuntimeError):
    """Interpolation data fails the positivity criterion."""
