"""Exception types shared across the package."""


class ConfigError(Exception):
    """Raised when a scenario config is malformed or violates an invariant."""


class SolverError(Exception):
    """Raised when a numerical routine fails to converge or is handed an
    infeasible/ill-posed problem."""

