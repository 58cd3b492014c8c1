"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific one that applies.
"""


class CapExceededError(ValueError):
    """A brute-force enumeration was requested beyond its configured cap."""

    def __init__(self, what: str, requested: int, cap: int):
        self.what = what
        self.requested = requested
        self.cap = cap
        super().__init__(f"{what}: requested size {requested} exceeds the cap {cap}")


class PrecisionBudgetError(ValueError):
    """The working precision a computation needs is past the fixed bound on it."""


class RootConvergenceError(ArithmeticError):
    """Simultaneous root iteration failed to reach the residual tolerance."""

    def __init__(self, iterations: int, best_residual: float):
        self.iterations = iterations
        self.best_residual = best_residual
        super().__init__(
            f"root finding did not converge after {iterations} iterations "
            f"(best relative residual {best_residual:.3e})"
        )
