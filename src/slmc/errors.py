"""Exception types shared across the package."""


class SamplingError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidInput(SamplingError):
    """An argument violates a documented precondition."""


class SingularMatrix(SamplingError):
    """A matrix function is undefined on part of the spectrum of its input."""


class NotPositiveDefinite(SamplingError):
    """A covariance that must be factored is not positive definite."""


class MinimizerNotFound(SamplingError):
    """Newton iteration failed to locate the target's minimizer."""


class TheoremInapplicable(SamplingError):
    """Step-size planning was requested outside the regime the bound covers."""


class NumericalBlowup(SamplingError):
    """A trajectory left the numerically trustworthy region, at ``step_index``
    of the batch cell labelled ``cell`` when those are known."""

    def __init__(self, message: str, step_index: int | None = None, cell: str | None = None):
        if cell is not None:
            message = f"{message} in cell {cell!r}"
        if step_index is not None:
            message = f"{message} (step {step_index})"
        super().__init__(message)
        self.step_index = step_index
        self.cell = cell


class ConfigError(SamplingError):
    """Experiment configuration text is malformed or inconsistent."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
