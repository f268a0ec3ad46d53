"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "RelkuraError",
    "DomainError",
    "ConvergenceError",
    "DegenerateFitError",
    "ConfigError",
]


class RelkuraError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RelkuraError):
    """An input lies outside the admissible domain of an operation.

    Typical causes: a velocity at or beyond the model's velocity bound,
    a non-finite drive value, or a precondition violation such as a
    coupling strength too small for the requested phase-lock angle.
    """


class ConvergenceError(RelkuraError):
    """An iterative solve exhausted its budget without meeting tolerance."""


class DegenerateFitError(RelkuraError):
    """Regression input carries no usable signal (e.g. all abscissae equal)."""


class ConfigError(DomainError, ValueError):
    """An argument or configuration value failed validation.

    Every argument check of the library raises it, named by the parameter
    it checks, and the CLI exits 2 on it.  The offending name is kept on
    ``field`` and the complaint on ``message``, so command-line errors can
    point at exactly what to fix.  A field that is not printable (a JSON
    key holding a newline, say) is rendered with ``repr`` in the error's
    text, so the text stays on one line; ``field`` keeps it as given.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field if field.isprintable() else repr(field)}: {message}")
        self.field = field
        self.message = message
