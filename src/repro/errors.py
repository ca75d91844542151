"""Exception hierarchy for the :mod:`repro` library.

All errors raised intentionally by this package derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError, ValueError):
    """An array or tensor has an incompatible shape."""


class ValidationError(ReproError, ValueError):
    """An input value violates a documented invariant."""


class NotFittedError(ReproError, RuntimeError):
    """A model method requiring ``fit`` was called before fitting."""


class DatasetError(ReproError, ValueError):
    """A dataset generator or loader received inconsistent arguments."""
