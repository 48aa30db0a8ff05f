"""The failures a run can end with, each with its exit code and error.json kind.

Every error the package raises is a subclass of :class:`JeanslabError`, and
``cli.main`` maps only this hierarchy to an exit code:

- :class:`UsageError` (exit 2): input from outside the program is invalid:
  the command line or config, a profile or its table file, a parameter
  out of its range.
- :class:`NumericalFailure` (exit 3): a computation failed or left its
  domain.  ``pde.VacuumError``, ``pde.HyperbolicityLossError`` and
  ``fuchsian.DomainError`` are its subclasses, and :func:`in_float_range`
  raises it for a numpy floating fault.

Any other exception is a bug and ends the run with a traceback.
"""

import functools

import numpy as np


class JeanslabError(Exception):
    """Base of every error the package raises on purpose; raised only as a subclass."""

    exit_code: int
    kind: str  # the "kind" of error.json


class UsageError(JeanslabError):
    """Input from outside the program is invalid."""

    exit_code = 2
    kind = "usage"


class NumericalFailure(JeanslabError):
    """A computation failed or left its domain."""

    exit_code = 3
    kind = "numerical"


def in_float_range(fn):
    """fn with numpy's overflows, divisions by zero and invalid operations raised as
    NumericalFailure where they happen, before any warning: data whose time maps,
    diagnostics or envelopes leave the range of floats (g underflowing to 0, chi near
    1/f for a tiny initial contrast, exp(cC t^p_plus) at a huge rate) give no verdict
    on them."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise NumericalFailure(f"{fn.__name__} left the range of floats: {exc}") from exc
    return checked
