"""The failures a run can end with, each with its exit code and error.json kind.

Every error the package raises is a subclass of :class:`JeanslabError`, and
``cli.main`` maps only this hierarchy to an exit code:

- :class:`UsageError` (exit 2): input from outside the program is invalid:
  the command line or config, a profile or its table file, a parameter
  out of its range.
- :class:`NumericalFailure` (exit 3): a computation failed or left its
  domain.  ``pde.VacuumError``, ``pde.HyperbolicityLossError`` and
  ``fuchsian.DomainError`` are its subclasses.

Any other exception is a bug and ends the run with a traceback.
"""


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
