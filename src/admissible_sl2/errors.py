"""Exception types shared across the package.

Every domain error is one of two kinds under :class:`AdmissibleError`, and
the kind fixes the ``admsl2`` exit status:

- :class:`InputError`: a bad parameter, or a tolerance the computation
  cannot meet.  Exit status 2, with ``error: <message>`` on stderr.
- :class:`InvariantError`: a computation could not complete.  Exit status
  1, with a report whose only check is a failed one.
"""

from __future__ import annotations


class AdmissibleError(Exception):
    """Base class for all domain errors raised by this package."""


class InputError(AdmissibleError):
    """A parameter is outside its range, or a tolerance cannot be met."""


class InvariantError(AdmissibleError):
    """An intermediate result broke an invariant, so the computation could not complete."""
