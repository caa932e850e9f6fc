"""Error types shared across the package.

Domain errors signal invalid mathematical input (mismatched ambient spaces,
malformed distance tables, out-of-range parameters).  Resource errors signal
requests that exceed configured enumeration or grid limits; they carry the
achievable maximum so callers can retry with a smaller request.  The cap on
enumerated elements, psi model elements, crooked pattern links, graph
vertices and curvature trials is read from ``CONTINUUM_LAB_MAX_ELEMENTS``.
"""

import os

MAX_ELEMENTS_ENV = "CONTINUUM_LAB_MAX_ELEMENTS"
DEFAULT_MAX_ELEMENTS = 200_000


def _max_elements() -> int:
    return int(os.environ.get(MAX_ELEMENTS_ENV) or DEFAULT_MAX_ELEMENTS)


class DomainError(ValueError):
    """Raised when an input is mathematically invalid for the operation."""


class ResourceError(RuntimeError):
    """Raised when a request exceeds a configured resource limit.

    Attributes:
        achievable: the largest value of the limiting parameter that the
            implementation can honour, when known.
    """

    def __init__(self, message, achievable=None):
        super().__init__(message)
        self.achievable = achievable
