"""Error types shared across the package.

Domain errors signal invalid mathematical input (points outside the
ambient set, out-of-range parameters).  Resource errors signal requests
that exceed configured enumeration or grid limits; they carry the
achievable maximum so callers can retry with a smaller request.  The cap on
enumerated elements, psi model elements, crooked pattern links, graph
vertices and curvature trials is read from ``CONTINUUM_LAB_MAX_ELEMENTS``.

Blocked kernels bound their working tables by ``SIZE_BLOCK_FLOATS`` cells
a block, or one row, read at each call; all but the triod search take
their row blocks from :func:`_row_blocks`, the Whitney size table F's
rows included, and so does ``continua.packed_rows``, which builds every
packed word table of the package.
"""

import os

MAX_ELEMENTS_ENV = "CONTINUUM_LAB_MAX_ELEMENTS"
DEFAULT_MAX_ELEMENTS = 200_000
SIZE_BLOCK_FLOATS = 1 << 16


def _max_elements() -> int:
    return int(os.environ.get(MAX_ELEMENTS_ENV) or DEFAULT_MAX_ELEMENTS)


def _row_blocks(rows: int, width: int):
    """Slices, in order, of the rows of a table ``width`` cells wide: each
    holds at most SIZE_BLOCK_FLOATS cells, or one row."""
    step = max(1, SIZE_BLOCK_FLOATS // max(width, 1))
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


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
