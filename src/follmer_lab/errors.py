"""Exception types shared across the library.

The CLI maps these onto its exit-code contract (2 for usage/validation
problems, 1 for verification failures).
"""


class FollmerLabError(Exception):
    """Base class for library errors."""


class _NodeError(FollmerLabError):
    """An error that may name the tree node where it arose."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class TreeValidationError(_NodeError):
    """A tree file or tree structure violates the filtered-tree invariants."""


def count_str(n: int) -> str:
    """Decimal digits of an exact count, or ``2^k+`` when there are too many to print.

    Python refuses ``str`` on integers past its digit limit (4300 digits by
    default); counts of stopping times reach that on trees of a few thousand
    nodes, so the fallback names the power of two just below the count.
    """
    try:
        return str(n)
    except ValueError:
        return f"2^{n.bit_length() - 1}+"


class EnumerationCapError(FollmerLabError):
    """Stopping-time enumeration would exceed the configured cap."""

    def __init__(self, count, cap):
        super().__init__(
            f"refusing to enumerate {count_str(count)} stopping times (cap is {cap}); "
            f"raise the cap explicitly if this is intended"
        )


class PairValidationError(FollmerLabError):
    """A pair file is malformed or names a node the tree lacks."""


class NotSupermartingaleError(_NodeError):
    """An operation requiring a supermartingale got something else."""


class FreezeTargetError(FollmerLabError):
    """A freeze pair cannot be built: Z loses no mass, or x* is the cemetery or a charged path sits at it."""


class GridError(FollmerLabError):
    """A time grid is degenerate or too coarse for the requested window."""
