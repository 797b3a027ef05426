"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, resource caps
exit 2, and violated internal invariants exit 3. The last group guards
facts that are provably true of the constructions, so tripping one means
a bug or a broken convention, never bad input.
"""


class AdlvkitError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(AdlvkitError):
    """Bad input from the caller: unknown datum, malformed element, ..."""


class ElementParseError(UsageError):
    def __init__(self, text, position, reason):
        self.text = text
        self.position = position
        self.reason = reason
        super().__init__(f"cannot parse element at token {position}: {reason}")


class UnsupportedDatumError(UsageError):
    pass


class DatumMismatchError(AdlvkitError):
    """Two objects built over different root data were combined."""


class NotAShiftError(AdlvkitError):
    """Requested conjugation move increases length."""


class NotMinLenError(AdlvkitError):
    """Operation requires a minimal length element."""


class NotComparableError(AdlvkitError):
    """Poset operation on incomparable class invariants."""


class NoUniqueExtremumError(AdlvkitError):
    """A set of classes has no unique minimum or maximum."""


class CapExceededError(AdlvkitError):
    """A search exceeded its configured node or enumeration budget.

    ``reached`` is how far it got before stopping: the members, elements
    or tuples it had counted, or None when the raise site does not say.
    """

    def __init__(self, cap, what="search", reached=None):
        self.cap = cap
        self.what = what
        self.reached = reached
        tail = "" if reached is None else f" (reached {reached})"
        super().__init__(f"{what} exceeded the configured cap of {cap}{tail}")


class InternalInvariantError(AdlvkitError):
    """A quantity that is provably integral / consistent failed to be so.

    This always indicates a bug (or a broken convention), never bad input.
    """
