"""Exception types shared across the package."""


class RelmonadError(Exception):
    """Base class for all package-specific errors."""


class SlotMismatchError(RelmonadError):
    """A map or cell was plugged into a slot of the wrong kind or base."""


class BudgetExceededError(RelmonadError):
    """An enumeration or colimit would exceed the configured element budget.

    Raised loudly instead of sampling: the affected operations are used as
    oracles and a silent truncation would make their answers meaningless.
    """


class NotInvertibleError(RelmonadError):
    """A two-cell inverse was requested but some component is not a bijection."""


class FormatError(RelmonadError):
    """A text-format file is malformed (bad syntax, dangling id, version skew)."""
