"""Exception hierarchy shared by all symwalk engines.

Exit codes used by the CLI: 1 usage/domain, 2 internal verification
failure, 3 resource-limit refusal or missing numpy.
"""


class SymwalkError(Exception):
    exit_code = 1


class DomainError(SymwalkError):
    """Input outside an operation's mathematical domain."""

    exit_code = 1


class InvalidPartitionError(DomainError):
    pass


class InvalidPermutationError(DomainError):
    pass


class SizeMismatchError(DomainError):
    """Two partitions that must partition the same n do not."""


class DegenerateGeneratorError(DomainError):
    """The identity class cannot generate a walk."""


class SupportMismatchError(DomainError):
    """Alternating-group support requested while odd classes carry mass."""


class ResourceLimitError(SymwalkError):
    """Requested n exceeds a configured cap, or a command that needs the
    literal oracle (verify, oracle) runs without numpy."""

    exit_code = 3


class ConsistencyError(SymwalkError):
    """An exact internal identity failed; signals a bug, not bad input."""

    exit_code = 2
