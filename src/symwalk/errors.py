"""Exception hierarchy shared by all symwalk engines.

Exit codes used by the CLI: 1 usage/domain, 2 internal verification
failure, 3 resource-limit refusal or missing numpy.
"""


class SymwalkError(Exception):
    exit_code = 1


class DomainError(SymwalkError):
    """Input outside an operation's mathematical domain."""


class DegenerateGeneratorError(DomainError):
    def __init__(self, message="a walk needs a nonzero generator weight off the identity class"):
        super().__init__(message)


class SupportMismatchError(DomainError):
    """Alternating-group support requested while odd classes carry mass."""


class ResourceLimitError(SymwalkError):
    """Requested n exceeds a configured cap, or a command that needs the
    literal oracle (verify, oracle) runs without numpy."""

    exit_code = 3


class ConsistencyError(SymwalkError):
    """An exact internal identity failed; signals a bug, not bad input."""

    exit_code = 2
