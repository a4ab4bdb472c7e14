"""Resource caps guarding the exponential-size computations.

Every resource limit is decided here.  The ``SYMWALK_MAX_N`` environment
variable, when set, replaces every cap on n; it is the only override.
"""

from __future__ import annotations

import os

from .errors import ResourceLimitError

ENV_VAR = "SYMWALK_MAX_N"

PARTITION_CAP = 30
CHARACTER_TABLE_CAP = 14
ORACLE_CAP = 6
ORACLE_WHAT = "dense Cayley graph"  # the oracle refusal's noun, kept byte-identical
# Largest n whose n-cycle table prints; checked before rows that cost (n!)^2.
TABLE_CAP = 859

# Most time points one invocation evaluates (``--t-grid`` steps,
# ``--average`` samples and ``verify --t-samples``).  It bounds run time
# and output size, not n, so SYMWALK_MAX_N does not override it.
TIME_POINTS_CAP = 10_000


def check_cap(n: int, default: int, what: str) -> None:
    """Refuse n above the default cap, or above SYMWALK_MAX_N when set."""
    env = os.environ.get(ENV_VAR, str(default))
    try:
        cap = int(env)
    except ValueError:
        raise ResourceLimitError(f"{ENV_VAR} must be an integer, got {env!r}") from None
    if n > cap:
        raise ResourceLimitError(f"{what} for n={n} exceeds the cap of {cap}")


def check_time_points(count: int, what: str) -> None:
    if count > TIME_POINTS_CAP:
        raise ResourceLimitError(
            f"{what} of {count} exceeds the cap of {TIME_POINTS_CAP} time points"
        )
