"""Resource caps guarding the exponential-size computations.

The ``SYMWALK_MAX_N`` environment variable, when set, overrides every
default cap; an explicit ``cap=`` argument wins over both.
"""

from __future__ import annotations

import os

from .errors import ResourceLimitError

ENV_VAR = "SYMWALK_MAX_N"

PARTITION_CAP = 30
CHARACTER_TABLE_CAP = 14
ORACLE_CAP = 6

# Most time points one invocation evaluates (``--t-grid`` steps and
# ``--average`` samples).  It bounds run time and output size, not n, so
# SYMWALK_MAX_N does not override it.
TIME_POINTS_CAP = 10_000


def effective_cap(default: int, override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get(ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ResourceLimitError(f"{ENV_VAR} must be an integer, got {env!r}") from None
    return default


def check_cap(n: int, default: int, override: int | None, what: str) -> None:
    cap = effective_cap(default, override)
    if n > cap:
        raise ResourceLimitError(f"{what} for n={n} exceeds the cap of {cap}")
