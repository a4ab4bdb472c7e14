"""Exact spectral engine for continuous-time quantum walks on Cayley
graphs of the symmetric group with conjugacy-class generating sets.

``import symwalk`` loads no engine: each name is imported from its home
submodule on first use (PEP 562).  The CLI imports its engines directly.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "characters": ("character", "character_hook_pcycle", "character_table",
                   "character_transposition", "dimension"),
    "errors": ("ConsistencyError", "DomainError", "ResourceLimitError", "SupportMismatchError",
               "SymwalkError"),
    "limiting": ("EigenGroups", "eigenvalue_groups", "limiting_class_distribution",
                 "table_ncycle_case", "time_averaged_distribution", "tv_distance"),
    "partitions": ("Partition", "class_size", "cycle_type", "enumerate_partitions", "transpose"),
    "walk_spectrum": ("ClassFunction", "WalkSpectrum", "class_amplitude", "class_distribution",
                      "classical_class_distribution", "ncycle_amplitude_closed_form", "spectrum"),
}
# Every public name to its home submodule; a submodule is its own home.
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_HOME[name]}")
    value = module if name in _EXPORTS else getattr(module, name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
