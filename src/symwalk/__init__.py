"""Exact spectral engine for continuous-time quantum walks on Cayley
graphs of the symmetric group with conjugacy-class generating sets."""

from .characters import (
    CharacterTable,
    character,
    character_hook_pcycle,
    character_table,
    character_transposition,
    dimension,
)
from .errors import (
    ConsistencyError,
    DomainError,
    ResourceLimitError,
    SupportMismatchError,
    SymwalkError,
)
from .limiting import (
    EigenGroups,
    eigenvalue_groups,
    limiting_class_distribution,
    table_ncycle_case,
    time_averaged_distribution,
    tv_distance,
)
from .partitions import (
    Partition,
    class_size,
    cycle_type,
    enumerate_partitions,
    transpose,
)
from .walk_spectrum import (
    ClassDistribution,
    ClassFunction,
    WalkSpectrum,
    class_amplitude,
    class_distribution,
    classical_class_distribution,
    max_ncycle_probability,
    ncycle_amplitude_closed_form,
    spectrum,
)

__version__ = "0.1.0"
