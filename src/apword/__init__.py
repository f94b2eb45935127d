"""Arithmetic progressions in fixed points of constant-length substitutions."""

import os

# apword makes no BLAS call (tests/test_blas_threads.py), yet OpenBLAS starts a
# busy-waiting worker per core when NumPy loads. Load it with one thread unless
# the user chose a count, then put the environment back as it was. NumPy
# imported before apword keeps the threads it started.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import ParseError, ResourceCapError, SubstitutionError
from .substitution import (
    Alphabet,
    AperiodicityResult,
    CollaredSubstitution,
    ColumnMap,
    RecurrenceReport,
    Substitution,
    aperiodicity_certificate,
    column,
    columns,
    height,
    induced_two_block,
    is_bijective,
    is_primitive,
    legal_words,
    min_pair_cover_power,
    parse_substitution,
    power_column,
    recurrence_constants,
    substitution_power,
)
from .stream import Coding, FixedPointSpec, factor, letter_at, letter_index_at, prefix
from .groups import (
    ColumnGroup,
    PalindromicityReport,
    WitnessReport,
    cycle_notation,
    generate_group,
    identity_column_witness,
    palindromicity,
)
from .progressions import (
    APResult,
    BoundReport,
    DifferenceFamily,
    PrefixSource,
    ScanPolicy,
    a_of_d,
    difference_families,
    max_ap_in_prefix,
    scan,
    upper_bound,
    verify_family,
)
from .spin import (
    SpinSystem,
    build_spin_substitution,
    check_recurrence,
    digit_coding,
    hadamard4,
    rudin_shapiro,
    spin_coding,
    spin_fixed_point,
    spin_letter_at,
    vandermonde,
)
from .supersub import (
    SetGraph,
    check_partition,
    export_dot,
    graph_of_sets,
    induced_partition,
    lift_column_family,
    lift_identity_family,
)
from .vdw import VdwQuery, vdw_lower, vdw_upper
from .catalog import Builtin, builtin_names, get_builtin

__version__ = "0.1.0"
