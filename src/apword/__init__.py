"""Arithmetic progressions in fixed points of constant-length substitutions."""

from .errors import ParseError, ResourceCapError, SubstitutionError
from .substitution import (
    Alphabet,
    AperiodicityResult,
    CollaredSubstitution,
    ColumnMap,
    HeightResult,
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
