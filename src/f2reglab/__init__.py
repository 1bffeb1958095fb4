"""Fourier regularity laboratory over F2^n.

Exact GF(2) linear algebra, Walsh-Hadamard spectra of bounded functions
on cosets, regularity scans and energy-increment decomposition, tower-
type lower-bound instances with per-coset irregularity certificates,
and randomized rounding to binary functions.
"""

__version__ = "0.1.0"

from .decompose import (
    DecompositionError,
    DecompositionTrace,
    energy,
    find_regular_subspace,
)
from .fourier import (
    CosetSpectrum,
    FunctionTable,
    RegularityReport,
    as_fraction,
    check_subspace_regularity,
    restricted_coefficient,
    restricted_spectrum,
    wht_full,
)
from .gf2 import (
    DEFAULT_DENSE_LIMIT,
    AffineSubspace,
    BlockStructure,
    DenseLimitError,
    DimensionMismatchError,
    F2Vector,
    Subspace,
    enumerate_all_subspaces,
)
from .instance import (
    Instance,
    RetryLimitError,
    SpanningCheck,
    TowerOverflowError,
    TowerParams,
    TowerValue,
    XiFamily,
    block_dims,
    build_function_table,
    build_xi,
    custom_params,
    eval_pointwise,
    generate_spanning_family,
    term_indicator_table,
    tower_value,
    verify_spanning_family,
    verify_spanning_family_sampled,
)
from .reports import emit_report
from .rounding import (
    RoundingReport,
    deviation_report,
    round_to_binary,
    sample_pairs,
)
from .tableio import (
    MalformedHeaderError,
    TableFormatError,
    TruncatedPayloadError,
    ValueRangeError,
    read_table,
    write_table,
)
from .witness import (
    ClaimViolationError,
    LowerBoundReport,
    WitnessCertificate,
    bad_fraction,
    corollary_fraction,
    exhaustive_lowerbound_check,
    gamma_character,
    minimal_active_block,
    w_average_coefficient,
    w_subspace,
    witness_scan,
)
