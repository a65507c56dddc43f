"""Edit distance accelerated by grammar compression.

Represent each input string as a straight-line program, partition the
dynamic-programming grid into blocks keyed by grammar variables, build one
boundary distance table per distinct variable pair, and propagate values
through block boundaries with SMAWK column-minima passes.  The answer is
always exactly the Wagner-Fischer distance; compressible inputs just reach
it touching far fewer cells.
"""

from .block_edit import (
    RunStats,
    block_edit_distance,
    default_block_size,
    wagner_fischer,
)
from .dist import (
    DistTable,
    Repository,
    apply_inputs,
    build_direct,
    build_repository,
    merge_horizontal,
    merge_vertical,
)
from .monge import (
    brute_column_minima,
    is_monge,
    smawk_column_minima,
    substitute_infinities,
)
from .partition import (
    COMPOSITE,
    EXACT,
    InvariantViolation,
    Part,
    StringPartition,
    association_map,
    key_variables,
    partition_string,
)
from .scoring import ScoringError, ScoringFunction, levenshtein
from .slp import (
    Slp,
    SlpError,
    expand,
    fibonacci_prefix_slp,
    from_plain,
    lz78_parse,
    lz78_to_slp,
    repair,
    slp_from_productions,
    var_length,
)

__version__ = "0.1.0"

__all__ = [
    "COMPOSITE",
    "DistTable",
    "EXACT",
    "InvariantViolation",
    "Part",
    "Repository",
    "RunStats",
    "ScoringError",
    "ScoringFunction",
    "Slp",
    "SlpError",
    "StringPartition",
    "apply_inputs",
    "association_map",
    "block_edit_distance",
    "brute_column_minima",
    "build_direct",
    "build_repository",
    "default_block_size",
    "expand",
    "fibonacci_prefix_slp",
    "from_plain",
    "is_monge",
    "key_variables",
    "levenshtein",
    "lz78_parse",
    "lz78_to_slp",
    "merge_horizontal",
    "merge_vertical",
    "partition_string",
    "repair",
    "slp_from_productions",
    "smawk_column_minima",
    "substitute_infinities",
    "var_length",
    "wagner_fischer",
]
