"""Goal-directed association rule mining over bit-code encoded tables.

Rows become unbounded ints (one bit per binary property), records are
grouped by goal class, and rules X => Goal_k are searched by growing
premises along ascending bit positions under correlation control.
"""

from .errors import ConfigError, DataError, MissingValueError
from .preprocess import (
    ColumnDescriptor,
    PartitionedDatabase,
    Property,
    PropertyCatalog,
    build_catalog,
    database_from_dict,
    database_to_dict,
    decode,
    dump_database,
    encode_row,
    load_database,
    parse_description,
    preprocess,
    preprocess_csv,
    read_table,
    replicate,
    validate_descriptors,
)
from .metrics import (
    CriteriaWeights,
    RuleMetrics,
    SupportResult,
    UNIT_WEIGHTS,
    compute_metrics,
    quality,
    recommended_min_correlation,
    support,
)
from .engine import (
    MiningConfig,
    Rule,
    RuleSet,
    create_candidates,
    mine,
    mine_negative,
)

__version__ = "0.1.0"

__all__ = [
    "ColumnDescriptor",
    "ConfigError",
    "CriteriaWeights",
    "DataError",
    "MiningConfig",
    "MissingValueError",
    "PartitionedDatabase",
    "Property",
    "PropertyCatalog",
    "Rule",
    "RuleMetrics",
    "RuleSet",
    "SupportResult",
    "UNIT_WEIGHTS",
    "build_catalog",
    "compute_metrics",
    "create_candidates",
    "database_from_dict",
    "database_to_dict",
    "decode",
    "dump_database",
    "encode_row",
    "load_database",
    "mine",
    "mine_negative",
    "parse_description",
    "preprocess",
    "preprocess_csv",
    "quality",
    "read_table",
    "recommended_min_correlation",
    "replicate",
    "support",
    "validate_descriptors",
]
