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
    dump_database,
    encode_row,
    load_database,
    parse_description,
    preprocess,
    preprocess_csv,
    read_table,
)
from .metrics import (
    CriteriaWeights,
    RuleMetrics,
    compute_metrics,
    recommended_min_correlation,
)
from .engine import MiningConfig, Rule, RuleSet, mine

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
    "build_catalog",
    "compute_metrics",
    "dump_database",
    "encode_row",
    "load_database",
    "mine",
    "parse_description",
    "preprocess",
    "preprocess_csv",
    "read_table",
    "recommended_min_correlation",
]
