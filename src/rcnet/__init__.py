"""Exact Bayesian-network inference by recursive conditioning.

The pieces compose in order: parse a network, build and annotate a
dtree over its families, optionally compile its determinism into a
knowledge base, then run probability-of-evidence queries under any
cache policy.
"""

from .dtree import (
    DEAD,
    DISABLED,
    LIVE,
    DtreeNode,
    DtreeStats,
    annotate,
    build_dtree,
    dtree_from_json,
    dtree_from_shape,
    dtree_stats,
    dtree_to_dot,
    dtree_to_json,
    mark_dead_caches,
    min_fill_order,
    prepare_dtree,
)
from .engine import (
    CachePolicy,
    QueryResult,
    apply_policy,
    brute_force_probability,
    lookup,
    rc_query,
)
from .kb import KnowledgeBase, compile_kb
from .model import (
    Network,
    NetworkFormatError,
    NoisyOrCpt,
    TabularCpt,
    Variable,
    expand_to_table,
    parse_evidence,
    parse_network,
    serialize_network,
    validate_evidence,
)
from .randnet import random_evidence, random_network
from .spaces import SpaceReport, space_report, ve_space

__version__ = "0.1.0"
