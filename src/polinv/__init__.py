"""Computations with clones and relational clones on finite domains.

The package covers the bounded, fully enumerable fragment of the theory:
clone closure under composition, the invariant-relations and polymorphisms
Galois maps, primitive-positive formula evaluation and definability, and
generalized diagonal relations built from partition-lattice ideals.
"""

from .clones import (
    EssentialSet,
    clone_closure,
    clone_contains,
    essential_variables,
    graph_relation,
    invariant_closure,
)
from .core import (
    Domain,
    Operation,
    OperationSet,
    Relation,
    RelationSet,
    compose,
    make_projection,
    preserves,
)
from .errors import ParseError, PolinvError, ResourceBoundError
from .galois import GaloisReport, galois_check, inv, pol
from .limits import DEFAULT_LIMITS, Limits
from .partitions import (
    Partition,
    PartitionIdeal,
    all_partitions,
    check_finitary_preservation,
    diagonal_relation,
    format_partition,
    ideal_downset,
    kernel_partition,
    parse_partition,
    partition_lattice,
)
from .pp import (
    EqualityAtom,
    PPFormula,
    RelationAtom,
    eval_pp,
    is_pp_definable,
    parse_pp,
    parse_pp_file,
    pp_closure_of,
    pp_witness,
)
from .workspace import Workspace, load_workspace

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_LIMITS",
    "Domain",
    "EqualityAtom",
    "EssentialSet",
    "GaloisReport",
    "Limits",
    "Operation",
    "OperationSet",
    "ParseError",
    "Partition",
    "PartitionIdeal",
    "PolinvError",
    "PPFormula",
    "Relation",
    "RelationAtom",
    "RelationSet",
    "ResourceBoundError",
    "Workspace",
    "all_partitions",
    "check_finitary_preservation",
    "clone_closure",
    "clone_contains",
    "compose",
    "diagonal_relation",
    "essential_variables",
    "eval_pp",
    "format_partition",
    "galois_check",
    "graph_relation",
    "ideal_downset",
    "inv",
    "invariant_closure",
    "is_pp_definable",
    "kernel_partition",
    "load_workspace",
    "make_projection",
    "parse_partition",
    "parse_pp",
    "parse_pp_file",
    "partition_lattice",
    "pol",
    "pp_closure_of",
    "pp_witness",
    "preserves",
]
