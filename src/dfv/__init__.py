"""Complexity of double flag varieties and tensor product decompositions."""

from .blockmodel import (
    BlockGrid,
    build_block_grid,
    chain_complexity,
    generic_orbit_complexity,
    pattern_lower_bound,
)
from .classifier import ClassificationRow, classify, diff_report, enumerate_pairs, expected_table, verify_tables
from .complexity import (
    StrippingResult,
    WeightSetPair,
    complexity,
    dimension_lower_bound,
    integer_rank,
    intersection_weight_sets,
    strip,
)
from .oracle import DecompositionTerm, tensor_oracle
from .parabolic import (
    BlockComposition,
    ParabolicPair,
    SimpleRootSubset,
    canonical_pair,
    composition_to_subset,
    subset_to_composition,
)
from .rootsys import RootSystem, RootSystemId, build_root_system, system_id
from .sections import (
    DivisorDatum,
    LatticeModel,
    decompose_complexity_one,
    decompose_example1,
    decompose_example2,
    example1_divisor_data,
    example2_divisor_data,
    section_multiplicity,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
