"""Growth diagrams on Ferrers shapes.

Local growth rules (standard plus four strip-rule variants), the
set-partition and matching bijections built on them, chain statistics
(longest chains and Greene's k-chain totals), and exhaustive verifiers for
the associated symmetry theorems.
"""

from types import ModuleType as _ModuleType

from .correspondences import (Matching, PartialTableau, SetPartition,
                              all_set_partitions, conjugate_set_partition,
                              conjugate_set_partition_enhanced, cross,
                              enhanced_cross, enhanced_nest,
                              filling_to_setpartition, matching_to_oscillating,
                              min_max_blocks, min_max_from_vacillating, nest,
                              pair_to_vacillating, parse_set_partition,
                              setpartition_to_filling,
                              setpartition_to_hesitating,
                              setpartition_to_vacillating,
                              swap_chain_statistics)
from .enumeration import (InstanceTooLarge, Report, all_fillings, all_shapes,
                          check_greene, count_table, jonsson_check,
                          problem2_evidence, symmetric_shapes, verify_theorem)
from .fillings import (ARBITRARY, PARTIAL_PERMUTATION, ZERO_ONE, ChainSpec,
                       Filling, chain_spec, filling_class, filling_from_json,
                       filling_to_json, greene_totals, in_class,
                       longest_chain, transpose_filling)
from .growth import (GrowthDiagram, GrowthTableau, blow_up, border_tableau,
                     growth_tableau, label_diagram, reconstruct, shrink_back,
                     tableau_from_json, tableau_to_json)
from .local_rules import VARIANTS, Variant, get_variant
from .partitions import (conjugate, make_partition, parse_partition,
                         partitions_of, to_compact)
from .shapes import (FerrersShape, StackPolyomino, shape_from_text,
                     shape_from_word, stack_from_text, staircase)

__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
