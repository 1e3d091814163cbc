"""Kneser graph of plane-solid flags in PG(6,q): exact counts, extremal
independent-set constructions, verification checkers and brute-force
counting oracles."""

__version__ = "0.1.0"

from .galois import FieldTable, SUPPORTED_ORDERS, build_field
from .projective import (PatternCodec, Subspace, dualize, enumerate_subspaces,
                         intersect_trivially, meet, point_bitset,
                         point_indexer, rref_patterns, span,
                         subspace_from_text, subspace_to_text)
from .counting import (REGISTRY, chromatic_lower_poly, chromatic_upper_poly,
                       chromatic_upper_trivial, complement_count, evaluate,
                       ekr_planes_max, formulas_report, gaussian,
                       independence_number_expanded,
                       independence_number_formula, lambda_family_size,
                       line_meeting_planes_max,
                       plane_disjoint_solid_meeting_bound,
                       planes_meeting_two_solids_bound,
                       planes_meeting_two_solids_exact, s, s_count,
                       solids_meeting_three_planes_bound,
                       type3_independence, type3_second_largest,
                       universe_size_formula)
from .flags import (Flag, FlagSet, FlagUniverse, adjacency_scan, adjacent,
                    build_universe, dualize_flag, export_dimacs,
                    general_position, load_flagset, save_flagset)
from .constructions import (GIVEN_FAMILIES, LAMBDA_KINDS, ColoringScheme,
                            LambdaSpec, build_coloring_scheme, build_lambda,
                            build_line_meeting_plane_family, canonical_frame,
                            count_lambda, realize_coloring,
                            trivial_coloring_scheme)
from .verify import (CheckResult, PreconditionError, SaturationProfile,
                     VerificationReport, check_coloring,
                     check_disjoint_plane_meeting_solid,
                     check_hyperplane_trace_ekr, check_independent,
                     check_maximal, check_point_trace_ekr, check_saturation,
                     chromatic_lower_report, max_flags_per_solid,
                     saturation_profile)
from .oracle import (OracleResult, ThreePlanesConfig, TwoSolidsConfig,
                     canonical_three_planes_config, canonical_two_solids_config,
                     complement_count_check, count_planes_meeting_two_solids,
                     count_skew_constrained, count_solids_meeting_three_planes,
                     line_meeting_family_check, random_subspace,
                     sample_skew_pair, sample_three_planes_config,
                     sample_two_solids_config, skew_count_grid,
                     skew_count_tuples)

__all__ = [name for name in dir() if not name.startswith("_")]
