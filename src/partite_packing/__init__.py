"""Perfect clique packings in balanced multipartite graphs.

Generation of extremal and barrier instances, structural detection
(splittability, two-half rows, index-lattice obstructions), constructive
matching subroutines, a staged deletion pipeline whose assembled packing is
checked once by the package's one packing checker, and an exhaustive oracle
for desk-scale ground truth.
"""

from .graphs import (CliquePacking, GammaGraph, MultipartiteGraph,
                     PartitionLabeling, Vertex, blow_up, build_gamma,
                     clique_complex_edges, complete_multipartite, density,
                     graph_from_json, graph_to_json, index_set, index_vector,
                     packing_from_json, packing_to_json, partite_min_degree)
from .structure import (IntegerLattice, IterationResult, PairCompleteWitness,
                        RowDecomposition, SplitWitness, diagnose_barriers,
                        divisibility_barrier_graph, is_complete_wrt,
                        is_pair_complete, is_splittable, iterate_decomposition,
                        merge_to_minimal, min_diagonal_density,
                        robust_edge_lattice, space_barrier_graph,
                        trivial_decomposition, verify_pair_complete_witness,
                        verify_split_witness)
from .matching import (ObstructionError, ParityObstruction, SearchResult,
                       SizingObstruction, SupplyObstruction,
                       bipartite_maximum_matching,
                       exact_balanced_clique_packing, is_multigraphic,
                       pair_complete_balanced_matching, realize_multigraph,
                       regular_bipartite_perfect_matching)
from .oracle import (CanonicalFormBudgetExceeded, OracleVerdict,
                     brute_force_packing, canonical_form, check_barrier,
                     gamma_barrier, is_isomorphic_to_gamma,
                     random_min_degree_graph, verify_theorem_boundary)
from .pipeline import (BlockAssignment, DeletionLedger, GlueResult,
                       PipelineParams, RecountFailure, SolveResult,
                       StageFailure, balance_blocks, balance_columns,
                       balance_rows, building_block, classify_bad_vertices,
                       cover_and_divisibility, extend_clique,
                       fix_row_parity_and_matchability, glue_rows,
                       is_ij_distributed, is_properly_distributed,
                       prepare_multirow, solve)

__all__ = [name for name in dir() if not name.startswith("_")]
