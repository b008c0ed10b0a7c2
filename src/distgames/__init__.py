"""Games whose payoffs are probability distributions.

Finitely supported distributions are compared through stochastic
orders (expectation, usual stochastic, moment-tail, and a tweakable
segment order), games over them reduce to vector-payoff games solved
lexicographically or through Pareto scalarization, and counterexample
generators certify the boundaries of those reductions.
"""

from .dist import (DiscreteDistribution, OrderResult, Partition, as_partition,
                   cdf, common_support_mass_vectors, compare_expectation,
                   compare_usual_stochastic, cumulative_tail_expectations,
                   dirac, distribution_from_json, distribution_to_json,
                   mass_vector, merge_weighted, mixture, moment,
                   new_distribution, new_partition, partition_from_utility,
                   rlex_compare, segment_expectations, tail_compare,
                   tweakable_compare)
from .moments import (check_completely_monotonic, check_interval_condition,
                      check_nonneg_differences, delta, delta_b,
                      dominance_index, first_violation,
                      geometric_family_moment)
from .game_core import (BimatrixGame, DistributionBimatrixGame, MixedProfile,
                        VectorBimatrixGame, common_support, from_real_game,
                        mixed_payoff, negates, new_bimatrix,
                        new_distribution_game, new_profile, new_vector_game,
                        projection, pure_payoffs, pure_profile, shape,
                        some_deviation_beats, subgame,
                        to_probability_vector_game, top_projection)
from .solve_real import (EquilibriumReport, FPRecord, SolveOutcome,
                         best_response_set, dominant_solution,
                         fictitious_play, is_epsilon_equilibrium,
                         pure_equilibria, support_enumeration,
                         zero_sum_value)
from .rlex_solve import (EQUILIBRIA, INDETERMINATE, NO_EQUILIBRIUM,
                         RlexDecision, check_all_coordinates_condition,
                         check_subgame_condition, decide_rlex_equilibria,
                         decide_tail_equilibria, verify_rlex_equilibrium)
from .pareto import (SweepRecord, new_weight_vector, pareto_minimal,
                     pareto_nash, scalarize, segment_game, sweep_csv,
                     verify_pareto_nash, weight_sweep)
from .construct import (AlternationCertificate, ShiftTermCertificate,
                        TruncatedAtomSequence, alternating_moment_pair,
                        geometric_tail_family, new_truncated_sequence,
                        shift_construction, verify_alternation_certificate,
                        verify_cdf_alternation)
from .mc import (TrialSummary, estimate_pure_probability,
                 estimate_rlex_probability, formula_pure_bimatrix,
                 formula_pure_zero_sum, mc_csv, random_bimatrix)
from . import errors

__version__ = "0.1.0"
