"""Joint bit/power loading for OFDM cognitive radio links that share
spectrum with primary users under statistical interference constraints."""

from .channel import (AciFactors, ChannelRealization, adaptive_simpson,
                      aci_overlap_matrix, sample_sp_gain, sample_su_channel,
                      spectral_overlap_factor)
from .constraints import (ConstraintCaps, FeasibilityReport, aci_power_cap,
                          build_caps, cci_power_cap, check_feasible)
from .discretizer import Allocation, power_for_bits, round_and_repair
from .errors import ConfigError, QuadratureError, SolverError
from .experiments import (AggregateStats, OracleComparison,
                          compare_with_oracle, run_monte_carlo, run_trial,
                          runtime_scaling, sweep_experiment, trial_rng)
from .kkt import KktReport, KktTolerances, kkt_verify
from .oracle import OracleResult, exhaustive_search
from .scenario import (ExperimentParams, PathLossParams, PuDescriptor,
                       ScenarioConfig, SuParams, apply_parameter,
                       load_scenario, path_loss_db, scenario_to_dict,
                       serialize_scenario)
from .solver import (ContinuousSolution, cnir_threshold, lambda_total_power,
                     objective_value, solve_capped, solve_continuous)

__version__ = "0.1.0"
