"""Online stochastic matching with nonparametric demand.

Library layout:

* :mod:`demandmatch.demand` -- demand models, instances, sampling.  Survival
  and truncated expectations are methods of ``DemandDistribution``.
* :mod:`demandmatch.linprog` -- dense one-phase simplex in one normal form
  (``b >= 0``); every LP is numpy arrays ``(c, A, b)`` from builder to solver.
* :mod:`demandmatch.relaxations` -- fluid, subset-tightened, and conditional
  LPs, with the knapsack separation oracle and cutting-plane loop.  The
  fluid LP, the subset-tightened LP's starting relaxation, the offline
  optimum in :mod:`demandmatch.oracles` (all through ``transportation_lp``)
  and the conditional LP share one builder of the capacity/demand rows.
* :mod:`demandmatch.rounding` -- lossless rounding of feasible columns into
  routing distributions with exact marginals; one replay of the stage
  decisions serves branch tracking, support expansion and sampling.
* :mod:`demandmatch.policies` -- the guaranteed threshold and horizon
  policies, contention-resolution schedules, the static-bar baseline.
  Policies run through their state objects' ``step`` methods.
* :mod:`demandmatch.oracles` -- offline optima, the optimal online DP,
  exact policy values, adversarial-order search.
* :mod:`demandmatch.experiments` -- named instance families, ratio
  experiments, CSV/Markdown reporting.
* :mod:`demandmatch.acceptance` -- the pinned verification suite.
"""

from .demand import (
    Arrival,
    ArrivalSequence,
    CorrelDemandModel,
    DemandDistribution,
    IndepDemandModel,
    Instance,
    RealizedDemand,
    StochasticHorizonModel,
    expand_unit_capacity,
    sample_demand,
    sample_horizon_path,
    sample_random_order,
    truncated_poisson,
)
from .linprog import LinearProgram, LpSolution, LpStatus, solve_lp
from .relaxations import (
    Cut,
    CutPool,
    build_fluid_lp,
    build_truncated_lp,
    separation_oracle,
)
from .rounding import (
    InfeasibleColumnError,
    Routing,
    RoundingState,
    RoutingDistribution,
    SegmentPartition,
    typeround,
    verify_marginals,
)
from .policies import (
    HorizonPlan,
    IndepAdvPlan,
    OcrsPlan,
    TraceEvent,
    best_static_threshold,
    ocrs_plan,
    plan_horizon_policy,
    plan_indep_adv_policy,
    static_threshold_value,
    trace_to_csv,
)
from .oracles import (
    OracleValue,
    exact_policy_value,
    expected_offline,
    horizon_policy_value,
    offline_optimum,
    optimal_online_dp,
    worst_case_order,
)
from .experiments import (
    ExperimentConfig,
    RatioEstimate,
    gen_counterexample,
    report,
    run_experiment,
)
from .io import InstanceFormatError, load_instance, loads_instance, parse_instance

__version__ = "0.1.0"
