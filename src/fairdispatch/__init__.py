"""Ridesharing dispatch simulator with ILP matching and fairness incentives."""

from .demand import DemandProfile, Request, load_requests, synth_requests
from .errors import (
    ConfigError,
    ContractError,
    FairDispatchError,
    InputError,
    InstanceTooLargeError,
    ParseError,
)
from .fleet import (
    Action,
    RideConstraints,
    Stop,
    VehicleState,
    advance,
    feasible_actions,
    load_fleet,
    random_fleet,
    reachable_requests,
)
from .matcher import (
    Candidate,
    Matching,
    MatchProblem,
    async_greedy_match,
    brute_force_match,
    problem_from_json,
    problem_to_json,
    solve_ilp,
)
from .metrics import (
    DriverHistory,
    EquityReport,
    PassengerHistory,
    equity_report,
    gini,
    update_driver_history,
    update_passenger_history,
)
from .network import (
    AreaPartition,
    GroupId,
    StreetNetwork,
    UNREACHABLE,
    grid_partition,
    group_of,
    load_network,
    load_partition,
    make_grid,
)
from .scoring import (
    FairnessSnapshot,
    ScoreWeights,
    ValueFunction,
    base_score,
    driver_incentive,
    fairness_snapshot,
    immediate_reward,
    passenger_incentive,
    total_score,
)
from .sim import (
    RunResult,
    SimConfig,
    build_driver_min_unfair_instance,
    build_passenger_min_unfair_instance,
    check_driver_theorem,
    check_passenger_theorem,
    run_simulation,
    sweep,
)

__version__ = "0.1.0"
