"""Last-iterate learning dynamics in discretized bargaining games.

Simulation and verification engine for regularized-leader self-play in the
one-shot ultimatum game and the two-round alternating bargaining game:
projections, learning dynamics, equilibrium certification, recurrence
oracle, threat detection, and initial-strategy meta-game analysis.
"""

from .games import (
    FIRM,
    WORKER,
    ActionGrid,
    TwoRoundGame,
    UltimatumGame,
    build_treeplex,
    firm_vertex_plan,
    pure_strategy,
    two_round_feedback,
    ultimatum_feedback,
    uniform_strategy,
    utility_ultimatum,
    worker_vertex_plan,
)
from .geometry import (
    StructuralError,
    Treeplex,
    TreeplexProjector,
    project_simplex,
    project_simplex_exact,
)
from .learner import LearnerConfig, MonitorSuite, Trajectory, run_dynamics
from .analysis import (
    EquilibriumCertificate,
    RecurrenceOutcome,
    RecurrenceParams,
    ThreatReport,
    best_response_firm,
    best_response_worker,
    certify_epsilon_ne,
    check_eq3,
    classify_recurrence,
    continuous_br_gap,
    detect_threats,
    recurrence_params,
)
from .metagame import MinimaxSolution, SweepResult, minimax_solve, summarize, sweep_initials

__version__ = "0.1.0"
