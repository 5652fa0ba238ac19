"""Deterministic lab for open-system sensing fidelity and adaptive resilience.

Simulated nodes perceive drifting environment figures through imperfect
channels, self-check timeliness contracts on the resulting error traces,
and respond with corrective behaviors of graded sophistication — alone or
socially over a shared correction budget. An adaptive controller trades a
cheap elastic mode against a resilient one and learns, shock by shock,
which recovery strategy works in which regime; the per-episode cost trend
then grades the whole system Fragile, Robust, or Antifragile.
"""

from .behavior import (
    ActiveNonPurposeful,
    Behavior,
    CorrectiveAction,
    Observation,
    Passive,
    Predictive,
    PurposefulNonTeleological,
    Reactive,
)
from .collective import (
    NeedyRanking,
    ResourcePool,
    SocialAction,
    SocialBehavior,
    apply_social_action,
    decide_social_action,
    diversity_score,
)
from .controller import (
    LearningSpec,
    LearningState,
    Mode,
    ModeController,
    MonitorState,
    Safety,
    SafetyPredicate,
    Strategy,
    StrategyKind,
    assess_safety,
    monitor_step,
)
from .engine import (
    AntifragilityReport,
    ChannelSpec,
    ContractSpec,
    ControllerSpec,
    FigureSpec,
    NodeSpec,
    NodeTrace,
    PoolSpec,
    RecoveryMetrics,
    RunResult,
    Scenario,
    Verdict,
    antifragility_score,
    check_run,
    compute_recovery_metrics,
    enact_strategy,
    run_scenario,
    validate_resume,
    validate_scenario,
)
from .environment import (
    Constant,
    DriftProcess,
    EnvState,
    LinearDrift,
    RandomWalk,
    Regime,
    RegimeSwitching,
    ShockEvent,
    apply_shock,
    label_regime,
    step_environment,
)
from .errors import (
    CatalogError,
    ConfigurationError,
    ContractFreeError,
    FidelityLabError,
    GridAlignmentError,
    InsufficientDataError,
    MembershipError,
    SequencingError,
)
from .identity import (
    ContractGroup,
    ContractStatus,
    DetectorConfig,
    IdentityClass,
    IdentityFailureDetector,
    IdentityFailureEvent,
    IdentityKind,
    WindowRing,
    check_contract,
    classify_trace,
)
from .reflection import (
    DeltaSample,
    Quale,
    ReflectiveMap,
    preservation_distance,
    quantize,
    sense,
    tracking_error,
)

__version__ = "0.1.0"
