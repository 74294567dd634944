"""Optimal per-iteration inexactness schedules for first-order methods with
tunable costly oracles, plus the inexact fast gradient method experiments
validating them.
"""

from .cost_models import (
    CostModel,
    CostModelError,
    h_eval,
    lambert_w0,
)
from .schedule_solver import (
    KktCertificate,
    Schedule,
    ScheduleProblem,
    SolverError,
    WorkProblem,
    accuracy_problem,
    online_extend_accuracy,
    reference_budget,
    solve_accuracy,
    solve_work,
)
from .certificates import (
    fixed_step_certificates,
    impact_coefficients_fgm,
    next_certificate,
)
from .fgm import (
    fgm_run,
    line_search_validate,
    project_simplex,
)
from .problems import (
    InnerState,
    OracleReply,
    ScenarioData,
    fista_inner,
    fista_rows,
    generate_scenarios,
    hull_oracle,
    inner_q_value_grad,
    kappa_hat,
    noisy_oracle,
    softmax_value_grad,
)
from .harness import (
    ExperimentConfig,
    baseline_schedule,
    default_config,
    emit_outputs,
    estimate_fstar,
    load_config,
    run_experiment,
    toy_instance,
)

__version__ = "0.1.0"
