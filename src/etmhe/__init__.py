"""Event-triggered moving horizon estimation for nonlinear systems."""

from .certificate import (DissipationReport, IossCertificate, RgesConstants,
                          check_dissipation, max_generalized_eigenvalue,
                          min_horizon, rges_bound, rges_constants)
from .harness import (BoundReport, EquivalenceReport, MetricsReport, SimConfig,
                      SimTrace, check_rges, performance_metrics,
                      run_alpha_sweep, run_closed_loop, run_closed_loop_batch,
                      verify_proposition1)
from .mhe import (MheSolution, MheWindow, assemble_event_solution, compute_d,
                  cost_residuals, eval_cost, open_loop_predict, rollout,
                  solve_nlp, solve_nlp_batch)
from .model import (Box, ConfigurationError, SystemModel, batch_reactor,
                    sample_disturbance)
from .trigger import EtmState, TriggerError, advance, evaluate_trigger, extend

__version__ = "0.1.0"
