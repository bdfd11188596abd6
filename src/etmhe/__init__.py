"""Event-triggered moving horizon estimation for nonlinear systems."""

from .certificate import (CertificateError, DissipationReport, IossCertificate,
                          RgesConstants, check_dissipation,
                          max_generalized_eigenvalue, min_horizon, rges_bound,
                          rges_constants)
from .harness import (BoundReport, EquivalenceReport, MetricsReport, SimConfig,
                      SimTrace, check_rges, performance_metrics,
                      run_alpha_sweep, run_closed_loop, verify_proposition1)
from .mhe import (MheSolution, MheWindow, assemble_event_solution,
                  cost_residuals, eval_cost, open_loop_predict, rollout,
                  solve_nlp)
from .model import (Box, ConfigurationError, DisturbanceBounds, SystemModel,
                    batch_reactor, output, sample_disturbance, step)
from .trigger import (EtmState, TriggerError, advance, compute_d, evaluate_trigger,
                      extend)

__version__ = "0.1.0"
