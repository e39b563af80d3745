"""feedback-lab: how much structural uncertainty can feedback handle.

A simulation laboratory and numerical toolkit around the critical
thresholds of adaptive stabilization: the growth-exponent limit of the
scalar parametric loop, the characteristic-polynomial criterion for
power regressions, the Lipschitz radius of first-order nonparametric
control, sampled-data slope-times-period limits, and jump-linear
stabilizability through coupled fixed-point equations.
"""

from ._accel import backend_name
from .adversary import (PiecewiseLinearFn, RealizedPiecewiseLinear,
                        adversary_choose, feasible_interval, realize,
                        SampledAdversaryState, sampled_adversary_choose)
from .analysis import (CharPoly, CRITICAL_EXPONENT, CRITICAL_RADIUS, Regime,
                       RegimeVerdict, SAMPLED_IMPOSSIBLE_LH,
                       SAMPLED_STABILIZABLE_LH, characteristic_poly,
                       highorder_impossible, parametric_regime,
                       poly_impossible, sampled_regime,
                       scalar_mjls_stabilizable)
from .controllers import (MjlsControllerState, NnHistory, RlsState,
                          adaptive_mv_control, make_rls, mjls_control,
                          mjls_estimate_mode, nn_estimate, rls_update,
                          sampled_control, switching_control)
from .models import (GUARD, ConfigurationError, GaussianIID, MarkovChain,
                     MartingaleDiffVector, MjlsSpec, PowerGrowthFn,
                     SampledSpec, eval_power, integrate_sampled, markov_next,
                     step_mjls, step_nonparametric, step_parametric)
from .riccati import (RiccatiSolution, SolveResult, SolveStatus,
                      pseudoinverse, riccati_residual, riccati_rhs,
                      solve_coupled_riccati)
from .sim import (EpisodeVerdict, GreedyAdversary, McConfig, McReport,
                  MjlsGainControl, MjlsSystem, MvRlsControl,
                  NonparametricSystem, Outcome, ParametricSystem,
                  RandomEnvelopeMember, RandomMember,
                  SampledCeControl, SampledGreedyAdversary, SampledSystem,
                  SwitchingControl, Trajectory, ZeroControl,
                  check_replay, default_checkpoints, episode_seed,
                  growth_rate_audit, monte_carlo, recompute_input,
                  regret_logfit, replay_states, run_episode, splitmix64)

__version__ = "0.1.0"
