"""Exact per-regime decrease certificates for DCA with one hypoconvex term."""

__version__ = "0.1.0"

from .curvature import (Curvature, DcParams, InvalidParams, make_params,
                        recip, validate)
from .regimes import (AsymptoticConstants, RegimeCertificate, ThresholdValues,
                      asymptotic_constants, classify, one_step_certificate,
                      regime_map, thresholds)
from .oracles import (AbsPlusQuadratic, DcInstance, FunctionSpec,
                      MaxOfQuadratics, OracleAnswer, Quadratic,
                      analytic_infimum, evaluate, make_instance,
                      solve_dca_subproblem)
from .engine import Trajectory, TrajectoryPoint, run_dca, t_measure
from .interpolation import (InterpReport, Triplet, check_interpolation,
                            make_triplet, pair_lower_bound, sample_triplets)
from .certificates import (MissingFstar, OneStepCheck, RatePrediction,
                           certificate_report, check_nonsmooth_rate,
                           check_one_step, check_rate,
                           replay_proof_combination)
from .probe import (InfeasibleConstruction, PepVariables, ProbeResult,
                    extremal_instance, probe, ratio_trend)
