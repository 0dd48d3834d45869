"""Sup-norm variational data assimilation for 2D incompressible flow.

The library minimizes a weighted combination of an observation misfit and
the Navier-Stokes momentum residual over stream-function/pressure controls,
in averaged regularized p-norms, and drives p toward infinity by warm-started
continuation to approximate the minimax problem.  Diagnostics verify the
stationarity relations and the measure-concentration behavior of the
dual-weighted residual fields.
"""

from .grid import GridSpec, ScalarField, VectorField
from .misfit import MisfitReport, assemble_state, gradient_from_state, report_from_state
from .norms import PExponent, WeightedSamples, dotted_lp_norm, dual_weight, holder_gap, sup_norm
from .nse import ControlVector, PhysicsSetup, reference_solve, residual_y, state_from_control
from .observation import ObservationModel, synth_data
from .optim import ContinuationSchedule, OptimOptions, minimize_E_p, run_continuation

__version__ = "0.1.0"

__all__ = [
    "GridSpec", "ScalarField", "VectorField",
    "PExponent", "WeightedSamples", "dotted_lp_norm", "sup_norm",
    "dual_weight", "holder_gap",
    "ObservationModel", "synth_data",
    "ControlVector", "PhysicsSetup", "state_from_control", "residual_y",
    "reference_solve",
    "MisfitReport", "assemble_state", "report_from_state", "gradient_from_state",
    "OptimOptions", "ContinuationSchedule", "minimize_E_p", "run_continuation",
    "__version__",
]
