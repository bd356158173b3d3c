"""Coherent population transfer in degenerate few-state systems.

Closed-form dressed-state propagation, complete-transfer design rules,
a reference unitary integrator for the non-degenerate equations, and a
CLI front end.
"""

from .analytic import (Trajectory, amplitudes_at, amplitudes_many,
                       delta_kick_response, flat_top_quartic,
                       flatness_frequency, leakage_estimate,
                       probabilities_2state, probabilities_at,
                       probabilities_nstate_sym, trajectory,
                       trajectory_to_csv)
from .control import (ControlDesign, design_3state, design_nstate,
                      designs_to_csv, enumerate_designs,
                      max_transfer_bound_2state, pulse_for_design,
                      target_2state, two_state_design)
from .coupling import (CouplingModel, standard_2state, standard_3state,
                       symmetric_nstate)
from .dressed import DressedBasis, decompose_general, eigen_residual
from .errors import (ConfigError, DegenerateSpectrum, DegenpopError,
                     DimensionTooSmall, DomainError, FirstComponentZero,
                     GridMismatch, InvalidQuantumNumbers, OutOfDomain,
                     PointwiseUndefined, Unattainable, UnresolvedTimescale)
from .numeric import compare, integrate, kick_convergence, leakage_scan
from .pulses import (DeltaKickPulse, HarmonicPulse, Pulse, RectKickPulse,
                     SampledPulse, action_values, load_sampled_csv, pulse_from_dict)

__version__ = "0.1.0"

__all__ = [
    "Trajectory", "amplitudes_at", "amplitudes_many", "delta_kick_response",
    "flat_top_quartic", "flatness_frequency", "leakage_estimate",
    "probabilities_2state", "probabilities_at", "probabilities_nstate_sym",
    "trajectory", "trajectory_to_csv",
    "ControlDesign", "design_3state", "design_nstate", "designs_to_csv",
    "enumerate_designs", "max_transfer_bound_2state", "pulse_for_design",
    "target_2state", "two_state_design",
    "CouplingModel", "standard_2state", "standard_3state", "symmetric_nstate",
    "DressedBasis", "decompose_general", "eigen_residual",
    "ConfigError", "DegenerateSpectrum", "DegenpopError", "DimensionTooSmall",
    "DomainError", "FirstComponentZero", "GridMismatch",
    "InvalidQuantumNumbers", "OutOfDomain", "PointwiseUndefined",
    "Unattainable", "UnresolvedTimescale",
    "compare", "integrate", "kick_convergence", "leakage_scan",
    "DeltaKickPulse", "HarmonicPulse", "Pulse", "RectKickPulse",
    "SampledPulse", "action_values", "load_sampled_csv", "pulse_from_dict",
]
