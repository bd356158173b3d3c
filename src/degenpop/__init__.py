"""Coherent population transfer in degenerate few-state systems.

Exact propagation in the eigenbasis of the shared strength matrix,
complete-transfer designs as one record (the action A(t0) and the
coupling ratios), a reference unitary integrator for the non-degenerate
equations, and a CLI front end.  The paper's closed-form populations
are test oracles, not part of the package.
"""

from .analytic import (Trajectory, amplitudes_many, flatness_frequency,
                       leakage_estimate, probabilities_at, trajectory,
                       trajectory_rows, trajectory_to_csv, write_csv)
from .control import (ControlDesign, design_3state, design_nstate, designs_to_csv,
                      enumerate_designs, pulse_for_design, target_2state)
from .coupling import (CouplingModel, standard_2state, standard_3state,
                       symmetric_nstate)
from .dressed import DressedBasis, decompose_general, eigen_residual
from .errors import (ConfigError, DegenerateSpectrum, DegenpopError,
                     DimensionTooSmall, DomainError, FirstComponentZero,
                     GridMismatch, InvalidQuantumNumbers, OutOfDomain,
                     PointwiseUndefined, Unattainable, UnresolvedTimescale)
from .numeric import compare, integrate, kick_convergence, leakage_scan
from .pulses import (DeltaKickPulse, HarmonicPulse, Pulse, RectKickPulse,
                     SampledPulse, action_values, load_sampled_csv)

__version__ = "0.1.0"

__all__ = [
    "Trajectory", "amplitudes_many", "flatness_frequency", "leakage_estimate",
    "probabilities_at", "trajectory", "trajectory_rows", "trajectory_to_csv",
    "write_csv",
    "ControlDesign", "design_3state", "design_nstate", "designs_to_csv",
    "enumerate_designs", "pulse_for_design", "target_2state",
    "CouplingModel", "standard_2state", "standard_3state", "symmetric_nstate",
    "DressedBasis", "decompose_general", "eigen_residual",
    "ConfigError", "DegenerateSpectrum", "DegenpopError", "DimensionTooSmall",
    "DomainError", "FirstComponentZero", "GridMismatch",
    "InvalidQuantumNumbers", "OutOfDomain", "PointwiseUndefined",
    "Unattainable", "UnresolvedTimescale",
    "compare", "integrate", "kick_convergence", "leakage_scan",
    "DeltaKickPulse", "HarmonicPulse", "Pulse", "RectKickPulse",
    "SampledPulse", "action_values", "load_sampled_csv",
]
