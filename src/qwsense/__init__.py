"""qwsense: split-step quantum walk defect sensing at desk scale.

Simulates a 1D split-step quantum walk whose second coin layer carries a
localized defect angle, computes the topological phase structure of the
clean walk, the Fisher information carried by the defect-site measurement
(classical, global, and quantum), and Bayesian estimation of the defect
angle, with static and dynamic coin disorder ensembles.
"""

__version__ = "0.1.0"

from .bayes import (
    EstimationConfig,
    EstimationCurve,
    EstimationRecord,
    estimation_curve,
    informative_schedule,
    posterior,
)
from .disorder import DisorderSpec, EnsembleResult, ensemble_fisher, ensemble_msre, sample_disorder
from .kernels import BACKEND
from .metrology import (
    FisherSeries,
    ScalingFit,
    averaged_fisher,
    fisher_at_defect,
    fit_scaling,
    global_fisher,
    quantum_fisher,
)
from .spectral import (
    LocalizedState,
    SpectralDecomposition,
    decompose_step_operator,
    find_localized_states,
)
from .topology import PhasePoint, phase_diagram, winding_number
from .walk import CoinField, WalkParams

__all__ = [
    "BACKEND",
    "CoinField",
    "DisorderSpec",
    "EnsembleResult",
    "EstimationConfig",
    "EstimationCurve",
    "EstimationRecord",
    "FisherSeries",
    "LocalizedState",
    "PhasePoint",
    "ScalingFit",
    "SpectralDecomposition",
    "WalkParams",
    "averaged_fisher",
    "decompose_step_operator",
    "ensemble_fisher",
    "ensemble_msre",
    "estimation_curve",
    "find_localized_states",
    "fisher_at_defect",
    "fit_scaling",
    "global_fisher",
    "informative_schedule",
    "phase_diagram",
    "posterior",
    "quantum_fisher",
    "sample_disorder",
    "winding_number",
]
