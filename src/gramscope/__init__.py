"""Reconstruction of state-measurement Gram matrices from outcome
frequencies by trace-minimization semidefinite completion."""

from .estimator import (
    GramEstimate,
    Metrics,
    SolveConfig,
    TrialConfig,
    born_table,
    estimate,
    evaluate,
    factor,
    gauge_distance,
    solve_table,
)
from .gram import (
    GramMatrix,
    Knowledge,
    gram,
    knowledge_projective,
    knowledge_relax,
    numerical_rank,
    r_qm,
    rank_certificate,
    realize,
)
from .hermitian import clip_spectrum, herm_basis, vectorize
from .solver import (
    SdpProblem,
    SolverOptions,
    SolverReport,
    solve_trace_min,
)
from .synth import DataTable, Ensemble, sample_ensemble
from .theory import rank_conjugate

__version__ = "0.1.0"

__all__ = [
    "DataTable",
    "Ensemble",
    "GramEstimate",
    "GramMatrix",
    "Knowledge",
    "Metrics",
    "SdpProblem",
    "SolveConfig",
    "SolverOptions",
    "SolverReport",
    "TrialConfig",
    "born_table",
    "clip_spectrum",
    "estimate",
    "evaluate",
    "factor",
    "gauge_distance",
    "gram",
    "herm_basis",
    "knowledge_projective",
    "knowledge_relax",
    "numerical_rank",
    "r_qm",
    "rank_certificate",
    "rank_conjugate",
    "realize",
    "sample_ensemble",
    "solve_table",
    "solve_trace_min",
    "vectorize",
]
