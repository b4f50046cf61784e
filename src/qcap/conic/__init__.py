"""Conic-program construction and the interior-point solver."""
from .program import ConicProgram, frame, shared_frames
from .solver import (
    INFEASIBLE,
    MAX_ITER,
    OPTIMAL,
    UNBOUNDED,
    ConicSolution,
    SolverError,
    solve,
    solve_all,
)

__all__ = [
    "ConicProgram",
    "frame",
    "shared_frames",
    "ConicSolution",
    "SolverError",
    "solve",
    "solve_all",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "MAX_ITER",
]
