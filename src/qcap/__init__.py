"""Converse bounds on quantum-channel capacity via conic programming.

Submodules:

- ``matops``: dense operator algebra over tensor factors
- ``channels``: Kraus channels, Choi matrices, named families, serialization
- ``conic``: structured conic programs and the interior-point solver
- ``symmetry``: a channel's phase sectors, on which the one-shot programs are stated
- ``oneshot``: one-shot code fidelity SDPs and converse-bound family
- ``asymptotic``: strong-converse rate bounds and entanglement measures
- ``depolarizing_lp``: symmetry-reduced linear programs for depolarizing powers
- ``cli``: command-line experiment runners
"""
from . import asymptotic, channels, conic, depolarizing_lp, matops, oneshot, symmetry
from .results import BoundResult

__version__ = "0.1.0"
