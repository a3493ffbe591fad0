"""Passivity assessment and enforcement for scattering macromodels.

Implements the paper's Sec. III machinery: Hamiltonian-based passivity
checking, iterative residue (C-matrix) perturbation with linearized
singular-value constraints (eqs. 8-9), and Gramian-characterized quadratic
cost functions -- the standard L2 norm (eq. 10) and pluggable weighted
variants (the sensitivity-weighted cost of eqs. 18-21 lives in
:mod:`repro.sensitivity.weighted_norm`).
"""

from repro.passivity.check import (
    PassivityReport,
    ViolationBand,
    check_passivity,
    check_passivity_sampling,
)
from repro.passivity.cost import (
    BlockDiagonalCost,
    l2_gramian_cost,
    relative_error_cost,
    sampled_norm_cost,
)
from repro.passivity.enforce import (
    EnforcementOptions,
    EnforcementResult,
    enforce_passivity,
)
from repro.passivity.engine import PassivityChecker
from repro.passivity.qp import solve_block_qp

__all__ = [
    "PassivityReport",
    "ViolationBand",
    "check_passivity",
    "check_passivity_sampling",
    "PassivityChecker",
    "BlockDiagonalCost",
    "l2_gramian_cost",
    "relative_error_cost",
    "sampled_norm_cost",
    "EnforcementOptions",
    "EnforcementResult",
    "enforce_passivity",
    "solve_block_qp",
]
