"""Numerical laboratory for nonlinear gravitational instability of expanding
Newtonian universes: the contrast blowup ODE and its certified envelopes, the
compactified-time diagnostics, exact-solution residual checks of the sourced
fluid system, log-periodic spherically symmetric evolution, and numeric
verification of the singular-system coefficient conditions."""

__version__ = "0.1.0"

from .params import ModelParams, build_params, k_from_iota, params_from_iota3, solve_iota
from .contrast_ode import (BoundReport, ContrastMarch, OdeTrajectory, ToleranceSpec,
                           blowup_bracket, blowup_ladder, bound_certificates,
                           envelope_constants, zero_trajectory)
from .timemaps import TimeMaps, check_G_decay, compute_g
from .reference import (FluidPoint, ResidualReport, euler_poisson_residual,
                        homogeneous_state, sample_annulus)
from .pde import FieldState, compute_psi, entropy_field, evolve, init_from_data, rhs
from .fuchsian import (ConditionReport, FuchsianEval, GammaConstants,
                       assemble_matrices, find_certified_radius,
                       fuchsian_fields, gamma_constants, q_lower_bound,
                       q_quantity, system_residual, verify_conditions)
