"""Asymptotic Plateau solves for vertical graphs in the half-space model,
plus audits of the curvature-estimate machinery on the solved fields."""

from .audit import (AuditConfig, EstimateReport, audit_bundle,
                    curvature_bound_check, estimate_report,
                    nu_identity_audit, nu_lower_bound_check, rw_on_solution,
                    test_function_field)
from .cones import (CurvatureVector, cone_membership, elementary_symmetric,
                    eigenvalue_jet, negative_part_slack, ren_wang_form,
                    ren_wang_min_k, sample_cone, second_moment_slack,
                    symmetric_jet)
from .domains import (DomainSpec, domain_from_config, make_ball,
                      make_ellipsoid, make_star2d)
from .errors import (AuditPreconditionError, ConePreconditionError,
                     ConeViolationError, DegenerateSpectrumError,
                     GridDegeneracyError, HPlateauError, InvalidHeightError,
                     NewtonDivergenceError)
from .geometry import (CapSolution, GraphJet, exact_cap,
                       gauss_commutator_residuals, graph_jet, jet_from_field,
                       nu_identity_residuals)
from .gridsolver import solve_graph, solve_graph_path
from .solver import (DEFAULT_EPS_SCHEDULE, NewtonParams, PolarGridMesh,
                     RadialMesh, SolveConfig, SolutionField,
                     SphericalGridMesh, solve_radial, solve_radial_path)

__version__ = "0.1.0"

__all__ = [
    "AuditConfig", "EstimateReport", "audit_bundle", "curvature_bound_check",
    "estimate_report", "nu_identity_audit", "nu_lower_bound_check",
    "rw_on_solution", "test_function_field",
    "CurvatureVector", "cone_membership", "elementary_symmetric",
    "eigenvalue_jet", "negative_part_slack", "ren_wang_form",
    "ren_wang_min_k", "sample_cone", "second_moment_slack", "symmetric_jet",
    "DomainSpec", "domain_from_config", "make_ball", "make_ellipsoid",
    "make_star2d",
    "AuditPreconditionError", "ConePreconditionError", "ConeViolationError",
    "DegenerateSpectrumError", "GridDegeneracyError", "HPlateauError",
    "InvalidHeightError", "NewtonDivergenceError",
    "CapSolution", "GraphJet", "exact_cap", "gauss_commutator_residuals",
    "graph_jet", "jet_from_field", "nu_identity_residuals",
    "solve_graph", "solve_graph_path",
    "DEFAULT_EPS_SCHEDULE", "NewtonParams", "PolarGridMesh", "RadialMesh",
    "SolveConfig", "SolutionField", "SphericalGridMesh", "solve_radial",
    "solve_radial_path",
    "__version__",
]
