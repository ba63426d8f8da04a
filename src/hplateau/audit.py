"""A-priori-estimate audits over solved height fields.

Every quantity the curvature-bound machinery manipulates is computed
here on actual solver output and checked against what can be checked:

* the log test function Q = ln kappa_1 - N ln nu, whose maximum location
  drives the interior estimate;
* the uniform positive lower bound on the vertical normal component;
* the interior-vs-boundary curvature bound with regression constants
  frozen after a calibration sweep (an existence-of-constants claim
  turned into a falsifiable one);
* the third-order-term certification sweep over solution spectra;
* the vertical-component derivative identities re-evaluated on a smooth
  interpolant of the solved profile.

Ops return small report dataclasses; nothing raises on a failed check.
Callers (CLI, tests) inspect the ok flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cones
from .errors import AuditPreconditionError
from .geometry import RadialHeightField, nu_identity_residuals
from .solver import SolutionField

__all__ = [
    "AuditConfig", "EstimateReport", "NuLowerBoundReport",
    "CurvatureBoundReport", "RWSolutionReport", "IdentityAuditReport",
    "test_function_field", "nu_lower_bound_check", "curvature_bound_check",
    "rw_on_solution", "nu_identity_audit", "estimate_report",
    "audit_bundle", "BOUND_C1", "BOUND_C2", "Q_SWEEP_EXPONENTS",
]

# Regression constants for the interior curvature bound
#     max_kappa_interior <= BOUND_C1 + BOUND_C2 * max_kappa_boundary.
# Frozen from the calibration sweep (ball and 1.3:1:1 ellipsoid at default
# meshes, sigma in {0.05, 0.5, 1.5, 2.9}, boundary heights 1e-1 .. 1e-4):
# the worst witness observed was 0.112 on the ellipsoid at sigma = 0.05,
# where the interior maximum clears the boundary-adjacent one by 0.18.
# Frozen with ~50% headroom so later runs regression-test the same line.
BOUND_C1 = 0.17
BOUND_C2 = 1.25

Q_SWEEP_EXPONENTS = (5.0, 50.0, 500.0)

# audited fields must come from a converged solve; anything looser than
# this residual is treated as not-a-solution
CONVERGED_RESIDUAL_CEIL = 1.0e-6

STABILITY_DRIFT_LIMIT = 0.10

# radii per identity audit, evenly strided: at fd_step = 1e-2, 400 move
# the sup residual < 0.1% and the order not at all (balls, n = 2..4,
# sigma 0.05..2), at ten times the cost
IDENTITY_SAMPLES = 40


@dataclass(frozen=True)
class AuditConfig:
    N: float = 50.0
    eps_rw: float = 0.1
    rw_sample_cap: int = 256
    fd_step: float = 1.0e-3

    def __post_init__(self):
        if not (self.N > 0.0):
            raise ValueError("test-function exponent N must be positive")
        if not (self.eps_rw > 0.0):
            raise ValueError("eps_rw must be positive")
        if self.rw_sample_cap < 1:
            raise ValueError("rw_sample_cap must be at least 1")
        if not (self.fd_step > 0.0):
            raise ValueError("fd_step must be positive")


@dataclass(frozen=True)
class EstimateReport:
    max_kappa_interior: float
    max_kappa_boundary: float
    nu_min: float
    q_max: float
    q_argmax: tuple
    q_argmax_region: str
    q_boundary_max: float
    rw_min_k_max: float
    bound_constant_witness: float
    q_sweep: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NuLowerBoundReport:
    eps_values: tuple
    minima: tuple
    floor: float
    oracle: float | None
    ok: bool


@dataclass(frozen=True)
class CurvatureBoundReport:
    eps_values: tuple
    interior_maxima: tuple
    boundary_maxima: tuple
    witnesses: tuple
    c1: float
    c2: float
    drift: float | None
    ok: bool


@dataclass(frozen=True)
class RWSolutionReport:
    """Ren-Wang certification on sampled solution spectra.

    indices are the sampled node indices and min_k their minimal K, for
    per-node output; io.write_json leaves both out of the JSON record.
    """

    sampled: int
    min_k_low: float
    min_k_median: float
    min_k_max: float
    certified_at_max: bool
    ok: bool
    indices: np.ndarray = field(repr=False, compare=False,
                                metadata={"json": False})
    min_k: np.ndarray = field(repr=False, compare=False,
                              metadata={"json": False})


@dataclass(frozen=True)
class IdentityAuditReport:
    samples: int
    skipped: int
    sup_residual: float
    sup_residual_half_step: float
    refinement_order: float
    fd_step: float


def _require_solution(solution: SolutionField, who: str) -> None:
    if not solution.cone_ok:
        raise AuditPreconditionError(f"{who} needs a cone_ok field")
    if not (solution.convergence.residual <= CONVERGED_RESIDUAL_CEIL):
        raise AuditPreconditionError(
            f"{who} needs a converged field (residual "
            f"{solution.convergence.residual:.3e} above "
            f"{CONVERGED_RESIDUAL_CEIL:.0e})")


def _near_boundary(solution: SolutionField) -> np.ndarray:
    """Boundary-adjacent mask; adjacency means within one cell."""
    return np.asarray(solution.meta["near_boundary"], dtype=bool)


def _kappa_maxima(solution: SolutionField) -> tuple[float, float]:
    """Largest |kappa| off and on the boundary-adjacent nodes."""
    near = _near_boundary(solution)
    amax = np.abs(solution.spectra).max(axis=1)
    return float(amax[~near].max()), float(amax[near].max())


def test_function_field(solution: SolutionField,
                        config: AuditConfig) -> np.ndarray:
    """Per-node Q = ln kappa_1 - N ln nu."""
    _require_solution(solution, "test_function_field")
    k1 = solution.spectra[:, 0]
    if not (k1 > 0.0).all():
        raise AuditPreconditionError(
            "top principal curvature must be positive at every node "
            "(forced by F^ii kappa_i = (n-1) sigma > 0 on solutions)")
    return np.log(k1) - config.N * np.log(solution.nu_vertical)


def _q_summary(solution: SolutionField, exponent: float):
    cfg = AuditConfig(N=exponent)
    q = test_function_field(solution, cfg)
    near = _near_boundary(solution)
    idx = int(np.argmax(q))
    loc = solution.nodes[idx]
    loc = tuple(np.atleast_1d(loc).astype(float).tolist())
    region = "boundary" if near[idx] else "interior"
    q_boundary = float(q[near].max()) if near.any() else float("-inf")
    return float(q.max()), loc, region, q_boundary


def nu_lower_bound_check(solutions) -> NuLowerBoundReport:
    """Uniform positive floor for the vertical normal component.

    Balls are held to the oracle: the floor over the schedule must stay
    above half the cap value lam.  Without an oracle the check is that
    the observed floor is strictly positive.
    """
    solutions = list(solutions)
    if not solutions:
        raise AuditPreconditionError("nu_lower_bound_check needs fields")
    first = solutions[0]
    for f in solutions:
        _require_solution(f, "nu_lower_bound_check")
        if f.convergence.sigma != first.convergence.sigma \
                or f.domain.kind != first.domain.kind \
                or f.domain.n != first.domain.n:
            raise AuditPreconditionError(
                "nu_lower_bound_check fields must share (n, domain, sigma)")
    eps_values = tuple(f.convergence.eps_bdry for f in solutions)
    minima = tuple(float(f.nu_vertical.min()) for f in solutions)
    floor = min(minima)
    oracle = None
    if first.domain.kind == "ball":
        n = first.domain.n
        oracle = (first.convergence.sigma / n) ** (1.0 / (n - 1))
        ok = floor >= 0.5 * oracle
    else:
        ok = floor > 0.0
    return NuLowerBoundReport(eps_values=eps_values, minima=minima,
                              floor=floor, oracle=oracle, ok=ok)


def curvature_bound_check(solutions) -> CurvatureBoundReport:
    """Interior curvature bounded by the boundary maximum, frozen line.

    witness = max_kappa_interior - BOUND_C2 * max_kappa_boundary must
    stay at or below BOUND_C1 for every field, and the interior maximum
    must drift by less than 10% across the last two boundary heights.
    """
    c1, c2 = BOUND_C1, BOUND_C2
    solutions = list(solutions)
    if not solutions:
        raise AuditPreconditionError("curvature_bound_check needs fields")
    for f in solutions:
        _require_solution(f, "curvature_bound_check")
    interior_maxima, boundary_maxima = zip(*map(_kappa_maxima, solutions))
    witnesses = tuple(i - c2 * b
                      for i, b in zip(interior_maxima, boundary_maxima))
    ok = all(w <= c1 for w in witnesses)
    drift = None
    if len(solutions) >= 2:
        last, prev = interior_maxima[-1], interior_maxima[-2]
        drift = abs(last - prev) / abs(last)
        ok = ok and drift < STABILITY_DRIFT_LIMIT
    return CurvatureBoundReport(
        eps_values=tuple(f.convergence.eps_bdry for f in solutions),
        interior_maxima=interior_maxima,
        boundary_maxima=boundary_maxima,
        witnesses=witnesses, c1=c1, c2=c2, drift=drift, ok=ok)


def _rw_sample_indices(solution: SolutionField, cap: int) -> np.ndarray:
    candidates = np.where(~solution.boundary)[0]
    stride = max(1, -(-candidates.size // cap))
    return candidates[::stride][:cap]


def rw_on_solution(solution: SolutionField,
                   config: AuditConfig) -> RWSolutionReport:
    """Certify the quadratic-form inequality on sampled solution spectra.

    Every sampled node must certify at the worst (largest) minimal K
    found across the sample; monotonicity in K makes that the natural
    joint constant for the field.
    """
    _require_solution(solution, "rw_on_solution")
    idx = _rw_sample_indices(solution, config.rw_sample_cap)
    rows = solution.spectra[idx]
    min_k = cones.ren_wang_min_k_batch(rows, config.eps_rw)
    finite = bool(np.isfinite(min_k).all())
    k_star = float(min_k.max()) if finite else float("inf")
    if finite:
        mats = cones.ren_wang_matrices(rows, config.eps_rw, k_star)
        certified, _ = cones._certified_batch(mats)
        certified_at_max = bool(certified.all())
    else:
        certified_at_max = False
    return RWSolutionReport(
        sampled=int(idx.size),
        min_k_low=float(min_k.min()),
        min_k_median=float(np.median(min_k)),
        min_k_max=k_star,
        certified_at_max=certified_at_max,
        ok=finite and certified_at_max,
        indices=idx, min_k=min_k)


def _radial_interpolant(solution: SolutionField) -> RadialHeightField:
    # imported here: scipy.interpolate drags in scipy.special/optimize/fft
    from scipy.interpolate import InterpolatedUnivariateSpline

    r = np.asarray(solution.nodes, dtype=float).ravel()
    u = np.asarray(solution.u, dtype=float)
    # even extension through the axis keeps the interpolant smooth at 0
    r_ext = np.concatenate([-r[:0:-1], r])
    u_ext = np.concatenate([u[:0:-1], u])
    sp = InterpolatedUnivariateSpline(r_ext, u_ext, k=5)
    d1 = sp.derivative(1)
    d2 = sp.derivative(2)
    dim = solution.domain.n
    return RadialHeightField(lambda s: float(sp(s)),
                             lambda s: float(d1(s)),
                             lambda s: float(d2(s)), dim)


def nu_identity_audit(solution: SolutionField,
                      config: AuditConfig) -> IdentityAuditReport:
    """Derivative identities of nu re-measured on the solved profile.

    The solved heights are interpolated by a quintic spline (the
    identities involve second derivatives; the interpolant must not add
    a noise floor above the finite-difference truncation term) and the
    identity residuals are evaluated at a deterministic radius sample at
    fd_step and fd_step/2 to expose the refinement order.
    """
    _require_solution(solution, "nu_identity_audit")
    if solution.meta.get("kind") != "radial":
        raise AuditPreconditionError(
            "identity audit interpolates radial profiles only; "
            "grid fields are not supported")
    surface = _radial_interpolant(solution)
    r = np.asarray(solution.nodes, dtype=float).ravel()
    R = float(r[-1])
    u_max = float(np.max(solution.u))
    dim = solution.domain.n

    stride = max(1, (r.size - 1) // IDENTITY_SAMPLES)
    radii = r[:-1:stride]
    margin = 2.0 * config.fd_step * max(1.0, u_max)
    keep = radii <= R - margin
    skipped = int((~keep).sum())
    radii = radii[keep]

    def sup_at(h: float) -> float:
        worst = 0.0
        for rr in radii:
            x = np.zeros(dim)
            x[0] = rr
            for s in nu_identity_residuals(surface, x, h):
                worst = max(worst, abs(s.residual))
        return worst

    sup1 = sup_at(config.fd_step)
    sup2 = sup_at(config.fd_step / 2.0)
    order = math.log2(sup1 / sup2) if sup1 > 0.0 and sup2 > 0.0 else float("nan")
    return IdentityAuditReport(
        samples=int(radii.size), skipped=skipped,
        sup_residual=sup1, sup_residual_half_step=sup2,
        refinement_order=order, fd_step=config.fd_step)


def estimate_report(solution: SolutionField, config: AuditConfig,
                    sweep_exponents=Q_SWEEP_EXPONENTS,
                    rw: RWSolutionReport | None = None) -> EstimateReport:
    """Headline estimate quantities for one solved field.

    `rw` is a report that `rw_on_solution` already made for this field
    and config; it is computed here when not given.
    """
    _require_solution(solution, "estimate_report")
    max_kappa_interior, max_kappa_boundary = _kappa_maxima(solution)
    q_max, q_argmax, region, q_boundary = _q_summary(solution, config.N)
    if rw is None:
        rw = rw_on_solution(solution, config)
    q_sweep = {}
    for expo in sweep_exponents:
        qm, _, reg, qb = _q_summary(solution, expo)
        q_sweep[expo] = {"q_max": qm, "q_boundary_max": qb,
                         "argmax_region": reg}
    return EstimateReport(
        max_kappa_interior=max_kappa_interior,
        max_kappa_boundary=max_kappa_boundary,
        nu_min=float(solution.nu_vertical.min()),
        q_max=q_max, q_argmax=q_argmax, q_argmax_region=region,
        q_boundary_max=q_boundary,
        rw_min_k_max=rw.min_k_max,
        bound_constant_witness=max_kappa_interior
        - BOUND_C2 * max_kappa_boundary,
        q_sweep=q_sweep)


def audit_bundle(fields, config: AuditConfig) -> dict:
    """All audits over one continuation run (list of per-eps fields).

    Returns plain dict material for JSON emission; `ok` aggregates the
    checks that carry a pass/fail meaning.
    """
    fields = list(fields)
    final = fields[-1]
    nu_rep = nu_lower_bound_check(fields)
    bound_rep = curvature_bound_check(fields)
    rw_rep = rw_on_solution(final, config)
    est = estimate_report(final, config, rw=rw_rep)
    bundle = {
        "estimate": est,
        "nu_lower_bound": nu_rep,
        "curvature_bound": bound_rep,
        "ren_wang": rw_rep,
        "ok": bool(nu_rep.ok and bound_rep.ok and rw_rep.ok),
    }
    if final.meta.get("kind") == "radial":
        bundle["identity"] = nu_identity_audit(final, config)
    return bundle
