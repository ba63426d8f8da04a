"""A-priori-estimate audits over solved height fields.

Every quantity the curvature-bound machinery manipulates is computed
here on actual solver output and checked against what can be checked:

* the log test function Q = ln kappa_1 - N ln nu, whose maximum location
  drives the interior estimate;
* the uniform positive lower bound on the vertical normal component,
  held on every domain to half the cap value lam that nu takes on the
  ideal boundary;
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
from .geometry import RadialHeightField, exact_cap, nu_identity_batch
from .solver import SolutionField

__all__ = [
    "AuditConfig", "EstimateReport", "NuLowerBoundReport",
    "CurvatureBoundReport", "RWSolutionReport", "IdentityAuditReport",
    "test_function_field", "nu_lower_bound_check", "curvature_bound_check",
    "rw_min_k_on_path", "rw_on_path", "rw_on_solution", "nu_identity_audit",
    "estimate_report",
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
    # per-node Q, for per-node output; io.write_json leaves it out
    q: np.ndarray = field(repr=False, compare=False, metadata={"json": False})
    q_sweep: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NuLowerBoundReport:
    eps_values: tuple
    minima: tuple
    floor: float
    oracle: float
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
    """samples radii were checked, skipped fell in the rim margin, and
    partial_frames of the samples had a partially degenerate frame, so
    only their frame-free identity was checked."""

    samples: int
    skipped: int
    partial_frames: int
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


def _require_path(solutions, who: str) -> list:
    """solutions as a list, held to the path rule of nu_lower_bound_check."""
    solutions = list(solutions)
    if not solutions:
        raise AuditPreconditionError(f"{who} needs fields")
    first = solutions[0]
    for f in solutions:
        _require_solution(f, who)
        if f.domain != first.domain \
                or f.convergence.sigma != first.convergence.sigma:
            raise AuditPreconditionError(
                f"{who} fields must share (n, domain, sigma)")
    return solutions


def _near_boundary(solution: SolutionField) -> np.ndarray:
    """Boundary-adjacent mask; adjacency means within one cell."""
    return np.asarray(solution.meta["near_boundary"], dtype=bool)


def _kappa_maxima(solution: SolutionField) -> tuple[float, float, float]:
    """Largest |kappa| off and on the boundary-adjacent nodes, and the
    witness max_interior - BOUND_C2 * max_boundary."""
    near = _near_boundary(solution)
    # rows are sorted descending, so |kappa| peaks at one of the end columns
    sp = solution.spectra
    amax = np.maximum(sp[:, 0], -sp[:, -1])
    interior, boundary = float(amax[~near].max()), float(amax[near].max())
    return interior, boundary, interior - BOUND_C2 * boundary


def _log_terms(solution: SolutionField, who: str):
    """(ln kappa_1, ln nu) per node, the two terms of every Q."""
    _require_solution(solution, who)
    k1 = solution.spectra[:, 0]
    if not (k1 > 0.0).all():
        raise AuditPreconditionError(
            "top principal curvature must be positive at every node "
            "(forced by F^ii kappa_i = (n-1) sigma > 0 on solutions)")
    return np.log(k1), np.log(solution.nu_vertical)


def test_function_field(solution: SolutionField,
                        config: AuditConfig) -> np.ndarray:
    """Per-node Q = ln kappa_1 - N ln nu."""
    log_k1, log_nu = _log_terms(solution, "test_function_field")
    return log_k1 - config.N * log_nu


def _q_summary(q: np.ndarray, solution: SolutionField):
    near = _near_boundary(solution)
    idx = int(np.argmax(q))
    loc = solution.nodes[idx]
    loc = tuple(np.atleast_1d(loc).astype(float).tolist())
    region = "boundary" if near[idx] else "interior"
    q_boundary = float(q[near].max()) if near.any() else float("-inf")
    return float(q.max()), loc, region, q_boundary


def nu_lower_bound_check(solutions) -> NuLowerBoundReport:
    """Uniform positive floor for the vertical normal component.

    The oracle is the cap value lam = (sigma/n)^(1/(n-1)) on every
    domain: at u = 0 every kappa_i equals nu, so sigma_{n-1} = n nu^(n-1)
    = sigma forces nu = lam on the ideal boundary of any Gamma.  The
    floor over the schedule must stay above half of it.  (nu = 1/w is
    positive at every node of every field, so a bare positivity test
    could not fail.)

    The fields must form one path: at least one, each converged and
    cone_ok, all on one DomainSpec (compared whole, so radius and
    semi-axes count) at one sigma, else AuditPreconditionError.
    """
    solutions = _require_path(solutions, "nu_lower_bound_check")
    eps_values = tuple(f.convergence.eps_bdry for f in solutions)
    minima = tuple(float(f.nu_vertical.min()) for f in solutions)
    floor = min(minima)
    first = solutions[0]
    oracle = exact_cap(first.domain.n, first.convergence.sigma, 1.0).lam
    return NuLowerBoundReport(eps_values=eps_values, minima=minima,
                              floor=floor, oracle=oracle,
                              ok=floor >= 0.5 * oracle)


def curvature_bound_check(solutions) -> CurvatureBoundReport:
    """Interior curvature bounded by the boundary maximum, frozen line.

    witness = max_kappa_interior - BOUND_C2 * max_kappa_boundary must
    stay at or below BOUND_C1 for every field, and the interior maximum
    must drift by less than 10% across the last two boundary heights.
    The fields must form one path, as in nu_lower_bound_check.
    """
    solutions = _require_path(solutions, "curvature_bound_check")
    interior_maxima, boundary_maxima, witnesses = zip(
        *map(_kappa_maxima, solutions))
    ok = all(w <= BOUND_C1 for w in witnesses)
    drift = None
    if len(solutions) >= 2:
        last, prev = interior_maxima[-1], interior_maxima[-2]
        drift = abs(last - prev) / abs(last)
        ok = ok and drift < STABILITY_DRIFT_LIMIT
    return CurvatureBoundReport(
        eps_values=tuple(f.convergence.eps_bdry for f in solutions),
        interior_maxima=interior_maxima,
        boundary_maxima=boundary_maxima,
        witnesses=witnesses, c1=BOUND_C1, c2=BOUND_C2, drift=drift, ok=ok)


def _rw_sample_indices(solution: SolutionField, cap: int) -> np.ndarray:
    candidates = np.where(~solution.boundary)[0]
    stride = max(1, -(-candidates.size // cap))
    return candidates[::stride][:cap]


def _rw_search(fields, config: AuditConfig, who: str):
    """rw_min_k_on_path's samples, and the RWForm of their stacked rows."""
    fields = _require_path(fields, who)
    picks = [_rw_sample_indices(f, config.rw_sample_cap) for f in fields]
    rows = np.concatenate([f.spectra[idx] for f, idx in zip(fields, picks)])
    min_k, form = cones.ren_wang_min_k_batch(rows, config.eps_rw,
                                             return_form=True)
    per_field = np.split(min_k, np.cumsum([idx.size for idx in picks])[:-1])
    samples = [(idx, k, float(k.max()) if np.isfinite(k).all()
                else float("inf")) for idx, k in zip(picks, per_field)]
    return samples, form


def rw_min_k_on_path(fields, config: AuditConfig) -> list[tuple]:
    """(indices, min_k, min_k_max) per field, from one K search.

    Each field samples its own non-boundary rows (indices), and min_k is
    their minimal K.  min_k_max is the worst (largest) of them when all
    are finite, else inf: monotonicity in K makes it the natural joint
    constant for the field, at which rw_on_path certifies.  The rows of
    all the fields go through ren_wang_min_k_batch as one stack, which
    treats every row on its own, so each K has the bits of a separate
    call per field.  No eigvalsh check runs here.  The fields must form
    one path (_require_path).
    """
    return _rw_search(fields, config, "rw_min_k_on_path")[0]


def rw_on_path(fields, config: AuditConfig) -> list[RWSolutionReport]:
    """Certify the quadratic-form inequality on each field's sampled
    spectra: rw_min_k_on_path, then one eigvalsh check for all the fields.

    Every sampled node must certify at its field's min_k_max.  The check
    of M(K) runs once on the rows of the fields whose K are all finite,
    each row at its own field's K, and treats every row on its own, so
    each report has the bits of rw_on_solution on its field.
    """
    samples, form = _rw_search(fields, config, "rw_on_path")
    sizes = [idx.size for idx, _, _ in samples]
    # eigvalsh on M(min_k_max) checks the closed form independently
    k_row = np.repeat([top for _, _, top in samples], sizes)
    checked = np.isfinite(k_row)
    certified = np.zeros(k_row.size, dtype=bool)
    certified[checked] = cones._certified_batch(cones.RWForm(
        form.A[..., checked], form.b[:, checked]).matrices(
            k_row[checked]))[0]
    reports = []
    for (idx, k, top), cert in zip(samples, np.split(certified,
                                                     np.cumsum(sizes)[:-1])):
        at_max = math.isfinite(top) and bool(cert.all())
        reports.append(RWSolutionReport(
            sampled=int(idx.size),
            min_k_low=float(k.min()),
            min_k_median=float(np.median(k)),
            min_k_max=top,
            certified_at_max=at_max,
            ok=at_max,
            indices=idx, min_k=k))
    return reports


def rw_on_solution(solution: SolutionField,
                   config: AuditConfig) -> RWSolutionReport:
    """rw_on_path on the one field solution: its sampled spectra
    certified at the largest minimal K of the sample."""
    return rw_on_path([solution], config)[0]


def _radial_interpolant(solution: SolutionField) -> RadialHeightField:
    # imported here: scipy.interpolate drags in scipy.special/optimize/fft
    from scipy.interpolate import InterpolatedUnivariateSpline

    r = np.asarray(solution.nodes, dtype=float).ravel()
    u = np.asarray(solution.u, dtype=float)
    # even extension through the axis keeps the interpolant smooth at 0
    r_ext = np.concatenate([-r[:0:-1], r])
    u_ext = np.concatenate([u[:0:-1], u])
    sp = InterpolatedUnivariateSpline(r_ext, u_ext, k=5)
    return RadialHeightField(sp, sp.derivative(1), sp.derivative(2),
                             solution.domain.n)


def nu_identity_audit(solution: SolutionField,
                      config: AuditConfig) -> IdentityAuditReport:
    """Derivative identities of nu re-measured on the solved profile.

    The solved heights are interpolated by a quintic spline (the
    identities involve second derivatives; the interpolant must not add
    a noise floor above the finite-difference truncation term) and the
    identity residuals are evaluated at a deterministic radius sample at
    fd_step and fd_step/2 to expose the refinement order.  Both steps at
    every radius are one nu_identity_batch; each radius's residuals are
    those of nu_identity_residuals there, to rounding.
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

    stride = max(1, (r.size - 1) // IDENTITY_SAMPLES)
    radii = r[:-1:stride]
    margin = 2.0 * config.fd_step * max(1.0, u_max)
    keep = radii <= R - margin
    skipped = int((~keep).sum())
    radii = radii[keep]

    x = np.zeros((radii.size, solution.domain.n))
    x[:, 0] = radii
    batch = nu_identity_batch(surface, x,
                              (config.fd_step, config.fd_step / 2.0))
    sup1, sup2 = (float(max(np.abs(a[k]).max(initial=0.0)
                            for a in (batch.first, batch.gradient,
                                      batch.second)))
                  for k in (0, 1))
    order = math.log2(sup1 / sup2) if sup1 > 0.0 and sup2 > 0.0 else float("nan")
    return IdentityAuditReport(
        samples=int(radii.size), skipped=skipped,
        partial_frames=int(batch.partial.sum()),
        sup_residual=sup1, sup_residual_half_step=sup2,
        refinement_order=order, fd_step=config.fd_step)


def estimate_report(solution: SolutionField, config: AuditConfig,
                    sweep_exponents=Q_SWEEP_EXPONENTS,
                    rw_min_k_max: float | None = None) -> EstimateReport:
    """Headline estimate quantities for one solved field.

    `rw_min_k_max` is this field's joint minimal K at this config, as
    `rw_min_k_on_path` or `rw_on_path` finds it (the sweep passes the
    former's, one K search per path; `audit_bundle` its
    `rw_on_solution` report's).  When not given, it comes from
    `rw_min_k_on_path` on this field alone.  No verdict is read here, so
    no eigvalsh check runs.
    """
    log_k1, log_nu = _log_terms(solution, "estimate_report")
    max_kappa_interior, max_kappa_boundary, witness = _kappa_maxima(solution)
    q = log_k1 - config.N * log_nu
    q_max, q_argmax, region, q_boundary = _q_summary(q, solution)
    if rw_min_k_max is None:
        rw_min_k_max = rw_min_k_on_path([solution], config)[0][2]
    q_sweep = {}
    for expo in sweep_exponents:
        qm, _, reg, qb = _q_summary(log_k1 - expo * log_nu, solution)
        q_sweep[expo] = {"q_max": qm, "q_boundary_max": qb,
                         "argmax_region": reg}
    return EstimateReport(
        max_kappa_interior=max_kappa_interior,
        max_kappa_boundary=max_kappa_boundary,
        nu_min=float(solution.nu_vertical.min()),
        q_max=q_max, q_argmax=q_argmax, q_argmax_region=region,
        q_boundary_max=q_boundary,
        rw_min_k_max=rw_min_k_max,
        bound_constant_witness=witness,
        q=q, q_sweep=q_sweep)


def audit_bundle(fields, config: AuditConfig) -> dict:
    """All audits over one continuation run (list of per-eps fields).

    The fields must form one path; nu_lower_bound_check holds them to it
    before the last field is read.  Returns plain dict material for JSON
    emission; `ok` aggregates the checks that carry a pass/fail meaning.
    """
    fields = list(fields)
    nu_rep = nu_lower_bound_check(fields)
    final = fields[-1]
    bound_rep = curvature_bound_check(fields)
    rw_rep = rw_on_solution(final, config)
    est = estimate_report(final, config, rw_min_k_max=rw_rep.min_k_max)
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
