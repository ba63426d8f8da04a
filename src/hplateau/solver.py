"""Damped-Newton continuation solver for sigma_{n-1}(kappa[u]) = sigma.

The Dirichlet approximation replaces the ideal-boundary condition u = 0
by u = eps_bdry > 0 and walks eps_bdry down a schedule, warm-starting
each solve from the previous height field.  Every Newton iterate is
kept inside the ellipticity region by the cone guard: a trial step is
accepted only if u stays positive and the hyperbolic spectrum stays in
Gamma_{n-1} at every non-boundary node; otherwise the step is halved.

This module owns the config/result types, the Newton engine, the one
continuation driver (sigma walk, leg splitting and eps descent) with
the scheme interface it drives, and the rotationally reduced scheme on
ball domains.  The mapped-grid scheme lives in gridsolver.py; both
solvers are "build a scheme, run the driver", and the field-level
operations reach the scheme through SolutionField.meta["scheme"].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .cones import cone_mask_batch, elementary_symmetric_batch
from .domains import DomainSpec
from .errors import ConeViolationError, InvalidHeightError, NewtonDivergenceError
from .geometry import exact_cap

__all__ = [
    "NewtonParams",
    "RadialMesh",
    "PolarGridMesh",
    "SphericalGridMesh",
    "SolveConfig",
    "ConvergenceInfo",
    "SolutionField",
    "DEFAULT_EPS_SCHEDULE",
    "damped_newton",
    "initial_profile_slope",
    "solve_radial",
    "solve_radial_path",
    "pde_residual",
    "newton_step",
]

DEFAULT_EPS_SCHEDULE = (1.0e-1, 1.0e-2, 1.0e-3, 1.0e-4)

#: Armijo sufficient-decrease slope for the damped line search.
ARMIJO_SLOPE = 1.0e-4

#: The line search halves t from 1 and gives up below this step.
MIN_STEP = 1.0e-6

#: Residual tolerance of every continuation leg whose end is not a
#: reported field (the n/2 start of the sigma walk and the first half of
#: a split leg), applied as
#: max(NewtonParams.residual_tol, WALK_TOL).  Such a leg only has to land
#: inside Newton's basin for the next leg, whose start is moved along the
#: cap family by far more than 1e-6; Newton contracts quadratically from
#: there, so the reported fields still reach residual_tol.  Solving the
#: walk legs to residual_tol instead spends the last steps of each near
#: the float64 rounding floor, where the default-mesh n = 3 ellipsoid at
#: sigma = 0.05 stalls at 1.2e-10 on the walk half 1.5 -> 0.27, which is
#: then split and redone.
WALK_TOL = 1.0e-6

#: Depth to which _leg splits a failed leg.  The sigma walk is one leg,
#: so its points come out of this budget too: at depth 4 the 12x8x16
#: (1.3, 1, 1) ellipsoid at sigma = 0.005 and (2, 1, 1) one at 0.01 fail;
#: at 5 they solve, as does the n = 2 ball at 0.01 (splits four deep).
MAX_SPLIT_DEPTH = 5


@dataclass(frozen=True)
class NewtonParams:
    max_iters: int = 40
    residual_tol: float = 1.0e-10


@dataclass(frozen=True)
class RadialMesh:
    nodes: int = 401

    def __post_init__(self):
        if self.nodes < 5:
            raise ValueError("radial mesh needs at least 5 nodes")


@dataclass(frozen=True)
class PolarGridMesh:
    """n = 2 mapped grid: offset radial rings x angular sectors."""

    radial: int = 48
    angular: int = 64

    def __post_init__(self):
        if self.radial < 4 or self.angular < 8:
            raise ValueError("polar grid too coarse")
        if self.angular % 2:
            raise ValueError("angular count must be even")


@dataclass(frozen=True)
class SphericalGridMesh:
    """n = 3 mapped grid: offset radial rings x offset latitudes x longitudes."""

    radial: int = 20
    lat: int = 12
    lon: int = 24

    def __post_init__(self):
        if self.radial < 4 or self.lat < 4 or self.lon < 8:
            raise ValueError("spherical grid too coarse")
        if self.lon % 2:
            raise ValueError("longitude count must be even")


@dataclass(frozen=True)
class SolveConfig:
    n: int
    sigma_target: float
    eps_schedule: tuple[float, ...] = DEFAULT_EPS_SCHEDULE
    mesh: object = None
    newton: NewtonParams = NewtonParams()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not 0.0 < self.sigma_target < self.n:
            raise ValueError(
                f"sigma_target must lie in (0, {self.n}), got {self.sigma_target}")
        eps = tuple(float(e) for e in self.eps_schedule)
        if not eps:
            raise ValueError("eps_schedule must be nonempty")
        if any(e <= 0.0 for e in eps):
            raise ValueError("eps_schedule entries must be positive")
        if any(eps[i] <= eps[i + 1] for i in range(len(eps) - 1)):
            raise ValueError("eps_schedule must be strictly decreasing")
        object.__setattr__(self, "eps_schedule", eps)


@dataclass(frozen=True)
class ConvergenceInfo:
    iterations: int
    residual: float
    eps_bdry: float
    sigma: float


@dataclass
class SolutionField:
    """One converged height field with derived curvature data per node."""

    domain: DomainSpec
    nodes: np.ndarray
    u: np.ndarray
    boundary: np.ndarray
    nu_vertical: np.ndarray
    spectra: np.ndarray  # (m, n), rows sorted descending
    residual_field: np.ndarray
    convergence: ConvergenceInfo
    cone_ok: bool
    meta: dict = field(default_factory=dict)

    @property
    def interior(self) -> np.ndarray:
        return ~self.boundary


# ---------------------------------------------------------------------------
# Shared Newton engine
# ---------------------------------------------------------------------------

def _line_search(v, s, guard_fn, residual_fn, accept, stall):
    """Halve t from 1 until v + t s passes the guard and accept(norm, t)
    holds.

    Returns (trial, residual, norm).  When no t >= MIN_STEP is accepted,
    raises ConeViolationError if the guard rejected every trial and
    NewtonDivergenceError(stall) otherwise; both carry v itself.
    """
    guard_seen = False
    t = 1.0
    while t >= MIN_STEP:
        trial = v + t * s
        if guard_fn(trial):
            guard_seen = True
            Ft = residual_fn(trial)
            nt = float(np.abs(Ft).max())
            if accept(nt, t):
                return trial, Ft, nt
        t *= 0.5
    if not guard_seen:
        raise ConeViolationError("cone guard rejected every damped step",
                                 state=v)
    raise NewtonDivergenceError(stall, state=v)


def damped_newton(v0, residual_fn, guard_fn, jacobian_solver,
                  params: NewtonParams):
    """Guarded, damped Newton iteration on the unknown vector v.

    jacobian_solver(v, F) must return the Newton step s with J(v) s = -F,
    solved exactly or, for an inexact Newton step, to a relative residual
    well below 1; it may raise NewtonDivergenceError carrying v.
    Returns (v, iterations, final_residual_norm).  A step whose entire
    backtracking sweep fails the cone guard raises ConeViolationError;
    any other failure to reduce the residual raises
    NewtonDivergenceError.  Both carry the last accepted iterate.
    """
    v = np.array(v0, dtype=float)
    if not guard_fn(v):
        raise ConeViolationError(
            "initial iterate violates the positivity/cone guard", state=v)
    F = residual_fn(v)
    nrm = float(np.abs(F).max())
    for it in range(1, params.max_iters + 1):
        if nrm <= params.residual_tol:
            return v, it - 1, nrm
        s = jacobian_solver(v, F)
        v, F, nrm = _line_search(
            v, s, guard_fn, residual_fn,
            lambda nt, t: (nt <= (1.0 - ARMIJO_SLOPE * t) * nrm
                           or nt <= params.residual_tol),
            f"no residual decrease above the minimum step (residual "
            f"{nrm:.3e})")
    if nrm <= params.residual_tol:
        return v, params.max_iters, nrm
    raise NewtonDivergenceError(
        f"residual {nrm:.3e} above tol after {params.max_iters} iterations",
        state=v)


def initial_profile_slope(n: int, sigma: float) -> float:
    """Boundary growth rate sqrt(1-lam^2)/lam of the umbilic cap family."""
    lam = (sigma / n) ** (1.0 / (n - 1))
    return math.sqrt(1.0 - lam * lam) / lam


# ---------------------------------------------------------------------------
# Continuation driver
# ---------------------------------------------------------------------------

def _solve_path(scheme, config: SolveConfig) -> list[SolutionField]:
    """Continuation from a first guess to one field per scheduled eps.

    scheme is a discretization at eps_bdry = config.eps_schedule[0].  Its
    unknowns v are the heights off the Dirichlet boundary, and it
    provides

    * residual(v, sigma), guard(v) and jacobian_step(v, F): the discrete
      equation, the positivity/cone guard, and the step s solving
      J(v) s = -F (exactly on the radial side, by preconditioned GMRES
      to a relative tolerance on the grid);
    * initial_guess(sigma, eps): a first iterate inside the guard;
    * cap_height(sigma, eps): the umbilic cap family on the unknowns,
      along which a converged v is transported to a new (sigma, eps);
    * at_eps(eps): the same discretization with boundary height eps;
    * newton(v, sigma, params): damped_newton on this scheme, called
      through the scheme's own module global so that the radial and
      grid legs stay separable from outside;
    * build_field(v, sigma, iterations, residual): the SolutionField,
      holding the scheme in meta["scheme"].

    The first leg solves at sigma_target.  Extreme targets (very steep
    or very flat caps) can place every direct guess outside the cone, so
    when that leg fails the cone guard it is solved at n/2 instead and
    sigma is walked by the one leg n/2 -> sigma_target, whose splits
    pick the walk points; when the target is n/2 itself the failure is
    re-raised.  A first leg that fails with NewtonDivergenceError (a
    stall at the residual's rounding floor) is re-raised too: no walk
    moves that floor.  Every eps leg then goes through _leg.

    Only the legs that end at sigma_target, one per scheduled eps, give
    reported fields; they are solved to config.newton.residual_tol, and
    every other leg only to the basin tolerance of _walk_params.
    """
    params = config.newton
    target = config.sigma_target
    eps0 = config.eps_schedule[0]
    try:
        v, total_it, res = scheme.newton(scheme.initial_guess(target, eps0),
                                         target, params)
    except ConeViolationError:
        easy = 0.5 * config.n
        if easy == target:
            raise
        v, total_it, _ = scheme.newton(scheme.initial_guess(easy, eps0),
                                       easy, _walk_params(params))
        scheme, (v, it, res) = _leg(scheme, params, v, (easy, eps0),
                                    (target, eps0))
        total_it += it

    fields = [scheme.build_field(v, target, total_it, res)]
    for eps_a, eps_b in zip(config.eps_schedule, config.eps_schedule[1:]):
        scheme, (v, it, res) = _leg(scheme, params, v, (target, eps_a),
                                    (target, eps_b))
        fields.append(scheme.build_field(v, target, it, res))
    return fields


def _walk_params(params: NewtonParams) -> NewtonParams:
    """params for a leg whose end is not a reported field: residual_tol
    raised to WALK_TOL, a looser residual_tol kept."""
    return replace(params, residual_tol=max(params.residual_tol, WALK_TOL))


def _leg(scheme, params: NewtonParams, v, start, end, depth=0):
    """Converge from the solution v at start = (sigma, eps) to end.

    Re-pinning the boundary or moving sigma alone kinks the profile hard
    enough to leave the cone, so v is first moved along the cap family.
    A leg that fails is split at the geometric midpoint of (sigma, eps),
    its halves likewise down to MAX_SPLIT_DEPTH: the one step rule, for
    eps legs and the sigma walk alike.  The first half ends at no
    reported field and is solved to _walk_params(params); the second
    half ends where the leg does and keeps params.  Returns the scheme
    at end and (v, iterations, residual).
    """
    (sig_a, eps_a), (sig_b, eps_b) = start, end
    scheme = scheme.at_eps(eps_b)
    shift = scheme.cap_height(sig_b, eps_b) - scheme.cap_height(sig_a, eps_a)
    try:
        return scheme, scheme.newton(v + shift, sig_b, params)
    except (NewtonDivergenceError, ConeViolationError):
        if depth >= MAX_SPLIT_DEPTH:
            raise
        mid = (math.sqrt(sig_a * sig_b), math.sqrt(eps_a * eps_b))
        _, (vm, it1, _) = _leg(scheme, _walk_params(params), v, start, mid,
                               depth + 1)
        scheme, (v, it2, res) = _leg(scheme, params, vm, mid, end, depth + 1)
        return scheme, (v, it1 + it2, res)


# ---------------------------------------------------------------------------
# Rotational reduction on the ball
# ---------------------------------------------------------------------------

class _RadialScheme:
    """Second-order FD discretization of the reduced rotational problem.

    Unknowns are the heights at nodes 0..m-2 (center plus interior);
    u(R) = eps_bdry is imposed exactly at the last node.  The center
    uses the symmetry conditions u'(0) = 0, u''(0) = 2(u_1 - u_0)/h^2.
    """

    def __init__(self, domain: DomainSpec, nodes: int, eps_bdry: float):
        self.domain = domain
        self.n = domain.n
        self.m = nodes
        self.r = np.linspace(0.0, domain.radius, nodes)
        self.h = self.r[1] - self.r[0]
        self.eps_bdry = float(eps_bdry)

    def at_eps(self, eps: float) -> "_RadialScheme":
        return _RadialScheme(self.domain, self.m, eps)

    def full_height(self, v: np.ndarray) -> np.ndarray:
        return np.append(v, self.eps_bdry)

    def cap_height(self, sigma: float, eps: float) -> np.ndarray:
        return exact_cap(self.n, sigma, self.domain.radius,
                         eps).height(self.r[:-1])

    def initial_guess(self, sigma: float, eps: float) -> np.ndarray:
        return self.cap_height(sigma, eps)

    def _stencil(self, u: np.ndarray):
        """du, d2u, w = sqrt(1 + du^2), kappa_rad and kappa_ang at all m
        nodes of the full height array u.

        The center uses the symmetry conditions, where both curvatures
        equal u_0 u''(0) + 1; the boundary node uses one-sided
        second-order differences.
        """
        h, r = self.h, self.r
        du = np.empty(self.m)
        d2u = np.empty(self.m)
        du[0] = 0.0
        d2u[0] = 2.0 * (u[1] - u[0]) / h ** 2
        du[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
        d2u[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h ** 2
        du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
        d2u[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / h ** 2
        w = np.sqrt(1.0 + du ** 2)
        krad = u * d2u / w ** 3 + 1.0 / w
        kang = np.empty(self.m)
        kang[0] = krad[0]
        kang[1:] = u[1:] * du[1:] / (r[1:] * w[1:]) + 1.0 / w[1:]
        return du, d2u, w, krad, kang

    def _rows(self, krad: np.ndarray, kang: np.ndarray) -> np.ndarray:
        return np.column_stack([krad] + [kang] * (self.n - 1))

    def spectra(self, v: np.ndarray) -> np.ndarray:
        """Unsorted spectra rows at the m-1 equation nodes."""
        *_, krad, kang = self._stencil(self.full_height(v))
        return self._rows(krad, kang)[:-1]

    def residual(self, v: np.ndarray, sigma: float) -> np.ndarray:
        return elementary_symmetric_batch(self.spectra(v), self.n - 1) - sigma

    def guard(self, v: np.ndarray) -> bool:
        if not (v > 0.0).all():
            return False
        return bool(cone_mask_batch(self.spectra(v), self.n - 1).all())

    def jacobian_step(self, v: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Newton step from the exact tridiagonal Jacobian.

        The rotational curvature formulas are explicit in the stencil
        values (no eigendecomposition), so the chain rule through
        kappa_rad, kappa_ang and the sigma_{n-1} gradient is smooth and
        is assembled in closed form.  A secant Jacobian is useless here:
        perturbing a single node by delta moves the curvatures by
        delta/h^2, and the secant error that induces grows like the mesh
        is refined until Newton stalls at the discretization residual.
        """
        m1 = v.size
        n, h = self.n, self.h
        u = self.full_height(v)
        du, d2u, w, krad, kang = self._stencil(u)
        band = np.zeros((3, m1))  # rows: super, main, sub

        # center equation: all curvatures equal u0*u''(0) + 1
        c0 = n * (n - 1) * krad[0] ** (n - 2)
        band[1, 0] = c0 * (d2u[0] - 2.0 * u[0] / h ** 2)
        if m1 > 1:
            band[0, 1] = c0 * (2.0 * u[0] / h ** 2)

        # interior equations i = 1..m-2 handled vectorized
        b, p, q, r = u[1:-1], du[1:-1], d2u[1:-1], self.r[1:-1]
        w, krad, kang = w[1:-1], krad[1:-1], kang[1:-1]
        if n == 2:
            g_rad = np.ones_like(b)
            g_ang = np.ones_like(b)
        else:
            g_rad = (n - 1) * kang ** (n - 2)
            g_ang = (n - 1) * ((n - 2) * krad * kang ** (n - 3) + kang ** (n - 2))

        def dF_dx(px, qx, is_mid):
            mid = 1.0 if is_mid else 0.0
            dkrad = (mid * q + b * qx) / w ** 3 \
                - (3.0 * b * q * p * px) / w ** 5 - p * px / w ** 3
            dkang = (mid * p + b * px) / (r * w) \
                - b * p * p * px / (r * w ** 3) - p * px / w ** 3
            return g_rad * dkrad + g_ang * dkang

        lower = dF_dx(-1.0 / (2.0 * h), 1.0 / h ** 2, False)
        diag = dF_dx(0.0, -2.0 / h ** 2, True)
        upper = dF_dx(1.0 / (2.0 * h), 1.0 / h ** 2, False)

        # equation at node i sits in Jacobian row i; its unknowns are
        # v[i-1], v[i], v[i+1] except that the last column is the fixed
        # boundary value and is dropped
        band[1, 1:] = diag
        band[2, 0:m1 - 1] = lower
        band[0, 2:] = upper[:-1]
        return scipy.linalg.solve_banded((1, 1), band, -F)

    def newton(self, v: np.ndarray, sigma: float, params: NewtonParams):
        return damped_newton(
            v,
            residual_fn=functools.partial(self.residual, sigma=sigma),
            guard_fn=self.guard,
            jacobian_solver=self.jacobian_step,
            params=params,
        )

    def build_field(self, v: np.ndarray, sigma: float, iterations: int,
                    resid: float) -> SolutionField:
        u = self.full_height(v)
        m, n = self.m, self.n
        du, d2u, w, krad, kang = self._stencil(u)
        rows = self._rows(krad, kang)
        boundary = np.zeros(m, dtype=bool)
        boundary[-1] = True
        near = np.zeros(m, dtype=bool)
        near[-2:] = True
        return SolutionField(
            domain=self.domain,
            nodes=self.r.copy(),
            u=u,
            boundary=boundary,
            nu_vertical=1.0 / w,
            spectra=np.sort(rows, axis=1)[:, ::-1],
            residual_field=elementary_symmetric_batch(rows, n - 1) - sigma,
            convergence=ConvergenceInfo(iterations=iterations, residual=resid,
                                        eps_bdry=self.eps_bdry, sigma=sigma),
            cone_ok=bool(cone_mask_batch(rows[:-1], n - 1).all()),
            meta={"kind": "radial", "scheme": self, "du": du, "d2u": d2u,
                  "kappa_rad": krad, "kappa_ang": kang,
                  "near_boundary": near},
        )


def solve_radial_path(config: SolveConfig, domain: DomainSpec) -> list[SolutionField]:
    """Continuation solve on the ball; one SolutionField per scheduled eps."""
    if domain.kind != "ball":
        raise ValueError("solve_radial requires a ball domain")
    if domain.n != config.n:
        raise ValueError("domain dimension does not match config.n")
    if domain.boundary_mean_curvature_min < 0.0:
        raise ValueError("domain boundary must have nonnegative mean curvature")
    mesh = config.mesh if config.mesh is not None else RadialMesh()
    if not isinstance(mesh, RadialMesh):
        raise ValueError("solve_radial needs a RadialMesh")
    return _solve_path(
        _RadialScheme(domain, mesh.nodes, config.eps_schedule[0]), config)


def solve_radial(config: SolveConfig, domain: DomainSpec) -> SolutionField:
    return solve_radial_path(config, domain)[-1]


# ---------------------------------------------------------------------------
# Field-level operations, for radial and grid fields alike
# ---------------------------------------------------------------------------

def _field_scheme(field: SolutionField):
    scheme = field.meta.get("scheme")
    if scheme is None:
        raise ValueError("field carries no solver scheme in meta['scheme']")
    return scheme


def pde_residual(field: SolutionField) -> np.ndarray:
    """sigma_{n-1}(spectrum) - sigma at every non-boundary node."""
    if not (field.u > 0.0).all():
        raise InvalidHeightError("solution field has non-positive heights")
    return _field_scheme(field).residual(field.u[field.interior],
                                         field.convergence.sigma)


def newton_step(field: SolutionField):
    """One guarded Newton update of a converged or in-progress field.

    Returns (updated_field, (residual_before, residual_after)).  A single
    step accepts any non-increase of the residual (within roundoff).
    """
    if not field.cone_ok:
        raise ConeViolationError("newton_step requires a cone_ok field",
                                 state=field.u)
    scheme = _field_scheme(field)
    sigma = field.convergence.sigma
    v = field.u[field.interior]
    F = scheme.residual(v, sigma)
    before = float(np.abs(F).max())
    trial, _, after = _line_search(
        v, scheme.jacobian_step(v, F), scheme.guard,
        functools.partial(scheme.residual, sigma=sigma),
        lambda nt, t: nt <= before * (1.0 + 1.0e-12) + 1.0e-15,
        "single Newton step could not avoid a residual increase")
    return scheme.build_field(trial, sigma, field.convergence.iterations + 1,
                              after), (before, after)
