"""Damped-Newton continuation solver for sigma_{n-1}(kappa[u]) = sigma.

The Dirichlet approximation replaces the ideal-boundary condition u = 0
by u = eps_bdry > 0 and walks eps_bdry down a schedule, starting on the
closed-form umbilic cap and warm-starting each later solve from the
previous height field.  Every Newton iterate is kept inside the
ellipticity region by the cone guard: a trial step is accepted only if
u stays positive and the hyperbolic spectrum stays in Gamma_{n-1} at
every non-boundary node; otherwise the step is halved.

This module owns the config/result types, the Newton engine, the one
continuation driver (sigma walk, leg splitting and eps descent) with
the scheme interface it drives, and the rotationally reduced scheme on
ball domains.  The mapped-grid scheme lives in gridsolver.py; both
solvers are "build a scheme, run the driver".  A returned SolutionField
is data: it holds no scheme, so a path's schemes and everything they
share are freed when the path returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .cones import cone_mask_batch, elem_sym_columns
from .domains import DomainSpec
from .errors import ConeViolationError, NewtonDivergenceError
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
    "solve_radial",
    "solve_radial_path",
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
#: the float64 rounding floor: the default-mesh n = 3 ellipsoid at
#: sigma = 0.05, which walked sigma when grid paths started on the
#: mean-radius cap, stalled at 1.2e-10 on the walk half 1.5 -> 0.27,
#: which was then split and redone.
WALK_TOL = 1.0e-6

#: Depth to which _leg splits a failed leg.  The sigma walk is one leg,
#: so its points come out of this budget too: at depth 4 the default-mesh
#: n = 2 (1.3, 1) and (2, 1) ellipses at sigma = 0.01 fail; at 5 they
#: solve, as do the 12x8x16 (1.3, 1, 1) ellipsoid at sigma = 0.005 and
#: the n = 2 ball at 0.01 (splits four deep).
MAX_SPLIT_DEPTH = 5


@dataclass(frozen=True)
class NewtonParams:
    max_iters: int = 40
    residual_tol: float = 1.0e-10

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.residual_tol > 0.0:
            raise ValueError("residual_tol must be positive")


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

def damped_newton(v0, residual_fn, guard_fn, jacobian_solver,
                  params: NewtonParams):
    """Guarded, damped Newton iteration on the unknown vector v.

    jacobian_solver(v, F) must return the Newton step s with J(v) s = -F,
    solved exactly or, for an inexact Newton step, to a relative residual
    well below 1; it may raise NewtonDivergenceError carrying v.
    Returns (v, iterations, final_residual_norm).  Each step halves t
    from 1 until v + t s passes the guard and its residual meets the
    Armijo condition or residual_tol.  A step whose entire backtracking
    sweep down to MIN_STEP fails the cone guard raises
    ConeViolationError; any other failure to reduce the residual raises
    NewtonDivergenceError.  Both carry the last accepted iterate itself,
    not a copy.
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
        guard_seen = False
        t = 1.0
        while t >= MIN_STEP:
            trial = v + t * s
            if guard_fn(trial):
                guard_seen = True
                F = residual_fn(trial)
                nt = float(np.abs(F).max())
                if nt <= (1.0 - ARMIJO_SLOPE * t) * nrm \
                        or nt <= params.residual_tol:
                    break
            t *= 0.5
        else:
            if not guard_seen:
                raise ConeViolationError(
                    "cone guard rejected every damped step", state=v)
            raise NewtonDivergenceError(
                f"no residual decrease above the minimum step (residual "
                f"{nrm:.3e})", state=v)
        v, nrm = trial, nt
    if nrm <= params.residual_tol:
        return v, params.max_iters, nrm
    raise NewtonDivergenceError(
        f"residual {nrm:.3e} above tol after {params.max_iters} iterations",
        state=v)


class _Leg:
    """The callables that damped_newton takes, on one scheme: residual,
    guard and step share one scheme.evaluate pass per iterate.

    The leg holds the last iterate and its evaluation (F, inside, data)
    and matches the next iterate by identity (the engine hands guard,
    residual and step one object), then by value: a line-search trial at
    the rounding floor can equal its iterate bit for bit.  The iterate is
    held without a copy, since the engine never changes one in place.
    The guard is the evaluation's verdict inside, which tests u > 0 and
    the cone.
    """

    def __init__(self, scheme):
        self.scheme = scheme
        self._v = self._ev = None

    def _evaluate(self, v):
        if v is not self._v and not np.array_equal(self._v, v):
            self._v = self._ev = None  # free the old pass before the next
            self._v, self._ev = v, self.scheme.evaluate(v)
        return self._ev

    def residual(self, v: np.ndarray) -> np.ndarray:
        return self._evaluate(v)[0]

    def guard(self, v: np.ndarray) -> bool:
        return self._evaluate(v)[1]

    def step(self, v: np.ndarray, F: np.ndarray) -> np.ndarray:
        return self.scheme.jacobian_step(v, self._evaluate(v)[2], F)


def _build_field(scheme, v: np.ndarray, iterations: int, resid: float,
                 residual_tol: float) -> SolutionField:
    """The SolutionField of the converged unknowns v of scheme.

    scheme.field_parts(v) gives (nodes, u, w, spectra, sigma_{n-1} of
    the spectra, meta) on every node, the scheme.n_int equation nodes
    first and the Dirichlet nodes after; cone_ok is taken over the
    equation nodes.  The grid has fewer unknowns than equation nodes (one
    per orbit of the domain's symmetry group), so the count comes from
    the scheme, not v.size; meta["unknowns"] records v.size.

    The residual field on every equation node is held to residual_tol,
    not only the Newton residual resid: on the grid it checks the
    reduced solution off the representatives, so a symmetry group the
    domain does not have raises NewtonDivergenceError carrying v instead
    of returning a field whose other nodes miss the equation.
    """
    nodes, u, w, spectra, sigma_field, meta = scheme.field_parts(v)
    ni = scheme.n_int
    residual_field = sigma_field - scheme.sigma
    worst = float(np.abs(residual_field[:ni]).max())
    if not worst <= residual_tol:
        raise NewtonDivergenceError(
            f"residual field {worst:.3e} above tol {residual_tol:.3e} on "
            f"the equation nodes (Newton residual {resid:.3e})", state=v)
    return SolutionField(
        domain=scheme.domain,
        nodes=nodes,
        u=u,
        boundary=np.arange(u.size) >= ni,
        nu_vertical=1.0 / w,
        spectra=spectra,
        residual_field=residual_field,
        convergence=ConvergenceInfo(iterations=iterations, residual=resid,
                                    eps_bdry=scheme.eps_bdry,
                                    sigma=scheme.sigma),
        cone_ok=bool(cone_mask_batch(spectra[:ni],
                                     scheme.domain.n - 1).all()),
        meta={**meta, "unknowns": v.size},
    )


# ---------------------------------------------------------------------------
# Continuation driver
# ---------------------------------------------------------------------------

def _solve_path(scheme, config: SolveConfig) -> list[SolutionField]:
    """Continuation from the umbilic cap to one field per scheduled eps.

    scheme is a discretization at (sigma, eps_bdry) =
    (config.sigma_target, config.eps_schedule[0]).  Its equation nodes
    are the nodes off the Dirichlet boundary.  Its unknowns v are the
    heights at every equation node on the radial side, and on the grid
    the deviation of the heights from the cap at one representative
    equation node per orbit of the domain's symmetry group: its mirrors,
    and for a ball or an x3-aligned spheroid its rotations about x_n
    (every equation node on a star domain), so v can be shorter than the
    equation nodes.  The state of a typed error raised by a leg is such
    a v.  It provides

    * n_int: the number of equation nodes, which field_parts lists
      first;
    * domain, sigma, eps_bdry and cap: the point it discretizes and the
      umbilic cap there in the unknowns (the cap's heights on the radial
      side, zero on the grid), which every path starts on and along
      which a converged v is transported to a new (sigma, eps) as
      v + (end.cap - start.cap), so a grid deviation is kept as it is;
    * at(sigma, eps): the same discretization at another point;
    * evaluate(v): the one pass over v (stencil or shape), returned as
      (F, inside, data): the discrete equation's residual, the verdict
      that the heights are positive and the equation nodes lie in the
      cone, which _Leg.guard returns, and what jacobian_step reads.
      The grid stores none of it; the radial scheme keeps its last
      stencil, which field_parts of the same v reuses;
    * jacobian_step(v, data, F): the step s solving J(v) s = -F
      (exactly on the radial side and on a narrow grid band, by
      preconditioned GMRES to a relative tolerance on a wide one);
    * newton(v, params): one call of damped_newton with the callables
      of a _Leg, the one evaluation per iterate of that leg; it goes
      through the scheme's own module global so that the radial and
      grid legs stay separable from outside;
    * field_parts(v): the per-node arrays that _build_field assembles
      into the SolutionField, which keeps no reference to the scheme.

    The first leg starts on scheme.cap.  Extreme targets (very steep or
    very flat caps) can put that start or its Newton path outside the
    cone, so when the leg fails the cone guard it starts on the cap of
    scheme.at(n/2, eps0) instead and sigma is walked by the one leg
    n/2 -> sigma_target, whose splits pick the walk points; when the
    target is n/2 itself the failure is re-raised.  A first leg that
    fails with NewtonDivergenceError (a stall at the residual's rounding
    floor) is re-raised too: no walk moves that floor.  Every eps leg
    then goes through _leg.

    Only the legs that end at sigma_target, one per scheduled eps, give
    reported fields; they are solved to config.newton.residual_tol, and
    every other leg only to the basin tolerance of _walk_params.
    _build_field holds each reported field's residual on every equation
    node to residual_tol as well.
    """
    params = config.newton
    target = config.sigma_target
    easy = 0.5 * config.n
    try:
        v, total_it, res = scheme.newton(scheme.cap, params)
    except ConeViolationError:
        if easy == target:
            raise
        v = None
    if v is None:  # walk outside the handler, as _leg splits
        start = scheme.at(easy, scheme.eps_bdry)
        v, total_it, _ = start.newton(start.cap, _walk_params(params))
        scheme, (v, it, res) = _leg(start, params, v, target, scheme.eps_bdry)
        total_it += it

    fields = [_build_field(scheme, v, total_it, res, params.residual_tol)]
    for eps in config.eps_schedule[1:]:
        scheme, (v, it, res) = _leg(scheme, params, v, target, eps)
        fields.append(_build_field(scheme, v, it, res, params.residual_tol))
    return fields


def _walk_params(params: NewtonParams) -> NewtonParams:
    """params for a leg whose end is not a reported field: residual_tol
    raised to WALK_TOL, a looser residual_tol kept."""
    return replace(params, residual_tol=max(params.residual_tol, WALK_TOL))


def _leg(start, params: NewtonParams, v, sigma, eps, depth=0):
    """Converge from the solution v of the scheme start to (sigma, eps).

    Re-pinning the boundary or moving sigma alone kinks the profile hard
    enough to leave the cone, so v is first moved along the cap family.
    A leg that fails is split at the geometric midpoint of (sigma, eps),
    its halves likewise down to MAX_SPLIT_DEPTH: the one step rule, for
    eps legs and the sigma walk alike.  A leg that stalled at the
    residual's rounding floor is split as one that left the cone is:
    its halves start closer to their ends.  The first half ends at no
    reported field and is solved to _walk_params(params); the second
    half ends where the leg does and keeps params.  Returns the scheme
    at (sigma, eps) and (v, iterations, residual).
    """
    end = start.at(sigma, eps)
    try:
        return end, end.newton(v + (end.cap - start.cap), params)
    except (NewtonDivergenceError, ConeViolationError):
        if depth >= MAX_SPLIT_DEPTH:
            raise
    # split outside the handler: the error's traceback holds the failed
    # leg's frames, and with them that leg's last evaluation
    mid, (vm, it1, _) = _leg(start, _walk_params(params), v,
                             math.sqrt(start.sigma * sigma),
                             math.sqrt(start.eps_bdry * eps), depth + 1)
    end, (v, it2, res) = _leg(mid, params, vm, sigma, eps, depth + 1)
    return end, (v, it1 + it2, res)


# ---------------------------------------------------------------------------
# Rotational reduction on the ball
# ---------------------------------------------------------------------------

class _RadialScheme:
    """Second-order FD discretization of the reduced rotational problem.

    Unknowns are the heights at the n_int = m-1 nodes 0..m-2 (center
    plus interior); u(R) = eps_bdry is imposed exactly at the last
    node.  The center uses the symmetry conditions u'(0) = 0,
    u''(0) = 2(u_1 - u_0)/h^2.  cap is the exact cap at (sigma,
    eps_bdry) on the unknowns.  An iterate's residual, cone test and
    Jacobian step come from one evaluate(v).  The scheme keeps the last
    iterate it evaluated and that iterate's stencil, so field_parts of
    the converged v, which a leg evaluated last, runs no stencil pass.
    mesh holds r, h, 2h, h^2 and the weights -1/(2h), 1/h^2, -2/h^2,
    1/(2h), formed once per path (at() hands them on).  The rounding
    floor decides which paths stall, so no expression is re-associated.
    """

    def __init__(self, domain: DomainSpec, nodes: int, sigma: float,
                 eps_bdry: float, mesh=None):
        self.domain = domain
        self.n = domain.n
        self.m = nodes
        if mesh is None:
            r = np.linspace(0.0, domain.radius, nodes)
            h = r[1] - r[0]
            h2, hh = 2.0 * h, h ** 2
            mesh = (r, h, h2, hh, -1.0 / h2, 1.0 / hh, -2.0 / hh, 1.0 / h2)
        self._mesh = mesh
        self.r, self.h = mesh[:2]
        self.sigma = sigma
        self.eps_bdry = float(eps_bdry)
        self.cap = exact_cap(self.n, sigma, domain.radius,
                             eps_bdry).height(self.r[:-1])
        self.n_int = nodes - 1
        self._last = (None, None)  # (v, its _stencil) of the last evaluate

    def at(self, sigma: float, eps: float) -> "_RadialScheme":
        return _RadialScheme(self.domain, self.m, sigma, eps, self._mesh)

    def full_height(self, v: np.ndarray) -> np.ndarray:
        return np.append(v, self.eps_bdry)

    def _stencil(self, u: np.ndarray):
        """du, d2u, w = sqrt(1 + du^2), kappa_rad, kappa_ang, w^3 and
        r w at all m nodes of the full height array u.

        The center uses the symmetry conditions, where both curvatures
        equal u_0 u''(0) + 1; the boundary node uses one-sided
        second-order differences.  jacobian_step reuses w^3 and r w.
        """
        r, h, h2, hh = self._mesh[:4]
        du = np.empty(self.m)
        d2u = np.empty(self.m)
        du[0] = 0.0
        d2u[0] = 2.0 * (u[1] - u[0]) / hh
        du[1:-1] = (u[2:] - u[:-2]) / h2
        d2u[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / hh
        du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / h2
        d2u[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / hh
        w = np.sqrt(1.0 + du ** 2)
        w3, rw, iw = w ** 3, r * w, 1.0 / w
        krad = u * d2u / w3 + iw
        kang = np.empty(self.m)
        kang[0] = krad[0]
        kang[1:] = u[1:] * du[1:] / rw[1:] + iw[1:]
        return du, d2u, w, krad, kang, w3, rw

    def _sigmas(self, krad: np.ndarray, kang: np.ndarray) -> list:
        """sigma_0 .. sigma_{n-1} of the spectra (krad, kang, ..., kang),
        straight from the curvature columns."""
        return elem_sym_columns([krad] + [kang] * (self.n - 1), self.n - 1)

    def evaluate(self, v: np.ndarray):
        """(F, inside, stencil) from _stencil of v's full height and the
        sigmas of the spectra at the m-1 equation nodes: inside when
        every height v is positive and every spectrum has sigma_1 ..
        sigma_{n-1} positive, that is lies in Gamma_{n-1}."""
        stencil = self._stencil(self.full_height(v))
        # a copy: a caller may change v in place after evaluating it
        self._last = (v.copy(), stencil)
        sig = self._sigmas(stencil[3][:-1], stencil[4][:-1])
        inside = bool((v > 0.0).all() and all((s > 0.0).all()
                                               for s in sig[1:]))
        return sig[-1] - self.sigma, inside, stencil

    def jacobian_step(self, v: np.ndarray, stencil,
                      F: np.ndarray) -> np.ndarray:
        """Newton step from the exact tridiagonal Jacobian.

        The rotational curvature formulas are explicit in the stencil
        values (no eigendecomposition), so each equation's partials in
        its node's (u, u', u'') are closed forms, and the Jacobian is
        those partials times the stencil weights, as on the grid.  A
        secant Jacobian is useless here: perturbing a single node by
        delta moves the curvatures by delta/h^2, and the secant error
        that induces grows like the mesh is refined until Newton stalls
        at the discretization residual.
        check_finite is off: the band is a closed form of the stencil of
        an iterate that passed the guard, and a non-finite step fails the
        guard at every damping.
        """
        n, m1 = self.n, v.size
        wm, wq, wd, wp = self._mesh[4:]
        F_u, F_p, F_q = np.empty((3, m1))   # partials in (u, u', u'')
        # center equation: all curvatures equal u0*u''(0) + 1
        c0 = n * (n - 1) * stencil[3][0] ** (n - 2)
        F_u[0], F_p[0], F_q[0] = c0 * stencil[1][0], 0.0, c0 * v[0]
        # interior equations i = 1..m-2, through kappa_rad and kappa_ang
        p, q, w, krad, kang, w3, rw = (s[1:m1] for s in stencil)
        b, r = v[1:], self.r[1:m1]
        if n == 2:
            g_rad = g_ang = 1.0
        else:
            kn2 = kang ** (n - 2)
            g_rad = (n - 1) * kn2
            g_ang = (n - 1) * ((n - 2) * krad * kang ** (n - 3) + kn2)
        pw3 = p / w3
        F_u[1:] = g_rad * q / w3 + g_ang * p / rw
        F_p[1:] = g_ang * (b / rw - b * p * p / (r * w3) - pw3) \
            - g_rad * (3.0 * b * q * p / (w3 * w * w) + pw3)
        F_q[1:] = g_rad * b / w3

        # solve_banded's rows: band[0, i] and band[2, i] are the weights
        # on u[i] of equations i-1 and i+1; the last upper weight falls
        # on the fixed boundary value and is dropped
        band = np.zeros((3, m1))
        band[0, 1:] = wp * F_p[:-1] + wq * F_q[:-1]
        band[1] = wd * F_q + F_u
        band[2, :-1] = wm * F_p[1:] + wq * F_q[1:]
        # the center's ghost u[-1] = u[1], node 1's mirror image: column 1
        band[0, 1] += wm * F_p[0] + wq * F_q[0]
        return scipy.linalg.solve_banded((1, 1), band, -F, check_finite=False)

    def newton(self, v: np.ndarray, params: NewtonParams):
        leg = _Leg(self)
        return damped_newton(v, leg.residual, leg.guard, leg.step, params)

    def field_parts(self, v: np.ndarray):
        """The stencil over all m nodes, the last evaluate's when v
        equals its iterate by value, as _Leg matches iterates; the
        spectra are descending by construction, no sort."""
        u = self.full_height(v)
        last, stencil = self._last
        if not np.array_equal(last, v):
            stencil = self._stencil(u)
        du, d2u, w, krad, kang = stencil[:5]
        spectra = np.column_stack([np.maximum(krad, kang)]
                                  + [kang] * (self.n - 2)
                                  + [np.minimum(krad, kang)])
        near = np.arange(self.m) >= self.m - 2
        return (self.r.copy(), u, w, spectra, self._sigmas(krad, kang)[-1],
                {"kind": "radial", "du": du, "d2u": d2u, "kappa_rad": krad,
                 "kappa_ang": kang, "near_boundary": near})


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
    return _solve_path(_RadialScheme(domain, mesh.nodes, config.sigma_target,
                                     config.eps_schedule[0]), config)


def solve_radial(config: SolveConfig, domain: DomainSpec) -> SolutionField:
    return solve_radial_path(config, domain)[-1]

