"""Pointwise geometry of vertical graphs over the ideal boundary plane.

The ambient space is the upper half-space {x_{n+1} > 0} with metric
(|dx|^2 + dx_{n+1}^2) / x_{n+1}^2, and the hypersurface is the graph
x_{n+1} = u(x) over a chart domain in R^n.  Conventions, fixed here and
relied on everywhere else:

* the unit normal is the upward one, (-Du, 1)/w with w = sqrt(1+|Du|^2),
  so the vertical normal component nu = 1/w is positive;
* Euclidean graph data: metric g_e = I + Du Du^T, second fundamental
  form h_e = D2u / w, principal curvatures = eigenvalues of the
  (h_e, g_e) pencil;
* hyperbolic principal curvatures kappa_i = u * kappa_e_i + nu with the
  same principal directions (half-space conversion for graphs);
* induced metric in the chart G = u^{-2}(I + Du Du^T); the chart second
  fundamental form is h_ab = u_ab/(u w) + nu u^{-2}(delta_ab + u_a u_b);
* a pencil eigenvector v normalized by v^T g_e v = 1 lifts to a
  Euclidean-unit tangent (v, Du.v); the hyperbolic-unit tangent in the
  same direction has chart velocity eta = u v.

A surface is any object with a method jets(y) that returns (u, Du, D2u)
at a stack of chart points y (..., n), shapes (...,), (..., n) and
(..., n, n), computed point by point, so a point's values do not depend
on the stack it comes in.  Every function here reads a surface only
through jets.

Frame (covariant) derivatives are measured by central differences along
chart rays x + t*eta; second derivatives add the quadratic geodesic
correction t^2/2 * (-Gamma(eta, eta)) so the symmetric difference of the
chart curve matches the surface geodesic through O(t^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cones import EIG_GAP_TOL, CurvatureVector
from .errors import InvalidHeightError

__all__ = [
    "GraphJet",
    "CapSolution",
    "ResidualSample",
    "FrameInfo",
    "RadialHeightField",
    "graph_jet",
    "jet_from_field",
    "exact_cap",
    "principal_chart_frame",
    "induced_metric",
    "inverse_induced_metric",
    "second_fundamental_form_chart",
    "christoffel",
    "NuBatch",
    "nu_identity_batch",
    "nu_identity_residuals",
    "gauss_commutator_residuals",
]


@dataclass
class GraphJet:
    """Second-order graph data at one chart point, with derived spectra."""

    x: np.ndarray
    u: float
    grad_u: np.ndarray
    hess_u: np.ndarray
    nu_vertical: float
    hyperbolic_spectrum: CurvatureVector
    #: pencil eigenvectors as columns, v^T g_e v = 1, same order as spectra
    principal_chart: np.ndarray


@dataclass(frozen=True)
class FrameInfo:
    """A hyperbolic-orthonormal tangent frame in chart-velocity form."""

    kappa: np.ndarray
    eta: np.ndarray  # columns eta[:, i] = u * v_i
    status: str  # 'distinct' | 'umbilic' | 'partial'


@dataclass(frozen=True)
class ResidualSample:
    """One finite-difference identity check at one location."""

    location: tuple[float, ...]
    identity_name: str
    residual: float
    fd_step: float
    direction: object = None
    measured: float | None = None


def _swap(a: np.ndarray) -> np.ndarray:
    """a with its last two axes exchanged (the transpose of a stack)."""
    return np.swapaxes(a, -1, -2)


def _pencil(u, Du, D2u):
    """The core of graph_jet over a stack of points.

    u (...,), Du (..., n) and D2u (..., n, n) are raw jets; returns the
    symmetrized D2u, nu = 1/w, the hyperbolic spectra kappa (..., n)
    in descending order and the pencil eigenvectors V (..., n, n) as
    columns in the same order, V^T g_e V = I.  The (h_e, g_e) pencil is
    reduced by one batched Cholesky factor g_e = L L^T to the symmetric
    L^{-1} h_e L^{-T}, whose eigenvectors Y give V = L^{-T} Y.
    Raises InvalidHeightError on a height <= 0 and ValueError on a
    Hessian that is not symmetric.
    """
    bad = u <= 0.0
    if bad.any():
        raise InvalidHeightError(
            f"graph height must be positive, got {u[bad].flat[0]}")
    n = Du.shape[-1]
    if D2u.shape[-2:] != (n, n):
        raise ValueError("hessian shape does not match gradient length")
    scale = 1.0 + np.abs(D2u).max(axis=(-2, -1), initial=0.0)
    if (np.abs(D2u - _swap(D2u)).max(axis=(-2, -1), initial=0.0)
            > 1.0e-8 * scale).any():
        raise ValueError("hessian must be symmetric")
    D2u = 0.5 * (D2u + _swap(D2u))

    w = np.sqrt(1.0 + np.vecdot(Du, Du))
    nu = 1.0 / w
    g_e = np.eye(n) + Du[..., :, None] * Du[..., None, :]
    h_e = D2u / w[..., None, None]
    Linv = np.linalg.inv(np.linalg.cholesky(g_e))
    ke, Y = np.linalg.eigh(Linv @ h_e @ _swap(Linv))
    V = (_swap(Linv) @ Y)[..., ::-1]
    kappa = u[..., None] * ke[..., ::-1] + nu[..., None]
    return D2u, nu, kappa, V


def graph_jet(x, u, grad_u, hess_u) -> GraphJet:
    """Assemble a GraphJet from raw (u, Du, D2u) at a chart point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    Du = np.atleast_1d(np.asarray(grad_u, dtype=float))
    D2u, nu, kappa, V = _pencil(np.array([float(u)]), Du[None],
                                np.asarray(hess_u, dtype=float)[None])
    return GraphJet(
        x=x,
        u=float(u),
        grad_u=Du,
        hess_u=D2u[0],
        nu_vertical=float(nu[0]),
        hyperbolic_spectrum=CurvatureVector(tuple(float(k) for k in kappa[0])),
        principal_chart=np.ascontiguousarray(V[0]),
    )


def jet_from_field(field, x) -> GraphJet:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u, Du, D2u = field.jets(x)
    return graph_jet(x, u, Du, D2u)


def _frame_status(kappa: np.ndarray) -> np.ndarray:
    """'umbilic', 'partial' or 'distinct' per spectrum row of kappa
    (..., n), sorted descending: the whole spectrum within
    EIG_GAP_TOL * (1 + |kappa_1|), some but not all gaps, or none."""
    tol = EIG_GAP_TOL * (1.0 + np.abs(kappa[..., 0]))
    umbilic = kappa[..., 0] - kappa[..., -1] <= tol
    partial = (kappa[..., :-1] - kappa[..., 1:] <= tol[..., None]).any(axis=-1)
    return np.where(umbilic, "umbilic", np.where(partial, "partial", "distinct"))


def principal_chart_frame(jet: GraphJet) -> FrameInfo:
    """Hyperbolic-orthonormal principal frame with a degeneracy verdict.

    'umbilic' means the whole spectrum collapses, 'partial' that some
    but not all gaps do.  Either way the returned frame is principal:
    every orthonormal basis of a degenerate eigenspace is.
    """
    kappa = jet.hyperbolic_spectrum.array()
    return FrameInfo(kappa=kappa, eta=jet.u * jet.principal_chart,
                     status=str(_frame_status(kappa)))


# ---------------------------------------------------------------------------
# Exact umbilic caps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapSolution:
    """Umbilic spherical cap graph with sigma_{n-1}(kappa) = sigma.

    The graph of u(r) = sqrt(a^2 - r^2) + d over the ball |x| <= R is a
    piece of a Euclidean sphere of radius ``a`` centered at height ``d``;
    in the hyperbolic metric it is totally umbilic with every principal
    curvature equal to ``lam``, and it meets height eps_bdry at r = R.
    """

    n: int
    sigma: float
    R: float
    eps_bdry: float
    lam: float
    a: float
    d: float

    def height(self, r):
        r = np.asarray(r, dtype=float)
        return np.sqrt(self.a ** 2 - r ** 2) + self.d

    def height_d1(self, r):
        r = np.asarray(r, dtype=float)
        return -r / np.sqrt(self.a ** 2 - r ** 2)

    def height_d2(self, r):
        r = np.asarray(r, dtype=float)
        return -self.a ** 2 / np.sqrt(self.a ** 2 - r ** 2) ** 3

    def nu(self, r):
        """Vertical normal component along the cap, sqrt(a^2-r^2)/a."""
        r = np.asarray(r, dtype=float)
        return np.sqrt(self.a ** 2 - r ** 2) / self.a

    @property
    def nu_min(self) -> float:
        # attained at r = R
        return self.lam + self.eps_bdry / self.a

    def height_field(self) -> "RadialHeightField":
        return RadialHeightField(self.height, self.height_d1,
                                 self.height_d2, self.n)


def exact_cap(n: int, sigma: float, R: float, eps_bdry: float = 0.0) -> CapSolution:
    """Closed-form umbilic cap over the ball of radius R.

    lam solves n*lam^(n-1) = sigma; the sphere radius a is the positive
    root of (1-lam^2) a^2 - 2 lam eps a - (R^2 + eps^2) = 0, which makes
    sqrt(a^2 - R^2) = lam*a + eps and hence u(R) = eps_bdry exactly.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 < sigma < n:
        raise ValueError(f"sigma must lie in (0, {n}), got {sigma}")
    if R <= 0.0:
        raise ValueError("R must be positive")
    if eps_bdry < 0.0:
        raise ValueError("eps_bdry must be nonnegative")
    lam = (sigma / n) ** (1.0 / (n - 1))
    disc = (lam * eps_bdry) ** 2 + (1.0 - lam ** 2) * (R ** 2 + eps_bdry ** 2)
    a = (lam * eps_bdry + math.sqrt(disc)) / (1.0 - lam ** 2)
    d = eps_bdry - math.sqrt(a ** 2 - R ** 2)
    return CapSolution(n=n, sigma=float(sigma), R=float(R),
                       eps_bdry=float(eps_bdry), lam=lam, a=a, d=d)


# ---------------------------------------------------------------------------
# Height fields
# ---------------------------------------------------------------------------

class RadialHeightField:
    """Rotationally symmetric height field u(x) = f(|x|).

    profile, profile_d1, profile_d2 are callables for f, f', f'' that
    act elementwise on arrays of radii; the profile must be smooth at 0
    with f'(0) = 0 so the center formulas Du = 0, D2u = f''(0) I apply.
    """

    def __init__(self, profile, profile_d1, profile_d2, dim: int):
        self.profile = profile
        self.profile_d1 = profile_d1
        self.profile_d2 = profile_d2
        self.dim = int(dim)

    def jets(self, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, Du, D2u) at the points y (..., dim), each profile called
        once on the array of radii.  Everything is per point, so a
        point's values do not depend on the stack it comes in: the
        profiles see the radii raveled to 1-d even for one point, since
        numpy scalar arithmetic (a scalar ** 3, say) can round apart
        from the array path."""
        y = np.asarray(y, dtype=float)
        r = np.sqrt(np.vecdot(y, y))
        flat = r.reshape(-1)
        f0, f1, f2 = (np.broadcast_to(np.asarray(p(flat), dtype=float),
                                      flat.shape).reshape(r.shape)
                      for p in (self.profile, self.profile_d1, self.profile_d2))
        center = r == 0.0
        r = np.where(center, 1.0, r)
        s = f1 / r
        xh = y / r[..., None]
        P = xh[..., :, None] * xh[..., None, :]
        Du = s[..., None] * y
        D2u = f2[..., None, None] * P + s[..., None, None] * (np.eye(self.dim) - P)
        Du[center] = 0.0
        D2u[center] = f2[center][:, None, None] * np.eye(self.dim)
        return f0.copy(), Du, D2u


# ---------------------------------------------------------------------------
# Chart tensors of the induced metric
# ---------------------------------------------------------------------------
#
# Each takes u (...,), Du (..., n) and D2u (..., n, n), one point or a
# stack of them.

def _outer(Du: np.ndarray) -> np.ndarray:
    return Du[..., :, None] * Du[..., None, :]


def induced_metric(u, grad_u) -> np.ndarray:
    Du = np.asarray(grad_u, dtype=float)
    u = np.asarray(u, dtype=float)[..., None, None]
    return (np.eye(Du.shape[-1]) + _outer(Du)) / u ** 2


def inverse_induced_metric(u, grad_u) -> np.ndarray:
    Du = np.asarray(grad_u, dtype=float)
    u = np.asarray(u, dtype=float)[..., None, None]
    w2 = 1.0 + np.vecdot(Du, Du)[..., None, None]
    return u ** 2 * (np.eye(Du.shape[-1]) - _outer(Du) / w2)


def second_fundamental_form_chart(u, grad_u, hess_u) -> np.ndarray:
    Du = np.asarray(grad_u, dtype=float)
    D2u = np.asarray(hess_u, dtype=float)
    u = np.asarray(u, dtype=float)[..., None, None]
    w = np.sqrt(1.0 + np.vecdot(Du, Du))[..., None, None]
    return D2u / (u * w) + (np.eye(Du.shape[-1]) + _outer(Du)) / (w * u ** 2)


def christoffel(u, grad_u, hess_u) -> np.ndarray:
    """Christoffel symbols of the induced metric; Gamma[..., c, a, b] =
    Gamma^c_ab.

    dG[c, a, b] = d/dx_c G_ab has the closed form
    -2 u^{-3} u_c (delta_ab + u_a u_b) + u^{-2}(u_ac u_b + u_a u_bc),
    so only the second-order jet of u enters.
    """
    Du = np.asarray(grad_u, dtype=float)
    D2u = np.asarray(hess_u, dtype=float)
    Ginv = inverse_induced_metric(u, Du)
    u = np.asarray(u, dtype=float)[..., None, None, None]
    P = np.eye(Du.shape[-1]) + _outer(Du)
    H = _swap(D2u)  # H[c, a] = u_ac
    dG = (-2.0 * Du[..., :, None, None] / u ** 3) * P[..., None, :, :] \
        + (H[..., :, :, None] * Du[..., None, None, :]
           + Du[..., None, :, None] * H[..., :, None, :]) / u ** 2
    sym = np.swapaxes(dG, -3, -2) + np.moveaxis(dG, -3, -1) - dG
    return 0.5 * np.einsum("...gd,...dab->...gab", Ginv, sym)


# ---------------------------------------------------------------------------
# Identity residuals: vertical normal component
# ---------------------------------------------------------------------------

def _step(fd_step: float) -> float:
    if fd_step <= 0.0:
        raise ValueError("fd_step must be positive")
    return float(fd_step)


class NuBatch(NamedTuple):
    """The vertical-component identities at a stack of points, per step.

    Axis 0 of every array but partial runs over the steps.  first is
    nu_first at every point; the per-direction arrays hold the points
    whose frame is not partial, in order, with direction i in the last
    column i: nu_i and nu_ii are the measured derivatives, gradient and
    second the nu_gradient and nu_second residuals.
    """

    partial: np.ndarray  # (m,) bool
    first: np.ndarray  # (steps, m)
    nu_i: np.ndarray  # (steps, k, n)
    gradient: np.ndarray
    nu_ii: np.ndarray
    second: np.ndarray


def _nu_of(Du: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(1.0 + np.vecdot(Du, Du))


def nu_identity_batch(surface, x, steps) -> NuBatch:
    """nu_identity_residuals at every row of x (m, n), for every step
    of steps, as one batch.

    The surface is evaluated three times, each time on one stack of
    points (one call of each profile for a RadialHeightField): at x,
    which gives the jets, the principal frames and the Christoffel
    symbols; at x +- h eta_i and x +- h eta_i + corr_i for every step
    h, which give u_i and hence X; at x +- h X.  Each stack needs the
    one before it.  Rows with a partial frame are left out of the
    corr_i and X points.
    """
    x = np.asarray(x, dtype=float)
    steps = np.asarray(steps, dtype=float)
    n = x.shape[-1]
    u, Du, D2u = surface.jets(x)
    D2u, nu, kappa, V = _pencil(u, Du, D2u)
    partial = _frame_status(kappa) == "partial"
    full = ~partial
    E = _swap(u[:, None, None] * V)  # E[p, i] = eta_i at point p
    Ef, uf, nuf, kf = E[full], u[full], nu[full], kappa[full]
    Gamma = christoffel(uf, Du[full], D2u[full])
    hs = steps[:, None, None, None]

    # x +- h eta_i at every point, and + corr_i, the geodesic correction
    # t^2/2 (-Gamma(eta_i, eta_i)) at t = h, where the frame is principal
    fwd = x[:, None, :] + hs * E
    bwd = x[:, None, :] - hs * E
    corr = (-0.5 * hs * hs) * np.einsum("pgab,pia,pib->pig", Gamma, Ef, Ef)
    ring = np.stack([fwd, bwd])
    geo = np.stack([fwd[:, full] + corr, bwd[:, full] + corr])
    vals, grads, _ = surface.jets(np.concatenate(
        [ring.reshape(-1, n), geo.reshape(-1, n)]))
    cut = ring[..., 0].size
    vals = vals[:cut].reshape(ring.shape[:-1])
    nu_ring = _nu_of(grads[:cut]).reshape(ring.shape[:-1])
    nu_geo = _nu_of(grads[cut:]).reshape(geo.shape[:-1])

    h2 = 2.0 * steps[:, None, None]
    u_fd = (vals[0] - vals[1]) / h2  # (steps, m, n)
    first = np.vecdot(u_fd, u_fd) / u ** 2 - (1.0 - nu ** 2)

    # nabla_X h along X = sum_k (u_k/u) eta_k, Christoffel-corrected
    uk = u_fd[:, full] / uf[:, None]
    X = (uk[..., None, :] @ Ef)[..., 0, :]
    hX = steps[:, None, None] * X
    xf = x[full]
    II_pm = second_fundamental_form_chart(
        *surface.jets(np.stack([xf + hX, xf - hX])))
    dh = (II_pm[0] - II_pm[1]) / h2[..., None]
    II = second_fundamental_form_chart(uf, Du[full], D2u[full])
    gam_h = np.einsum("pmca,spc,pmb->spab", Gamma, X, II)
    dh_X = dh - gam_h - _swap(gam_h)

    nu_i = (nu_ring[0][:, full] - nu_ring[1][:, full]) / h2
    nu_ii = (nu_geo[0] - 2.0 * nuf[:, None] + nu_geo[1]) \
        / (steps * steps)[:, None, None]
    rhs = 2.0 * uk * nu_i + (1.0 + nuf ** 2)[:, None] * kf \
        - nuf[:, None] * (1.0 + kf ** 2) \
        - np.einsum("pia,spab,pib->spi", Ef, dh_X, Ef)
    return NuBatch(partial=partial, first=first, nu_i=nu_i,
                   gradient=nu_i - uk * (nuf[:, None] - kf),
                   nu_ii=nu_ii, second=nu_ii - rhs)


def nu_identity_residuals(surface, x, fd_step: float) -> list[ResidualSample]:
    """Residuals of the three vertical-component identities at x.

    Always returned (frame-free, any orthonormal frame):

        sum_i u_i^2 / u^2  =  1 - nu^2

    Returned per principal direction, except on a partially degenerate
    frame:

        nu_i  = (u_i/u)(nu - kappa_i)
        nu_ii = 2 (u_i/u) nu_i + (1 + nu^2) kappa_i - nu (1 + kappa_i^2)
                - nabla_X h(e_i, e_i),   X = sum_k (u_k/u) e_k

    A partial frame is principal too; it is skipped because the ball
    audit's truncation-regime test bounds the sup residual by 1e-5, and
    checking the partial frames of the n = 3 ball (33 of its 40 radii)
    lifts that sup to 3.27e-5 at fd_step 1e-2, at order 2.00.

    Frame derivatives (u_i, nu_i, nu_ii) are central differences along
    the frame, nabla_X h a Christoffel-corrected one along X; everything
    pointwise (u, nu, kappa_i) is exact.  This is nu_identity_batch on
    the one point x.
    """
    h = _step(fd_step)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b = nu_identity_batch(surface, x[None], (h,))
    loc = tuple(float(c) for c in x)
    out = [ResidualSample(location=loc, identity_name="nu_first",
                          fd_step=h, residual=float(b.first[0, 0]))]
    if b.partial[0]:
        return out
    for i in range(x.size):
        out.append(ResidualSample(
            location=loc, identity_name="nu_gradient", fd_step=h,
            direction=i, residual=float(b.gradient[0, 0, i]),
            measured=float(b.nu_i[0, 0, i])))
        out.append(ResidualSample(
            location=loc, identity_name="nu_second", fd_step=h,
            direction=i, residual=float(b.second[0, 0, i]),
            measured=float(b.nu_ii[0, 0, i])))
    return out


# ---------------------------------------------------------------------------
# Gauss, Codazzi and the second-derivative commutator
# ---------------------------------------------------------------------------

def commutator_rhs(h_frame: np.ndarray, d2h_swapped: np.ndarray) -> np.ndarray:
    """Right side of the second-derivative exchange rule, frame components.

    For an orthonormal frame on a hypersurface of the hyperbolic space
    (Gauss equation R_ijkl = -(delta_ik delta_jl - delta_il delta_jk)
    + h_ik h_jl - h_il h_jk), commuting the two covariant derivatives of
    h gives

        h_kl;ij = h_ij;kl
                  - sum_m h_mk (h_mj h_il - h_ml h_ij)
                  - sum_m h_mi (h_mj h_kl - h_ml h_kj)
                  - h_lk d_ij + h_jk d_il - h_il d_kj + h_ij d_kl

    d2h_swapped[k, l, i, j] must hold h_ij;kl.
    """
    hm = np.asarray(h_frame, dtype=float)
    n = hm.shape[0]
    d = np.eye(n)
    q1 = np.einsum("mk,mj,il->klij", hm, hm, hm) \
        - np.einsum("mk,ml,ij->klij", hm, hm, hm)
    q2 = np.einsum("mi,mj,kl->klij", hm, hm, hm) \
        - np.einsum("mi,ml,kj->klij", hm, hm, hm)
    lin = (-np.einsum("lk,ij->klij", hm, d) + np.einsum("jk,il->klij", hm, d)
           - np.einsum("il,kj->klij", hm, d) + np.einsum("ij,kl->klij", hm, d))
    return d2h_swapped - q1 - q2 + lin


def gauss_commutator_residuals(surface, x, fd_step: float) -> list[ResidualSample]:
    """Gauss, Codazzi and derivative-exchange residuals at x.

    All three are checked in the principal orthonormal frame, whatever
    its degeneracy:

    * gauss: sectional curvature R_ijij vs -1 + kappa_i kappa_j, one
      sample per pair i < j, with the measured sectional attached;
    * codazzi: sup norm of the antisymmetry h_ij;k - h_ik;j (zero for
      hypersurfaces of a space form);
    * commutator: sup norm of h_kl;ij minus the exchange rule built from
      h_ij;kl and the curvature terms.

    The surface is evaluated once, on the stack P[a, b] = (x + s_b) + s_a
    of the steps s = 0, +h e_c, -h e_c (c = 1..n).  The Christoffel
    symbols and h are analytic in the jet of u; central differences over
    a give d_c Gamma at x (b = 0) and h_ab;c at every x + s_b, and
    central differences of h_ab;c over b give h_ab;cd at x.
    """
    h = _step(fd_step)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    loc = tuple(float(c) for c in x)
    n = x.size
    s = np.concatenate([np.zeros((1, n)), h * np.eye(n), -h * np.eye(n)])
    u, Du, D2u = surface.jets((x + s)[None, :, :] + s[:, None, :])
    _, _, kappa, V = _pencil(u[0, :1], Du[0, :1], D2u[0, :1])
    kappa, eta = kappa[0], u[0, 0] * V[0]
    Gam = christoffel(u, Du, D2u)
    II = second_fundamental_form_chart(u, Du, D2u)
    Gx = Gam[0, 0]

    def central(f):
        """(f[+h e_c] - f[-h e_c]) / (2h) along axis 0, c first."""
        return (f[1:n + 1] - f[n + 1:]) / (2.0 * h)

    # R4[a, b, c, d] = <R(e_a, e_b) e_c, e_d> of the induced metric
    dGam = central(Gam[:, 0])
    X1 = np.transpose(dGam, (1, 0, 2, 3))  # [g,a,b,c] = d_a Gamma^g_bc
    X2 = np.transpose(dGam, (1, 2, 0, 3))  # [g,a,b,c] = d_b Gamma^g_ac
    Q1 = np.einsum("gam,mbc->gabc", Gx, Gx)
    Q2 = np.einsum("gbm,mac->gabc", Gx, Gx)
    Rup = X1 - X2 + Q1 - Q2  # R^g_{c ab} indexed [g, a, b, c]
    R4 = np.einsum("dg,gabc->abcd", induced_metric(u[0, 0], Du[0, 0]), Rup)

    out = []
    for i in range(n):
        for j in range(i + 1, n):
            sec = float(np.einsum("abcd,a,b,c,d->", R4,
                                  eta[:, i], eta[:, j], eta[:, j], eta[:, i]))
            target = -1.0 + kappa[i] * kappa[j]
            out.append(ResidualSample(
                location=loc, identity_name="gauss", fd_step=h,
                direction=(i, j), residual=sec - target, measured=sec))

    # B[p, a, b, c] = h_ab;c at x + s_p
    dh = np.moveaxis(central(II), 0, -1)
    B = dh - np.einsum("pmca,pmb->pabc", Gam[0], II[0]) \
        - np.einsum("pmcb,pam->pabc", Gam[0], II[0])
    T3 = np.einsum("abc,ai,bj,ck->ijk", B[0], eta, eta, eta)
    codazzi = float(np.abs(T3 - np.transpose(T3, (0, 2, 1))).max())
    out.append(ResidualSample(location=loc, identity_name="codazzi",
                              fd_step=h, residual=codazzi))

    # C[a, b, c, d] = h_ab;c;d at x
    C = np.moveaxis(central(B), 0, -1) \
        - (np.einsum("mda,mbc->abcd", Gx, B[0])
           + np.einsum("mdb,amc->abcd", Gx, B[0])
           + np.einsum("mdc,abm->abcd", Gx, B[0]))
    T4 = np.einsum("abcd,ak,bl,ci,dj->klij", C, eta, eta, eta, eta)
    rhs = commutator_rhs(np.diag(kappa), np.transpose(T4, (2, 3, 0, 1)))
    comm = float(np.abs(T4 - rhs).max())
    out.append(ResidualSample(location=loc, identity_name="commutator",
                              fd_step=h, residual=comm))
    return out
