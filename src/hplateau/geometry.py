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

Frame (covariant) derivatives are measured by central differences along
chart rays x + t*eta; second derivatives add the quadratic geodesic
correction t^2/2 * (-Gamma(eta, eta)) so the symmetric difference of the
chart curve matches the surface geodesic through O(t^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


def graph_jet(x, u, grad_u, hess_u) -> GraphJet:
    """Assemble a GraphJet from raw (u, Du, D2u) at a chart point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    Du = np.atleast_1d(np.asarray(grad_u, dtype=float))
    D2u = np.asarray(hess_u, dtype=float)
    u = float(u)
    if u <= 0.0:
        raise InvalidHeightError(f"graph height must be positive, got {u}")
    n = Du.size
    if D2u.shape != (n, n):
        raise ValueError("hessian shape does not match gradient length")
    if np.abs(D2u - D2u.T).max() > 1.0e-8 * (1.0 + np.abs(D2u).max()):
        raise ValueError("hessian must be symmetric")
    D2u = 0.5 * (D2u + D2u.T)

    w = math.sqrt(1.0 + float(Du @ Du))
    nu = 1.0 / w
    g_e = np.eye(n) + np.outer(Du, Du)
    h_e = D2u / w
    ke, V = scipy.linalg.eigh(h_e, g_e)
    ke = ke[::-1]
    V = V[:, ::-1]
    kappa = u * ke + nu
    return GraphJet(
        x=x,
        u=u,
        grad_u=Du,
        hess_u=D2u,
        nu_vertical=nu,
        hyperbolic_spectrum=CurvatureVector(tuple(float(k) for k in kappa)),
        principal_chart=np.ascontiguousarray(V),
    )


def jet_from_field(field, x) -> GraphJet:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return graph_jet(x, field.value(x), field.gradient(x), field.hessian(x))


def principal_chart_frame(jet: GraphJet) -> FrameInfo:
    """Hyperbolic-orthonormal principal frame with a degeneracy verdict.

    'umbilic' means the whole spectrum collapses, 'partial' that some
    but not all gaps do.  Either way the returned frame is principal:
    every orthonormal basis of a degenerate eigenspace is.
    """
    kappa = jet.hyperbolic_spectrum.array()
    tol = EIG_GAP_TOL * (1.0 + abs(kappa[0]))
    spread = kappa[0] - kappa[-1]
    gaps = kappa[:-1] - kappa[1:]
    if spread <= tol:
        status = "umbilic"
    elif (gaps <= tol).any():
        status = "partial"
    else:
        status = "distinct"
    return FrameInfo(kappa=kappa, eta=jet.u * jet.principal_chart, status=status)


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

def _norm(x: np.ndarray) -> float:
    # np.linalg.norm's own arithmetic for a real vector, sqrt(x . x),
    # without its per-call dispatch; the audits call it per point
    return math.sqrt(x.dot(x))


class RadialHeightField:
    """Rotationally symmetric height field u(x) = f(|x|).

    profile, profile_d1, profile_d2 are callables for f, f', f''; the
    profile must be smooth at 0 with f'(0) = 0 so the center formulas
    Du = 0, D2u = f''(0) I apply.
    """

    def __init__(self, profile, profile_d1, profile_d2, dim: int):
        self.profile = profile
        self.profile_d1 = profile_d1
        self.profile_d2 = profile_d2
        self.dim = int(dim)

    def value(self, x) -> float:
        r = _norm(np.asarray(x, dtype=float))
        return float(self.profile(r))

    def gradient(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        r = _norm(x)
        if r == 0.0:
            return np.zeros(self.dim)
        return float(self.profile_d1(r)) / r * x

    def hessian(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        r = _norm(x)
        if r == 0.0:
            return float(self.profile_d2(0.0)) * np.eye(self.dim)
        xh = x / r
        P = np.outer(xh, xh)
        f1, f2 = float(self.profile_d1(r)), float(self.profile_d2(r))
        return f2 * P + (f1 / r) * (np.eye(self.dim) - P)


# ---------------------------------------------------------------------------
# Chart tensors of the induced metric
# ---------------------------------------------------------------------------

def induced_metric(u: float, grad_u: np.ndarray) -> np.ndarray:
    Du = np.asarray(grad_u, dtype=float)
    n = Du.size
    return (np.eye(n) + np.outer(Du, Du)) / u ** 2


def inverse_induced_metric(u: float, grad_u: np.ndarray) -> np.ndarray:
    Du = np.asarray(grad_u, dtype=float)
    n = Du.size
    w2 = 1.0 + float(Du @ Du)
    return u ** 2 * (np.eye(n) - np.outer(Du, Du) / w2)


def second_fundamental_form_chart(u: float, grad_u, hess_u) -> np.ndarray:
    Du = np.asarray(grad_u, dtype=float)
    D2u = np.asarray(hess_u, dtype=float)
    n = Du.size
    w = math.sqrt(1.0 + float(Du @ Du))
    return D2u / (u * w) + (np.eye(n) + np.outer(Du, Du)) / (w * u ** 2)


def christoffel(u: float, grad_u, hess_u) -> np.ndarray:
    """Christoffel symbols of the induced metric; Gamma[c, a, b] = Gamma^c_ab.

    dG[c, a, b] = d/dx_c G_ab has the closed form
    -2 u^{-3} u_c (delta_ab + u_a u_b) + u^{-2}(u_ac u_b + u_a u_bc),
    so only the second-order jet of u enters.
    """
    Du = np.asarray(grad_u, dtype=float)
    D2u = np.asarray(hess_u, dtype=float)
    n = Du.size
    P = np.eye(n) + np.outer(Du, Du)
    Ginv = inverse_induced_metric(u, Du)
    dG = np.empty((n, n, n))
    for c in range(n):
        dG[c] = (-2.0 * Du[c] / u ** 3) * P \
            + (np.outer(D2u[:, c], Du) + np.outer(Du, D2u[:, c])) / u ** 2
    sym = np.transpose(dG, (1, 0, 2)) + np.transpose(dG, (1, 2, 0)) - dG
    return 0.5 * np.einsum("gd,dab->gab", Ginv, sym)


def _christoffel_at(field, y: np.ndarray) -> np.ndarray:
    return christoffel(field.value(y), field.gradient(y), field.hessian(y))


def _second_form_at(field, y: np.ndarray) -> np.ndarray:
    return second_fundamental_form_chart(field.value(y), field.gradient(y),
                                         field.hessian(y))


def _nu_at(field, y: np.ndarray) -> float:
    g = np.asarray(field.gradient(y), dtype=float)
    return 1.0 / math.sqrt(1.0 + float(g @ g))


# ---------------------------------------------------------------------------
# Identity residuals: vertical normal component
# ---------------------------------------------------------------------------

def _step(fd_step: float) -> float:
    if fd_step <= 0.0:
        raise ValueError("fd_step must be positive")
    return float(fd_step)


def _sample(surface, x):
    """(x, jet, frame, location) of one identity sample at x: everything
    the residuals read at x itself, whatever the step."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    jet = jet_from_field(surface, x)
    return x, jet, principal_chart_frame(jet), tuple(float(c) for c in x)


def nu_identity_residuals(surface, x, fd_step: float) -> list[ResidualSample]:
    """Residuals of the three vertical-component identities at x.

    Always returned (frame-free, any orthonormal frame):

        sum_i u_i^2 / u^2  =  1 - nu^2

    Returned per principal direction, except on a partially degenerate
    frame (principal too, but skipped to bound cost: on radial profiles
    in n >= 3 such frames cover most radii):

        nu_i  = (u_i/u)(nu - kappa_i)
        nu_ii = 2 (u_i/u) nu_i + (1 + nu^2) kappa_i - nu (1 + kappa_i^2)
                - nabla_X h(e_i, e_i),   X = sum_k (u_k/u) e_k

    Frame derivatives (u_i, nu_i, nu_ii) are central differences along
    the frame, nabla_X h a Christoffel-corrected one along X; everything
    pointwise (u, nu, kappa_i) is exact.
    """
    h = _step(fd_step)
    return _nu_residuals(surface, _sample(surface, x), h)


def _nu_residuals(surface, sample, h: float) -> list[ResidualSample]:
    """nu_identity_residuals at step h > 0 on a _sample of surface."""
    x, jet, fr, loc = sample
    n = fr.kappa.size
    u, nu = jet.u, jet.nu_vertical

    u_fd = np.array([(surface.value(x + h * eta) - surface.value(x - h * eta))
                     / (2.0 * h) for eta in fr.eta.T])

    out = [ResidualSample(
        location=loc, identity_name="nu_first", fd_step=h,
        residual=float(u_fd @ u_fd) / u ** 2 - (1.0 - nu ** 2))]

    if fr.status == "partial":
        return out

    Gamma = christoffel(u, jet.grad_u, jet.hess_u)
    X = fr.eta @ (u_fd / u)
    dh = (_second_form_at(surface, x + h * X)
          - _second_form_at(surface, x - h * X)) / (2.0 * h)
    gam_h = np.einsum("mca,c,mb->ab", Gamma, X,
                      second_fundamental_form_chart(u, jet.grad_u, jet.hess_u))
    dh_X = dh - gam_h - gam_h.T
    for i in range(n):
        eta = fr.eta[:, i]
        kap = fr.kappa[i]
        nu_i = (_nu_at(surface, x + h * eta) - _nu_at(surface, x - h * eta)) / (2.0 * h)
        out.append(ResidualSample(
            location=loc, identity_name="nu_gradient", fd_step=h, direction=i,
            residual=nu_i - (u_fd[i] / u) * (nu - kap), measured=nu_i))
        corr = -0.5 * h * h * np.einsum("gab,a,b->g", Gamma, eta, eta)
        nu_ii = (_nu_at(surface, x + h * eta + corr) - 2.0 * nu
                 + _nu_at(surface, x - h * eta + corr)) / (h * h)
        rhs = 2.0 * (u_fd[i] / u) * nu_i + (1.0 + nu ** 2) * kap \
            - nu * (1.0 + kap ** 2) - float(eta @ dh_X @ eta)
        out.append(ResidualSample(
            location=loc, identity_name="nu_second", fd_step=h, direction=i,
            residual=nu_ii - rhs, measured=nu_ii))
    return out


# ---------------------------------------------------------------------------
# Gauss, Codazzi and the second-derivative commutator
# ---------------------------------------------------------------------------

def _central_differences(f, x: np.ndarray, h: float) -> np.ndarray:
    """(f(x + h e_c) - f(x - h e_c)) / (2h) for each chart axis c,
    stacked along a new first axis."""
    out = []
    for c in range(x.size):
        step = np.zeros(x.size)
        step[c] = h
        out.append((f(x + step) - f(x - step)) / (2.0 * h))
    return np.stack(out)


def _riemann_lowered(field, x: np.ndarray, h: float) -> np.ndarray:
    """R4[a, b, c, d] = <R(e_a, e_b) e_c, e_d> of the induced metric.

    Christoffel symbols are analytic in the jet of u; their chart
    derivatives are taken by central differences with step h.
    """
    dGam = _central_differences(lambda y: _christoffel_at(field, y), x, h)
    Gam = _christoffel_at(field, x)
    X1 = np.transpose(dGam, (1, 0, 2, 3))  # [g,a,b,c] = d_a Gamma^g_bc
    X2 = np.transpose(dGam, (1, 2, 0, 3))  # [g,a,b,c] = d_b Gamma^g_ac
    Q1 = np.einsum("gam,mbc->gabc", Gam, Gam)
    Q2 = np.einsum("gbm,mac->gabc", Gam, Gam)
    Rup = X1 - X2 + Q1 - Q2  # R^g_{c ab} indexed [g, a, b, c]
    G = induced_metric(field.value(x), np.asarray(field.gradient(x), dtype=float))
    return np.einsum("dg,gabc->abcd", G, Rup)


def _covariant_dh(field, y: np.ndarray, h: float) -> np.ndarray:
    """(nabla h)[a, b, c] = h_ab;c at y, central differences for d_c h_ab."""
    dh = np.moveaxis(
        _central_differences(lambda z: _second_form_at(field, z), y, h), 0, -1)
    Gam = _christoffel_at(field, y)
    hmat = _second_form_at(field, y)
    corr1 = np.einsum("mca,mb->abc", Gam, hmat)
    corr2 = np.einsum("mcb,am->abc", Gam, hmat)
    return dh - corr1 - corr2


def _second_covariant_dh(field, x: np.ndarray, h: float) -> np.ndarray:
    """(nabla^2 h)[a, b, c, d] = h_ab;c;d at x."""
    dB = np.moveaxis(
        _central_differences(lambda y: _covariant_dh(field, y, h), x, h), 0, -1)
    Gam = _christoffel_at(field, x)
    B = _covariant_dh(field, x, h)
    corr = (np.einsum("mda,mbc->abcd", Gam, B)
            + np.einsum("mdb,amc->abcd", Gam, B)
            + np.einsum("mdc,abm->abcd", Gam, B))
    return dB - corr


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
    """
    h = _step(fd_step)
    x, _, fr, loc = _sample(surface, x)
    n = fr.kappa.size
    eta = fr.eta

    out = []
    R4 = _riemann_lowered(surface, x, h)
    for i in range(n):
        for j in range(i + 1, n):
            sec = float(np.einsum("abcd,a,b,c,d->", R4,
                                  eta[:, i], eta[:, j], eta[:, j], eta[:, i]))
            target = -1.0 + fr.kappa[i] * fr.kappa[j]
            out.append(ResidualSample(
                location=loc, identity_name="gauss", fd_step=h,
                direction=(i, j), residual=sec - target, measured=sec))

    B = _covariant_dh(surface, x, h)
    T3 = np.einsum("abc,ai,bj,ck->ijk", B, eta, eta, eta)
    codazzi = float(np.abs(T3 - np.transpose(T3, (0, 2, 1))).max())
    out.append(ResidualSample(location=loc, identity_name="codazzi",
                              fd_step=h, residual=codazzi))

    C = _second_covariant_dh(surface, x, h)
    T4 = np.einsum("abcd,ak,bl,ci,dj->klij", C, eta, eta, eta, eta)
    h_frame = np.diag(fr.kappa)
    rhs = commutator_rhs(h_frame, np.transpose(T4, (2, 3, 0, 1)))
    comm = float(np.abs(T4 - rhs).max())
    out.append(ResidualSample(location=loc, identity_name="commutator",
                              fd_step=h, residual=comm))
    return out
