"""Full graph solver on star-shaped domains via a mapped polar grid.

The domain is pulled back to the unit ball by x = s * rho(omega) * omega
and discretized on an offset product grid:

* radial rings s_j = (j - 1/2) * hs with hs = 1/(J - 1/2), so ring J
  sits exactly on the boundary (Dirichlet) and no node hits the
  coordinate singularity s = 0;
* n = 3: offset latitudes theta_m = (m + 1/2) pi / M (no pole nodes)
  and periodic longitudes phi_l = 2 pi l / L with L even;
* n = 2: periodic angles phi_l = 2 pi l / L.

Ghost neighbors wrap instead of extrapolating: longitude is periodic,
stepping over a pole lands on the opposite longitude, and stepping
through the center lands on the antipodal node of ring 1 (valid because
the map direction through the origin is straight).  Center wrap is
applied before the pole wrap so composed crossings resolve correctly.

Chart derivatives of u convert to Cartesian ones through the inverse
map Jacobian; the residual is evaluated through the symmetrized shape
matrix

    S = u * Ghalf @ (D2u / w) @ Ghalf + nu * I,
    Ghalf = I - Du Du^T / (w (w + 1))   (inverse square root of g_e),

whose eigenvalues are the hyperbolic principal curvatures.  sigma_1 and
sigma_2 come from trace minors of S, so residual and cone guard are
analytic in the local chart jet (u, Du, D2u) of each node.

The boundary ring carries no equation, but the curvature reports need
its jet: boundary_jet runs the same stencils on the last three rings
and replaces the radial slots by one-sided differences.

Every jet component is a fixed linear combination of the 19 (n = 3) or
9 (n = 2) wrapped stencil neighbors, with one scalar weight per (jet
component, stencil offset).  The Newton Jacobian is that chain: the
pointwise derivative of the residual in each jet component, times the
stencil weights, summed onto a sparsity pattern that is fixed per grid.
All of those derivatives are closed forms of one real shape pass
(_jet_gradient): S is linear in u and in D2u, and w, Ghalf and the map
term depend on Du alone, which is linear in the first chart
derivatives.  The solver does no complex arithmetic; the tests hold the
closed forms to a complex step through _shape.

The Newton step is inexact (Eisenstat and Walker 1996): GMRES on the
exact Jacobian, stopped at ||J s + F||_2 <= GMRES_RTOL ||F||_2 and
right-preconditioned by an incomplete LU (Saad 2003).  _gmres is a lean
restarted GMRES: the Krylov basis is one array, so each Gram-Schmidt
pass is two BLAS products, and only the small Givens and triangular
work stays in Python.  The ILU is built by the first step that needs
one and held on the _GridGeometry, which every scheme of a path shares,
so the first leg, the sigma walk, split legs and the eps descent all
reuse it.  When GMRES misses GMRES_RTOL, the ILU is rebuilt from the
current Jacobian and GMRES runs once more; when a fresh ILU misses as
well, the step raises NewtonDivergenceError with the iterate it started
from, and the continuation driver splits the leg.  The forcing term
stays loose because a tight one is not reachable: the relative residual
of J s + F bottoms out at a few 1e-12 in float64.  solve_graph_path
drops the ILU when it returns, so the returned fields do not keep it
alive.

_GridScheme packages all of this in the scheme interface of
solver._solve_path, the continuation driver the radial solver uses as
well (sigma walk, split legs, eps descent).  Its Newton legs call this
module's damped_newton, so they stay apart from the radial ones.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .cones import cone_mask_batch
from .domains import DomainSpec, omega_jet
from .errors import GridDegeneracyError, NewtonDivergenceError
from .geometry import exact_cap
from .solver import (ConvergenceInfo, NewtonParams, PolarGridMesh, SolveConfig,
                     SolutionField, SphericalGridMesh, _solve_path,
                     damped_newton, initial_profile_slope)

__all__ = ["solve_graph", "solve_graph_path", "initial_grid_guess"]

#: Drop tolerance of the incomplete LU that preconditions every GMRES
#: solve of a path.  At 1e-2 one ILU, built on the path's first leg,
#: still solves the eps = 1e-4 systems in about 25 inner iterations on
#: the default n = 3 mesh (the (1.3, 1, 1) ellipsoid at sigma = 1.5), and
#: its build takes less than half the time of a full sparse LU there.
ILU_DROP_TOL = 1.0e-2

#: Forcing term of the inexact Newton step: GMRES stops once
#: ||J s + F||_2 <= GMRES_RTOL ||F||_2.  A tighter one cannot be reached:
#: at the first step of that path the ratio bottoms out near 2.5e-12 in
#: float64 (a full LU gives 6.5e-12), so at 2e-12 GMRES stagnates and
#: misses.  At 1e-8 a path mostly takes the Newton steps of an exact LU
#: step and ends within 1e-15 of its heights; where a leg takes one step
#: more on one side, or stalls at the residual floor on one side only,
#: the two end a few 1e-12 apart (the (2, 1, 1) ellipsoid at
#: sigma = 0.5: 20 LU steps, 41 GMRES steps, 4.6e-12).
GMRES_RTOL = 1.0e-8

#: Krylov basis size per GMRES cycle, and the cycles allowed before the
#: ILU counts as stale and is rebuilt.  The slowest solve seen on 29
#: probed default-mesh paths (n = 3 ellipsoids of aspect 1.3 to 3 and
#: n = 2 ellipses, sigma 0.05 to n - 0.05) took 96 inner iterations, on
#: the (2, 1, 1) ellipsoid walked to sigma = 0.05; none missed.
GMRES_RESTART = 40
GMRES_MAXITER = 3


def _offset(n: int, *steps) -> tuple:
    """The chart offset with off[axis] = step per (axis, step)."""
    off = [0] * n
    for axis, step in steps:
        off[axis] = step
    return tuple(off)


def _offsets(n: int) -> list:
    """Stencil offsets: the centre, then +-e_a, then +-e_a +- e_b."""
    pm = (1, -1)
    return [_offset(n)] + [_offset(n, (a, s)) for a in range(n) for s in pm] \
        + [_offset(n, (a, s), (b, t)) for a, b in
           itertools.combinations(range(n), 2) for s in pm for t in pm]


def _jet_pairs(n: int) -> list:
    """(a, b) index pairs of the second chart derivatives, in jet order."""
    return [(a, a) for a in range(n)] + \
        list(itertools.combinations(range(n), 2))


class _GridGeometry:
    """Mesh, map tensors and wrapped index maps; independent of u.

    ilu is the incomplete LU that preconditions the Newton steps of every
    scheme on this geometry (None until a step needs one).
    """

    def __init__(self, domain: DomainSpec, mesh):
        self.domain = domain
        self.n = domain.n
        if self.n == 3:
            if not isinstance(mesh, SphericalGridMesh):
                raise ValueError("n = 3 grid solves need a SphericalGridMesh")
            self.J, self.M, self.L = mesh.radial, mesh.lat, mesh.lon
            self.hth = math.pi / self.M
            lat, lat_h = [(np.arange(self.M) + 0.5) * self.hth], [self.hth]
        else:
            if not isinstance(mesh, PolarGridMesh):
                raise ValueError("n = 2 grid solves need a PolarGridMesh")
            self.J, self.L = mesh.radial, mesh.angular
            self.M = 1
            lat, lat_h = [], []
        J, M, L = self.J, self.M, self.L
        self.hph = 2.0 * math.pi / L
        self.hs = 1.0 / (J - 0.5)
        self.h = (self.hs, *lat_h, self.hph)
        # the M * L grid directions, latitude-major like the node index
        self.angles = np.stack(np.meshgrid(*lat, np.arange(L) * self.hph,
                                           indexing="ij"),
                               axis=-1).reshape(M * L, self.n - 1)
        self.s = (np.arange(1, J + 1) - 0.5) * self.hs
        self.n_all = J * M * L
        self.n_int = (J - 1) * M * L

        jj, mm, ll = np.meshgrid(np.arange(1, J + 1), np.arange(M),
                                 np.arange(L), indexing="ij")
        self.jj = jj.ravel()
        self.mm = mm.ravel()
        self.ll = ll.ravel()

        self._build_map_tensors()
        self._build_stencil()
        self.ilu = None

    # -- map tensors ---------------------------------------------------------

    def _build_map_tensors(self):
        """Jacobian Xc, second derivatives Xcc and positions of the map
        x = s q(angles), q = rho(omega) omega, in chart order (s, angles).

        One chain rule over the M * L grid directions gives q, q_a and
        q_ab; node i sits on direction i % (M * L) at radius s_node[i].
        """
        n = self.n
        w, dw, ddw = omega_jet(self.angles)
        rho, grad, hess = self.domain.rho_jet(self.angles)
        q = rho[:, None] * w
        q_a = grad[:, :, None] * w[:, None, :] + rho[:, None, None] * dw
        cross = grad[:, :, None, None] * dw[:, None, :, :]
        q_ab = hess[..., None] * w[:, None, None, :] \
            + (cross + cross.swapaxes(1, 2)) + rho[:, None, None, None] * ddw

        direction = np.arange(self.n_all) % (self.M * self.L)
        s_node = self.s[self.jj - 1]
        sv = s_node[:, None, None]
        Xc = np.empty((self.n_all, n, n))
        Xc[:, :, 0] = q[direction]
        Xc[:, :, 1:] = sv * q_a[direction].swapaxes(1, 2)
        Xcc = np.zeros((self.n_all, n, n, n))
        Xcc[:, :, 0, 1:] = Xcc[:, :, 1:, 0] = q_a[direction].swapaxes(1, 2)
        Xcc[:, :, 1:, 1:] = sv[..., None] * np.moveaxis(q_ab[direction], 3, 1)

        det = np.linalg.det(Xc)
        if np.abs(det).min() < 1.0e-12:
            raise GridDegeneracyError(
                "radial map loses injectivity on the grid "
                f"(min |det| = {np.abs(det).min():.3e})")
        self.A = np.linalg.inv(Xc)
        self.Xcc = Xcc
        self.xyz = s_node[:, None] * q[direction]
        self.s_node = s_node

    # -- wrapped stencil indices ---------------------------------------------

    def _wrap_flat(self, off) -> np.ndarray:
        """Flat index of each node's neighbor at off = (dj, dm, dl), or
        (dj, dl) for n = 2, whose one latitude row never wraps a pole."""
        M, L = self.M, self.L
        dj, *dm, dl = off
        jj = self.jj + dj
        mm = self.mm + sum(dm)
        ll = self.ll + dl
        center = jj == 0
        if center.any():
            mm = np.where(center, M - 1 - mm, mm)
            ll = np.where(center, ll + L // 2, ll)
            jj = np.where(center, 1, jj)
        pole = (mm == -1) | (mm == M)
        mm = np.clip(mm, 0, M - 1)
        ll = np.where(pole, ll + L // 2, ll) % L
        return (jj - 1) * M * L + mm * L + ll

    def _build_stencil(self):
        """Neighbor map, stencil weights and the Jacobian's sparsity.

        nbr[o, i] is the flat index of node i's neighbor at offset o.  The
        chart jet is linear in the neighbor values, with one scalar weight
        coef[k, o] per (jet component, offset), read off chart_jet itself.
        The Jacobian entry of interior row i at offset o sits at
        jac_pos[o, i] of the CSC data (jac_nnz if the neighbor is on the
        boundary ring).
        """
        n, ni = self.n, self.n_int
        self.offsets = _offsets(n)
        self.nbr = np.stack([self._wrap_flat(off) for off in self.offsets])
        unit = np.eye(len(self.offsets))
        self.coef = self._jet_from(dict(zip(self.offsets, unit))).T
        self.sym = np.empty((n, n), dtype=np.intp)
        for r, (a, b) in enumerate(_jet_pairs(n), 1 + n):
            self.sym[a, b] = self.sym[b, a] = r

        keys = np.where(self.nbr[:, :ni] < ni,
                        self.nbr[:, :ni] * ni + np.arange(ni), -1)
        nz = np.unique(keys[keys >= 0])
        self.jac_nnz = nz.size
        self.jac_pos = np.where(keys >= 0, np.searchsorted(nz, keys), nz.size)
        self.jac_rows = nz % ni
        self.jac_indptr = np.searchsorted(nz, np.arange(ni + 1) * ni)

    # -- chart derivatives -----------------------------------------------------

    def _jet_from(self, g: dict) -> np.ndarray:
        """Packed jet (u, Du, D2u over _jet_pairs) from neighbor values."""
        n, h = self.n, self.h

        def at(*steps):
            return g[_offset(n, *steps)]

        pairs = _jet_pairs(n)
        u0 = at()
        jet = np.empty((u0.shape[0], 1 + n + len(pairs)), dtype=u0.dtype)
        jet[:, 0] = u0
        for a in range(n):
            jet[:, 1 + a] = (at((a, 1)) - at((a, -1))) / (2 * h[a])
        for r, (a, b) in enumerate(pairs, 1 + n):
            if a == b:
                jet[:, r] = (at((a, 1)) - 2 * u0 + at((a, -1))) / h[a] ** 2
            else:
                jet[:, r] = (at((a, 1), (b, 1)) - at((a, 1), (b, -1))
                             - at((a, -1), (b, 1)) + at((a, -1), (b, -1))) \
                    / (4 * h[a] * h[b])
        return jet

    def chart_jet(self, U: np.ndarray) -> np.ndarray:
        """Packed chart jet of the full height array at the interior nodes."""
        ni = self.n_int
        return self._jet_from({off: U[ix[:ni]]
                               for off, ix in zip(self.offsets, self.nbr)})

    def unpack(self, jet: np.ndarray):
        """(u, first chart derivatives, second chart derivatives)."""
        return jet[:, 0], jet[:, 1:self.n + 1], jet[:, self.sym]

    def boundary_jet(self, U: np.ndarray) -> np.ndarray:
        """Packed chart jet of the full height array on the boundary ring.

        The angular slots are chart_jet's own stencils on rings J, J-1
        and J-2 (ring J's reads past the boundary are clipped and never
        used); the radial slots u_s, u_ss and u_s(angle) are then
        replaced by one-sided second-order differences across the rings.
        """
        ml, na, n, hs = self.M * self.L, self.n_all, self.n, self.hs
        rings = self._jet_from({off: U.take(ix[na - 3 * ml:], mode="clip")
                                for off, ix in zip(self.offsets, self.nbr)})
        j2, j1, jet = rings[:ml], rings[ml:2 * ml], rings[2 * ml:]
        u3 = U[na - 4 * ml:na - 3 * ml]
        jet[:, 1] = (3 * jet[:, 0] - 4 * j1[:, 0] + j2[:, 0]) / (2 * hs)
        jet[:, self.sym[0, 0]] = (2 * jet[:, 0] - 5 * j1[:, 0] + 4 * j2[:, 0]
                                  - u3) / hs ** 2
        for a in range(1, n):
            jet[:, self.sym[0, a]] = (3 * jet[:, 1 + a] - 4 * j1[:, 1 + a]
                                      + j2[:, 1 + a]) / (2 * hs)
        return jet


def _shape(u, p, P, A, Xcc):
    """Shape matrices S = (u/w) Q + (1/w) I and their pieces, per node.

    (u, p, P) is the chart jet of u, A the inverse map Jacobian and Xcc
    the map's second derivatives.  Returns (S, w, B, Q) with
    w = sqrt(1 + |Du|^2), B = A Ghalf and Q = B^T (P - C) B, where
    C = Du . Xcc; w, B and C depend on p alone, so S is linear in u and
    in P.  Only batched @ and analytic operations are used, so a complex
    jet carries complex-step derivatives through: the solver never passes
    one, but the tests hold _jet_gradient and the Jacobian to that
    complex step, which needs _shape to stay analytic.
    """
    n = p.shape[1]
    Du = (p[:, None, :] @ A)[:, 0]
    C = (Du[:, None, :] @ Xcc.reshape(-1, n, n * n)).reshape(-1, n, n)
    w = np.sqrt(1.0 + (Du * Du).sum(axis=1))
    coef = 1.0 / (w * (w + 1.0))
    B = A @ (np.eye(n) - coef[:, None, None] * Du[:, :, None] * Du[:, None, :])
    Q = B.swapaxes(1, 2) @ (P - C) @ B
    S = (u / w)[:, None, None] * Q + (1.0 / w)[:, None, None] * np.eye(n)
    return S, w, B, Q


def _sigma(S):
    """sigma_{n-1} of the eigenvalues of S for n in {2, 3}, from traces."""
    t = np.trace(S, axis1=1, axis2=2)
    if S.shape[-1] == 2:
        return t
    return 0.5 * (t * t - (S * S).sum(axis=(1, 2)))


def _sigma_gradient(S):
    """G = d sigma_{n-1} / dS of symmetric S for n in {2, 3}: I when
    n = 2, tr(S) I - S when n = 3."""
    n = S.shape[-1]
    if n == 2:
        return np.eye(n)
    return np.trace(S, axis1=1, axis2=2)[:, None, None] * np.eye(n) - S


def _jet_gradient(u, p, P, A, Xcc):
    """dF/djet of F = sigma_{n-1}(S) per node, in packed jet order, in
    closed form from one real _shape pass.

    S = (u/w) Q + (1/w) I, and w, B and C depend on the first
    derivatives p alone, so with G = dF/dS (_sigma_gradient) the u and
    second-derivative slots are

        dF/du = <G, Q> / w,    dF/dP_ab = (u/w) (B G B^T)_ab,

    the two symmetric entries summed when a != b.  <G, Q> is formed from
    Q itself: recovering Q as (S - I/w)/u cancels where u is small, next
    to the boundary.  In the first-derivative slot a, Du = p A moves by
    the row A[a, :], so dw_a = (A Du)_a / w, dC_a = sum_k A_ak Xcc_k and
    B = A Ghalf moves by A dGhalf_a, with Ghalf = I - c Du Du^T and
    c = 1 / (w (w + 1)).  With G and Q symmetric,

        dF/dp_a = -(dw_a / w^2) (u <G, Q> + tr G)
                  + (u/w) (2 <dGhalf_a, A^T (P - C) B G> - <B G B^T, dC_a>),

    and <dGhalf_a, Y> = -dc_a Du^T Y Du - c (A (Y + Y^T) Du)_a.
    """
    n = p.shape[1]
    pairs = _jet_pairs(n)
    dF = np.empty((u.size, 1 + n + len(pairs)))
    S, w, B, Q = _shape(u, p, P, A, Xcc)
    G = _sigma_gradient(S)
    BG = B @ G
    uw = u / w
    BGB = uw[:, None, None] * (BG @ B.swapaxes(1, 2))
    GQ = (G * Q).sum(axis=(1, 2))
    dF[:, 0] = GQ / w
    for r, (a, b) in enumerate(pairs, 1 + n):
        dF[:, r] = BGB[:, a, b] if a == b else BGB[:, a, b] + BGB[:, b, a]

    Du = (p[:, None, :] @ A)[:, 0]
    C = (Du[:, None, :] @ Xcc.reshape(-1, n, n * n)).reshape(-1, n, n)
    c = 1.0 / (w * (w + 1.0))
    dw = (A @ Du[:, :, None])[:, :, 0] / w[:, None]
    dc = -(2.0 * w + 1.0)[:, None] * c[:, None] ** 2 * dw
    Y = A.swapaxes(1, 2) @ (P - C) @ BG
    YDu = (Y @ Du[:, :, None])[:, :, 0]
    YtDu = (Du[:, None, :] @ Y)[:, 0]
    dGhalf_Y = -dc * (Du * YDu).sum(axis=1)[:, None] \
        - c[:, None] * (A @ (YDu + YtDu)[:, :, None])[:, :, 0]
    BGB_dC = (A @ Xcc.reshape(-1, n, n * n)) @ BGB.reshape(-1, n * n, 1)
    trG = np.trace(G, axis1=-2, axis2=-1)
    dF[:, 1:1 + n] = -(dw / w[:, None] ** 2) * (u * GQ + trG)[:, None] \
        + 2.0 * uw[:, None] * dGhalf_Y - BGB_dC[:, :, 0]
    return dF


def _gmres(J, F, ilu):
    """s with ||J s + F||_2 <= GMRES_RTOL ||F||_2, or None if GMRES
    preconditioned by ilu misses that within GMRES_MAXITER cycles.

    Restarted GMRES on J M^-1 y = -F with M^-1 = ilu.solve (right
    preconditioning, Saad 2003, sections 6.5 and 9.3), so its estimate
    is the unpreconditioned residual.  Each Arnoldi step orthogonalizes
    by classical Gram-Schmidt with one reorthogonalization, as two BLAS
    products against the basis each time; the Givens rotations that
    reduce the Hessenberg columns and the small triangular solve run on
    Python floats.  A cycle ends when the estimate meets the tolerance,
    the basis is full, or the Krylov space is invariant (a zero
    subdiagonal: the cycle's least-squares solution is then exact); one
    ilu.solve maps its correction back.  Only the true residual of the
    step accepts it.
    """
    b = -F
    beta = np.linalg.norm(b)
    s = np.zeros(F.size)
    if beta == 0.0:
        return s
    tol = GMRES_RTOL * beta
    V = np.empty((GMRES_RESTART + 1, F.size))
    r = b
    for _ in range(GMRES_MAXITER):
        V[0] = r / beta
        g = [beta]
        cs, sn, R = [], [], []  # R[k] is column k of the triangular factor
        for k in range(GMRES_RESTART):
            w = J @ ilu.solve(V[k])
            basis = V[:k + 1]
            h = basis @ w
            w -= h @ basis
            h2 = basis @ w
            w -= h2 @ basis
            h = (h + h2).tolist()
            h_next = float(np.linalg.norm(w))
            for i in range(k):
                h[i], h[i + 1] = (cs[i] * h[i] + sn[i] * h[i + 1],
                                  cs[i] * h[i + 1] - sn[i] * h[i])
            rho = math.hypot(h[k], h_next)
            if rho == 0.0:  # J M^-1 is singular on the Krylov space
                break
            cs.append(h[k] / rho)
            sn.append(h_next / rho)
            h[k] = rho
            R.append(h)
            g.append(-sn[k] * g[k])
            g[k] *= cs[k]
            # an invariant Krylov space (h_next = 0) has g[k + 1] = 0
            if abs(g[k + 1]) <= tol:
                break
            V[k + 1] = w / h_next
        if not R:
            return None
        y = g[:len(R)]
        for i in reversed(range(len(R))):
            y[i] = (y[i] - sum(R[j][i] * y[j]
                               for j in range(i + 1, len(R)))) / R[i][i]
        s = s + ilu.solve(np.asarray(y) @ V[:len(R)])
        r = b - J @ s
        beta = np.linalg.norm(r)
        if beta <= tol:
            return s
    return None


class _GridScheme:
    """The grid discretization for one (geometry, eps_bdry) pair, in the
    scheme interface that solver._solve_path drives."""

    def __init__(self, geo: _GridGeometry, eps_bdry: float):
        self.geo = geo
        self.eps_bdry = float(eps_bdry)

    def at_eps(self, eps: float) -> "_GridScheme":
        return _GridScheme(self.geo, eps)

    def full_height(self, v: np.ndarray) -> np.ndarray:
        U = np.full(self.geo.n_all, self.eps_bdry, dtype=v.dtype)
        U[:self.geo.n_int] = v
        return U

    def cap_height(self, sigma: float, eps: float) -> np.ndarray:
        """Umbilic cap profile of the mean-radius ball, composed with s."""
        geo = self.geo
        R = _reference_radius(geo.domain)
        return exact_cap(geo.n, sigma, R, eps).height(R * geo.s_node[:geo.n_int])

    def initial_guess(self, sigma: float, eps: float) -> np.ndarray:
        return initial_grid_guess(self.geo, sigma, eps)

    def _interior_jet(self, v: np.ndarray):
        """(u, p, P): the unpacked chart jet at the interior nodes."""
        return self.geo.unpack(self.geo.chart_jet(self.full_height(v)))

    def _interior_shape(self, v: np.ndarray) -> np.ndarray:
        geo = self.geo
        ni = geo.n_int
        return _shape(*self._interior_jet(v), geo.A[:ni], geo.Xcc[:ni])[0]

    def residual(self, v: np.ndarray, sigma: float) -> np.ndarray:
        return _sigma(self._interior_shape(v)) - sigma

    def guard(self, v: np.ndarray) -> bool:
        if not (v > 0.0).all():
            return False
        S = self._interior_shape(v)
        if not (np.trace(S, axis1=1, axis2=2) > 0.0).all():
            return False
        return bool((_sigma(S) > 0.0).all())

    def jacobian(self, v: np.ndarray) -> scipy.sparse.csc_matrix:
        """Exact Jacobian of the residual: the stencil chain.

        The residual at node i depends on its own chart jet only, so
        J[i, nbr[o, i]] sums (dF_i/djet) @ coef[:, o] over the offsets o,
        with dF_i/djet from _jet_gradient.
        """
        geo = self.geo
        ni = geo.n_int
        dF = _jet_gradient(*self._interior_jet(v), geo.A[:ni], geo.Xcc[:ni])
        weights = geo.coef.T @ dF.T  # (offset, node), as jac_pos
        data = np.bincount(geo.jac_pos.ravel(), weights=weights.ravel(),
                           minlength=geo.jac_nnz + 1)[:geo.jac_nnz]
        return scipy.sparse.csc_matrix((data, geo.jac_rows, geo.jac_indptr),
                                       shape=(geo.n_int, geo.n_int))

    def jacobian_step(self, v: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Inexact Newton step: ||J(v) s + F||_2 <= GMRES_RTOL ||F||_2.

        GMRES runs on the exact Jacobian, preconditioned by the geometry's
        cached ILU.  When it misses GMRES_RTOL, the ILU is rebuilt from
        J(v) and GMRES runs once more; if that misses too, the step raises
        NewtonDivergenceError carrying v, and _leg splits the leg.
        """
        geo = self.geo
        J = self.jacobian(v)
        if geo.ilu is not None:
            s = _gmres(J, F, geo.ilu)
            if s is not None:
                return s
        geo.ilu = scipy.sparse.linalg.spilu(J, drop_tol=ILU_DROP_TOL)
        s = _gmres(J, F, geo.ilu)
        if s is None:
            raise NewtonDivergenceError(
                f"GMRES missed rtol {GMRES_RTOL:.0e} with a fresh ILU",
                state=v)
        return s

    def newton(self, v: np.ndarray, sigma: float, params: NewtonParams):
        return damped_newton(
            v,
            residual_fn=functools.partial(self.residual, sigma=sigma),
            guard_fn=self.guard,
            jacobian_solver=self.jacobian_step,
            params=params,
        )

    # -- field assembly -------------------------------------------------------

    def build_field(self, v: np.ndarray, sigma: float, iterations: int,
                    resid: float) -> SolutionField:
        geo = self.geo
        U = self.full_height(v)
        ni = geo.n_int
        jet = np.concatenate([geo.chart_jet(U), geo.boundary_jet(U)])
        S_all, w_all, _, _ = _shape(*geo.unpack(jet), geo.A, geo.Xcc)
        spectra = np.linalg.eigvalsh(S_all)[:, ::-1]
        boundary = np.zeros(geo.n_all, dtype=bool)
        boundary[ni:] = True
        cone_ok = bool(cone_mask_batch(spectra[:ni], geo.n - 1).all())
        return SolutionField(
            domain=geo.domain,
            nodes=geo.xyz.copy(),
            u=U,
            boundary=boundary,
            nu_vertical=1.0 / w_all,
            spectra=spectra,
            residual_field=_sigma(S_all) - sigma,
            convergence=ConvergenceInfo(iterations=iterations, residual=resid,
                                        eps_bdry=self.eps_bdry, sigma=sigma),
            cone_ok=cone_ok,
            meta={"kind": "grid", "scheme": self,
                  "near_boundary": geo.jj >= geo.J - 1},
        )


# ---------------------------------------------------------------------------
# Initial guesses and entry points
# ---------------------------------------------------------------------------

def _reference_radius(domain: DomainSpec) -> float:
    if domain.kind == "ball":
        return domain.radius
    if domain.kind == "ellipsoid":
        return float(np.mean(domain.semi_axes))
    return float(np.mean(domain.star_samples))


def initial_grid_guess(geo: _GridGeometry, sigma: float, eps: float) -> np.ndarray:
    """Boundary-exact starting heights inside the cone guard.

    Balls start on the exact cap.  Other domains start from the linear
    distance profile eps + sqrt(1-lam^2)/lam * dist(x, boundary) with
    one neighbor-averaging pass, which tracks the cap's boundary growth;
    its center crease can poke out of the cone, so the guess is blended
    toward the (always admissible) mean-radius cap profile until the
    guard accepts it.
    """
    ni = geo.n_int
    if geo.domain.kind == "ball":
        cap = exact_cap(geo.n, sigma, geo.domain.radius, eps)
        r = np.linalg.norm(geo.xyz[:ni], axis=1)
        return cap.height(r)

    slope = initial_profile_slope(geo.n, sigma)
    # distance proxy (1 - s) * rho * cos(angle between ray and normal)
    if geo.domain.kind == "ellipsoid":
        Mdiag = 1.0 / np.asarray(geo.domain.semi_axes) ** 2
        xb = geo.xyz / geo.s_node[:, None]  # boundary point along each ray
        # cos(gamma) = rho * (omega . M omega) / |rho * M omega|
        rho = np.linalg.norm(xb, axis=1)
        omega = xb / rho[:, None]
        momega = Mdiag[None, :] * omega
        cosg = (np.einsum("ni,ni->n", omega, momega) * rho
                / np.linalg.norm(momega * rho[:, None], axis=1))
        dist = (1.0 - geo.s_node) * rho * cosg
    else:
        rho = np.linalg.norm(geo.xyz / geo.s_node[:, None], axis=1)
        dist = (1.0 - geo.s_node) * rho
    u0 = eps + slope * dist[:ni]

    # one neighbor-averaging pass (boundary stays pinned at eps)
    U = np.empty(geo.n_all)
    U[:ni] = u0
    U[ni:] = eps
    axes = geo.nbr[1:1 + 2 * geo.n, :ni]  # the +-1 steps along each chart axis
    u0 = 0.5 * u0 + 0.5 * U[axes].sum(axis=0) / axes.shape[0]

    scheme = _GridScheme(geo, eps)
    capg = scheme.cap_height(sigma, eps)
    blend = u0
    for _ in range(40):
        if scheme.guard(blend):
            return blend
        blend = 0.5 * blend + 0.5 * capg
    return capg


def solve_graph_path(config: SolveConfig, domain: DomainSpec) -> list[SolutionField]:
    """Continuation solve on the mapped grid; one field per scheduled eps."""
    if domain.n != config.n:
        raise ValueError("domain dimension does not match config.n")
    if config.n not in (2, 3):
        raise ValueError("grid solves support n in {2, 3}")
    if domain.boundary_mean_curvature_min < 0.0:
        raise ValueError("domain boundary must have nonnegative mean curvature")
    mesh = config.mesh
    if mesh is None:
        mesh = SphericalGridMesh() if config.n == 3 else PolarGridMesh()
    geo = _GridGeometry(domain, mesh)
    try:
        return _solve_path(_GridScheme(geo, config.eps_schedule[0]), config)
    finally:
        # the returned fields keep geo alive through meta["scheme"]
        geo.ilu = None


def solve_graph(config: SolveConfig, domain: DomainSpec) -> SolutionField:
    return solve_graph_path(config, domain)[-1]
