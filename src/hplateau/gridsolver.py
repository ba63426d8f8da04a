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

Every per-node tensor keeps the node axis last and contiguous (jets are
(component, node) rows, A is (n, n, N)), and _shape and _jet_gradient
contract the small axes by einsum, a product summed over the shared axis
in one pass down the node axis.  Stacked @ on (N, n, n) blocks costs a
small matmul per node: on the default n = 3 mesh _shape took 1.86 ms on
5 760 nodes that way against 0.60 ms, and _jet_gradient 0.54 against
0.19 ms on 798 nodes (best of 7, one BLAS thread, 2-core x86-64 host).
det, inv and eigvalsh stay batched on (K, n, n), once per orbit.

Each domain declares its symmetry group: the coordinate mirrors
x_i -> -x_i that leave it invariant (DomainSpec.mirror_axes), and
whether every rotation about x_n does (DomainSpec.rotates), whose grid
images are the longitude rotations l -> l + k.  The discrete equation is
equivariant under that group: the stencils and the wraps commute with
it, and the map tensors follow it up to rounding.  An equivariant map
sends its fixed-point subspace into itself (Golubitsky, Stewart and
Schaeffer 1988, vol. II), so Newton runs on the symmetric fields alone,
with one unknown per orbit of the declared group.  Under all n mirrors
(balls and ellipsoids) that is a quarter (n = 2) or an eighth (n = 3)
of the interior nodes, 798 of 5472 on the default n = 3 mesh and 799 of
3008 on the default n = 2 one; with the rotations (balls and x3-aligned
spheroids) it is one per ring (n = 2) or latitude ring pair m, M-1-m
(n = 3), 47 and 114 unknowns on the same meshes.
_GridGeometry picks the smallest flat index of each orbit as its
representative (reps) and maps every interior node to its
representative's position (fold); the residual, the guard and the
Jacobian run on the representatives' rows, and the Jacobian's columns
sum each orbit's stencil weights.  Star domains declare no symmetry and
take the identity group, through the same code.  Only the shape pass of
the reported fields runs on every node, so their residual field checks
the reduced solution on the full grid, and solver._build_field holds it
to residual_tol there: a declared symmetry that the domain lacks raises
NewtonDivergenceError rather than shipping as converged.
The two costly per-node pieces run once per orbit of all nodes,
interior and boundary ring: the spectra's eigvalsh, spread
through node_fold as u is (and w with them), so they are symmetric under
the whole group bit for bit; and det and inv of the map Jacobian, once
per mirror orbit (840 of 5760 on the default n = 3 mesh), whose inverse
A at every other node is the representative's times exact +-1 factors.
A rotation has no such exact factors, so the map tensors keep the mirror
orbits when the unknowns take the rotations too.  Off the
representatives that moves A, and with it the residual field and the
spectra, at rounding level only; the representatives' rows, and so
Newton, keep their bits.

The Newton step depends on the width of the folded Jacobian.  The
unknowns are ring-major, and a node's stencil reaches the neighboring
rings only, so the Jacobian is banded: its lower half-bandwidth kl is
about one ring of orbits (49 on the default n = 3 mesh, 25 on 12 x 8 x 16,
18 on the default n = 2 ellipses, 1 on the n = 2 ball, whose orbits are
whole rings).  Where kl <= BAND_MAX the step is exact: the Jacobian's
weights are summed straight into LAPACK's band layout (band_pos, fixed
per grid) and one dgbsv, a banded LU with partial pivoting (Golub and
Van Loan, Matrix Computations, section 4.3), solves it in about
N kl^2 flops, with nothing held between steps.  A star takes the identity
group and its periodic wrap reaches across a whole ring, which doubles
its band (127 on the default n = 2 mesh), and refined meshes widen it
too; there band LU costs more than GMRES, and the step stays inexact.

The inexact step (Eisenstat and Walker 1996) is GMRES on the
exact Jacobian, stopped at ||J s + F||_2 <= GMRES_RTOL ||F||_2 and
right-preconditioned by an incomplete LU (Saad 2003).  The ILU keeps the
natural order of the unknowns, ring-major, with no fill-reducing column
ordering: on the default n = 3 mesh it then holds 16k entries against
24k under SuperLU's default COLAMD, and is built in half the time,
for about 8% more GMRES iterations.  _gmres is a lean restarted GMRES:
the Krylov basis is one array, so each Gram-Schmidt pass is two BLAS
products, and only the small Givens and triangular work stays in
Python.  The ILU is built by the first step that needs one and held on
the _GridGeometry, which every scheme of a path shares, so the first
leg, the sigma walk, split legs and the eps descent all reuse it.  When
GMRES misses GMRES_RTOL, the ILU is rebuilt from the current Jacobian
and GMRES runs once more; when a fresh ILU misses as well, the step
raises NewtonDivergenceError with the iterate it started from, and the
continuation driver splits the leg.  The forcing term stays loose
because a tight one is not reachable: the relative residual of J s + F
bottoms out at a few 1e-12 in float64.  The returned fields hold no
scheme, so the geometry and its ILU live exactly as long as their path.

_GridScheme packages all of this, for one (sigma, eps_bdry), in the
scheme interface of solver._solve_path, the continuation driver the
radial solver uses as well (sigma walk, split legs, eps descent):
at(sigma, eps), cap, n_int, evaluate(d), jacobian_step(d, data, F),
newton(d, params) and field_parts(d).  Every path starts on its cap
family, the umbilic cap of the ball of DomainSpec.inscribed_radius
composed with s, and the unknowns d are the deviation of the interior
heights from that cap at the representatives: the heights are
u = cap + d[fold], the cap's chart jet is computed once per scheme, and
the jet of u is the cap's jet plus the jet of the spread d with a zero
boundary ring (chart_jet is linear).  The discrete equation is the same
as in the heights, but one ulp of d, not one ulp of u, now sets the
rounding floor of the residual: 1/h^2 times an ulp of u ~ 1 put that
floor near the 1e-10 residual tolerance on the default meshes.  The
scheme's cap is d = 0, so _leg's transport along the cap family keeps d
as it is.
evaluate(d) is the iterate's one shape pass over the representatives,
returned as the residual, the verdict that u > 0 and the nodes lie in
the cone, and the data the Jacobian reads; the scheme stores nothing of
it, and the solver._Leg of each Newton leg holds the last one.
field_parts(d) gives the per-node arrays of a converged d on every
node, which solver._build_field assembles into the SolutionField, as it
does for the radial scheme; n_int tells it how many of those nodes
carry the equation.  The legs call this module's damped_newton, so
they stay apart from the radial ones.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from .domains import DomainSpec, omega_jet
from .errors import GridDegeneracyError, NewtonDivergenceError
from .geometry import exact_cap
from .solver import (NewtonParams, PolarGridMesh, SolveConfig, SolutionField,
                     SphericalGridMesh, _Leg, _solve_path, damped_newton)

__all__ = ["solve_graph", "solve_graph_path"]

#: Widest lower half-bandwidth kl of the folded Jacobian whose Newton
#: steps are exact banded solves (one dgbsv each); wider bands take GMRES
#: and its ILU.  Band LU costs about N kl^2 a step, GMRES about its
#: iterations times the nonzeros, so the crossover is in kl.  Per step on
#: the eps = 1e-3 Jacobian (band vs GMRES with an ILU built at eps 0.1,
#: best of 5, one BLAS thread, 2-core x86-64 host): kl 49 (default n = 3
#: mesh) 0.79 vs 1.65 ms, kl 81 ((1.3, 1, 1) on 28 x 16 x 32) 3.9 vs
#: 5.0 ms, kl 95 (the star on 32 x 48) 3.2 vs 2.9 ms, kl 121 (36 x 20 x 40)
#: 12.5 vs 12.6 ms, kl 127 (the star on 48 x 64) 11.7 vs 7.7 ms.  Whole
#: paths took the banded step faster in 7 of 7 alternating pairs at kl
#: 63 (star, 24 x 32) and 81; the limit sits between 81 and 95.
BAND_MAX = 88

#: Drop tolerance of the incomplete LU that preconditions every GMRES
#: solve of a path, built in the natural ordering.  At 1e-2 one ILU,
#: built on the path's first leg, solves every system of the path in 14
#: to 18 inner iterations on the default n = 3 mesh (the (1.3, 1, 1)
#: ellipsoid at sigma = 1.5, eps 0.1 down to 1e-4, 798 unknowns).  On
#: the path's first Jacobian (12 400 nonzeros) it holds 15 804 entries
#: and builds in 2.7 ms, against 99 819 entries and 5.0 ms for a full
#: splu (COLAMD): best of 20, one BLAS thread, 2-core x86-64 host.
ILU_DROP_TOL = 1.0e-2

#: Forcing term of the inexact Newton step: GMRES stops once
#: ||J s + F||_2 <= GMRES_RTOL ||F||_2.  A tighter one cannot be reached:
#: at the first step of that path the ratio bottoms out between 2e-12
#: and 2.5e-12 in float64 (a full LU gives 6.3e-12), so at 2e-12 GMRES
#: stagnates and misses.  At 1e-8 a path takes the Newton steps of an
#: exact LU step and ends within 2.2e-14 of its heights (the (1.3, 1, 1)
#: ellipsoid at sigma 0.05, 0.5 and 1.5 and the (2, 1, 1) one at 0.5: 13,
#: 11, 11 and 14 steps either way), and halving or doubling it moves
#: criterion 9's witnesses by at most 1.1e-12.
GMRES_RTOL = 1.0e-8

#: Krylov basis size per GMRES cycle, and the cycles allowed before the
#: ILU counts as stale and is rebuilt.  The slowest solve seen on the 27
#: paths of the default-mesh probe (n = 3 ellipsoids of aspect 1.3 to 3
#: and n = 2 ellipses, sigma 0.05 to n - 0.1) took 35 inner iterations
#: in one cycle, on the (3, 1) ellipse at sigma = 0.05; none missed, so
#: each path built one ILU.
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

    ilu is the incomplete LU that preconditions the GMRES steps of every
    scheme on this geometry (None until a step needs one; a geometry
    whose band is narrow, kl <= BAND_MAX, never builds one).
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

        self._build_stencil()
        self._build_orbits()
        self._build_map_tensors()
        self.ilu = None

    # -- map tensors ---------------------------------------------------------

    def _build_map_tensors(self):
        """Jacobian Xc, second derivatives Xcc and positions of the map
        x = s q(angles), q = rho(omega) omega, in chart order (s, angles).

        One chain rule over the M * L grid directions gives q, q_a and
        q_ab; node i sits on direction i % (M * L) at radius s_node[i].
        det and the inverse A run on the mirror orbits' representatives
        alone: a mirror maps Xc to diag(cart_sign) Xc diag(chart_sign), so
        every other node's A is its mirror representative's times those
        exact +-1 factors.  They stay on the mirror orbits when the
        unknowns' group also holds the longitude rotations: a rotation
        maps Xc by a rotation matrix, whose product with a representative's
        inverse would not round to the node's own.  Every unknown's
        representative is its own mirror representative, so A_rep keeps
        the bits of inv(Xc[reps]).
        """
        n = self.n
        w, dw, ddw = omega_jet(self.angles)
        rho, grad, hess = self.domain.rho_jet(self.angles)
        q = rho[:, None] * w
        q_a = grad[:, :, None] * w[:, None, :] + rho[:, None, None] * dw
        cross = grad[:, :, None, None] * dw[:, None, :, :]
        q_ab = hess[..., None] * w[:, None, None, :] \
            + (cross + cross.swapaxes(1, 2)) + rho[:, None, None, None] * ddw

        # (J, M * L, ...) blocks: ring radius times direction tensor
        J, n_all = self.J, self.n_all
        sv = self.s[:, None, None, None]
        q_a = q_a.swapaxes(1, 2)
        Xc = np.empty((J, self.M * self.L, n, n))
        Xc[..., 0] = q
        Xc[..., 1:] = sv * q_a
        Xcc = np.zeros((J, self.M * self.L, n, n, n))
        Xcc[..., 0, 1:] = Xcc[..., 1:, 0] = q_a
        Xcc[..., 1:, 1:] = sv[..., None] * np.moveaxis(q_ab, 3, 1)
        Xc = Xc.reshape(n_all, n, n)
        Xcc = np.moveaxis(Xcc.reshape(n_all, n, n, n), 0, -1).copy()

        Xc_rep = Xc[self.mirror_reps]
        det = np.linalg.det(Xc_rep)
        if np.abs(det).min() < 1.0e-12:
            raise GridDegeneracyError(
                "radial map loses injectivity on the grid "
                f"(min |det| = {np.abs(det).min():.3e})")
        inv = np.moveaxis(np.linalg.inv(Xc_rep), 0, -1)
        self.A = self.chart_sign[:, None] * inv.take(self.mirror_fold, -1) \
            * self.cart_sign[None]
        self.Xcc = Xcc
        self.xyz = (self.s[:, None, None] * q).reshape(n_all, n)
        self.s_node = self.s[self.jj - 1]
        r = self.reps
        self.A_rep, self.Xcc_rep = self.A.take(r, -1), Xcc.take(r, -1)
        # the u-independent factor of _jet_gradient's dC term
        self.AXcc_rep = _mul(self.A_rep, self.Xcc_rep.reshape(n, n * n, -1))

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
        """Neighbor map and stencil weights.

        nbr[o, i] is the flat index of node i's neighbor at offset o, and
        nbr_int its interior columns, contiguous for take.  The chart jet
        is linear in the neighbor values, with one scalar weight coef[k, o]
        per (jet component, offset), read off chart_jet itself.
        """
        n = self.n
        self.offsets = _offsets(n)
        self.nbr = np.stack([self._wrap_flat(off) for off in self.offsets])
        self.nbr_int = self.nbr[:, :self.n_int].copy()
        unit = np.eye(len(self.offsets))
        self.coef = self._jet_from(dict(zip(self.offsets, unit)))
        self.sym = np.empty((n, n), dtype=np.intp)
        for r, (a, b) in enumerate(_jet_pairs(n), 1 + n):
            self.sym[a, b] = self.sym[b, a] = r

    # -- symmetry orbits -----------------------------------------------------

    def _mirror_group(self):
        """(images, chart, cart) of the declared mirror group, one row per
        element: the flat index of each node's image, and the +-1 factor
        on every chart coordinate (s, angles) and every Cartesian one.

        Of the 2^n axis mirrors (x_1: l -> L/2 - l, x_2: l -> -l and, for
        n = 3, x_n: m -> M-1-m; phi flips with x_1 x_2, theta with x_n)
        it keeps those that flip only domain.mirror_axes: a subgroup
        holding the identity, the first row.  The longitude rotations are
        not listed: _build_orbits sets their orbits in closed form, and
        the map tensors need the mirrors alone.
        """
        n, M, L = self.n, self.M, self.L
        images, chart, cart = [], [], []
        for t, a, b in itertools.product((1, -1)[:n - 1], (1, -1), (1, -1)):
            mm = self.mm if t > 0 else M - 1 - self.mm
            ll = (a * b * self.ll + (a < 0) * (L // 2)) % L
            images.append(((self.jj - 1) * M + mm) * L + ll)
            chart.append((1, t, a * b) if n == 3 else (1, a * b))
            cart.append((a, b, t)[:n])
        chart, cart = np.array(chart, dtype=float), np.array(cart, dtype=float)
        declared = np.isin(np.arange(n), self.domain.mirror_axes)
        keep = ((cart > 0) | declared).all(axis=1)
        return np.stack(images)[keep], chart[keep], cart[keep]

    def _build_orbits(self):
        """The symmetry group's orbits over all nodes, the unknowns among
        them, the mirror orbits the map tensors use, and the folded
        Jacobian's sparsity.

        node_reps holds the smallest flat index of each orbit, ascending,
        and node_fold[i] the position in node_reps of node i's
        representative, so x[node_fold] spreads one value per orbit onto
        every node.  The group is the mirror group (_mirror_group), plus
        the longitude rotations l -> l + k when domain.rotates holds.
        There the orbit of (j, m, l) is the ring pair {(j, m', l'): m' in
        {m, M-1-m}}, whose representative (j-1) M L + min(m, M-1-m) L is
        set in closed form rather than by stacking L more image rows.
        The group keeps the ring, so the interior orbits come first: reps,
        their prefix, are the unknowns, and fold = node_fold[:n_int]
        spreads the unknowns d onto every interior node.  The discrete
        equation is equivariant under the group, so the residual of a
        symmetric iterate is symmetric and its rows at reps determine it.

        mirror_reps and mirror_fold are the same for the mirror group
        alone, which _build_map_tensors needs: a mirror maps Xc by exact
        +-1 factors, a rotation does not.  Each mirror is an involution,
        so the first one that sends node i to its mirror representative
        also sends the representative to i: chart_sign and cart_sign hold
        its signs per node (n, N), all +1 at the mirror representatives.
        Every representative of the full group (l = 0) is its own mirror
        representative.  nbr is sliced to the reps' columns once.  The
        reduced Jacobian is J_full[reps] @ P with P[i, fold[i]] = 1: its
        entry of row k at offset o sits at jac_pos[o, k] of the CSC data
        (jac_nnz if the neighbor is on the boundary ring), and column
        fold[nbr[o, reps[k]]] sums the offsets whose neighbors share an
        orbit.  kl and ku are its lower and upper half-bandwidths, and
        band_pos[o, k] the same entry's flat position in LAPACK's
        column-major band array of band_size entries (band_size itself for
        a boundary neighbor), so one bincount fills either layout.
        """
        ni, M, L = self.n_int, self.M, self.L
        index = np.arange(self.n_all)
        images, chart, cart = self._mirror_group()
        mirror_min = images.min(axis=0)
        self.mirror_reps = np.flatnonzero(mirror_min == index)
        self.mirror_fold = np.searchsorted(self.mirror_reps, mirror_min)
        element = (images == mirror_min).argmax(axis=0)
        self.chart_sign = chart.T.take(element, 1)
        self.cart_sign = cart.T.take(element, 1)
        if self.domain.rotates:
            orbit_min = (self.jj - 1) * M * L \
                + np.minimum(self.mm, M - 1 - self.mm) * L
            self.node_reps = np.flatnonzero(orbit_min == index)
            self.node_fold = np.searchsorted(self.node_reps, orbit_min)
        else:
            self.node_reps, self.node_fold = self.mirror_reps, self.mirror_fold
        self.reps = r = self.node_reps[self.node_reps < ni]
        self.fold = self.node_fold[:ni]
        self.nbr_rep = self.nbr[:, r]

        nr = r.size
        inner = self.nbr_rep < ni
        cols = self.fold[np.where(inner, self.nbr_rep, 0)]
        keys = np.where(inner, cols * nr + np.arange(nr), -1)
        # sort, then drop repeats: np.unique hashes these keys, 20x slower
        nz = np.sort(keys[keys >= 0])
        nz = nz[np.concatenate(([True], nz[1:] != nz[:-1]))]
        self.jac_nnz = nz.size
        self.jac_pos = np.where(keys >= 0, np.searchsorted(nz, keys), nz.size)
        self.jac_rows = nz % nr
        self.jac_indptr = np.searchsorted(nz, np.arange(nr + 1) * nr)

        # entry (row, col) sits at [kl + ku + row - col, col] of the band
        nz_cols = nz // nr
        self.kl = int((self.jac_rows - nz_cols).max())
        self.ku = int((nz_cols - self.jac_rows).max())
        ldab = 2 * self.kl + self.ku + 1
        self.band_size = ldab * nr
        at = nz_cols * ldab + self.kl + self.ku + self.jac_rows - nz_cols
        self.band_pos = np.append(at, self.band_size)[self.jac_pos]

    # -- chart derivatives -----------------------------------------------------

    def _jet_from(self, g: dict) -> np.ndarray:
        """Packed jet (u, Du, D2u over _jet_pairs) rows from neighbor values."""
        n, h = self.n, self.h

        def at(*steps):
            return g[_offset(n, *steps)]

        pairs = _jet_pairs(n)
        u0 = at()
        jet = np.empty((1 + n + len(pairs), u0.shape[0]), dtype=u0.dtype)
        jet[0] = u0
        for a in range(n):
            jet[1 + a] = (at((a, 1)) - at((a, -1))) / (2 * h[a])
        for r, (a, b) in enumerate(pairs, 1 + n):
            if a == b:
                jet[r] = (at((a, 1)) - 2 * u0 + at((a, -1))) / h[a] ** 2
            else:
                jet[r] = (at((a, 1), (b, 1)) - at((a, 1), (b, -1))
                          - at((a, -1), (b, 1)) + at((a, -1), (b, -1))) \
                    / (4 * h[a] * h[b])
        return jet

    def chart_jet(self, U: np.ndarray, nbr=None) -> np.ndarray:
        """Packed chart jet of the full height array at the interior nodes,
        or at the nodes whose neighbor columns nbr holds (nbr_rep: the
        representatives).  Each node's jet reads its own neighbors only,
        so a node's jet is the same bits in either call."""
        if nbr is None:
            nbr = self.nbr_int
        return self._jet_from(dict(zip(self.offsets, U.take(nbr))))

    def unpack(self, jet: np.ndarray):
        """(u, chart gradient, chart Hessian): (N,), (n, N) and (n, n, N)."""
        return jet[0], jet[1:self.n + 1], jet[self.sym]

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
        j2, j1, jet = rings[:, :ml], rings[:, ml:2 * ml], rings[:, 2 * ml:]
        u3 = U[na - 4 * ml:na - 3 * ml]
        jet[1] = (3 * jet[0] - 4 * j1[0] + j2[0]) / (2 * hs)
        jet[self.sym[0, 0]] = (2 * jet[0] - 5 * j1[0] + 4 * j2[0] - u3) / hs ** 2
        for a in range(1, n):
            jet[self.sym[0, a]] = (3 * jet[1 + a] - 4 * j1[1 + a]
                                   + j2[1 + a]) / (2 * hs)
        return jet


def _mul(X, Y):
    """X @ Y at every node of node-last stacks X (a, b, N) and Y (b, c, N):
    the broadcast product summed over the shared axis, in one einsum."""
    return np.einsum("abN,bcN->acN", X, Y)


def _shape(u, p, P, A, Xcc):
    """Shape matrices S = (u/w) Q + (1/w) I and their pieces, per node.

    (u, p, P) is the chart jet of u, A the inverse map Jacobian and Xcc
    the map's second derivatives, node axis last.  Returns (S, w, B, Q,
    Du, C) with Du = p A, w = sqrt(1 + |Du|^2), B = A Ghalf, C = Du . Xcc
    and Q = B^T (P - C) B; w, B and C depend on p alone, so S is linear
    in u and in P.  Only einsum and analytic operations are used, so a
    complex jet carries complex-step derivatives through: the solver
    never passes one, but the tests hold _jet_gradient and the Jacobian
    to that complex step, which needs _shape to stay analytic.
    """
    n = p.shape[0]
    eye = np.eye(n)[:, :, None]
    Du = np.einsum("aN,aiN->iN", p, A)
    C = np.einsum("iN,iabN->abN", Du, Xcc)
    w = np.sqrt(1.0 + (Du * Du).sum(axis=0))
    coef = 1.0 / (w * (w + 1.0))
    B = _mul(A, eye - coef * Du[:, None] * Du[None])
    Q = _mul(_mul(B.swapaxes(0, 1), P - C), B)
    S = (u / w) * Q + (1.0 / w) * eye
    return S, w, B, Q, Du, C


def _sigma(S):
    """sigma_{n-1} of the eigenvalues of S (n, n, N), n in {2, 3}, by traces."""
    t = np.trace(S)
    if S.shape[0] == 2:
        return t
    return 0.5 * (t * t - (S * S).sum(axis=(0, 1)))


def _sigma_gradient(S):
    """G = d sigma_{n-1} / dS of symmetric S (n, n, N) for n in {2, 3}: I
    when n = 2, tr(S) I - S when n = 3."""
    n = S.shape[0]
    if n == 2:
        return np.eye(n)[:, :, None]
    return np.trace(S) * np.eye(n)[:, :, None] - S


def _jet_gradient(u, P, A, AXcc, shape):
    """dF/djet of F = sigma_{n-1}(S) per node, one row per packed jet
    component, in closed form from shape = _shape(u, p, P, A, Xcc), one
    real pass; AXcc is the u-independent A @ Xcc.reshape(n, n * n) per node.

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
    S, w, B, Q, Du, C = shape
    n = Du.shape[0]
    pairs = _jet_pairs(n)
    dF = np.empty((1 + n + len(pairs), u.size))
    G = _sigma_gradient(S)
    BG = _mul(B, G)
    uw = u / w
    BGB = uw * _mul(BG, B.swapaxes(0, 1))
    GQ = (G * Q).sum(axis=(0, 1))
    dF[0] = GQ / w
    for r, (a, b) in enumerate(pairs, 1 + n):
        dF[r] = BGB[a, b] if a == b else BGB[a, b] + BGB[b, a]

    c = 1.0 / (w * (w + 1.0))
    dw = np.einsum("aiN,iN->aN", A, Du) / w
    dc = -(2.0 * w + 1.0) * c ** 2 * dw
    Y = _mul(_mul(A.swapaxes(0, 1), P - C), BG)
    YDu = np.einsum("ikN,kN->iN", Y, Du)
    YtDu = np.einsum("iN,ikN->kN", Du, Y)
    dGhalf_Y = -dc * (Du * YDu).sum(axis=0) \
        - c * np.einsum("aiN,iN->aN", A, YDu + YtDu)
    BGB_dC = np.einsum("aqN,qN->aN", AXcc, BGB.reshape(n * n, -1))
    dF[1:1 + n] = -(dw / w ** 2) * (u * GQ + np.trace(G)) \
        + 2.0 * uw * dGhalf_Y - BGB_dC
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
    """The grid discretization for one (geometry, sigma, eps_bdry), in the
    scheme interface that solver._solve_path drives.

    The unknowns d are the deviation of the interior heights from the
    cap at the representative nodes geo.reps, one per orbit of the
    group the domain declares (mirror_axes, and the rotations where it
    rotates); every interior node takes its representative's value,
    d[geo.fold].  The cap is the umbilic cap at (sigma, eps_bdry) of the
    ball of the domain's inscribed_radius R, composed with s.  cap_height
    is the cap on every node, cap_ring_jet its chart jet on one node per
    interior ring (the jet of every node of that ring, bit for bit) and
    cap_jet that jet at the representatives, all computed once; the
    heights are cap_height plus the spread d with a zero boundary ring.
    cap, the start of every path, is d = 0.  n_int counts the equation
    nodes, which field_parts lists first.
    """

    def __init__(self, geo: _GridGeometry, sigma: float, eps_bdry: float):
        self.geo = geo
        self.sigma = sigma
        self.eps_bdry = float(eps_bdry)
        self.n_int = geo.n_int
        self.domain = geo.domain
        R = self.domain.inscribed_radius
        # the cap depends on s alone: one height per interior ring, every
        # angular difference exactly 0, and one node's jet per ring
        ring = exact_cap(geo.n, sigma, R, eps_bdry).height(R * geo.s[:-1])
        self.cap_height = np.full(geo.n_all, self.eps_bdry)
        self.cap_height[:geo.n_int] = ring[geo.jj[:geo.n_int] - 1]
        self.cap_ring_jet = geo.chart_jet(
            self.cap_height, geo.nbr[:, :geo.n_int:geo.M * geo.L])
        self.cap_jet = self.cap_ring_jet.take(geo.jj[geo.reps] - 1, 1)
        self.cap = np.zeros(geo.reps.size)

    def at(self, sigma: float, eps: float) -> "_GridScheme":
        return _GridScheme(self.geo, sigma, eps)

    def _padded(self, d: np.ndarray) -> np.ndarray:
        """d spread onto every interior node, zero on the boundary ring."""
        D = np.zeros(self.geo.n_all, dtype=d.dtype)
        D[:self.geo.n_int] = d[self.geo.fold]
        return D

    def full_height(self, d: np.ndarray) -> np.ndarray:
        return self.cap_height + self._padded(d)

    def _jet(self, d: np.ndarray) -> np.ndarray:
        """Chart jet of the heights at the representatives: the cap's plus
        the spread d's, which is the jet of full_height(d) since chart_jet
        is linear."""
        geo = self.geo
        return self.cap_jet + geo.chart_jet(self._padded(d), geo.nbr_rep)

    def evaluate(self, d: np.ndarray):
        """(F, inside, (u, P, shape)) from _shape of the chart jet at the
        representatives, whose height and second chart derivatives are u
        and P: inside when u, sigma_1 = tr S and sigma_{n-1} = _sigma(S)
        are positive at every representative, Gamma_{n-1} for n <= 3.
        By the symmetry these rows stand for every interior node."""
        geo = self.geo
        u, p, P = geo.unpack(self._jet(d))
        shape = _shape(u, p, P, geo.A_rep, geo.Xcc_rep)
        F0 = _sigma(shape[0])
        inside = bool((u > 0.0).all()
                      and (np.trace(shape[0]) > 0.0).all()
                      and (F0 > 0.0).all())
        return F0 - self.sigma, inside, (u, P, shape)

    def jacobian(self, data) -> scipy.sparse.csc_matrix:
        """Exact Jacobian of the residual in the unknowns: the stencil
        chain, folded onto the orbits.

        The residual at node i depends on its own chart jet only, so
        J[k, fold[nbr[o, reps[k]]]] sums (dF_k/djet) @ coef[:, o] over
        the offsets o, with dF_k/djet from _jet_gradient.
        """
        geo = self.geo
        nr = geo.reps.size
        entries = np.bincount(geo.jac_pos.ravel(), weights=self._weights(data),
                              minlength=geo.jac_nnz + 1)[:geo.jac_nnz]
        return scipy.sparse.csc_matrix((entries, geo.jac_rows, geo.jac_indptr),
                                       shape=(nr, nr))

    def band(self, data) -> np.ndarray:
        """The same Jacobian in LAPACK's band layout: entry (i, j) at
        [kl + ku + i - j, j] of a (2 kl + ku + 1, nr) array, column-major
        so that dgbsv factors it in place, and the kl rows above it zero
        (dgbsv's room for the fill of its row interchanges).  Each entry
        sums the same weights in the same order as jacobian()'s, so the
        two agree bit for bit."""
        geo = self.geo
        ab = np.bincount(geo.band_pos.ravel(), weights=self._weights(data),
                         minlength=geo.band_size + 1)[:geo.band_size]
        return ab.reshape(geo.reps.size, -1).T

    def _weights(self, data) -> np.ndarray:
        """(dF_k/djet) @ coef[:, o] per (offset o, representative k),
        raveled in the order of jac_pos and band_pos."""
        geo = self.geo
        u, P, shape = data
        dF = _jet_gradient(u, P, geo.A_rep, geo.AXcc_rep, shape)
        return (geo.coef.T @ dF).ravel()

    def jacobian_step(self, d: np.ndarray, data, F: np.ndarray) -> np.ndarray:
        """Newton step s with J(d) s = -F: exact on a narrow band, inexact
        (||J(d) s + F||_2 <= GMRES_RTOL ||F||_2) on a wide one.

        When the folded Jacobian's lower half-bandwidth geo.kl is at most
        BAND_MAX, one LAPACK dgbsv (banded LU with partial pivoting,
        Golub and Van Loan, Matrix Computations, section 4.3) factors
        band(data) and solves the step; an exactly singular band raises
        NewtonDivergenceError carrying d, and a non-finite one gives a
        non-finite step, which the guard refuses at every damping.  No ILU
        is built.  Otherwise GMRES runs on the exact Jacobian,
        preconditioned by the geometry's cached ILU.  When it misses
        GMRES_RTOL, the ILU is rebuilt from J(d) and GMRES runs once more;
        if that misses too, the step raises NewtonDivergenceError carrying
        d.  Either error makes _leg split the leg.
        """
        geo = self.geo
        if geo.kl <= BAND_MAX:
            *_, s, info = scipy.linalg.lapack.dgbsv(
                geo.kl, geo.ku, self.band(data), -F, overwrite_ab=1,
                overwrite_b=1)
            if info > 0:
                raise NewtonDivergenceError(
                    f"singular banded Jacobian (zero pivot at {info})", state=d)
            return s
        J = self.jacobian(data)
        if geo.ilu is not None:
            s = _gmres(J, F, geo.ilu)
            if s is not None:
                return s
        geo.ilu = scipy.sparse.linalg.spilu(J, drop_tol=ILU_DROP_TOL,
                                            permc_spec="NATURAL")
        s = _gmres(J, F, geo.ilu)
        if s is None:
            raise NewtonDivergenceError(
                f"GMRES missed rtol {GMRES_RTOL:.0e} with a fresh ILU",
                state=d)
        return s

    def newton(self, d: np.ndarray, params: NewtonParams):
        leg = _Leg(self)
        return damped_newton(d, leg.residual, leg.guard, leg.step, params)

    def field_parts(self, d: np.ndarray):
        """The shape pass over every interior node and the boundary ring,
        and the spectra and w on one node per orbit.

        The interior jet is the cap's (cap_ring_jet, gathered to the
        rings) plus the spread d's, as in _jet, on all interior nodes, so
        the residual field at the representatives equals the last Newton
        residual bit for bit, and at every other node it checks the
        reduced solution on the full grid.  eigvalsh runs on the orbit
        representatives of all nodes, interior and boundary ring, and
        node_fold spreads their spectra and w, which are therefore
        symmetric under the whole group bit for bit; at the
        representatives they are the full-grid pass's own.  Under the
        mirrors alone w is symmetric before the spread (Du flips by
        exact signs), so the spread moves it only under rotations, by an
        ulp or two of the rotated map tensors."""
        geo = self.geo
        D = self._padded(d)
        U = self.cap_height + D
        jet = np.concatenate([self.cap_ring_jet.take(geo.jj[:geo.n_int] - 1, 1)
                              + geo.chart_jet(D), geo.boundary_jet(U)], axis=1)
        S_all, w_all, *_ = _shape(*geo.unpack(jet), geo.A, geo.Xcc)
        spectra = np.linalg.eigvalsh(
            np.moveaxis(S_all[..., geo.node_reps], -1, 0))[:, ::-1]
        return (geo.xyz.copy(), U, w_all[geo.node_reps][geo.node_fold],
                spectra[geo.node_fold], _sigma(S_all),
                {"kind": "grid", "near_boundary": geo.jj >= geo.J - 1})


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

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
    return _solve_path(_GridScheme(_GridGeometry(domain, mesh),
                                   config.sigma_target, config.eps_schedule[0]),
                       config)


def solve_graph(config: SolveConfig, domain: DomainSpec) -> SolutionField:
    return solve_graph_path(config, domain)[-1]
