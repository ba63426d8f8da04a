"""Mapped-grid solver on balls, ellipsoids and star domains."""

import gc
import json
import math
import weakref

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from hplateau import audit, cli, domains, geometry, gridsolver, solver
from hplateau.errors import (ConeViolationError, GridDegeneracyError,
                             NewtonDivergenceError)

BALL3 = domains.make_ball(3, 1.0)
ELL = domains.make_ellipsoid((1.3, 1.0, 1.0))


def _ball_solve(J, M, L, sigma=1.5, eps_schedule=(1e-2,)):
    cfg = solver.SolveConfig(n=3, sigma_target=sigma,
                             eps_schedule=eps_schedule,
                             mesh=solver.SphericalGridMesh(J, M, L))
    return gridsolver.solve_graph(cfg, BALL3)


def _record_ends(mp):
    """The unknowns each grid Newton leg returns, in a list, once mp has
    wrapped gridsolver.damped_newton."""
    ends = []
    real = gridsolver.damped_newton

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        ends.append(out[0])
        return out

    mp.setattr(gridsolver, "damped_newton", recorded)
    return ends


@pytest.fixture(scope="module")
def ball16_end():
    """The 16 x 10 x 20 ball field and the unknowns d its last Newton leg
    returned."""
    with pytest.MonkeyPatch.context() as mp:
        ends = _record_ends(mp)
        field = _ball_solve(16, 10, 20)
    return field, ends[-1]


@pytest.fixture(scope="module")
def ball16(ball16_end):
    return ball16_end[0]


def _cap_error(field, cap):
    r = np.linalg.norm(np.asarray(field.nodes), axis=1)
    return float(np.abs(field.u - cap.height(r)).max())


def test_ball_matches_cap(ball16):
    cap = geometry.exact_cap(3, 1.5, 1.0, 1e-2)
    assert _cap_error(ball16, cap) <= 1e-3
    assert ball16.cone_ok
    assert ball16.convergence.residual <= 1e-10


def test_ball_refinement_order(ball16):
    cap = geometry.exact_cap(3, 1.5, 1.0, 1e-2)
    coarse = _cap_error(_ball_solve(8, 8, 16), cap)
    fine = _cap_error(ball16, cap)
    assert math.log2(coarse / fine) >= 1.7


def test_boundary_ring_is_pinned(ball16):
    geo_ml = 10 * 20
    assert ball16.boundary.sum() == geo_ml
    assert ball16.boundary[-geo_ml:].all()
    assert np.array_equal(ball16.u[ball16.boundary],
                          np.full(geo_ml, 1e-2))
    near = ball16.meta["near_boundary"]
    assert near.sum() == 2 * geo_ml
    assert (near & ball16.boundary).sum() == geo_ml


def test_umbilic_spectra_on_ball(ball16):
    lam = (1.5 / 3.0) ** 0.5
    inner = ball16.spectra[ball16.interior & ~ball16.meta["near_boundary"]]
    assert np.abs(inner - lam).max() <= 5e-3


def test_polar_ball_matches_cap():
    cfg = solver.SolveConfig(n=2, sigma_target=1.2, eps_schedule=(1e-2,),
                             mesh=solver.PolarGridMesh(24, 32))
    f = gridsolver.solve_graph(cfg, domains.make_ball(2, 1.0))
    cap = geometry.exact_cap(2, 1.2, 1.0, 1e-2)
    assert _cap_error(f, cap) <= 1e-3
    assert f.cone_ok


def test_star_domain_converges():
    theta = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    star = domains.make_star2d(1.0 + 0.08 * np.cos(3 * theta))
    cfg = solver.SolveConfig(n=2, sigma_target=1.2,
                             eps_schedule=(1e-1, 1e-2),
                             mesh=solver.PolarGridMesh(20, 32))
    f = gridsolver.solve_graph(cfg, star)
    assert f.cone_ok
    assert f.convergence.residual <= 1e-10
    assert (f.u >= 1e-2 - 1e-12).all()


def test_ellipsoid_descent_is_stable():
    cfg = solver.SolveConfig(n=3, sigma_target=1.0,
                             eps_schedule=(1e-1, 1e-2),
                             mesh=solver.SphericalGridMesh(16, 10, 20))
    fields = gridsolver.solve_graph_path(cfg, ELL)
    assert [f.convergence.eps_bdry for f in fields] == [1e-1, 1e-2]
    maxk = [float(f.spectra[f.interior & ~f.meta["near_boundary"], 0].max())
            for f in fields]
    assert all(f.cone_ok for f in fields)
    # interior curvature must not blow up while the boundary drops
    assert abs(maxk[1] - maxk[0]) / maxk[0] <= 0.05


def test_steep_target_walks_sigma_automatically():
    # at sigma = 0.05 every direct first guess leaves the cone; the solver
    # is expected to continue from an easier sigma on its own
    cfg = solver.SolveConfig(n=3, sigma_target=0.05, eps_schedule=(1e-1,),
                             mesh=solver.SphericalGridMesh(10, 8, 16))
    f = gridsolver.solve_graph(cfg, ELL)
    assert f.cone_ok
    assert f.convergence.residual <= 1e-10
    assert f.convergence.sigma == 0.05


def test_solve_is_deterministic():
    cfg = solver.SolveConfig(n=3, sigma_target=1.5, eps_schedule=(1e-2,),
                             mesh=solver.SphericalGridMesh(8, 8, 16))
    a = gridsolver.solve_graph(cfg, BALL3)
    b = gridsolver.solve_graph(cfg, BALL3)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.spectra, b.spectra)


def test_grid_path_rejects_n_4():
    cfg = solver.SolveConfig(n=4, sigma_target=2.0)
    with pytest.raises(ValueError, match="n in"):
        gridsolver.solve_graph_path(cfg, domains.make_ball(4, 1.0))


def test_cli_small_sigma_ellipsoid(tmp_path, monkeypatch):
    # the automatic walk from sigma = 1.5 to 0.01 needs its legs split
    # where a transported iterate leaves the cone
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve-grid", "--n", "3", "--domain", "ellipsoid",
                     "--semi-axes", "1.3,1.0,1.0", "--sigma", "0.01",
                     "--radial", "12", "--lat", "8", "--lon", "16"]) == 0
    side = json.loads((tmp_path / "solve-grid.json").read_text())
    assert side["cone_ok"] is True
    assert side["residual"] <= 1e-10


# ---------------------------------------------------------------------------
# exact Jacobian
# ---------------------------------------------------------------------------

STAR = domains.make_star2d(
    1.0 + 0.08 * np.cos(3 * np.linspace(0, 2 * math.pi, 16, endpoint=False)))
SPHEROID = domains.make_ellipsoid((1.0, 1.0, 1.3))


def _small_scheme(domain, mesh, sigma, eps=0.1):
    """A scheme and its cap start d = 0."""
    scheme = gridsolver._GridScheme(gridsolver._GridGeometry(domain, mesh),
                                    sigma, eps)
    return scheme, scheme.cap


def _cap_heights(scheme):
    """The cap's heights at the representative nodes, one per unknown."""
    return scheme.cap_height[scheme.geo.reps]


def _residual(scheme, v):
    return scheme.evaluate(v)[0]


def _jacobian(scheme, v):
    return scheme.jacobian(scheme.evaluate(v)[2])


def _step(scheme, v, F):
    return scheme.jacobian_step(v, scheme.evaluate(v)[2], F)


def _guard(scheme, v):
    return solver._Leg(scheme).guard(v)


# small meshes: ring 1 steps through the center, latitudes 0 and M-1
# step over the poles
JAC_CASES = [(STAR, solver.PolarGridMesh(6, 8), 1.2),
             (ELL, solver.SphericalGridMesh(5, 4, 8), 1.0)]


@pytest.mark.parametrize("domain,mesh,sigma", JAC_CASES)
def test_jacobian_matches_central_differences(domain, mesh, sigma):
    # an independent check of the closed-form slots and their assembly
    scheme, v = _small_scheme(domain, mesh, sigma)
    J = _jacobian(scheme, v).toarray()
    assert J.shape == (scheme.geo.reps.size,) * 2
    fd = np.empty_like(J)
    heights = scheme.full_height(v)[scheme.geo.reps]
    for c in range(v.size):
        d = np.zeros(v.size)
        d[c] = 1e-6 * (1.0 + abs(heights[c]))
        fd[:, c] = (_residual(scheme, v + d)
                    - _residual(scheme, v - d)) / (2.0 * d[c])
    assert np.abs(J - fd).max() <= 1e-6 * np.abs(J).max()


@pytest.mark.parametrize("domain,mesh,sigma", JAC_CASES)
def test_jacobian_is_the_complex_step_derivative(domain, mesh, sigma):
    # the stencil-chain assembly against the residual's own directional
    # derivative, to rounding: a wrong weight, position or wrap, or a
    # real cast between v and the jet, fails this
    scheme, v = _small_scheme(domain, mesh, sigma)
    J = _jacobian(scheme, v)
    for seed in range(3):
        d = np.random.default_rng(seed).standard_normal(v.size)
        cs = _residual(scheme, v + 1e-20j * d).imag * 1e20
        assert np.abs(J @ d - cs).max() <= 1e-12 * np.abs(cs).max()


@pytest.fixture(scope="module",
                params=[(ELL, solver.SphericalGridMesh(8, 6, 12)),
                        (domains.make_ellipsoid((1.3, 1.0)),
                         solver.PolarGridMesh(12, 16))],
                ids=["n3", "n2"])
def eps4_jet(request):
    """Chart jet of a converged eps = 1e-4 field on every node, the
    boundary ring (u = 1e-4) included."""
    domain, mesh = request.param
    cfg = solver.SolveConfig(n=domain.n, sigma_target=1.0, mesh=mesh)
    field = gridsolver.solve_graph_path(cfg, domain)[-1]
    geo = gridsolver._GridGeometry(domain, mesh)
    return geo, np.concatenate([geo.chart_jet(field.u),
                                geo.boundary_jet(field.u)], axis=1)


def _axcc(geo):
    """A @ Xcc.reshape(n, n * n) at every node, as geo.AXcc_rep at the
    representatives."""
    n = geo.n
    return gridsolver._mul(geo.A, geo.Xcc.reshape(n, n * n, -1))


def test_closed_form_slots_are_the_complex_step(eps4_jet):
    # every closed-form slot (u, the first and the second derivatives)
    # against a complex step in that slot alone, row by row; forming
    # <G, Q> from (S - I/w)/u instead cancels on the boundary ring and
    # fails this
    geo, jet = eps4_jet
    assert jet[0].min() == pytest.approx(1e-4)
    u, p, P = geo.unpack(jet)
    dF = gridsolver._jet_gradient(
        u, P, geo.A, _axcc(geo), gridsolver._shape(u, p, P, geo.A, geo.Xcc))
    assert dF.shape[0] == 1 + geo.n + len(gridsolver._jet_pairs(geo.n))
    scale = np.abs(dF).max(axis=0)
    cjet = jet.astype(complex)
    for k in range(jet.shape[0]):
        cjet[k] += 1e-20j
        S = gridsolver._shape(*geo.unpack(cjet), geo.A, geo.Xcc)[0]
        cjet[k] -= 1e-20j
        cs = gridsolver._sigma(S).imag * 1e20
        assert (np.abs(dF[k] - cs) <= 1e-13 * scale).all(), k


def _reference_shape(u, p, P, A, Xcc):
    """(S, dF) of _shape and _jet_gradient at one node, written out with
    2-D @ on that node's (n, n) blocks."""
    n = p.size
    eye = np.eye(n)
    Du = p @ A
    C = (Du @ Xcc.reshape(n, n * n)).reshape(n, n)
    w = math.sqrt(1.0 + Du @ Du)
    c = 1.0 / (w * (w + 1.0))
    B = A @ (eye - c * np.outer(Du, Du))
    Q = B.T @ (P - C) @ B
    S = u / w * Q + eye / w
    G = eye if n == 2 else np.trace(S) * eye - S
    BGB = u / w * (B @ G @ B.T)
    GQ = (G * Q).sum()
    slots = [BGB[a, b] if a == b else BGB[a, b] + BGB[b, a]
             for a, b in gridsolver._jet_pairs(n)]
    dw = A @ Du / w
    dc = -(2.0 * w + 1.0) * c ** 2 * dw
    Y = A.T @ (P - C) @ B @ G
    dGhalf_Y = -dc * (Du @ Y @ Du) - c * (A @ ((Y + Y.T) @ Du))
    BGB_dC = (A @ Xcc.reshape(n, n * n)) @ BGB.ravel()
    dp = -(dw / w ** 2) * (u * GQ + np.trace(G)) + 2.0 * u / w * dGhalf_Y \
        - BGB_dC
    return S, np.concatenate([[GQ / w], dp, slots])


@pytest.mark.parametrize("domain,mesh", [
    (ELL, solver.SphericalGridMesh(8, 6, 12)),
    (SPHEROID, solver.SphericalGridMesh(8, 6, 12)),
    (STAR, solver.PolarGridMesh(12, 16)),
    (domains.make_ball(2, 1.0), solver.PolarGridMesh(12, 16))],
    ids=["ellipsoid3", "spheroid3", "star", "ball2"])
def test_node_last_kernels_match_a_per_node_loop(domain, mesh):
    # the broadcast contractions over (component, node) arrays against
    # plain 2-D products node by node, on every node of a non-solution
    # (the boundary ring included): a transposed block or a contraction
    # over the wrong axis misses by O(1)
    scheme, _ = _small_scheme(domain, mesh, 1.0)
    geo = scheme.geo
    x = geo.xyz[geo.reps]
    d = _cap_heights(scheme) * 0.05 * np.cos(3.0 * x[:, 0]) \
        * np.cos(2.0 * x[:, 1])
    U = scheme.full_height(d)
    jet = np.concatenate([geo.chart_jet(U), geo.boundary_jet(U)], axis=1)
    u, p, P = geo.unpack(jet)
    shape = gridsolver._shape(u, p, P, geo.A, geo.Xcc)
    dF = gridsolver._jet_gradient(u, P, geo.A, _axcc(geo), shape)
    for i in range(geo.n_all):
        S_i, dF_i = _reference_shape(u[i], p[:, i], P[..., i], geo.A[..., i],
                                     geo.Xcc[..., i])
        assert np.abs(shape[0][..., i] - S_i).max() \
            <= 1e-13 * np.abs(S_i).max(), i
        assert np.abs(dF[:, i] - dF_i).max() <= 1e-13 * np.abs(dF_i).max(), i


@pytest.fixture
def shape_passes(monkeypatch):
    """One entry per _shape call: whether its jet was complex."""
    passes = []
    real = gridsolver._shape

    def recorded(u, p, P, A, Xcc):
        passes.append(any(np.iscomplexobj(x) for x in (u, p, P)))
        return real(u, p, P, A, Xcc)

    monkeypatch.setattr(gridsolver, "_shape", recorded)
    return passes


@pytest.mark.parametrize("domain,mesh,sigma", JAC_CASES)
def test_jacobian_takes_one_real_shape_pass(domain, mesh, sigma, shape_passes):
    scheme, v = _small_scheme(domain, mesh, sigma)
    _jacobian(scheme, v)
    assert shape_passes == [False]


def test_no_complex_array_reaches_shape_in_a_solve(shape_passes):
    cfg = solver.SolveConfig(n=2, sigma_target=1.2, eps_schedule=(1e-1, 1e-2),
                             mesh=solver.PolarGridMesh(12, 16))
    gridsolver.solve_graph_path(cfg, domains.make_ellipsoid((1.3, 1.0)))
    assert shape_passes and not any(shape_passes)


# ---------------------------------------------------------------------------
# one shape pass per iterate, held by the Newton leg
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain,mesh,sigma", JAC_CASES)
def test_guard_residual_and_jacobian_share_one_shape_pass(domain, mesh, sigma,
                                                         shape_passes):
    # the step builds the Jacobian from the pass the guard made
    scheme, v = _small_scheme(domain, mesh, sigma)
    leg = solver._Leg(scheme)
    assert leg.guard(v)
    F = leg.residual(v)
    s = leg.step(v, F)
    assert shape_passes == [False]
    # the same numbers as schemes that evaluate v afresh for each call
    assert np.array_equal(F, _residual(_small_scheme(domain, mesh, sigma)[0],
                                       v))
    assert np.array_equal(s, _step(_small_scheme(domain, mesh, sigma)[0], v, F))


def test_leg_matches_the_iterate_by_value(shape_passes):
    # a line-search trial at the rounding floor equals its iterate bit
    # for bit without being the same array
    scheme, v = _small_scheme(*JAC_CASES[1])
    leg = solver._Leg(scheme)
    F = leg.residual(v)
    assert np.array_equal(leg.residual(v.copy()), F)
    assert len(shape_passes) == 1
    # the heights times 1.01
    assert not np.array_equal(leg.residual(v + 0.01 * _cap_heights(scheme)), F)
    assert len(shape_passes) == 2


@pytest.mark.parametrize("domain,mesh,sigma", JAC_CASES)
def test_complex_step_after_a_real_residual(domain, mesh, sigma):
    scheme, v = _small_scheme(domain, mesh, sigma)
    J = _jacobian(scheme, v)
    F = _residual(scheme, v)
    d = np.random.default_rng(0).standard_normal(v.size)
    probe = _residual(scheme, v + 1e-20j * d)
    assert np.iscomplexobj(probe)
    cs = probe.imag * 1e20
    assert np.abs(J @ d - cs).max() <= 1e-12 * np.abs(cs).max()
    assert np.array_equal(_residual(scheme, v), F)


# ---------------------------------------------------------------------------
# exact Newton step on a narrow band: one LAPACK dgbsv
# ---------------------------------------------------------------------------

@pytest.fixture
def ell_iterate():
    """A smooth, guard-admissible non-solution on the default n = 3 mesh,
    even in each coordinate like every iterate of the unknowns."""
    geo = gridsolver._GridGeometry(ELL, solver.SphericalGridMesh())
    scheme = gridsolver._GridScheme(geo, 1.5, 0.1)
    x = geo.xyz[geo.reps]
    # the heights cap * (1 + 0.05 cos(3 x1) cos(2 x2))
    v = _cap_heights(scheme) \
        * 0.05 * np.cos(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1])
    assert _guard(scheme, v)
    return scheme, v, _residual(scheme, v)


@pytest.mark.parametrize("domain,mesh,kl", [
    (ELL, solver.SphericalGridMesh(), 49),
    (ELL, solver.SphericalGridMesh(12, 8, 16), 25),
    (domains.make_ball(2, 1.0), solver.PolarGridMesh(), 1),
    (domains.make_ellipsoid((1.3, 1.0)), solver.PolarGridMesh(), 18),
    (STAR, solver.PolarGridMesh(), 127)],
    ids=["ellipsoid3", "ellipsoid3-12x8x16", "ball2", "ellipse2", "star"])
def test_folded_band_width_is_pinned(domain, mesh, kl):
    # ring-major unknowns couple a ring to its neighbors only, so the
    # folded Jacobian is banded, about one ring of orbits wide; a star's
    # periodic wrap reaches across its whole ring
    geo = gridsolver._GridGeometry(domain, mesh)
    assert (geo.kl, geo.ku) == (kl, kl)
    assert (kl <= gridsolver.BAND_MAX) == (domain is not STAR)


@pytest.mark.parametrize("domain,mesh,sigma", JAC_CASES + [
    (ELL, solver.SphericalGridMesh(), 1.5),
    (domains.make_ball(2, 1.0), solver.PolarGridMesh(), 1.0)],
    ids=["star-6x8", "ellipsoid3-5x4x8", "ellipsoid3", "ball2"])
def test_band_is_the_jacobian_bit_for_bit(domain, mesh, sigma):
    scheme, v = _small_scheme(domain, mesh, sigma)
    geo, data = scheme.geo, scheme.evaluate(v)[2]
    full = scheme.jacobian(data).toarray()
    ab = scheme.band(data)
    kl, ku, nr = geo.kl, geo.ku, v.size
    assert ab.shape == (2 * kl + ku + 1, nr) and ab.flags.f_contiguous
    assert not ab[:kl].any()
    rows, cols = np.indices(full.shape)
    inside = (rows - cols <= kl) & (cols - rows <= ku)
    assert not full[~inside].any()
    assert np.array_equal(ab[(kl + ku + rows - cols)[inside], cols[inside]],
                          full[inside])
    # the band's slots past the matrix's corners hold nothing
    assert np.count_nonzero(ab) == np.count_nonzero(full)


def test_banded_step_is_exact(ell_iterate):
    scheme, v, F = ell_iterate
    assert scheme.geo.kl <= gridsolver.BAND_MAX
    s = _step(scheme, v, F)
    J = _jacobian(scheme, v)
    assert np.linalg.norm(J @ s + F) <= 1e-10 * np.linalg.norm(F)
    assert scheme.geo.ilu is None


def test_singular_band_raises_with_its_iterate(ell_iterate, monkeypatch):
    scheme, v, F = ell_iterate
    data = scheme.evaluate(v)[2]
    monkeypatch.setattr(gridsolver, "_jet_gradient",
                        lambda u, *args: np.zeros((10, u.size)))
    with pytest.raises(NewtonDivergenceError, match="singular") as err:
        scheme.jacobian_step(v, data, F)
    assert err.value.state is v


def _default_path():
    """Criterion 9's (1.3, 1, 1) sigma = 1.5 path on the default mesh: its
    fields and their curvature-bound witnesses."""
    fields = gridsolver.solve_graph_path(
        solver.SolveConfig(n=3, sigma_target=1.5), ELL)
    return fields, np.array(audit.curvature_bound_check(fields).witnesses)


def test_banded_path_matches_the_gmres_path(monkeypatch):
    # the exact step and GMRES at its forcing term take the same Newton
    # steps and land within rounding of each other
    band, band_witnesses = _default_path()
    monkeypatch.setattr(gridsolver, "BAND_MAX", -1)
    gmres, gmres_witnesses = _default_path()
    assert [f.convergence.iterations for f in band] == \
        [f.convergence.iterations for f in gmres]
    for a, b in zip(band, gmres):
        assert np.abs(a.u - b.u).max() <= 1e-13
    assert np.abs(band_witnesses - gmres_witnesses).max() <= 1e-11


# ---------------------------------------------------------------------------
# inexact Newton step on a wide band: GMRES preconditioned by a path-scoped
# ILU, on the star, whose identity group has the default mesh's widest band
# ---------------------------------------------------------------------------

_SPILU = scipy.sparse.linalg.spilu


@pytest.fixture
def spilu_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _SPILU(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "spilu", counted)
    return calls


@pytest.fixture
def star_iterate():
    """A smooth, guard-admissible non-solution of the star on the default
    n = 2 mesh (kl 127 > BAND_MAX), one unknown per interior node."""
    geo = gridsolver._GridGeometry(STAR, solver.PolarGridMesh())
    assert geo.kl > gridsolver.BAND_MAX
    scheme = gridsolver._GridScheme(geo, 1.2, 0.1)
    x = geo.xyz[geo.reps]
    v = _cap_heights(scheme) \
        * 0.05 * np.cos(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1])
    assert _guard(scheme, v)
    return scheme, v, _residual(scheme, v)


def _meets_forcing_term(scheme, v, F, s):
    # GMRES stops on this same 2-norm of J s + F; the margin covers a
    # different summation order in the recomputed product
    J = _jacobian(scheme, v)
    return (np.linalg.norm(J @ s + F)
            <= gridsolver.GMRES_RTOL * np.linalg.norm(F) * (1.0 + 1e-9))


def _diagonal_ilu(scheme, v):
    """ILU of diag(J): too weak for GMRES to reach GMRES_RTOL in its
    cycles on the default meshes."""
    return _SPILU(scipy.sparse.diags(_jacobian(scheme, v).diagonal()).tocsc())


def _ball16_scheme():
    """The scheme ball16 was solved with, on a geometry of its own."""
    geo = gridsolver._GridGeometry(BALL3, solver.SphericalGridMesh(16, 10, 20))
    return gridsolver._GridScheme(geo, 1.5, 1e-2)


@pytest.mark.parametrize("case", ["ball16", "ell_iterate", "star_iterate"])
def test_step_meets_the_forcing_term(case, request):
    # the star's step is GMRES's; the other two systems are banded, and
    # their exact steps meet the forcing term a fortiori
    if case == "ball16":
        _, v = request.getfixturevalue("ball16_end")
        scheme = _ball16_scheme()
        F = _residual(scheme, v)
    else:
        scheme, v, F = request.getfixturevalue(case)
    assert scheme.geo.ilu is None
    assert _meets_forcing_term(scheme, v, F, _step(scheme, v, F))


class _CountedILU:
    """An ILU whose solve calls are counted."""

    def __init__(self, ilu):
        self.ilu, self.calls = ilu, 0

    def solve(self, x):
        self.calls += 1
        return self.ilu.solve(x)


def test_gmres_zero_residual_is_the_zero_step(ell_iterate):
    scheme, v, F = ell_iterate
    J = _jacobian(scheme, v)
    ilu = _CountedILU(_SPILU(J, drop_tol=gridsolver.ILU_DROP_TOL))
    s = gridsolver._gmres(J, np.zeros_like(F), ilu)
    assert np.array_equal(s, np.zeros_like(F))
    assert ilu.calls == 0


@pytest.mark.parametrize("case", ["scaled_identity", "ell_diagonal"])
def test_gmres_exact_preconditioner_breaks_down_luckily(case, ell_iterate):
    # with M = J the Krylov space is invariant after one step: the
    # subdiagonal entry is zero (exactly so for 2 I and a vector of ones)
    if case == "scaled_identity":
        F = np.ones(16)
        J = scipy.sparse.identity(16, format="csc") * 2.0
    else:
        scheme, v, F = ell_iterate
        J = scipy.sparse.diags(_jacobian(scheme, v).diagonal()).tocsc()
    s = gridsolver._gmres(J, F, _SPILU(J))
    assert s is not None and np.isfinite(s).all()
    assert (np.linalg.norm(J @ s + F)
            <= gridsolver.GMRES_RTOL * np.linalg.norm(F))


def test_gmres_restarts_still_meet_the_forcing_term(ell_iterate, monkeypatch):
    scheme, v, F = ell_iterate
    monkeypatch.setattr(gridsolver, "GMRES_RESTART", 6)
    monkeypatch.setattr(gridsolver, "GMRES_MAXITER", 40)
    J = _jacobian(scheme, v)
    ilu = _CountedILU(_SPILU(J, drop_tol=gridsolver.ILU_DROP_TOL))
    s = gridsolver._gmres(J, F, ilu)
    # each cycle makes at most GMRES_RESTART + 1 solves
    assert ilu.calls > 2 * (gridsolver.GMRES_RESTART + 1)
    assert _meets_forcing_term(scheme, v, F, s)


def _path_and_geometry(monkeypatch, config, domain):
    """The path's fields and a weak reference to the geometry it built."""
    geos = []
    real = gridsolver._GridGeometry

    def recorded(*args):
        geo = real(*args)
        geos.append(weakref.ref(geo))
        return geo

    monkeypatch.setattr(gridsolver, "_GridGeometry", recorded)
    fields = gridsolver.solve_graph_path(config, domain)
    assert len(fields) == len(solver.DEFAULT_EPS_SCHEDULE)
    assert len(geos) == 1
    return fields, geos[0]


def test_path_builds_one_ilu_and_frees_it(spilu_calls, monkeypatch):
    # the returned fields are data: they hold no scheme, so the path's
    # geometry, and the ILU on it, are freed with the path
    _, geo = _path_and_geometry(monkeypatch,
                                solver.SolveConfig(n=2, sigma_target=1.2), STAR)
    assert len(spilu_calls) == 1
    gc.collect()
    assert geo() is None


def test_banded_path_builds_no_ilu_and_frees_it(spilu_calls, monkeypatch):
    _, geo = _path_and_geometry(
        monkeypatch, solver.SolveConfig(n=3, sigma_target=1.0,
                                        mesh=solver.SphericalGridMesh(10, 8, 16)),
        ELL)
    assert spilu_calls == []
    gc.collect()
    assert geo() is None


def test_stale_ilu_is_rebuilt(star_iterate, spilu_calls):
    scheme, v, F = star_iterate
    weak = scheme.geo.ilu = _diagonal_ilu(scheme, v)
    s = _step(scheme, v, F)
    assert len(spilu_calls) == 1
    assert scheme.geo.ilu is not weak
    assert _meets_forcing_term(scheme, v, F, s)


def test_step_fails_typed_when_a_fresh_ilu_misses(star_iterate, monkeypatch):
    scheme, v, F = star_iterate
    weak = _diagonal_ilu(scheme, v)
    monkeypatch.setattr(scipy.sparse.linalg, "spilu", lambda *a, **k: weak)
    with pytest.raises(NewtonDivergenceError) as err:
        _step(scheme, v, F)
    assert err.value.state is v


# ---------------------------------------------------------------------------
# one unknown per orbit of the mirrors and, for some domains, rotations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain,mesh,unknowns", [
    (ELL, solver.SphericalGridMesh(), 19 * 6 * 7),
    (domains.make_ball(2, 1.0), solver.PolarGridMesh(), 47),
    (BALL3, solver.SphericalGridMesh(), 19 * 6),
    (SPHEROID, solver.SphericalGridMesh(), 19 * 6),
    (STAR, solver.PolarGridMesh(), 47 * 64)],
    ids=["ellipsoid3", "ball2", "ball3", "spheroid3", "star"])
def test_one_unknown_per_mirror_orbit(domain, mesh, unknowns):
    # latitudes pair up under z -> -z; under the mirrors alone longitudes
    # 0 and L/4 have orbits of two under x -> -x and y -> -y, the others
    # of four; the rotations l -> l + k of a ball or an x3-aligned
    # spheroid join each ring pair into one orbit; a star domain keeps
    # the identity alone
    geo = gridsolver._GridGeometry(domain, mesh)
    assert geo.reps.size == unknowns
    assert np.array_equal(geo.fold[geo.reps], np.arange(geo.reps.size))
    assert (geo.reps[geo.fold] <= np.arange(geo.n_int)).all()
    if domain.rotates:
        m = np.minimum(geo.mm, geo.M - 1 - geo.mm)
        ring_pair = (geo.jj - 1) * geo.M * geo.L + m * geo.L
        assert np.array_equal(geo.node_reps[geo.node_fold], ring_pair)
        assert np.isin(geo.node_reps, geo.mirror_reps).all()
    else:
        assert geo.node_reps is geo.mirror_reps
    if not domain.mirror_axes:
        assert geo.reps.size == geo.n_int
        assert np.array_equal(geo.fold, np.arange(geo.n_int))


def _mirror_perms(nodes):
    """{axis: perm} with nodes[perm] the nodes mirrored in that axis,
    found from the coordinates."""
    perms = {}
    for axis in range(nodes.shape[1]):
        flipped = nodes.copy()
        flipped[:, axis] *= -1.0
        dist = np.abs(flipped[:, None, :] - nodes[None]).max(axis=2)
        perms[axis] = dist.argmin(axis=1)
        assert dist.min(axis=1).max() <= 1e-12
    return perms


@pytest.mark.parametrize("domain,mesh,sigma", [
    (ELL, solver.SphericalGridMesh(10, 8, 16), 0.5),
    (domains.make_ellipsoid((1.3, 1.0)), solver.PolarGridMesh(12, 16), 1.5)],
    ids=["n3", "n2"])
def test_solution_is_mirror_symmetric_bit_for_bit(domain, mesh, sigma):
    fields = gridsolver.solve_graph_path(
        solver.SolveConfig(n=domain.n, sigma_target=sigma, mesh=mesh), domain)
    perms = _mirror_perms(np.asarray(fields[0].nodes)).values()
    for f in fields:
        for perm in perms:
            assert np.array_equal(f.u[perm], f.u)
            assert np.array_equal(f.spectra[perm], f.spectra)


def _ring_pairs(values, geo):
    """values on every node as (J, M, 2, L, ...): [j, m] holds rings m
    and M-1-m of shell j, the ring pair of m (one ring twice on an odd
    M's equator)."""
    v = np.asarray(values).reshape(geo.J, geo.M, geo.L, -1)
    return np.stack([v, v[:, ::-1]], axis=2)


@pytest.mark.parametrize("domain,mesh", [
    (domains.make_ball(2, 1.0), solver.PolarGridMesh(12, 16)),
    (BALL3, solver.SphericalGridMesh(10, 8, 16)),
    (SPHEROID, solver.SphericalGridMesh(10, 8, 16))],
    ids=["ball2", "ball3", "spheroid3"])
def test_solution_is_rotation_symmetric_bit_for_bit(domain, mesh):
    # one unknown per ring pair: u, the spectra and nu_vertical repeat
    # their bits over the pair, and the full-grid residual field holds
    # every interior node to residual_tol
    geo = gridsolver._GridGeometry(domain, mesh)
    tol = solver.NewtonParams().residual_tol
    fields = gridsolver.solve_graph_path(
        solver.SolveConfig(n=domain.n, sigma_target=0.5, mesh=mesh), domain)
    for f in fields:
        assert f.meta["unknowns"] == (geo.J - 1) * ((geo.M + 1) // 2)
        for values in (f.u, f.spectra, f.nu_vertical):
            pairs = _ring_pairs(values, geo)
            assert np.array_equal(pairs, np.broadcast_to(
                pairs[:, :, :1, :1], pairs.shape))
        assert np.abs(f.residual_field[f.interior]).max() <= tol


@pytest.mark.parametrize("sigma", [1.5, 0.05])
def test_rotations_match_the_mirror_only_solve(sigma, monkeypatch):
    # the spheroid solved on ring pairs and on mirror orbits alone: the
    # same Newton iterations and the same fields to rounding
    mesh = solver.SphericalGridMesh(10, 8, 16)
    cfg = solver.SolveConfig(n=3, sigma_target=sigma, mesh=mesh)
    ring = gridsolver.solve_graph_path(cfg, SPHEROID)
    with monkeypatch.context() as mp:
        mp.setattr(domains.DomainSpec, "rotates", False)
        mirror = gridsolver.solve_graph_path(cfg, SPHEROID)
    assert ring[0].meta["unknowns"] == 9 * 4
    assert mirror[0].meta["unknowns"] == 9 * 4 * 5
    for a, b in zip(ring, mirror, strict=True):
        assert a.convergence.iterations == b.convergence.iterations
        assert np.abs(a.u - b.u).max() <= 1e-13
        assert np.abs(a.spectra - b.spectra).max() <= 1e-12
    witnesses = [audit.curvature_bound_check(f).witnesses for f in (ring, mirror)]
    assert np.abs(np.subtract(*witnesses)).max() <= 1e-12


def _map_jacobians(geo):
    """Xc = [q, s q_a] on every node, q = rho(omega) omega, by the chain
    rule of _build_map_tensors."""
    w, dw, _ = domains.omega_jet(geo.angles)
    rho, grad, _ = geo.domain.rho_jet(geo.angles)
    q = rho[:, None] * w
    q_a = grad[:, :, None] * w[:, None, :] + rho[:, None, None] * dw
    direction = np.arange(geo.n_all) % (geo.M * geo.L)
    return np.concatenate(
        [q[direction][:, :, None],
         geo.s_node[:, None, None] * q_a[direction].swapaxes(1, 2)], axis=2)


def _inverse_map_jacobians(geo):
    """inv(Xc) of _map_jacobians on every node, node axis last like
    geo.A."""
    return np.moveaxis(np.linalg.inv(_map_jacobians(geo)), 0, -1)


ORBIT_CASES = pytest.mark.parametrize("domain,mesh", [
    (ELL, solver.SphericalGridMesh(10, 8, 16)),
    (domains.make_ellipsoid((1.3, 1.0)), solver.PolarGridMesh(12, 16)),
    (STAR, solver.PolarGridMesh(12, 16)),
    (domains.make_ball(2, 1.0), solver.PolarGridMesh(12, 16)),
    (SPHEROID, solver.SphericalGridMesh(10, 8, 16))],
    ids=["ellipsoid3", "ellipse2", "star", "ball2", "spheroid3"])


@ORBIT_CASES
def test_map_tensor_inverses_run_once_per_orbit(domain, mesh):
    # the representatives keep inv(Xc)'s bits, every other node takes
    # its mirror representative's A times exact +-1 factors, and that A
    # is the node's own inv(Xc) to rounding (a wrong sign would miss by
    # |A|); on a ball or a spheroid the unknowns' orbits are the larger
    # ring pairs, and the tensors still follow the mirror orbits
    geo = gridsolver._GridGeometry(domain, mesh)
    inv = _inverse_map_jacobians(geo)
    assert np.array_equal(geo.A_rep, inv[..., geo.reps])
    signs = geo.chart_sign[:, None] * geo.cart_sign[None]
    assert np.array_equal(np.abs(signs), np.ones_like(signs))
    assert np.array_equal(
        geo.A, signs * geo.A[..., geo.mirror_reps][..., geo.mirror_fold])
    scale = np.abs(inv).max(axis=(0, 1))
    assert (np.abs(geo.A - inv) / scale).max() <= 1e-14
    if not domain.mirror_axes:
        assert np.array_equal(geo.mirror_reps, np.arange(geo.n_all))
        assert np.array_equal(geo.A, inv)


@ORBIT_CASES
@pytest.mark.parametrize("sigma,eps", [(1.0, 0.1), (0.05, 1e-4)])
def test_cap_jet_is_one_ring_jet(domain, mesh, sigma, eps):
    # the cap depends on s alone: its heights on every interior node are,
    # bit for bit, its height at each node's own radius, and the
    # full-grid chart jet of those heights is one node's jet per interior
    # ring spread over it
    scheme, _ = _small_scheme(domain, mesh, sigma, eps)
    geo = scheme.geo
    R = domain.inscribed_radius
    cap = geometry.exact_cap(geo.n, sigma, R, eps)
    assert np.array_equal(scheme.cap_height[:geo.n_int],
                          cap.height(R * geo.s_node[:geo.n_int]))
    assert (scheme.cap_height[geo.n_int:] == eps).all()
    ring = geo.jj[:geo.n_int] - 1
    assert scheme.cap_ring_jet.shape[1] == geo.J - 1
    assert np.array_equal(geo.chart_jet(scheme.cap_height),
                          scheme.cap_ring_jet[:, ring])
    assert np.array_equal(geo.chart_jet(scheme.cap_height, geo.nbr_rep),
                          scheme.cap_jet)


@ORBIT_CASES
def test_spectra_match_the_full_grid_pass(domain, mesh, monkeypatch):
    # the reported spectra and residual field against one shape pass on
    # every node with each node's own inv(Xc): the orbit spread moves
    # them at rounding level, and not at all on a star domain
    ends = _record_ends(monkeypatch)
    sigma = 1.0
    f = gridsolver.solve_graph(
        solver.SolveConfig(n=domain.n, sigma_target=sigma,
                           eps_schedule=(0.1,), mesh=mesh), domain)
    geo = gridsolver._GridGeometry(domain, mesh)
    scheme = gridsolver._GridScheme(geo, sigma, 0.1)
    D = scheme._padded(ends[-1])
    U = scheme.cap_height + D
    assert np.array_equal(U, f.u)
    jet = np.concatenate([geo.chart_jet(scheme.cap_height) + geo.chart_jet(D),
                          geo.boundary_jet(U)], axis=1)
    S = gridsolver._shape(*geo.unpack(jet), _inverse_map_jacobians(geo),
                          geo.Xcc)[0]
    tol = 0.0 if not domain.mirror_axes else 1e-13
    spectra = np.linalg.eigvalsh(np.moveaxis(S, -1, 0))[:, ::-1]
    assert np.abs(f.spectra - spectra).max() <= tol
    assert np.abs(f.residual_field
                  - (gridsolver._sigma(S) - sigma)).max() <= tol


def _criterion9_paths():
    """Criterion 9's eight paths (radial ball, grid (1.3, 1, 1)
    ellipsoid) and the (1.3, 1, 1) sigma = 0.05 path on 28 x 16 x 32."""
    for sigma in (0.05, 0.5, 1.5, 2.9):
        yield solver.solve_radial_path(
            solver.SolveConfig(n=3, sigma_target=sigma,
                               mesh=solver.RadialMesh(401)), BALL3)
        yield gridsolver.solve_graph_path(
            solver.SolveConfig(n=3, sigma_target=sigma), ELL)
    yield gridsolver.solve_graph_path(
        solver.SolveConfig(n=3, sigma_target=0.05,
                           mesh=solver.SphericalGridMesh(28, 16, 32)), ELL)


def test_reported_fields_meet_residual_tol_on_every_node():
    # Newton holds the representatives' rows to residual_tol; the field's
    # residual is a full-grid pass, so this checks every other node too
    tol = solver.NewtonParams().residual_tol
    for fields in _criterion9_paths():
        for f in fields:
            assert np.abs(f.residual_field[f.interior]).max() <= tol


@pytest.mark.parametrize("domain,mesh", [
    (domains.make_ball(2, 1.0), solver.PolarGridMesh(12, 16)),
    (ELL, solver.SphericalGridMesh(8, 6, 12))], ids=["ball2", "ellipsoid3"])
def test_field_marks_the_ring_and_checks_every_equation_node(
        domain, mesh, monkeypatch):
    # the unknowns are fewer than the equation nodes: the Dirichlet ring
    # and the cone check follow the nodes, not the unknowns
    rows = []
    real = solver.cone_mask_batch

    def recorded(spectra, k):
        rows.append(len(spectra))
        return real(spectra, k)

    monkeypatch.setattr(solver, "cone_mask_batch", recorded)
    geo = gridsolver._GridGeometry(domain, mesh)
    f = gridsolver.solve_graph(
        solver.SolveConfig(n=domain.n, sigma_target=1.0, eps_schedule=(0.1,),
                           mesh=mesh), domain)
    assert np.array_equal(f.boundary, geo.jj == geo.J)
    assert rows == [geo.n_int]
    assert f.cone_ok
    assert f.meta["unknowns"] == geo.reps.size < geo.n_int


# ---------------------------------------------------------------------------
# map tensors
# ---------------------------------------------------------------------------

def _mapped_points(domain, chart):
    """x = s support(omega) omega at chart rows (s, angles), with omega
    written out here rather than taken from domains.omega_jet."""
    s, t = chart[:, 0], chart[:, 1:]
    if domain.n == 3:
        w = np.column_stack([np.sin(t[:, 0]) * np.cos(t[:, 1]),
                             np.sin(t[:, 0]) * np.sin(t[:, 1]),
                             np.cos(t[:, 0])])
    else:
        w = np.column_stack([np.cos(t[:, 0]), np.sin(t[:, 0])])
    rho = np.array([domain.support(v) for v in w])
    return (s * rho)[:, None] * w


# the star's grid angles sit on spline knots, where the third derivative
# of rho jumps, so the second differences there carry an O(h) error of
# about 1e-4
@pytest.mark.parametrize("domain,mesh,xcc_tol", [
    (domains.make_ellipsoid((1.3, 1.0, 0.8)), solver.SphericalGridMesh(4, 4, 8),
     1e-5),
    (domains.make_ellipsoid((1.3, 1.0)), solver.PolarGridMesh(4, 8), 1e-5),
    (STAR, solver.PolarGridMesh(4, 8), 2e-4)],
    ids=["ellipsoid3", "ellipse2", "star2"])
def test_map_tensors_match_central_differences(domain, mesh, xcc_tol):
    geo = gridsolver._GridGeometry(domain, mesh)
    n = geo.n
    angles = [(geo.mm + 0.5) * geo.hth] if n == 3 else []
    chart = np.column_stack([geo.s_node, *angles, geo.ll * geo.hph])
    x = lambda c: _mapped_points(domain, c)
    assert np.allclose(geo.xyz, x(chart), rtol=0, atol=1e-14)

    h1, h2 = 1e-6, 1e-4
    e = np.eye(n)
    Xc = np.stack([(x(chart + h1 * e[a]) - x(chart - h1 * e[a])) / (2 * h1)
                   for a in range(n)], axis=-1)
    Xcc = np.stack([np.stack(
        [(x(chart + h2 * (e[a] + e[b])) - x(chart + h2 * (e[a] - e[b]))
          - x(chart - h2 * (e[a] - e[b])) + x(chart - h2 * (e[a] + e[b])))
         / (4 * h2 * h2) for b in range(n)], axis=-1) for a in range(n)],
        axis=-2)
    assert np.abs(np.linalg.inv(np.moveaxis(geo.A, -1, 0)) - Xc).max() <= 1e-8
    assert np.abs(np.moveaxis(geo.Xcc, -1, 0) - Xcc).max() <= xcc_tol
    assert np.array_equal(geo.Xcc, geo.Xcc.swapaxes(1, 2))


# ---------------------------------------------------------------------------
# boundary ring
# ---------------------------------------------------------------------------

def _ring_jet_errors(domain, mesh):
    """Boundary-ring jet errors of U = (1 + s^2)(2 + omega_1), whose chart
    jet is known in closed form: for n = 3 on the latitudes next to the
    poles (where the stencils wrap over the pole) and on the others, for
    n = 2 on the whole ring."""
    geo = gridsolver._GridGeometry(domain, mesh)
    s, ph = geo.s_node, geo.ll * geo.hph
    if geo.n == 3:
        th = (geo.mm + 0.5) * geo.hth
        a = np.sin(th) * np.cos(ph)
        d1 = [np.cos(th) * np.cos(ph), -np.sin(th) * np.sin(ph)]
        d2 = [-a, -a]
        mixed = [-np.cos(th) * np.sin(ph)]
    else:
        a = np.cos(ph)
        d1, d2, mixed = [-np.sin(ph)], [-a], []
    g = 1.0 + s ** 2
    # jet order: u, u_s, angular Du, u_ss, angular diagonal D2u,
    # radial-angular, angular-angular
    exact = np.column_stack([g * (2 + a), 2 * s * (2 + a)]
                            + [g * d for d in d1] + [2 * (2 + a)]
                            + [g * d for d in d2] + [2 * s * d for d in d1]
                            + [g * d for d in mixed])
    ni = geo.n_int
    err = np.abs(geo.boundary_jet(exact[:, 0]) - exact[ni:].T).max(axis=0)
    if geo.n == 2:
        return [err.max()]
    pole = (geo.mm[ni:] == 0) | (geo.mm[ni:] == geo.M - 1)
    return [err[pole].max(), err[~pole].max()]


@pytest.mark.parametrize("domain,coarse,fine", [
    (domains.make_ball(2, 1.0), solver.PolarGridMesh(8, 16),
     solver.PolarGridMesh(16, 32)),
    (BALL3, solver.SphericalGridMesh(6, 12, 24),
     solver.SphericalGridMesh(12, 24, 48))], ids=["n2", "n3"])
def test_boundary_jet_is_second_order(domain, coarse, fine):
    # radial differences are exact on a quadratic in s, so the error is
    # the angular stencils' and the pole wrap's, O(h^2) on every slot
    for e_coarse, e_fine in zip(_ring_jet_errors(domain, coarse),
                                _ring_jet_errors(domain, fine)):
        assert 3.5 <= e_coarse / e_fine <= 4.5


# ---------------------------------------------------------------------------
# the residual on a returned field, the guard on a cap start
# ---------------------------------------------------------------------------

def test_grid_residual_at_solution(ball16_end):
    ball16, d = ball16_end
    scheme = _ball16_scheme()
    assert np.array_equal(scheme.full_height(d), ball16.u)
    res = _residual(scheme, d)
    assert res.shape == (scheme.geo.reps.size,)
    assert np.abs(res).max() <= 1e-9
    assert np.array_equal(res, ball16.residual_field[scheme.geo.reps])


def test_cap_start_passes_guard_off_ball():
    geo = gridsolver._GridGeometry(ELL, solver.SphericalGridMesh(10, 8, 16))
    for sigma in (0.5, 1.0, 2.0):
        scheme = gridsolver._GridScheme(geo, sigma, 0.1)
        v0 = scheme.cap
        assert v0.shape == (geo.reps.size,)
        assert not v0.any()
        assert _guard(scheme, v0)


# ---------------------------------------------------------------------------
# the unknowns are the deviation from the cap
# ---------------------------------------------------------------------------

def test_rounding_floor_is_one_ulp_of_the_deviation(monkeypatch):
    # one ulp of d moves the residual of a converged iterate at least ten
    # times less than one ulp of the heights cap + d would; that spread
    # is the floor Newton can reach, and in heights this path stalled
    # at 1.2e-10
    ends = _record_ends(monkeypatch)
    mesh = solver.SphericalGridMesh(24, 14, 28)
    gridsolver.solve_graph(solver.SolveConfig(n=3, sigma_target=1.5,
                                              eps_schedule=(0.1,), mesh=mesh),
                           ELL)
    d = ends[-1]
    scheme = gridsolver._GridScheme(gridsolver._GridGeometry(ELL, mesh),
                                    1.5, 0.1)
    F = _residual(scheme, d)
    sign = np.random.default_rng(0).choice([-1.0, 1.0], d.size)

    def spread(ulp):
        return np.abs(_residual(scheme, d + sign * ulp) - F).max()

    heights = scheme.full_height(d)[scheme.geo.reps]
    assert 10.0 * spread(np.spacing(np.abs(d))) <= spread(np.spacing(heights))


def _half_path_witnesses():
    """The star's sigma = 0.5 path on the default n = 2 mesh, which takes
    the GMRES step (kl 127): its curvature-bound witness per eps."""
    fields = gridsolver.solve_graph_path(
        solver.SolveConfig(n=2, sigma_target=0.5), STAR)
    return np.array(audit.curvature_bound_check(fields).witnesses)


@pytest.fixture(scope="module")
def half_path_witnesses():
    return _half_path_witnesses()


@pytest.mark.parametrize("name,value", [
    ("GMRES_RTOL", 0.5 * gridsolver.GMRES_RTOL),
    ("GMRES_RTOL", 2.0 * gridsolver.GMRES_RTOL),
    ("ILU_DROP_TOL", 0.009), ("ILU_DROP_TOL", 0.011),
    ("permc_spec", "COLAMD"), ("permc_spec", "MMD_AT_PLUS_A")],
    ids=["rtol-half", "rtol-double", "drop-0.009", "drop-0.011", "colamd",
         "mmd"])
def test_half_path_holds_under_ilu_and_gmres_changes(half_path_witnesses,
                                                     spilu_calls, monkeypatch,
                                                     name, value):
    # the forcing term and the preconditioner move a GMRES path at
    # rounding level only; in heights, criterion 9's (1.3, 1, 1) path
    # (banded now) stalled at 1.49e-10 under five of these six
    if name == "permc_spec":
        counted = scipy.sparse.linalg.spilu
        monkeypatch.setattr(scipy.sparse.linalg, "spilu",
                            lambda J, **kw: counted(J, **{**kw, name: value}))
    else:
        monkeypatch.setattr(gridsolver, name, value)
    assert np.abs(_half_path_witnesses() - half_path_witnesses).max() <= 1e-11
    assert len(spilu_calls) == 1  # the patches reach the path


def test_elongated_ellipse_solves_at_small_sigma():
    # in heights the (2, 1) ellipse stalled at 2.7e-10 on this mesh
    f = gridsolver.solve_graph(solver.SolveConfig(n=2, sigma_target=0.3),
                               domains.make_ellipsoid((2.0, 1.0)))
    assert f.cone_ok
    assert f.convergence.residual <= 1e-10


def test_a_wrong_symmetry_group_is_not_reported_converged(monkeypatch):
    # the x1-aligned (1.3, 1, 1) ellipsoid has no rotation symmetry about
    # x3, and no single mirror preserves the CI star: solved on the wrong
    # orbits, Newton converges on the representatives while the residual
    # field elsewhere reads 0.32 (ellipsoid) or 0.26 (star), so no field
    # is built
    cases = [("rotates", True, domains.make_ellipsoid((1.3, 1.0, 1.0)),
              solver.SolveConfig(n=3, sigma_target=1.5)),
             ("mirror_axes", (0, 1),
              domains.make_star2d([1.0, 1.08, 1.0, 0.94] * 2),
              solver.SolveConfig(n=2, sigma_target=1.2,
                                 mesh=solver.PolarGridMesh(8, 16)))]
    for declaration, value, domain, config in cases:
        with monkeypatch.context() as mp:
            mp.setattr(domains.DomainSpec, declaration, value)
            with pytest.raises(NewtonDivergenceError, match="residual field"):
                gridsolver.solve_graph_path(config, domain)


def _recorded_legs(monkeypatch):
    """Record the (sigma, eps) of every grid leg and how it ended."""
    legs = []
    real = gridsolver.damped_newton

    def recorded(v0, residual_fn, guard_fn, jacobian_solver, params):
        scheme = residual_fn.__self__.scheme
        end = (scheme.sigma, scheme.eps_bdry)
        try:
            out = real(v0, residual_fn, guard_fn, jacobian_solver, params)
        except NewtonDivergenceError:
            legs.append((end, "stalled"))
            raise
        except ConeViolationError:
            legs.append((end, "cone"))
            raise
        legs.append((end, "ok"))
        return out

    monkeypatch.setattr(gridsolver, "damped_newton", recorded)
    return legs


def test_elongated_ellipsoid_runs_its_eps_legs_alone(monkeypatch):
    # on the inscribed-radius cap the (3, 1, 1) path at sigma 0.05 starts
    # inside the cone: no walk, no split, one leg per scheduled eps
    legs = _recorded_legs(monkeypatch)
    fields = gridsolver.solve_graph_path(
        solver.SolveConfig(n=3, sigma_target=0.05),
        domains.make_ellipsoid((3.0, 1.0, 1.0)))
    assert legs == [((0.05, eps), "ok") for eps in solver.DEFAULT_EPS_SCHEDULE]
    assert [f.convergence.eps_bdry for f in fields] == \
        list(solver.DEFAULT_EPS_SCHEDULE)
    for f in fields:
        assert f.cone_ok
        assert f.convergence.residual <= 1e-10


@pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0])
def test_elongated_ellipse_starts_inside_the_cone(monkeypatch, sigma):
    # the (3, 1) ellipse's mean-radius cap left the cone at the target
    # and at n/2 = 1; its inscribed-radius cap needs no sigma walk
    legs = _recorded_legs(monkeypatch)
    fields = gridsolver.solve_graph_path(
        solver.SolveConfig(n=2, sigma_target=sigma),
        domains.make_ellipsoid((3.0, 1.0)))
    assert {s for (s, _), _ in legs} == {sigma}
    assert [f.convergence.eps_bdry for f in fields] == \
        list(solver.DEFAULT_EPS_SCHEDULE)
    for f in fields:
        assert f.cone_ok
        assert f.convergence.residual <= 1e-10


PROBE_PATHS = [((a, 1.0), sigma) for a in (3.0, 2.0, 1.3)
               for sigma in (0.05, 0.3, 1.0, 1.5, 1.9)] \
    + [((a, 1.0, 1.0), sigma) for a in (1.3, 2.0, 3.0)
       for sigma in (0.05, 0.5, 1.5, 2.9)]


@pytest.mark.parametrize("axes,sigma", PROBE_PATHS,
                         ids=[f"{axes}-{sigma}" for axes, sigma in PROBE_PATHS])
def test_probe_path_solves_on_the_default_mesh(axes, sigma):
    # the 27-path probe: n = 2 ellipses and n = 3 ellipsoids of aspect
    # 1.3 to 3, sigma 0.05 to n - 0.1, default meshes and eps schedule;
    # the elongated sigma 0.05 paths walk and split their legs, and
    # their Newton counts move with rounding in the shape pass
    fields = gridsolver.solve_graph_path(
        solver.SolveConfig(n=len(axes), sigma_target=sigma),
        domains.make_ellipsoid(axes))
    assert [f.convergence.eps_bdry for f in fields] == \
        list(solver.DEFAULT_EPS_SCHEDULE)
    assert len(fields) == 4
    for f in fields:
        assert f.cone_ok
        assert f.convergence.residual <= 1e-10


# ---------------------------------------------------------------------------
# validation and degeneracy
# ---------------------------------------------------------------------------

def test_mesh_and_domain_validation():
    with pytest.raises(ValueError):
        gridsolver.solve_graph(
            solver.SolveConfig(n=3, sigma_target=1.5,
                               mesh=solver.RadialMesh(51)), BALL3)
    with pytest.raises(ValueError):
        gridsolver.solve_graph(
            solver.SolveConfig(n=2, sigma_target=1.2,
                               mesh=solver.SphericalGridMesh()),
            domains.make_ball(2, 1.0))
    with pytest.raises(ValueError):
        gridsolver.solve_graph(
            solver.SolveConfig(n=3, sigma_target=1.5), domains.make_ball(2, 1.0))


def test_concave_domain_is_refused():
    theta = np.linspace(0, 2 * math.pi, 32, endpoint=False)
    wavy = domains.make_star2d(1.0 + 0.45 * np.cos(5 * theta))
    cfg = solver.SolveConfig(n=2, sigma_target=1.2,
                             mesh=solver.PolarGridMesh(16, 32))
    with pytest.raises(ValueError):
        gridsolver.solve_graph(cfg, wavy)


def test_degenerate_chart_is_detected():
    # a support sample pinned at ~0 collapses the polar map right on a
    # mesh longitude (the convexity screen never sees this domain, so the
    # geometry builder has to catch it)
    dom = domains.make_star2d([1.0] * 7 + [1e-7])
    with pytest.raises(GridDegeneracyError):
        gridsolver._GridGeometry(dom, solver.PolarGridMesh(8, 8))
