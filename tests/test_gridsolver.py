"""Mapped-grid solver on balls, ellipsoids and star domains."""

import json
import math

import dataclasses
import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from hplateau import cli, domains, geometry, gridsolver, solver
from hplateau.errors import (ConeViolationError, GridDegeneracyError,
                             NewtonDivergenceError)

BALL3 = domains.make_ball(3, 1.0)
ELL = domains.make_ellipsoid((1.3, 1.0, 1.0))


def _ball_solve(J, M, L, sigma=1.5, eps_schedule=(1e-2,)):
    cfg = solver.SolveConfig(n=3, sigma_target=sigma,
                             eps_schedule=eps_schedule,
                             mesh=solver.SphericalGridMesh(J, M, L))
    return gridsolver.solve_graph(cfg, BALL3)


@pytest.fixture(scope="module")
def ball16():
    return _ball_solve(16, 10, 20)


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


def _small_scheme(domain, mesh, sigma, eps=0.1):
    geo = gridsolver._GridGeometry(domain, mesh)
    v = gridsolver.initial_grid_guess(geo, sigma, eps)
    return gridsolver._GridScheme(geo, eps), v


# small meshes: ring 1 steps through the center, latitudes 0 and M-1
# step over the poles
JAC_CASES = [(STAR, solver.PolarGridMesh(6, 8), 1.2),
             (ELL, solver.SphericalGridMesh(5, 4, 8), 1.0)]


@pytest.mark.parametrize("domain,mesh,sigma", JAC_CASES)
def test_jacobian_matches_central_differences(domain, mesh, sigma):
    # an independent check of the closed-form slots and their assembly
    scheme, v = _small_scheme(domain, mesh, sigma)
    J = scheme.jacobian(v).toarray()
    fd = np.empty_like(J)
    for c in range(v.size):
        d = np.zeros(v.size)
        d[c] = 1e-6 * (1.0 + abs(v[c]))
        fd[:, c] = (scheme.residual(v + d, sigma)
                    - scheme.residual(v - d, sigma)) / (2.0 * d[c])
    assert np.abs(J - fd).max() <= 1e-6 * np.abs(J).max()


@pytest.mark.parametrize("domain,mesh,sigma", JAC_CASES)
def test_jacobian_is_the_complex_step_derivative(domain, mesh, sigma):
    # the stencil-chain assembly against the residual's own directional
    # derivative, to rounding: a wrong weight, position or wrap, or a
    # real cast between v and the jet, fails this
    scheme, v = _small_scheme(domain, mesh, sigma)
    J = scheme.jacobian(v)
    for seed in range(3):
        d = np.random.default_rng(seed).standard_normal(v.size)
        cs = scheme.residual(v + 1e-20j * d, sigma).imag * 1e20
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
    geo = field.meta["scheme"].geo
    return geo, np.concatenate([geo.chart_jet(field.u),
                                geo.boundary_jet(field.u)])


def test_closed_form_slots_are_the_complex_step(eps4_jet):
    # every closed-form slot (u, the first and the second derivatives)
    # against a complex step in that slot alone, row by row; forming
    # <G, Q> from (S - I/w)/u instead cancels on the boundary ring and
    # fails this
    geo, jet = eps4_jet
    assert jet[:, 0].min() == pytest.approx(1e-4)
    dF = gridsolver._jet_gradient(*geo.unpack(jet), geo.A, geo.Xcc)
    assert dF.shape[1] == 1 + geo.n + len(gridsolver._jet_pairs(geo.n))
    scale = np.abs(dF).max(axis=1)
    cjet = jet.astype(complex)
    for k in range(jet.shape[1]):
        cjet[:, k] += 1e-20j
        S = gridsolver._shape(*geo.unpack(cjet), geo.A, geo.Xcc)[0]
        cjet[:, k] -= 1e-20j
        cs = gridsolver._sigma(S).imag * 1e20
        assert (np.abs(dF[:, k] - cs) <= 1e-13 * scale).all(), k


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
    shape_passes.clear()  # the initial guess ran the guard
    scheme.jacobian(v)
    assert shape_passes == [False]


def test_no_complex_array_reaches_shape_in_a_solve(shape_passes):
    cfg = solver.SolveConfig(n=2, sigma_target=1.2, eps_schedule=(1e-1, 1e-2),
                             mesh=solver.PolarGridMesh(12, 16))
    gridsolver.solve_graph_path(cfg, domains.make_ellipsoid((1.3, 1.0)))
    assert shape_passes and not any(shape_passes)


# ---------------------------------------------------------------------------
# inexact Newton step: GMRES preconditioned by a path-scoped ILU
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
def ell_iterate():
    """A smooth, guard-admissible non-solution on the default n = 3 mesh."""
    geo = gridsolver._GridGeometry(ELL, solver.SphericalGridMesh())
    scheme = gridsolver._GridScheme(geo, 0.1)
    x = geo.xyz[:geo.n_int]
    v = gridsolver.initial_grid_guess(geo, 1.5, 0.1) \
        * (1.0 + 0.05 * np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1]))
    assert scheme.guard(v)
    return scheme, v, scheme.residual(v, 1.5)


def _meets_forcing_term(scheme, v, F, s):
    # GMRES stops on this same 2-norm of J s + F; the margin covers a
    # different summation order in the recomputed product
    J = scheme.jacobian(v)
    return (np.linalg.norm(J @ s + F)
            <= gridsolver.GMRES_RTOL * np.linalg.norm(F) * (1.0 + 1e-9))


def _diagonal_ilu(scheme, v):
    """ILU of diag(J): too weak for GMRES to reach GMRES_RTOL in its
    cycles on the default mesh."""
    return _SPILU(scipy.sparse.diags(scheme.jacobian(v).diagonal()).tocsc())


@pytest.mark.parametrize("case", ["ball16", "ell_iterate"])
def test_step_meets_the_forcing_term(case, request, monkeypatch):
    if case == "ball16":
        field = request.getfixturevalue("ball16")
        scheme = field.meta["scheme"]
        v = field.u[field.interior]
        F = scheme.residual(v, field.convergence.sigma)
    else:
        scheme, v, F = request.getfixturevalue("ell_iterate")
    monkeypatch.setattr(scheme.geo, "ilu", None)  # restored on teardown
    assert _meets_forcing_term(scheme, v, F, scheme.jacobian_step(v, F))


class _CountedILU:
    """An ILU whose solve calls are counted."""

    def __init__(self, ilu):
        self.ilu, self.calls = ilu, 0

    def solve(self, x):
        self.calls += 1
        return self.ilu.solve(x)


def test_gmres_zero_residual_is_the_zero_step(ell_iterate):
    scheme, v, F = ell_iterate
    J = scheme.jacobian(v)
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
        J = scipy.sparse.diags(scheme.jacobian(v).diagonal()).tocsc()
    s = gridsolver._gmres(J, F, _SPILU(J))
    assert s is not None and np.isfinite(s).all()
    assert (np.linalg.norm(J @ s + F)
            <= gridsolver.GMRES_RTOL * np.linalg.norm(F))


def test_gmres_restarts_still_meet_the_forcing_term(ell_iterate, monkeypatch):
    scheme, v, F = ell_iterate
    monkeypatch.setattr(gridsolver, "GMRES_RESTART", 6)
    monkeypatch.setattr(gridsolver, "GMRES_MAXITER", 40)
    J = scheme.jacobian(v)
    ilu = _CountedILU(_SPILU(J, drop_tol=gridsolver.ILU_DROP_TOL))
    s = gridsolver._gmres(J, F, ilu)
    # each cycle makes at most GMRES_RESTART + 1 solves
    assert ilu.calls > 2 * (gridsolver.GMRES_RESTART + 1)
    assert _meets_forcing_term(scheme, v, F, s)


def test_path_builds_one_ilu_and_frees_it(spilu_calls):
    cfg = solver.SolveConfig(n=3, sigma_target=1.0,
                             mesh=solver.SphericalGridMesh(10, 8, 16))
    fields = gridsolver.solve_graph_path(cfg, ELL)
    assert len(fields) == len(solver.DEFAULT_EPS_SCHEDULE)
    assert len(spilu_calls) == 1
    geo = fields[-1].meta["scheme"].geo
    assert geo.ilu is None
    # a later step on a returned field builds its own
    stepped, (before, after) = solver.newton_step(fields[-1])
    assert after <= before * (1.0 + 1e-12) + 1e-15
    assert len(spilu_calls) == 2


def test_stale_ilu_is_rebuilt(ell_iterate, spilu_calls):
    scheme, v, F = ell_iterate
    weak = scheme.geo.ilu = _diagonal_ilu(scheme, v)
    s = scheme.jacobian_step(v, F)
    assert len(spilu_calls) == 1
    assert scheme.geo.ilu is not weak
    assert _meets_forcing_term(scheme, v, F, s)


def test_step_fails_typed_when_a_fresh_ilu_misses(ell_iterate, monkeypatch):
    scheme, v, F = ell_iterate
    weak = _diagonal_ilu(scheme, v)
    monkeypatch.setattr(scipy.sparse.linalg, "spilu", lambda *a, **k: weak)
    with pytest.raises(NewtonDivergenceError) as err:
        scheme.jacobian_step(v, F)
    assert err.value.state is v


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
    assert np.abs(np.linalg.inv(geo.A) - Xc).max() <= 1e-8
    assert np.abs(geo.Xcc - Xcc).max() <= xcc_tol
    assert np.array_equal(geo.Xcc, geo.Xcc.swapaxes(2, 3))


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
    err = np.abs(geo.boundary_jet(exact[:, 0]) - exact[ni:]).max(axis=1)
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
# field hooks shared with the radial side
# ---------------------------------------------------------------------------

def test_grid_residual_at_solution(ball16):
    res = solver.pde_residual(ball16)
    assert res.shape == (ball16.interior.sum(),)
    assert np.abs(res).max() <= 1e-9
    scheme = ball16.meta["scheme"]
    assert np.array_equal(res, scheme.residual(ball16.u[:scheme.geo.n_int],
                                               ball16.convergence.sigma))


def test_newton_step_grid_non_regression(ball16):
    stepped, (before, after) = solver.newton_step(ball16)
    assert after <= before * (1.0 + 1e-12) + 1e-15
    assert stepped.convergence.residual == after


def test_newton_step_grid_requires_cone(ball16):
    broken = dataclasses.replace(ball16, cone_ok=False)
    with pytest.raises(ConeViolationError):
        solver.newton_step(broken)


def test_initial_guess_passes_guard_off_ball():
    geo = gridsolver._GridGeometry(ELL, solver.SphericalGridMesh(10, 8, 16))
    scheme = gridsolver._GridScheme(geo, 0.1)
    for sigma in (0.5, 1.0, 2.0):
        v0 = gridsolver.initial_grid_guess(geo, sigma, 0.1)
        assert v0.shape == (geo.n_int,)
        assert scheme.guard(v0)


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
