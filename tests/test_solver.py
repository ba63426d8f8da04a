"""Radial continuation solver against the exact cap family."""

import dataclasses
import math

import numpy as np
import pytest

from hplateau import domains, geometry, gridsolver, solver
from hplateau.errors import (ConeViolationError, InvalidHeightError,
                             NewtonDivergenceError)

BALL3 = domains.make_ball(3, 1.0)


def _solve(n=3, sigma=1.5, nodes=201, eps_schedule=(1e-2,), **kw):
    cfg = solver.SolveConfig(n=n, sigma_target=sigma,
                             eps_schedule=eps_schedule,
                             mesh=solver.RadialMesh(nodes), **kw)
    return solver.solve_radial(cfg, domains.make_ball(n, 1.0))


@pytest.fixture(scope="module")
def field201():
    return _solve(nodes=201)


def test_matches_exact_cap(field201):
    cap = geometry.exact_cap(3, 1.5, 1.0, 1e-2)
    err = np.abs(field201.u - cap.height(field201.nodes)).max()
    assert err <= 1e-4
    assert field201.convergence.residual <= 1e-10
    assert field201.cone_ok


def test_error_shrinks_under_refinement():
    cap = geometry.exact_cap(3, 1.5, 1.0, 1e-2)
    errs = []
    for nodes in (51, 101, 201):
        f = _solve(nodes=nodes)
        errs.append(np.abs(f.u - cap.height(f.nodes)).max())
    assert math.log2(errs[0] / errs[1]) >= 1.8
    assert math.log2(errs[1] / errs[2]) >= 1.8


def test_boundary_is_pinned(field201):
    assert field201.u[-1] == 1e-2
    assert field201.boundary[-1]
    assert not field201.boundary[:-1].any()
    assert field201.interior.sum() == field201.u.size - 1


def test_max_principle_and_monotonicity(field201):
    u = field201.u
    assert u.argmax() == 0
    assert (u >= 1e-2 - 1e-12).all()
    # radial profile decreases outward
    assert (field201.meta["du"][1:] < 1e-10).all()


def test_eps_descent_tracks_cap_family():
    cfg = solver.SolveConfig(n=3, sigma_target=1.5,
                             mesh=solver.RadialMesh(201))
    fields = solver.solve_radial_path(cfg, BALL3)
    assert [f.convergence.eps_bdry for f in fields] == \
        list(solver.DEFAULT_EPS_SCHEDULE)
    prev = None
    for f in fields:
        cap = geometry.exact_cap(3, 1.5, 1.0, f.convergence.eps_bdry)
        assert np.abs(f.u - cap.height(f.nodes)).max() <= 1e-4
        assert abs(float(f.nu_vertical.min()) - cap.nu_min) <= 1e-3
        if prev is not None:
            # boundary data only decreases, so the whole graph does
            assert (f.u <= prev.u + 1e-10).all()
        prev = f


def test_center_height_strictly_decreasing_in_sigma():
    u0 = []
    for sigma in (0.5, 1.0, 1.5, 2.0, 2.5):
        f = _solve(sigma=sigma, nodes=101)
        cap = geometry.exact_cap(3, sigma, 1.0, 1e-2)
        assert f.u[0] == pytest.approx(float(cap.height(0.0)), abs=3e-4)
        u0.append(float(f.u[0]))
    assert all(a > b for a, b in zip(u0, u0[1:]))


def test_plane_case_matches_its_cap():
    f = _solve(n=2, sigma=1.2, nodes=201)
    cap = geometry.exact_cap(2, 1.2, 1.0, 1e-2)
    assert np.abs(f.u - cap.height(f.nodes)).max() <= 1e-4


def test_sigma_extremes_converge():
    # sigma -> 0 approaches a hemisphere; its rim slope is steep enough
    # that 151 nodes only deliver ~1e-3 there
    for sigma, tol in ((0.05, 2e-3), (2.9, 5e-4)):
        f = _solve(sigma=sigma, nodes=151)
        cap = geometry.exact_cap(3, sigma, 1.0, 1e-2)
        assert np.abs(f.u - cap.height(f.nodes)).max() <= tol
        assert f.cone_ok


def test_initial_profile_slope_is_cap_rim_slope():
    cap = geometry.exact_cap(3, 1.5, 1.0, 0.0)
    got = solver.initial_profile_slope(3, 1.5)
    assert got == pytest.approx(-float(cap.height_d1(cap.R)), rel=1e-12)


# ---------------------------------------------------------------------------
# field-level operations
# ---------------------------------------------------------------------------

def test_pde_residual_recomputes_from_heights(field201):
    res = solver.pde_residual(field201)
    assert np.abs(res).max() <= 1e-9


def test_pde_residual_on_sampled_cap_shows_truncation_order():
    sups = []
    for nodes in (101, 201):
        f = _solve(nodes=nodes)
        cap = geometry.exact_cap(3, 1.5, 1.0, 1e-2)
        sampled = dataclasses.replace(f, u=np.asarray(cap.height(f.nodes)))
        sups.append(float(np.abs(solver.pde_residual(sampled)).max()))
    assert sups[1] <= 1e-3
    assert math.log2(sups[0] / sups[1]) >= 1.8


def test_newton_step_at_solution_does_not_regress(field201):
    stepped, (before, after) = solver.newton_step(field201)
    assert after <= before * (1.0 + 1e-12) + 1e-15
    assert stepped.convergence.residual == after


def test_newton_step_contracts_from_perturbed_start(field201):
    bump = 1e-3 * np.cos(0.5 * math.pi * field201.nodes)
    u = field201.u.copy()
    u[:-1] += bump[:-1]
    rough = dataclasses.replace(field201, u=u)
    stepped, (before, after) = solver.newton_step(rough)
    assert after < 0.3 * before


def test_newton_step_requires_cone_ok(field201):
    broken = dataclasses.replace(field201, cone_ok=False)
    with pytest.raises(ConeViolationError):
        solver.newton_step(broken)


def test_pde_residual_rejects_nonpositive_heights(field201):
    u = field201.u.copy()
    u[3] = -0.1
    with pytest.raises(InvalidHeightError):
        solver.pde_residual(dataclasses.replace(field201, u=u))


# ---------------------------------------------------------------------------
# Newton engine on synthetic problems
# ---------------------------------------------------------------------------

def test_damped_newton_solves_a_linear_system():
    v, iters, nrm = solver.damped_newton(
        np.zeros(3),
        residual_fn=lambda v: v - 3.0,
        guard_fn=lambda v: True,
        jacobian_solver=lambda v, F: -F,
        params=solver.NewtonParams(),
    )
    assert np.allclose(v, 3.0)
    assert iters <= 2
    assert nrm <= 1e-10


def test_damped_newton_guard_rejection():
    with pytest.raises(ConeViolationError) as info:
        solver.damped_newton(
            np.ones(2),
            residual_fn=lambda v: v,
            guard_fn=lambda v: False,
            jacobian_solver=lambda v, F: -F,
            params=solver.NewtonParams(),
        )
    assert info.value.state is not None


def test_damped_newton_divergence_carries_state():
    # a zero step can never reduce a constant residual
    with pytest.raises(NewtonDivergenceError) as info:
        solver.damped_newton(
            np.ones(2),
            residual_fn=lambda v: np.ones(2),
            guard_fn=lambda v: True,
            jacobian_solver=lambda v, F: np.zeros(2),
            params=solver.NewtonParams(max_iters=5),
        )
    assert np.array_equal(info.value.state, np.ones(2))


def test_damped_newton_iteration_cap():
    # each halving of v reduces the residual, but never below tol in time
    with pytest.raises(NewtonDivergenceError):
        solver.damped_newton(
            np.ones(1),
            residual_fn=lambda v: v,
            guard_fn=lambda v: True,
            jacobian_solver=lambda v, F: -0.5 * v,
            params=solver.NewtonParams(max_iters=3, residual_tol=1e-12),
        )


# ---------------------------------------------------------------------------
# continuation driver, on the radial and the grid scheme
# ---------------------------------------------------------------------------

def _radial_scheme():
    return solver, solver._RadialScheme(BALL3, 21, 0.1)


def _grid_scheme():
    geo = gridsolver._GridGeometry(domains.make_ellipsoid((1.3, 1.0, 1.0)),
                                   solver.SphericalGridMesh(6, 4, 8))
    return gridsolver, gridsolver._GridScheme(geo, 0.1)


def _stub_legs(monkeypatch, module, fail):
    """Replace module.damped_newton by a stub that records the (sigma, eps)
    of every leg and fails the k-th leg (from 1) where fail(k) holds."""
    visited = []

    def fake_newton(v0, residual_fn, guard_fn, jacobian_solver, params):
        visited.append((residual_fn.keywords["sigma"],
                        guard_fn.__self__.eps_bdry))
        if fail(len(visited)):
            raise NewtonDivergenceError("stalled", state=v0)
        return v0, 1, 0.0

    monkeypatch.setattr(module, "damped_newton", fake_newton)
    return visited


@pytest.mark.parametrize("make", [_radial_scheme, _grid_scheme],
                         ids=["radial", "grid"])
def test_failed_leg_splits_at_geometric_midpoint(monkeypatch, make):
    module, scheme = make()
    always_fail = False
    visited = _stub_legs(monkeypatch, module,
                         lambda k: k == 1 or always_fail)
    v = np.ones(scheme.cap_height(1.0, 0.1).size)
    params = solver.NewtonParams()
    # sigma leg: eps stays put, sigma splits at sqrt(1.0 * 0.25)
    _, (_, its, _) = solver._leg(scheme, params, v, (1.0, 0.1), (0.25, 0.1))
    assert visited == [(0.25, 0.1), (0.5, 0.1), (0.25, 0.1)]
    assert its == 2
    # eps leg: the same split in eps
    visited.clear()
    solver._leg(scheme, params, v, (1.5, 1e-2), (1.5, 1e-4))
    assert visited == [(1.5, 1e-4), (1.5, math.sqrt(1e-2 * 1e-4)), (1.5, 1e-4)]
    # MAX_SPLIT_DEPTH splits at most, then the error propagates
    visited.clear()
    always_fail = True
    with pytest.raises(NewtonDivergenceError):
        solver._leg(scheme, params, v, (1.0, 0.1), (0.25, 0.1))
    assert len(visited) == solver.MAX_SPLIT_DEPTH + 1


def test_radial_walk_fires_when_first_leg_fails(monkeypatch):
    real = solver.damped_newton
    visited = []

    def fails_first_and_walk(v0, residual_fn, guard_fn, jacobian_solver,
                             params):
        visited.append(residual_fn.keywords["sigma"])
        if len(visited) in (1, 3):
            raise ConeViolationError("stub", state=v0)
        return real(v0, residual_fn, guard_fn, jacobian_solver, params)

    monkeypatch.setattr(solver, "damped_newton", fails_first_and_walk)
    f = _solve(sigma=0.2, nodes=101)
    # the failed first leg, the first leg at n/2 = 1.5, the walk as one
    # leg 1.5 -> 0.2, and once that fails, its halves through the
    # geometric midpoint
    assert visited == [0.2, 1.5, 0.2, math.sqrt(1.5 * 0.2), 0.2]
    assert f.convergence.sigma == 0.2
    assert f.convergence.residual <= 1e-10
    assert f.cone_ok


def test_plane_walk_reaches_small_sigma():
    # the eps leg 0.1 -> 0.01 leaves the cone unless it is split four
    # levels deep
    fields = solver.solve_radial_path(
        solver.SolveConfig(n=2, sigma_target=0.01,
                           mesh=solver.RadialMesh(101)),
        domains.make_ball(2, 1.0))
    assert [f.convergence.eps_bdry for f in fields] == \
        list(solver.DEFAULT_EPS_SCHEDULE)
    for f in fields:
        assert f.cone_ok
        assert f.convergence.sigma == 0.01
        assert f.convergence.residual <= 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_walk_is_not_tried_when_it_would_repeat_the_failed_leg(monkeypatch, n):
    # the walk starts at n/2, so at sigma = n/2 it would rerun the first leg
    visited = _stub_legs(monkeypatch, solver, lambda k: True)
    with pytest.raises(NewtonDivergenceError):
        _solve(n=n, sigma=0.5 * n, nodes=101)
    assert visited == [(0.5 * n, 1e-2)]


def test_walk_is_not_tried_after_a_stalled_first_leg(monkeypatch):
    # a stall at the residual's rounding floor is no cone failure, and no
    # sigma walk moves that floor
    visited = _stub_legs(monkeypatch, solver, lambda k: True)
    with pytest.raises(NewtonDivergenceError):
        _solve(sigma=0.2, nodes=101)
    assert visited == [(0.2, 1e-2)]


def test_radial_explicit_sigma_path_lands_on_direct_solution(monkeypatch):
    # the sigma path n/2 = 1.5 -> 1.0, forced by a first leg that leaves
    # the cone, ends on the field a direct solve at sigma = 1.0 finds
    direct = _solve(sigma=1.0)
    real = solver.damped_newton
    visited = []

    def fails_first(v0, residual_fn, guard_fn, jacobian_solver, params):
        visited.append(residual_fn.keywords["sigma"])
        if len(visited) == 1:
            raise ConeViolationError("stub", state=v0)
        return real(v0, residual_fn, guard_fn, jacobian_solver, params)

    monkeypatch.setattr(solver, "damped_newton", fails_first)
    walked = _solve(sigma=1.0)
    assert visited == [1.0, 1.5, 1.0]
    assert walked.convergence.sigma == 1.0
    assert walked.convergence.residual <= 1e-10
    assert np.abs(walked.u - direct.u).max() <= 1e-9


WALKS = {
    # (module, path solver, domain, mesh, sigma, eps schedule): targets
    # whose first leg leaves the cone, so that the sigma walk fires
    "radial": (solver, solver.solve_radial_path, domains.make_ball(2, 1.0),
               solver.RadialMesh(51), 0.01, (1e-1,)),
    "grid": (gridsolver, gridsolver.solve_graph_path,
             domains.make_ellipsoid((1.3, 1.0, 1.0)),
             solver.SphericalGridMesh(10, 8, 16), 0.05, (1e-1, 1e-2)),
}


@pytest.mark.parametrize("tol", [1e-10, 1e-4])
@pytest.mark.parametrize("kind", list(WALKS))
def test_only_reported_legs_are_solved_to_residual_tol(monkeypatch, kind,
                                                       tol):
    # legs that end at a reported field keep residual_tol; the walk legs
    # and first halves of split legs get max(residual_tol, WALK_TOL), so
    # a residual_tol looser than WALK_TOL holds on every leg
    module, solve, domain, mesh, sigma, schedule = WALKS[kind]
    legs = []
    real = module.damped_newton

    def recorded(v0, residual_fn, guard_fn, jacobian_solver, params):
        legs.append((residual_fn.keywords["sigma"], guard_fn.__self__.eps_bdry,
                     params.residual_tol))
        return real(v0, residual_fn, guard_fn, jacobian_solver, params)

    monkeypatch.setattr(module, "damped_newton", recorded)
    fields = solve(solver.SolveConfig(
        n=domain.n, sigma_target=sigma, eps_schedule=schedule, mesh=mesh,
        newton=solver.NewtonParams(residual_tol=tol)), domain)
    assert len({s for s, _, _ in legs}) > 2  # the walk fired
    for s, eps, leg_tol in legs:
        reported = s == sigma and eps in schedule
        assert leg_tol == (tol if reported else max(tol, solver.WALK_TOL))
    assert [f.convergence.eps_bdry for f in fields] == list(schedule)
    assert all(f.convergence.residual <= tol and f.convergence.sigma == sigma
               for f in fields)


def _count_newton(monkeypatch, module):
    calls = []
    real = module.damped_newton

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "damped_newton", counted)
    return calls


def test_newton_legs_run_through_their_own_module(monkeypatch):
    # outside tracers tell radial from grid legs by which module global
    # they wrap, so each solver must call its own damped_newton
    grid_calls = _count_newton(monkeypatch, gridsolver)
    radial_calls = _count_newton(monkeypatch, solver)
    gridsolver.solve_graph(
        solver.SolveConfig(n=2, sigma_target=1.2, eps_schedule=(1e-1, 1e-2),
                           mesh=solver.PolarGridMesh(6, 8)),
        domains.make_ball(2, 1.0))
    assert grid_calls and not radial_calls
    grid_calls.clear()
    _solve(nodes=51, eps_schedule=(1e-1, 1e-2))
    assert radial_calls and not grid_calls


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_solve_config_validation():
    with pytest.raises(ValueError):
        solver.SolveConfig(n=1, sigma_target=0.5)
    with pytest.raises(ValueError):
        solver.SolveConfig(n=3, sigma_target=3.0)
    with pytest.raises(ValueError):
        solver.SolveConfig(n=3, sigma_target=1.0, eps_schedule=())
    with pytest.raises(ValueError):
        solver.SolveConfig(n=3, sigma_target=1.0, eps_schedule=(1e-2, 1e-1))
    with pytest.raises(ValueError):
        solver.SolveConfig(n=3, sigma_target=1.0, eps_schedule=(1e-2, -1e-3))


def test_mesh_validation():
    with pytest.raises(ValueError):
        solver.RadialMesh(3)
    with pytest.raises(ValueError):
        solver.PolarGridMesh(radial=48, angular=63)
    with pytest.raises(ValueError):
        solver.SphericalGridMesh(radial=20, lat=12, lon=23)
    with pytest.raises(ValueError):
        solver.SphericalGridMesh(radial=2, lat=12, lon=24)


def test_solve_radial_domain_checks():
    cfg = solver.SolveConfig(n=3, sigma_target=1.5)
    with pytest.raises(ValueError):
        solver.solve_radial(cfg, domains.make_ellipsoid((1.3, 1.0, 1.0)))
    with pytest.raises(ValueError):
        solver.solve_radial(cfg, domains.make_ball(2, 1.0))
    bad_mesh = solver.SolveConfig(n=3, sigma_target=1.5,
                                  mesh=solver.SphericalGridMesh())
    with pytest.raises(ValueError):
        solver.solve_radial(bad_mesh, BALL3)
