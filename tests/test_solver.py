"""Radial continuation solver against the exact cap family."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from hplateau import cones, domains, geometry, gridsolver, solver
from hplateau.errors import ConeViolationError, NewtonDivergenceError

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


# ---------------------------------------------------------------------------
# the radial scheme: its residual, one stencil pass per iterate and an
# exact Jacobian
# ---------------------------------------------------------------------------

@pytest.fixture
def stencil_passes(monkeypatch):
    """One entry per _RadialScheme._stencil call."""
    passes = []
    real = solver._RadialScheme._stencil

    def recorded(self, u):
        passes.append(u.size)
        return real(self, u)

    monkeypatch.setattr(solver._RadialScheme, "_stencil", recorded)
    return passes


def _radial_iterate(n=3, nodes=21):
    scheme = solver._RadialScheme(domains.make_ball(n, 1.0), nodes, 0.5 * n,
                                  0.1)
    return scheme, scheme.cap * (1.0 + 0.01 * np.cos(scheme.r[:-1]))


def _radial_residual(scheme, v):
    return scheme.evaluate(v)[0]


def _radial_step(scheme, v, F):
    return scheme.jacobian_step(v, scheme.evaluate(v)[2], F)


def test_pde_residual_recomputes_from_heights(field201):
    scheme = solver._RadialScheme(BALL3, 201, 1.5, 1e-2)
    res = _radial_residual(scheme, field201.u[field201.interior])
    assert np.abs(res).max() <= 1e-9


def test_pde_residual_on_sampled_cap_shows_truncation_order():
    cap = geometry.exact_cap(3, 1.5, 1.0, 1e-2)
    sups = []
    for nodes in (101, 201):
        scheme = solver._RadialScheme(BALL3, nodes, 1.5, 1e-2)
        sampled = np.asarray(cap.height(scheme.r[:-1]))
        sups.append(float(np.abs(_radial_residual(scheme, sampled)).max()))
    assert sups[1] <= 1e-3
    assert math.log2(sups[0] / sups[1]) >= 1.8


def test_newton_step_contracts_from_perturbed_start(field201):
    scheme = solver._RadialScheme(BALL3, 201, 1.5, 1e-2)
    bump = 1e-3 * np.cos(0.5 * math.pi * field201.nodes)
    v = (field201.u + bump)[field201.interior]
    leg = solver._Leg(scheme)
    F = leg.residual(v)
    stepped = v + leg.step(v, F)
    assert leg.guard(stepped)
    before = float(np.abs(F).max())
    assert float(np.abs(leg.residual(stepped)).max()) < 0.3 * before


def test_guard_residual_and_step_share_one_stencil_pass(stencil_passes):
    scheme, v = _radial_iterate()
    leg = solver._Leg(scheme)
    assert leg.guard(v)
    F = leg.residual(v)
    s = leg.step(v, F)
    assert stencil_passes == [21]
    # the same numbers as schemes that evaluate v afresh for each call
    assert np.array_equal(F, _radial_residual(_radial_iterate()[0], v))
    assert np.array_equal(s, _radial_step(_radial_iterate()[0], v, F))


def test_leg_serves_an_equal_copy_from_its_evaluation(stencil_passes):
    scheme, v = _radial_iterate()
    leg = solver._Leg(scheme)
    F = leg.residual(v)
    assert leg.guard(v.copy())
    assert leg.residual(v.copy()) is F
    assert stencil_passes == [21]


def test_leg_matches_the_same_iterate_by_identity(monkeypatch):
    # the engine hands guard, residual and step one object per iterate:
    # after the first call on it, no call compares arrays
    scheme, v = _radial_iterate()
    leg = solver._Leg(scheme)
    assert leg.guard(v)
    compared = []
    real = np.array_equal

    def counted(a, b):
        compared.append(1)
        return real(a, b)

    monkeypatch.setattr(np, "array_equal", counted)
    F = leg.residual(v)
    leg.step(v, F)
    assert leg.guard(v)
    assert compared == []
    leg.residual(v.copy())   # a distinct object is still matched by value
    assert compared == [1]


@pytest.mark.parametrize("nodes", [21, 401])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_radial_step_solves_the_linearization(n, nodes):
    # the closed-form tridiagonal Jacobian against a central difference
    # of the residual along its own Newton step: J s = -F
    scheme, v = _radial_iterate(n, nodes)
    F = _radial_residual(scheme, v)
    s = _radial_step(scheme, v, F)
    h = 1e-4
    fd = (_radial_residual(scheme, v + h * s)
          - _radial_residual(scheme, v - h * s)) / (2.0 * h)
    assert np.abs(fd + F).max() <= 1e-5 * np.abs(F).max()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_radial_step_inverts_the_whole_jacobian(n):
    # the columns of J^-1 from steps on -e_k, times a dense central
    # difference of the residual, give I: every band entry is checked,
    # the center row's folded ghost column too
    scheme, v = _radial_iterate(n)
    data = scheme.evaluate(v)[2]
    inv = np.column_stack([scheme.jacobian_step(v, data, -e)
                           for e in np.eye(v.size)])
    h = 1e-6
    fd = np.column_stack([(_radial_residual(scheme, v + h * e)
                           - _radial_residual(scheme, v - h * e)) / (2.0 * h)
                          for e in np.eye(v.size)])
    assert np.abs(inv @ fd - np.eye(v.size)).max() <= 1e-6


def test_radial_stencil_differences_are_pinned():
    # the residual's rounding sets the radial floor, so _stencil's
    # differences keep this exact arithmetic; re-associating them (as
    # weight sums, say) changes which ladder paths stall
    scheme, v = _radial_iterate(3, 41)
    u, h = scheme.full_height(v), scheme.h
    du, d2u = scheme._stencil(u)[:2]
    du_ref = np.concatenate((
        [0.0], (u[2:] - u[:-2]) / (2.0 * h),
        [(3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)]))
    d2u_ref = np.concatenate((
        [2.0 * (u[1] - u[0]) / h ** 2],
        (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h ** 2,
        [(2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / h ** 2]))
    assert np.array_equal(du, du_ref)
    assert np.array_equal(d2u, d2u_ref)


@pytest.mark.parametrize("nodes", [401, 1601])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_radial_sigmas_from_columns_are_the_table(n, nodes):
    # evaluate and field_parts expand (kappa_rad, kappa_ang, ...) from the
    # curvature columns; the sigmas must be the stacked rows' table bits
    scheme, v = _radial_iterate(n, nodes)
    krad, kang = scheme._stencil(scheme.full_height(v))[3:5]
    table = cones.elem_sym_table(
        np.column_stack([krad] + [kang] * (n - 1)), n - 1)
    sigmas = scheme._sigmas(krad, kang)
    assert len(sigmas) == n
    for k, s in enumerate(sigmas):
        assert np.array_equal(s, table[:, k])
    F, inside, _ = scheme.evaluate(v)
    assert np.array_equal(F, table[:-1, -1] - scheme.sigma)
    assert inside == bool((table[:-1, 1:] > 0.0).all())


class _ReferenceRadialScheme(solver._RadialScheme):
    """The radial arithmetic spelled per call: differences over h and
    h ** 2 formed in place, the step as weight triples times a (3, m-1)
    Jacobian block folded into a zeros_like band for a default
    solve_banded, and the spectra as sorted rows.  The radial floor
    decides which paths stall, so the scheme must match it bit for bit."""

    def at(self, sigma, eps):
        return _ReferenceRadialScheme(self.domain, self.m, sigma, eps)

    def _stencil(self, u):
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

    def jacobian_step(self, v, stencil, F):
        n, h, m1 = self.n, self.h, v.size
        F_u, F_p, F_q = np.empty((3, m1))
        c0 = n * (n - 1) * stencil[3][0] ** (n - 2)
        F_u[0], F_p[0], F_q[0] = c0 * stencil[1][0], 0.0, c0 * v[0]
        p, q, w, krad, kang = (s[1:m1] for s in stencil)
        b, r, w3 = v[1:], self.r[1:m1], w ** 3
        if n == 2:
            g_rad = g_ang = 1.0
        else:
            g_rad = (n - 1) * kang ** (n - 2)
            g_ang = (n - 1) * ((n - 2) * krad * kang ** (n - 3) + kang ** (n - 2))
        F_u[1:] = g_rad * q / w3 + g_ang * p / (r * w)
        F_p[1:] = g_ang * (b / (r * w) - b * p * p / (r * w3) - p / w3) \
            - g_rad * (3.0 * b * q * p / (w3 * w * w) + p / w3)
        F_q[1:] = g_rad * b / w3
        d1 = np.array([[-1.0], [0.0], [1.0]]) / (2.0 * h)
        d2 = np.array([[1.0], [-2.0], [1.0]]) / h ** 2
        jac = d1 * F_p + d2 * F_q
        jac[1] += F_u
        jac[2, 0] += jac[0, 0]
        band = np.zeros_like(jac)
        band[0, 1:], band[1], band[2, :-1] = jac[2, :-1], jac[1], jac[0, 1:]
        return scipy.linalg.solve_banded((1, 1), band, -F)

    def field_parts(self, v):
        u = self.full_height(v)
        last, stencil = self._last
        if not np.array_equal(last, v):
            stencil = self._stencil(u)
        du, d2u, w, krad, kang = stencil
        rows = np.column_stack([krad] + [kang] * (self.n - 1))
        near = np.arange(self.m) >= self.m - 2
        return (self.r.copy(), u, w, np.sort(rows, axis=1)[:, ::-1],
                self._sigmas(krad, kang)[-1],
                {"kind": "radial", "du": du, "d2u": d2u, "kappa_rad": krad,
                 "kappa_ang": kang, "near_boundary": near})


@pytest.mark.parametrize("nodes", [21, 1601])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_radial_step_and_spectra_are_pinned(n, nodes):
    # the step from the banded layout and the spectra ordered by
    # construction are the reference's bits: no entry is re-associated
    scheme, v = _radial_iterate(n, nodes)
    ref = _ReferenceRadialScheme(scheme.domain, nodes, scheme.sigma, 0.1)
    F, _, stencil = scheme.evaluate(v)
    F_ref, _, stencil_ref = ref.evaluate(v)
    assert np.array_equal(F, F_ref)
    assert np.array_equal(scheme.jacobian_step(v, stencil, F),
                          ref.jacobian_step(v, stencil_ref, F_ref))
    # kappa_rad above, below and equal to kappa_ang (the center) all occur
    krad, kang = stencil[3:5]
    assert (krad > kang).any() and (krad < kang).any() \
        and (krad == kang).any()
    parts, parts_ref = scheme.field_parts(v), ref.field_parts(v)
    for got, want in zip(parts[:5], parts_ref[:5]):
        assert np.array_equal(got, want)


def _radial_outcome(scheme_cls, n, nodes, sigma):
    """The fields of one default-schedule ball path, or its error as
    (type, message, state)."""
    config = solver.SolveConfig(n=n, sigma_target=sigma,
                                mesh=solver.RadialMesh(nodes))
    scheme = scheme_cls(domains.make_ball(n, 1.0), nodes, sigma,
                        config.eps_schedule[0])
    try:
        return solver._solve_path(scheme, config)
    except (NewtonDivergenceError, ConeViolationError) as exc:
        return type(exc), str(exc), exc.state


def test_radial_sub_ladder_matches_the_reference_bit_for_bit():
    # 24 paths of the benchmark's radial ladder, stalls at the rounding
    # floor included: a change of arithmetic that flips a path, or moves
    # a bit of a field, fails here
    stalled = set()
    for n, nodes in itertools.product((2, 5), (801, 1601)):
        for sigma in (0.01, 0.05, 0.5, n / 2, n - 0.5, n - 0.01):
            got = _radial_outcome(solver._RadialScheme, n, nodes, sigma)
            want = _radial_outcome(_ReferenceRadialScheme, n, nodes, sigma)
            if isinstance(want, tuple):
                stalled.add((n, nodes, sigma))
                assert isinstance(got, tuple) and got[:2] == want[:2]
                assert np.array_equal(got[2], want[2])
                continue
            assert len(got) == len(want)
            for f, g in zip(got, want):
                assert f.convergence == g.convergence
                assert f.cone_ok == g.cone_ok
                for name in ("nodes", "u", "spectra", "residual_field",
                             "nu_vertical"):
                    assert np.array_equal(getattr(f, name),
                                          getattr(g, name)), name
                assert f.meta.keys() == g.meta.keys()
                assert all(np.array_equal(f.meta[k], g.meta[k])
                           for k in f.meta)
    assert stalled  # the floor is reached on this sub-ladder


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
    # a zero step can never reduce a constant residual; the error carries
    # the iterate the step was taken from itself, not a copy, since
    # outside tracers compare the two by identity
    stepped = []
    with pytest.raises(NewtonDivergenceError,
                       match="no residual decrease") as info:
        solver.damped_newton(
            np.ones(2),
            residual_fn=lambda v: np.ones(2),
            guard_fn=lambda v: True,
            jacobian_solver=lambda v, F: stepped.append(v) or np.zeros(2),
            params=solver.NewtonParams(max_iters=5),
        )
    assert np.array_equal(info.value.state, np.ones(2))
    assert info.value.state is stepped[0]


def test_damped_newton_guard_rejects_every_trial():
    # the guard passes v0, then rejects every damped step from it
    stepped = []
    with pytest.raises(ConeViolationError,
                       match="rejected every damped step") as info:
        solver.damped_newton(
            np.ones(2),
            residual_fn=lambda v: v,
            guard_fn=lambda v: not stepped,
            jacobian_solver=lambda v, F: stepped.append(v) or -F,
            params=solver.NewtonParams(),
        )
    assert info.value.state is stepped[0]


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


def test_damped_newton_counts_a_last_step_that_converges():
    # two half steps, then an exact one: the third and last allowed
    # iteration lands on the root and is counted
    steps = []

    def step(v, F):
        steps.append(v)
        return -F if len(steps) == 3 else -0.5 * F

    v, iters, nrm = solver.damped_newton(
        np.ones(1),
        residual_fn=lambda v: v,
        guard_fn=lambda v: True,
        jacobian_solver=step,
        params=solver.NewtonParams(max_iters=3, residual_tol=1e-12),
    )
    assert iters == 3 and len(steps) == 3
    assert nrm == 0.0 and v[0] == 0.0


# ---------------------------------------------------------------------------
# continuation driver, on the radial and the grid scheme
# ---------------------------------------------------------------------------

def _radial_scheme():
    return solver, solver._RadialScheme(BALL3, 21, 1.5, 0.1)


def _grid_scheme():
    geo = gridsolver._GridGeometry(domains.make_ellipsoid((1.3, 1.0, 1.0)),
                                   solver.SphericalGridMesh(6, 4, 8))
    return gridsolver, gridsolver._GridScheme(geo, 1.5, 0.1)


def _stub_legs(monkeypatch, module, fail, error=NewtonDivergenceError,
               starts=None):
    """Replace module.damped_newton by a stub that records the (sigma, eps)
    of every leg, and its v0 in starts if given, and fails the k-th leg
    (from 1) with error where fail(k) holds."""
    visited = []

    def fake_newton(v0, residual_fn, guard_fn, jacobian_solver, params):
        visited.append((residual_fn.__self__.scheme.sigma,
                        guard_fn.__self__.scheme.eps_bdry))
        if starts is not None:
            starts.append(v0)
        if fail(len(visited)):
            raise error("stub", state=v0)
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
    v = np.ones(scheme.cap.size)
    params = solver.NewtonParams()
    # sigma leg: eps stays put, sigma splits at sqrt(1.0 * 0.25)
    _, (_, its, _) = solver._leg(scheme.at(1.0, 0.1), params, v, 0.25, 0.1)
    assert visited == [(0.25, 0.1), (0.5, 0.1), (0.25, 0.1)]
    assert its == 2
    # eps leg: the same split in eps
    visited.clear()
    solver._leg(scheme.at(1.5, 1e-2), params, v, 1.5, 1e-4)
    assert visited == [(1.5, 1e-4), (1.5, math.sqrt(1e-2 * 1e-4)), (1.5, 1e-4)]
    # MAX_SPLIT_DEPTH splits at most, then the error propagates
    visited.clear()
    always_fail = True
    with pytest.raises(NewtonDivergenceError):
        solver._leg(scheme.at(1.0, 0.1), params, v, 0.25, 0.1)
    assert len(visited) == solver.MAX_SPLIT_DEPTH + 1


@pytest.mark.parametrize("make", [_radial_scheme, _grid_scheme],
                         ids=["radial", "grid"])
def test_path_starts_on_the_cap_family(monkeypatch, make):
    # the first leg starts on the target's cap; once it leaves the cone,
    # the walk's first leg starts on the cap at n/2
    module, scheme = make()
    scheme = scheme.at(0.2, 0.1)
    starts = []
    visited = _stub_legs(monkeypatch, module, lambda k: k == 1,
                         ConeViolationError, starts)
    # the stub's legs return their start, which solves nothing: build no
    # field from it, since _build_field holds the residual field to tol
    monkeypatch.setattr(solver, "_build_field", lambda scheme, v, *rest: v)
    config = solver.SolveConfig(n=3, sigma_target=0.2, eps_schedule=(0.1,))
    solver._solve_path(scheme, config)
    assert visited[:2] == [(0.2, 0.1), (1.5, 0.1)]
    # the start heights, whatever the scheme's unknowns, are the exact cap
    for start, sigma in zip(starts, (0.2, 1.5)):
        heights = scheme.at(sigma, 0.1).full_height(start)[:scheme.n_int]
        assert np.array_equal(heights, _cap_heights(scheme, sigma))


def _cap_heights(scheme, sigma):
    """The exact cap at (sigma, 0.1) on scheme's equation nodes: the
    domain's radius (radial) or smallest semi-axis R (grid) at R s."""
    if isinstance(scheme, solver._RadialScheme):
        return geometry.exact_cap(3, sigma, 1.0, 0.1).height(scheme.r[:-1])
    geo = scheme.geo
    R = float(np.min(geo.domain.semi_axes))
    return geometry.exact_cap(3, sigma, R, 0.1).height(
        R * geo.s_node[:geo.n_int])


def test_radial_walk_fires_when_first_leg_fails(monkeypatch):
    real = solver.damped_newton
    visited = []

    def fails_first_and_walk(v0, residual_fn, guard_fn, jacobian_solver,
                             params):
        visited.append(residual_fn.__self__.scheme.sigma)
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
    # the walk starts at n/2, so at sigma = n/2 it would rerun the first
    # leg; a cone failure is what starts the walk elsewhere
    visited = _stub_legs(monkeypatch, solver, lambda k: True,
                         ConeViolationError)
    with pytest.raises(ConeViolationError):
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
        visited.append(residual_fn.__self__.scheme.sigma)
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
             solver.SphericalGridMesh(10, 8, 16), 0.01, (1e-1, 1e-2)),
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
        scheme = residual_fn.__self__.scheme
        legs.append((scheme.sigma, scheme.eps_bdry, params.residual_tol))
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


@pytest.mark.parametrize("make", [_grid_scheme], ids=["grid"])
def test_a_leg_leaves_no_state_on_its_scheme(make):
    # the leg holds its evaluations; the grid scheme stores nothing of them
    _, scheme = make()
    before = dict(vars(scheme))
    scheme.newton(scheme.cap, solver.NewtonParams())
    assert vars(scheme).keys() == before.keys()
    assert all(vars(scheme)[k] is before[k] for k in before)


def test_a_radial_scheme_keeps_only_its_last_stencil(stencil_passes):
    # the radial scheme keeps the last evaluated iterate and its stencil,
    # and nothing else of a leg: field_parts of the converged v, which
    # the leg evaluated last, runs no stencil pass and has the bits of
    # a fresh one
    _, scheme = _radial_scheme()
    before = dict(vars(scheme))
    v, _, _ = scheme.newton(scheme.cap, solver.NewtonParams())
    assert vars(scheme).keys() == before.keys()
    assert [k for k in before if vars(scheme)[k] is not before[k]] == ["_last"]
    assert np.array_equal(scheme._last[0], v)
    passes = len(stencil_passes)
    parts = scheme.field_parts(v.copy())
    assert len(stencil_passes) == passes
    fresh = _radial_scheme()[1].field_parts(v)
    assert len(stencil_passes) == passes + 1
    for got, want in zip(parts[:5], fresh[:5]):
        assert np.array_equal(got, want)
    assert all(np.array_equal(parts[5][k], fresh[5][k]) for k in fresh[5])


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
    for bad in ({"max_iters": 0}, {"residual_tol": 0.0},
                {"residual_tol": -1.0}):
        with pytest.raises(ValueError):
            solver.NewtonParams(**bad)


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
