"""Estimate audits against the umbilic cap oracle."""

import dataclasses
import math

import numpy as np
import pytest

from hplateau import audit, cones, domains, geometry, gridsolver, solver
from hplateau.errors import AuditPreconditionError


@pytest.fixture(scope="module")
def ball_path():
    cfg = solver.SolveConfig(n=3, sigma_target=1.5,
                             mesh=solver.RadialMesh(201))
    return solver.solve_radial_path(cfg, domains.make_ball(3, 1.0))


@pytest.fixture(scope="module")
def ell_field():
    cfg = solver.SolveConfig(n=3, sigma_target=1.0, eps_schedule=(1e-1,),
                             mesh=solver.SphericalGridMesh(10, 8, 16))
    return gridsolver.solve_graph(cfg, domains.make_ellipsoid((1.3, 1.0, 1.0)))


@pytest.fixture(scope="module")
def two_radii():
    # two converged balls that share kind, n and sigma, but not the radius
    cfg = solver.SolveConfig(n=3, sigma_target=1.5, eps_schedule=(1e-1,),
                             mesh=solver.RadialMesh(51))
    return [solver.solve_radial(cfg, domains.make_ball(3, radius))
            for radius in (1.0, 2.0)]


LAM = (1.5 / 3.0) ** 0.5  # cap curvature for the ball fixture


def test_audit_config_validation():
    with pytest.raises(ValueError):
        audit.AuditConfig(N=0.0)
    with pytest.raises(ValueError):
        audit.AuditConfig(eps_rw=-0.1)
    with pytest.raises(ValueError):
        audit.AuditConfig(rw_sample_cap=0)
    with pytest.raises(ValueError):
        audit.AuditConfig(fd_step=0.0)


# ---------------------------------------------------------------------------
# test function
# ---------------------------------------------------------------------------

def test_q_field_formula(ball_path):
    f = ball_path[-1]
    q = audit.test_function_field(f, audit.AuditConfig(N=7.0))
    expect = np.log(f.spectra[:, 0]) - 7.0 * np.log(f.nu_vertical)
    assert np.array_equal(q, expect)


def test_q_field_preconditions(ball_path):
    f = ball_path[-1]
    with pytest.raises(AuditPreconditionError):
        audit.test_function_field(dataclasses.replace(f, cone_ok=False),
                                  audit.AuditConfig())
    sick = dataclasses.replace(f, spectra=-f.spectra)
    with pytest.raises(AuditPreconditionError):
        audit.test_function_field(sick, audit.AuditConfig())
    undone = dataclasses.replace(
        f, convergence=dataclasses.replace(f.convergence, residual=1e-3))
    with pytest.raises(AuditPreconditionError):
        audit.test_function_field(undone, audit.AuditConfig())


def test_q_argmax_sits_on_the_boundary_ring(ball_path):
    # on the ball, kappa is constant while nu dips at the rim, so the
    # -N ln(nu) term drags the maximum to the boundary for any N > 0
    for expo in audit.Q_SWEEP_EXPONENTS:
        rep = audit.estimate_report(ball_path[-1],
                                    audit.AuditConfig(N=expo))
        assert rep.q_argmax_region == "boundary"
        assert rep.q_max == rep.q_boundary_max


# ---------------------------------------------------------------------------
# nu floor
# ---------------------------------------------------------------------------

def test_nu_floor_on_ball_schedule(ball_path):
    rep = audit.nu_lower_bound_check(ball_path)
    assert rep.ok
    assert rep.oracle == pytest.approx(LAM, rel=1e-12)
    assert rep.floor >= 0.5 * rep.oracle
    assert rep.floor == pytest.approx(LAM, abs=2e-3)
    # the rim normal tilts as eps drops, so the minima decrease
    assert all(a >= b - 1e-12 for a, b in zip(rep.minima, rep.minima[1:]))
    assert rep.eps_values == tuple(solver.DEFAULT_EPS_SCHEDULE)


def test_nu_floor_oracle_off_the_ball(ell_field):
    # nu equals the cap value lam on the ideal boundary of every domain
    rep = audit.nu_lower_bound_check([ell_field])
    assert rep.oracle == pytest.approx((1.0 / 3.0) ** 0.5, rel=1e-12)
    assert rep.ok
    assert rep.floor >= 0.5 * rep.oracle


def test_nu_floor_fails_below_half_the_oracle_off_the_ball(ell_field):
    low = dataclasses.replace(ell_field,
                              nu_vertical=0.4 * ell_field.nu_vertical)
    rep = audit.nu_lower_bound_check([low])
    assert not rep.ok
    assert rep.floor < 0.5 * rep.oracle


def test_nu_floor_input_validation(ball_path):
    with pytest.raises(AuditPreconditionError):
        audit.nu_lower_bound_check([])
    other = solver.solve_radial(
        solver.SolveConfig(n=3, sigma_target=1.0, eps_schedule=(1e-2,),
                           mesh=solver.RadialMesh(101)),
        domains.make_ball(3, 1.0))
    with pytest.raises(AuditPreconditionError):
        audit.nu_lower_bound_check([ball_path[-1], other])


@pytest.mark.parametrize("check", ["nu_lower_bound_check",
                                   "curvature_bound_check"])
def test_path_checks_reject_fields_of_two_domains(two_radii, check):
    # one path means one DomainSpec: the radius counts, not only kind and n
    with pytest.raises(AuditPreconditionError):
        getattr(audit, check)(two_radii)


# ---------------------------------------------------------------------------
# interior curvature bound
# ---------------------------------------------------------------------------

def test_curvature_bound_on_ball_schedule(ball_path):
    rep = audit.curvature_bound_check(ball_path)
    assert rep.ok
    assert rep.c1 == audit.BOUND_C1 and rep.c2 == audit.BOUND_C2
    assert len(rep.witnesses) == len(ball_path)
    for w, i, b in zip(rep.witnesses, rep.interior_maxima,
                       rep.boundary_maxima):
        assert w == pytest.approx(i - audit.BOUND_C2 * b, rel=1e-12)
        assert w <= audit.BOUND_C1
    assert rep.drift is not None
    assert rep.drift < audit.STABILITY_DRIFT_LIMIT


def test_curvature_bound_can_fail(ball_path, monkeypatch):
    monkeypatch.setattr(audit, "BOUND_C1", -10.0)
    monkeypatch.setattr(audit, "BOUND_C2", 0.0)
    rep = audit.curvature_bound_check(ball_path)
    assert not rep.ok
    assert all(w > -10.0 for w in rep.witnesses)


def test_kappa_maxima_read_the_end_columns(ball_path, ell_field):
    # sorted rows: max(kappa_1, -kappa_n) is max |kappa| to the bit, on a
    # radial path and on a grid field
    for f in [*ball_path, ell_field]:
        amax = np.abs(f.spectra).max(axis=1)
        near = audit._near_boundary(f)
        interior, boundary = amax[~near].max(), amax[near].max()
        assert audit._kappa_maxima(f) == (
            interior, boundary, interior - audit.BOUND_C2 * boundary)


def test_curvature_bound_single_field(ball_path):
    rep = audit.curvature_bound_check([ball_path[-1]])
    assert rep.drift is None
    assert rep.ok


# ---------------------------------------------------------------------------
# quadratic-form certification on solutions
# ---------------------------------------------------------------------------

def test_rw_constant_on_umbilic_solution(ball_path):
    # every interior spectrum is the cap's (lam, lam, lam) up to
    # truncation, so min K must sit at the closed-form (11/12)/lam^2
    rep = audit.rw_on_solution(ball_path[-1], audit.AuditConfig())
    oracle = (11.0 / 12.0) / LAM ** 2
    assert rep.ok and rep.certified_at_max
    assert rep.min_k_max == pytest.approx(oracle, rel=1e-3)
    assert rep.min_k_low == pytest.approx(oracle, rel=1e-3)
    assert rep.min_k_low <= rep.min_k_median <= rep.min_k_max
    assert rep.sampled == 200  # every non-boundary node fits under the cap


def test_rw_on_solution_builds_the_form_once(ball_path, monkeypatch):
    # K* and the eigvalsh check of M(K*) share one (A, b)
    builds = []
    real = cones._ren_wang_parts

    def counted(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cones, "_ren_wang_parts", counted)
    rep = audit.rw_on_solution(ball_path[-1], audit.AuditConfig())
    assert rep.certified_at_max
    assert len(builds) == 1


def test_rw_on_solution_reports_an_off_cone_row(ball_path):
    # kappa = (1, 1, -1) lies outside Gamma_2 (its K search finds no K);
    # cone_ok stays True, so only the report can say so
    f = ball_path[-1]
    spectra = f.spectra.copy()
    spectra[100] = (1.0, 1.0, -1.0)
    rep = audit.rw_on_solution(dataclasses.replace(f, spectra=spectra),
                               audit.AuditConfig())
    assert rep.min_k_max == math.inf
    assert not rep.certified_at_max
    assert not rep.ok


def test_rw_sample_cap(ball_path):
    rep = audit.rw_on_solution(ball_path[-1],
                               audit.AuditConfig(rw_sample_cap=10))
    assert rep.sampled <= 10
    assert rep.ok


def _ball_path_at(n, nodes=101):
    cfg = solver.SolveConfig(n=n, sigma_target=0.5 * n,
                             mesh=solver.RadialMesh(nodes))
    return solver.solve_radial_path(cfg, domains.make_ball(n, 1.0))


def _same_rw(joint, alone):
    # == compares sampled, min_k_low/median/max, certified_at_max and ok
    assert joint == alone
    assert np.array_equal(joint.indices, alone.indices)
    assert np.array_equal(joint.min_k, alone.min_k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rw_on_path_is_rw_on_solution_per_field(n):
    # one K search and one check over the stacked rows keep every bit
    fields = _ball_path_at(n)
    assert len(fields) == 4
    cfg = audit.AuditConfig()
    reports = audit.rw_on_path(fields, cfg)
    assert len(reports) == len(fields)
    for f, rep in zip(fields, reports):
        _same_rw(rep, audit.rw_on_solution(f, cfg))
        assert rep.ok


@pytest.mark.parametrize("n", [2, 4])
def test_rw_min_k_on_path_is_the_k_search_of_rw_on_path(n, monkeypatch):
    # the same samples, K and joint K, and no eigvalsh check
    fields = _ball_path_at(n)
    cfg = audit.AuditConfig()
    reports = audit.rw_on_path(fields, cfg)

    def no_check(M):
        raise AssertionError("the K search ran the eigvalsh check")

    monkeypatch.setattr(cones, "_certified_batch", no_check)
    found = audit.rw_min_k_on_path(fields, cfg)
    assert len(found) == len(reports)
    for (idx, k, k_max), rep in zip(found, reports):
        assert np.array_equal(idx, rep.indices)
        assert np.array_equal(k, rep.min_k)
        assert k_max == rep.min_k_max
    assert audit.estimate_report(fields[-1], cfg).rw_min_k_max \
        == reports[-1].min_k_max


def test_rw_on_path_on_a_grid_path_and_an_uncertified_field():
    cfg = solver.SolveConfig(n=2, sigma_target=1.0,
                             mesh=solver.PolarGridMesh(12, 24))
    fields = gridsolver.solve_graph_path(cfg,
                                         domains.make_ellipsoid((1.3, 1.0)))
    assert len(fields) == 4
    # a sampled row with kappa_1 = 0 (off Gamma_1, b = 0) gives its field
    # K* = inf and no check; the other fields are checked as before
    conf = audit.AuditConfig(rw_sample_cap=64)
    spectra = fields[1].spectra.copy()
    spectra[audit.rw_on_solution(fields[1], conf).indices[3]] = (0.0, -1.0)
    fields[1] = dataclasses.replace(fields[1], spectra=spectra)
    reports = audit.rw_on_path(fields, conf)
    for f, rep in zip(fields, reports):
        _same_rw(rep, audit.rw_on_solution(f, conf))
    assert [rep.ok for rep in reports] == [True, False, True, True]
    assert reports[1].min_k_max == math.inf


def test_rw_on_path_holds_the_path_rule(two_radii):
    for check in (audit.rw_on_path, audit.rw_min_k_on_path):
        with pytest.raises(AuditPreconditionError):
            check([], audit.AuditConfig())
        with pytest.raises(AuditPreconditionError):
            check(two_radii, audit.AuditConfig())


# ---------------------------------------------------------------------------
# derivative-identity audit
# ---------------------------------------------------------------------------

# (sup_residual, sup_residual_half_step) of the identity audit on
# _ball_path_at(n)[-1], as the pointwise audit (one scalar spline call
# per point, one scipy pencil eigh per radius) read them
POINTWISE_IDENTITY_SUPS = {
    (2, 1e-2): (8.585621359544215e-05, 2.146268969837467e-05),
    (3, 1e-2): (8.776649383368529e-07, 2.1941539180003744e-07),
    (4, 1e-2): (2.908500447706963e-07, 7.271239180206557e-08),
    (5, 1e-2): (1.2972819334045038e-07, 3.243201171510002e-08),
    (2, 1e-3): (8.58476176583689e-07, 2.1477518560159004e-07),
    (3, 1e-3): (8.776658316778096e-09, 2.19385640209957e-09),
    (4, 1e-3): (2.9084058494888154e-09, 7.319922099013887e-10),
    (5, 1e-3): (1.2973098012514228e-09, 1.1830625368247638e-09),
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_identity_audit_shares_one_sample_per_radius(n):
    # the audit's batch over all radii and both steps gives the sups of
    # one nu_identity_residuals call (a batch of one) per radius, and
    # those of the pointwise audit to rounding: in the truncation
    # regime at fd 1e-2 relatively, at the default fd 1e-3, where the
    # sup is the spline's rounding amplified by 1/h^2, absolutely
    f = _ball_path_at(n)[-1]
    surface = audit._radial_interpolant(f)
    for fd, tol in ((1e-2, dict(rel=1e-9)), (1e-3, dict(abs=1e-12))):
        rep = audit.nu_identity_audit(f, audit.AuditConfig(fd_step=fd))
        r = f.nodes[:-1:(f.nodes.size - 1) // audit.IDENTITY_SAMPLES]
        radii = r[r <= 1.0 - 2.0 * fd * max(1.0, f.u.max())]
        assert radii.size == rep.samples
        sups = []
        for h in (fd, fd / 2.0):
            worst = 0.0
            for rr in radii:
                x = np.zeros(n)
                x[0] = rr
                worst = max([worst] + [
                    abs(s.residual)
                    for s in geometry.nu_identity_residuals(surface, x, h)])
            sups.append(worst)
        assert sups == [rep.sup_residual, rep.sup_residual_half_step]
        assert sups == pytest.approx(POINTWISE_IDENTITY_SUPS[n, fd], **tol)


@pytest.mark.parametrize("n, partial", [(2, 0), (3, 33), (4, 31), (5, 29)])
def test_identity_audit_counts_partial_frames(n, partial):
    # a radial profile's angular curvatures repeat, so for n >= 3 every
    # sampled radius off the umbilic centre has a partial frame
    rep = audit.nu_identity_audit(_ball_path_at(n, nodes=401)[-1],
                                  audit.AuditConfig())
    assert (rep.samples, rep.partial_frames) == (40, partial)


def test_identity_audit_order_in_truncation_regime(ball_path):
    rep = audit.nu_identity_audit(ball_path[-1],
                                  audit.AuditConfig(fd_step=1e-2))
    assert rep.samples == 40 and rep.skipped == 0
    assert rep.refinement_order >= 1.8
    assert rep.sup_residual <= 1e-5


def test_identity_audit_magnitude_at_default_step(ball_path):
    rep = audit.nu_identity_audit(ball_path[-1], audit.AuditConfig())
    assert rep.fd_step == 1e-3
    assert rep.sup_residual <= 1e-6
    assert rep.sup_residual_half_step <= 1e-6


def test_identity_audit_skips_rim_collisions(ball_path):
    # at fd = 4e-2 the stencil margin swallows the outermost sample radii
    rep = audit.nu_identity_audit(ball_path[-1],
                                  audit.AuditConfig(fd_step=4e-2))
    assert rep.skipped >= 1
    assert rep.samples + rep.skipped == 40


def test_identity_audit_is_radial_only(ell_field):
    with pytest.raises(AuditPreconditionError):
        audit.nu_identity_audit(ell_field, audit.AuditConfig())


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

def test_bundle_on_ball_path(ball_path):
    bundle = audit.audit_bundle(ball_path, audit.AuditConfig())
    assert bundle["ok"]
    assert set(bundle) == {"estimate", "nu_lower_bound", "curvature_bound",
                           "ren_wang", "identity", "ok"}
    est = bundle["estimate"]
    assert est.bound_constant_witness == pytest.approx(
        est.max_kappa_interior - audit.BOUND_C2 * est.max_kappa_boundary)
    assert set(est.q_sweep) == set(audit.Q_SWEEP_EXPONENTS)
    assert est.nu_min == pytest.approx(LAM, abs=2e-3)


def test_bundle_needs_fields():
    with pytest.raises(AuditPreconditionError):
        audit.audit_bundle([], audit.AuditConfig())


def test_bundle_on_grid_field_has_no_identity_audit(ell_field):
    bundle = audit.audit_bundle([ell_field], audit.AuditConfig())
    assert "identity" not in bundle
    assert bundle["ok"]


def test_bundle_runs_the_k_search_once(ball_path, monkeypatch):
    calls = []
    real = audit.rw_on_solution

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(audit, "rw_on_solution", counted)
    bundle = audit.audit_bundle(ball_path, audit.AuditConfig())
    assert len(calls) == 1
    monkeypatch.undo()
    # reusing the bundle's report leaves the estimate unchanged
    assert bundle["estimate"] == audit.estimate_report(ball_path[-1],
                                                       audit.AuditConfig())
