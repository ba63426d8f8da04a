"""Estimate audits against the umbilic cap oracle."""

import dataclasses
import math

import numpy as np
import pytest

from hplateau import audit, domains, gridsolver, solver
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


def test_nu_floor_without_oracle(ell_field):
    rep = audit.nu_lower_bound_check([ell_field])
    assert rep.oracle is None
    assert rep.ok
    assert rep.floor > 0.0


def test_nu_floor_input_validation(ball_path):
    with pytest.raises(AuditPreconditionError):
        audit.nu_lower_bound_check([])
    other = solver.solve_radial(
        solver.SolveConfig(n=3, sigma_target=1.0, eps_schedule=(1e-2,),
                           mesh=solver.RadialMesh(101)),
        domains.make_ball(3, 1.0))
    with pytest.raises(AuditPreconditionError):
        audit.nu_lower_bound_check([ball_path[-1], other])


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


def test_rw_sample_cap(ball_path):
    rep = audit.rw_on_solution(ball_path[-1],
                               audit.AuditConfig(rw_sample_cap=10))
    assert rep.sampled <= 10
    assert rep.ok


# ---------------------------------------------------------------------------
# derivative-identity audit
# ---------------------------------------------------------------------------

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
