"""Pointwise graph geometry: caps, jets, frames, identity residuals."""

import math

import numpy as np
import pytest

from hplateau import geometry
from hplateau.errors import InvalidHeightError


CAP = geometry.exact_cap(3, 1.5, 1.0, eps_bdry=0.01)


# ---------------------------------------------------------------------------
# Exact caps
# ---------------------------------------------------------------------------

def test_cap_satisfies_its_quadratic():
    r = np.linspace(0.0, CAP.R, 17)
    u = CAP.height(r)
    assert np.allclose((u - CAP.d) ** 2 + r ** 2, CAP.a ** 2, rtol=1e-14)


def test_cap_lambda_solves_the_level_equation():
    assert CAP.n * CAP.lam ** (CAP.n - 1) == pytest.approx(CAP.sigma, rel=1e-14)


def test_cap_meets_prescribed_boundary_height():
    # d is defined as eps - sqrt(a^2 - R^2), so u(R) re-adds the same
    # square root; only the final additions can round
    assert abs(float(CAP.height(CAP.R)) - CAP.eps_bdry) <= 4e-16 * (1 + abs(CAP.d))
    tall = geometry.exact_cap(4, 2.0, 2.5, eps_bdry=0.3)
    assert abs(float(tall.height(tall.R)) - 0.3) <= 4e-16 * (1 + abs(tall.d))


def test_cap_vertical_component():
    r = np.array([0.0, 0.35, 0.8, CAP.R])
    nu = CAP.nu(r)
    assert nu[0] == pytest.approx(1.0)
    assert float(nu[-1]) == pytest.approx(CAP.nu_min, rel=1e-13)
    # nu = (u - d)/a along the cap
    assert np.allclose(nu, (CAP.height(r) - CAP.d) / CAP.a, rtol=1e-12)


def test_cap_is_umbilic_through_the_jet():
    field = CAP.height_field()
    for x in (np.array([0.0, 0.0, 0.0]), np.array([0.3, -0.2, 0.5])):
        jet = geometry.jet_from_field(field, x)
        kappa = jet.hyperbolic_spectrum.array()
        assert np.allclose(kappa, CAP.lam, rtol=1e-9)
        r = float(np.linalg.norm(x))
        assert jet.nu_vertical == pytest.approx(float(CAP.nu(r)), rel=1e-12)
        assert geometry.principal_chart_frame(jet).status == "umbilic"


def test_cap_parameter_validation():
    with pytest.raises(ValueError):
        geometry.exact_cap(3, 0.0, 1.0)
    with pytest.raises(ValueError):
        geometry.exact_cap(3, 3.0, 1.0)
    with pytest.raises(ValueError):
        geometry.exact_cap(3, 1.0, -1.0)
    with pytest.raises(ValueError):
        geometry.exact_cap(3, 1.0, 1.0, eps_bdry=-0.1)
    with pytest.raises(ValueError):
        geometry.exact_cap(1, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Jets and frames
# ---------------------------------------------------------------------------

def _constant(height, dim):
    return geometry.RadialHeightField(lambda r: height, lambda r: 0.0,
                                      lambda r: 0.0, dim)


def test_constant_graph_has_unit_spectrum():
    field = _constant(2.0, 3)
    jet = geometry.jet_from_field(field, np.zeros(3))
    assert jet.nu_vertical == 1.0
    assert np.allclose(jet.hyperbolic_spectrum.array(), 1.0, atol=1e-14)


def test_jet_rejects_nonpositive_height():
    with pytest.raises(InvalidHeightError):
        geometry.graph_jet(np.zeros(2), 0.0, np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(InvalidHeightError):
        geometry.jet_from_field(_constant(-1.0, 2), np.zeros(2))


def test_jet_rejects_bad_hessian():
    with pytest.raises(ValueError):
        geometry.graph_jet(np.zeros(2), 1.0, np.zeros(2), np.zeros((3, 3)))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        geometry.graph_jet(np.zeros(2), 1.0, np.zeros(2), bad)


def test_pencil_frame_is_metric_orthonormal():
    field = CAP.height_field()
    x = np.array([0.4, 0.1, -0.3])
    jet = geometry.jet_from_field(field, x)
    g_e = np.eye(3) + np.outer(jet.grad_u, jet.grad_u)
    V = jet.principal_chart
    assert np.allclose(V.T @ g_e @ V, np.eye(3), atol=1e-12)


def _bumpy_radial(dim):
    # generic radial profile: kappa splits into one radial value and a
    # repeated angular one, i.e. a partially degenerate frame for dim = 3
    return geometry.RadialHeightField(
        lambda r: 1.0 + 0.3 * r ** 2 + 0.1 * r ** 4,
        lambda r: 0.6 * r + 0.4 * r ** 3,
        lambda r: 0.6 + 1.2 * r ** 2,
        dim,
    )


class _CubicGraph:
    """u = 2 - 0.30 x1^2 - 0.18 x2^2 - 0.07 x3^2 + 0.05 x1 x2 + 0.04 x1^3
    + 0.03 x2 x3^2: no symmetry, so grad u, grad h and the principal
    gaps are all nonzero at generic points."""

    def jets(self, y):
        y = np.asarray(y, dtype=float)
        x1, x2, x3 = np.moveaxis(y, -1, 0)
        u = (2.0 - 0.30 * x1 ** 2 - 0.18 * x2 ** 2 - 0.07 * x3 ** 2
             + 0.05 * x1 * x2 + 0.04 * x1 ** 3 + 0.03 * x2 * x3 ** 2)
        Du = np.stack([-0.60 * x1 + 0.05 * x2 + 0.12 * x1 ** 2,
                       -0.36 * x2 + 0.05 * x1 + 0.03 * x3 ** 2,
                       -0.14 * x3 + 0.06 * x2 * x3], axis=-1)
        D2u = np.zeros(y.shape + (3,))
        D2u[..., 0, 0] = -0.60 + 0.24 * x1
        D2u[..., 0, 1] = D2u[..., 1, 0] = 0.05
        D2u[..., 1, 1] = -0.36
        D2u[..., 1, 2] = D2u[..., 2, 1] = 0.06 * x3
        D2u[..., 2, 2] = -0.14 + 0.06 * x2
        return u, Du, D2u


CUBIC_POINT = np.array([0.3, -0.2, 0.25])


def _orders(residuals, field, x, coarse, fine):
    """{identity: log2 of the sup |residual| ratio from coarse to fine}."""
    def sups(h):
        out = {}
        for s in residuals(field, x, h):
            out[s.identity_name] = max(out.get(s.identity_name, 0.0),
                                       abs(s.residual))
        return out

    a, b = sups(coarse), sups(fine)
    return {name: math.log2(a[name] / b[name]) for name in a}


def test_radial_field_center_formulas():
    f = _bumpy_radial(3)
    _, Du, D2u = f.jets(np.zeros(3))
    assert np.array_equal(Du, np.zeros(3))
    assert np.allclose(D2u, 0.6 * np.eye(3))
    x = np.array([0.3, -0.4, 0.0])
    h = 1e-6
    ring = x + h * np.concatenate([np.eye(3), -np.eye(3)])
    u, _, _ = f.jets(ring)
    fd = (u[:3] - u[3:]) / (2 * h)
    assert f.jets(x)[1] == pytest.approx(fd, abs=1e-8)


def test_radial_jets_do_not_depend_on_the_stack():
    # one point must take the array path of the profiles, as a stack
    # does: CapSolution.height_d2's sqrt(...) ** 3 rounds 1 ulp apart
    # on numpy scalars
    field = CAP.height_field()
    y = np.random.default_rng(0).uniform(-0.55, 0.55, (200, 3))
    stack = field.jets(y)
    for k in range(len(y)):
        for one, rows in zip(field.jets(y[k]), stack):
            assert np.array_equal(one, rows[k])


def test_partial_degeneracy_detection():
    jet = geometry.jet_from_field(_bumpy_radial(3), np.array([0.5, 0.0, 0.0]))
    assert geometry.principal_chart_frame(jet).status == "partial"
    # in the plane the same profile has two distinct curvatures
    jet2 = geometry.jet_from_field(_bumpy_radial(2), np.array([0.5, 0.0]))
    assert geometry.principal_chart_frame(jet2).status == "distinct"


# ---------------------------------------------------------------------------
# Vertical-component identities
# ---------------------------------------------------------------------------

def test_nu_identities_vanish_on_cap():
    field = CAP.height_field()
    worst = 0.0
    for x in (np.array([0.3, 0.0, 0.0]), np.array([0.2, -0.4, 0.3])):
        for s in geometry.nu_identity_residuals(field, x, 1e-3):
            worst = max(worst, abs(s.residual))
    assert worst <= 1e-6


def test_nu_identity_refinement_order():
    field = CAP.height_field()
    x = np.array([0.45, 0.2, -0.1])

    def sup(h):
        return max(abs(s.residual)
                   for s in geometry.nu_identity_residuals(field, x, h)
                   if s.identity_name != "nu_first")

    coarse, fine = sup(2e-2), sup(1e-2)
    assert math.log2(coarse / fine) >= 1.8


def test_directional_identities_respect_frame_ambiguity():
    # partially degenerate frames skip the per-direction identities
    field = _bumpy_radial(3)
    x = np.array([0.5, 0.0, 0.0])
    auto = geometry.nu_identity_residuals(field, x, 1e-3)
    assert [s.identity_name for s in auto] == ["nu_first"]
    with pytest.raises(ValueError):
        geometry.nu_identity_residuals(field, x, 0.0)


def test_nu_identities_off_the_cap():
    # grad h != 0 here, so nu_second needs its sum_k (u_k/u) h_ii;k term
    field = _CubicGraph()
    jet = geometry.jet_from_field(field, CUBIC_POINT)
    assert geometry.principal_chart_frame(jet).status == "distinct"
    samples = geometry.nu_identity_residuals(field, CUBIC_POINT, 1e-2)
    assert [s.identity_name for s in samples].count("nu_second") == 3
    assert max(abs(s.residual) for s in samples) <= 1e-4
    orders = _orders(geometry.nu_identity_residuals, field, CUBIC_POINT,
                     2e-2, 1e-2)
    assert orders["nu_gradient"] >= 1.8
    assert orders["nu_second"] >= 1.8


def test_frame_free_identity_off_symmetry():
    # the sum identity holds in any frame, degenerate or not
    field = _bumpy_radial(3)
    for x in (np.array([0.5, 0.0, 0.0]), np.array([0.2, 0.3, -0.1])):
        samples = geometry.nu_identity_residuals(field, x, 1e-4)
        assert abs(samples[0].residual) <= 1e-7


# ---------------------------------------------------------------------------
# Gauss, Codazzi, commutator
# ---------------------------------------------------------------------------

def test_gauss_codazzi_commutator_on_cap():
    field = CAP.height_field()
    x = np.array([0.4, -0.15, 0.25])
    samples = geometry.gauss_commutator_residuals(field, x, 1e-2)
    by_name = {}
    for s in samples:
        by_name.setdefault(s.identity_name, []).append(s)
    target = -1.0 + CAP.lam ** 2
    for s in by_name["gauss"]:
        assert s.measured == pytest.approx(target, abs=1e-3)
        assert abs(s.residual) <= 1e-3
    assert len(by_name["gauss"]) == 3
    assert abs(by_name["codazzi"][0].residual) <= 1e-3
    assert abs(by_name["commutator"][0].residual) <= 1e-3


def test_gauss_codazzi_commutator_off_the_cap():
    # h != lambda I, so the curvature terms of commutator_rhs count
    orders = _orders(geometry.gauss_commutator_residuals, _CubicGraph(),
                     CUBIC_POINT, 1e-2, 5e-3)
    assert set(orders) == {"gauss", "codazzi", "commutator"}
    assert min(orders.values()) >= 1.8
    # pinned from a pointwise evaluation, one surface call per chart
    # point: the one stack must reproduce them
    samples = geometry.gauss_commutator_residuals(_CubicGraph(), CUBIC_POINT,
                                                  1e-2)
    assert [(s.identity_name, s.direction) for s in samples] == [
        ("gauss", (0, 1)), ("gauss", (0, 2)), ("gauss", (1, 2)),
        ("codazzi", None), ("commutator", None)]
    pinned = [-7.4544807080467734e-06, -1.3844720998079652e-05,
              -1.9017540759946883e-05, 1.1022934965354558e-05,
              2.0966552421730622e-05]
    assert [s.residual for s in samples] == pytest.approx(pinned, rel=1e-12)


def test_gauss_check_evaluates_the_surface_once():
    field = _bumpy_radial(3)
    calls = []
    jets = field.jets

    def counted(y):
        calls.append(np.shape(y))
        return jets(y)

    field.jets = counted
    geometry.gauss_commutator_residuals(field, np.array([0.3, 0.2, -0.1]),
                                        1e-2)
    assert calls == [(7, 7, 3)]


@pytest.mark.parametrize("x", [(0.5, 0.0, 0.0), (0.3, 0.2, -0.1)])
def test_gauss_codazzi_commutator_on_partial_frame(x):
    # any orthonormal basis of the repeated angular eigenspace is principal
    field, x = _bumpy_radial(3), np.array(x)
    jet = geometry.jet_from_field(field, x)
    assert geometry.principal_chart_frame(jet).status == "partial"
    orders = _orders(geometry.gauss_commutator_residuals, field, x,
                     2e-2, 1e-2)
    assert min(orders.values()) >= 1.8
