"""Domain support maps and their angle jets."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from hplateau import domains


def _fd_jet_2d(dom, theta, h=1e-5):
    f = lambda t: dom.rho_jet(np.array([[t]]))[0][0]
    d1 = (f(theta + h) - f(theta - h)) / (2 * h)
    d2 = (f(theta + h) - 2 * f(theta) + f(theta - h)) / (h * h)
    return d1, d2


def test_omega_jet_is_a_unit_vector_path():
    at = np.array([[0.7, 1.9]])
    w, dw, ddw = (x[0] for x in domains.omega_jet(at))
    assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-14)
    h = 1e-6
    wp = domains.omega_jet(at + [h, 0.0])[0][0]
    wm = domains.omega_jet(at - [h, 0.0])[0][0]
    assert np.allclose((wp - wm) / (2 * h), dw[0], atol=1e-9)
    assert np.allclose((wp - 2 * w + wm) / (h * h), ddw[0][0], atol=1e-4)
    vp = domains.omega_jet(at + [0.0, h])[0][0]
    vm = domains.omega_jet(at - [0.0, h])[0][0]
    assert np.allclose((vp - vm) / (2 * h), dw[1], atol=1e-9)
    assert np.array_equal(ddw[0][1], ddw[1][0])


def test_omega_jet_circle_is_the_equator_of_the_sphere():
    # omega_n(t, rest) = (sin t omega_{n-1}(rest), cos t): at t = pi/2 the
    # sphere's longitude jet is the circle's jet
    phi = np.linspace(0.0, 2 * math.pi, 7)
    w2, dw2, ddw2 = domains.omega_jet(phi[:, None])
    assert np.array_equal(w2, np.column_stack([np.cos(phi), np.sin(phi)]))
    assert np.array_equal(dw2[:, 0], np.column_stack([-np.sin(phi),
                                                      np.cos(phi)]))
    assert np.array_equal(ddw2[:, 0, 0], -w2)
    w3, dw3, ddw3 = domains.omega_jet(
        np.column_stack([np.full(7, math.pi / 2), phi]))
    assert np.allclose(w3[:, :2], w2, rtol=0, atol=1e-16)
    assert np.allclose(dw3[:, 1, :2], dw2[:, 0], rtol=0, atol=1e-16)
    assert np.allclose(ddw3[:, 1, 1, :2], ddw2[:, 0, 0], rtol=0, atol=1e-16)


def test_ball_jet_is_constant():
    ball = domains.make_ball(3, 2.5)
    rho, g, H = ball.rho_jet(np.array([[0.4, 1.1], [2.0, 5.0]]))
    assert np.array_equal(rho, [2.5, 2.5])
    assert np.array_equal(g, np.zeros((2, 2)))
    assert np.array_equal(H, np.zeros((2, 2, 2)))
    assert ball.support(np.array([0.0, 0.0, 1.0])) == 2.5


def test_ellipsoid_jet_matches_finite_differences_3d():
    dom = domains.make_ellipsoid((1.3, 1.0, 0.8))
    at = np.array([(0.6, 0.3), (1.2, 2.8), (2.4, 5.0)])
    rho, g, H = dom.rho_jet(at)
    w = domains.omega_jet(at)[0]
    h = 1e-5
    ft = lambda dt, dp: dom.rho_jet(at + [dt, dp])[0]
    for i in range(len(at)):
        assert rho[i] == pytest.approx(dom.support(w[i]), rel=1e-13)
    assert np.allclose(g[:, 0], (ft(h, 0) - ft(-h, 0)) / (2 * h),
                       rtol=0, atol=1e-8)
    assert np.allclose(g[:, 1], (ft(0, h) - ft(0, -h)) / (2 * h),
                       rtol=0, atol=1e-8)
    assert np.allclose(H[:, 0, 0], (ft(h, 0) - 2 * rho + ft(-h, 0)) / (h * h),
                       rtol=0, atol=1e-4)
    assert np.allclose(H[:, 1, 1], (ft(0, h) - 2 * rho + ft(0, -h)) / (h * h),
                       rtol=0, atol=1e-4)
    mixed = (ft(h, h) - ft(h, -h) - ft(-h, h) + ft(-h, -h)) / (4 * h * h)
    assert np.allclose(H[:, 0, 1], mixed, rtol=0, atol=1e-4)
    assert np.array_equal(H[:, 1, 0], H[:, 0, 1])


def test_ellipse_jet_matches_finite_differences_2d():
    dom = domains.make_ellipsoid((1.4, 0.9))
    thetas = (0.0, 0.5, 2.2, 4.9)
    rho, d1, d2 = dom.rho_jet(np.array(thetas)[:, None])
    for i, theta in enumerate(thetas):
        fd1, fd2 = _fd_jet_2d(dom, theta)
        assert d1[i, 0] == pytest.approx(fd1, abs=1e-8)
        assert d2[i, 0, 0] == pytest.approx(fd2, abs=1e-4)


def test_star_jet_matches_finite_differences():
    samples = 1.0 + 0.15 * np.cos(3 * np.linspace(0, 2 * math.pi, 24,
                                                  endpoint=False))
    dom = domains.make_star2d(samples)
    thetas = (0.3, 1.7, 3.9)
    rho, d1, d2 = dom.rho_jet(np.array(thetas)[:, None])
    for i, theta in enumerate(thetas):
        fd1, fd2 = _fd_jet_2d(dom, theta)
        assert d1[i, 0] == pytest.approx(fd1, abs=1e-7)
        assert d2[i, 0, 0] == pytest.approx(fd2, abs=1e-3)


def test_constant_star_is_a_circle():
    dom = domains.make_star2d([1.7] * 16)
    rho, d1, d2 = dom.rho_jet(np.array([[2.0]]))
    assert rho[0] == pytest.approx(1.7, rel=1e-12)
    assert abs(d1[0, 0]) < 1e-10 and abs(d2[0, 0, 0]) < 1e-8
    assert dom.boundary_mean_curvature_min == pytest.approx(1.0 / 1.7, rel=1e-8)


def test_mean_curvature_floor_ball():
    assert domains.make_ball(3, 2.0).boundary_mean_curvature_min == 0.5
    assert domains.make_ball(2, 0.5).boundary_mean_curvature_min == 2.0


def test_mean_curvature_floor_prolate_ellipsoid():
    # equator of the (a, b, b) spheroid: principal curvatures b/a^2 and
    # 1/b, so the floor is their mean
    a, b = 1.3, 1.0
    dom = domains.make_ellipsoid((a, b, b))
    expect = 0.5 * (b / a ** 2 + 1.0 / b)
    assert dom.boundary_mean_curvature_min == pytest.approx(expect, rel=1e-4)


def test_mean_curvature_floor_ellipse():
    # the flattest point of the (a, b) ellipse is the end of its minor
    # axis, curvature b / a^2, and it is in the screen's direction sample
    dom = domains.make_ellipsoid((1.3, 1.0))
    assert dom.boundary_mean_curvature_min == pytest.approx(1.0 / 1.3 ** 2,
                                                           rel=1e-12)


def _projected_hessian_mean(axes, w):
    """Mean tangential eigenvalue of the level set x^T M x = 1 at the
    boundary point on direction w, by eigvalsh of P (2M) P / |2Mx|."""
    M = np.diag(1.0 / np.asarray(axes) ** 2)
    x = w / math.sqrt(w @ M @ w)
    grad = 2.0 * M @ x
    nrm = grad / np.linalg.norm(grad)
    P = np.eye(len(w)) - np.outer(nrm, nrm)
    eigs = np.linalg.eigvalsh(P @ (2.0 * M) @ P / np.linalg.norm(grad))
    return eigs[1:].mean()


def test_mean_curvature_floor_triaxial_ellipsoid():
    axes = (1.3, 1.0, 0.8)
    screen = domains.make_ellipsoid(axes).boundary_mean_curvature_min
    # the floor sits at the ends of the shortest axis, both in the sample
    assert screen == pytest.approx(
        _projected_hessian_mean(axes, np.array([0.0, 0.0, 1.0])), rel=1e-12)
    rng = np.random.default_rng(3)
    for w in np.vstack([np.eye(3), rng.standard_normal((8, 3))]):
        w /= np.linalg.norm(w)
        assert screen <= _projected_hessian_mean(axes, w) + 1e-12


@pytest.mark.parametrize("axes,value", [
    ((1.3, 1.0, 1.0), 0.7958579881656803),
    ((2.0, 1.0, 1.0), 0.6249999999999999),
    ((3.0, 1.0, 1.0), 0.5555555555555555),
    ((1.0, 1.0, 1.3), 0.7959693755788768),
    ((1.3, 1.0), 0.5917159763313609),
    ((3.0, 1.0), 0.11111111111111116),
    ((1.3, 1.0, 0.8), 0.6366863905325444)])
def test_mean_curvature_floor_reads_directions_only(axes, value, monkeypatch):
    # the screen forms the sampled directions and none of their angle
    # derivatives, with the bits it had when it took them from omega_jet;
    # it stays a cached_property of DomainSpec, as hpbench's tracer reads
    assert isinstance(domains.DomainSpec.__dict__["boundary_mean_curvature_min"],
                      functools.cached_property)
    monkeypatch.setattr(domains, "omega_jet", None)
    assert domains.make_ellipsoid(axes).boundary_mean_curvature_min == value


def test_wavy_star_can_lose_convexity():
    theta = np.linspace(0, 2 * math.pi, 32, endpoint=False)
    dom = domains.make_star2d(1.0 + 0.45 * np.cos(5 * theta))
    assert dom.boundary_mean_curvature_min < 0.0
    mild = domains.make_star2d(1.0 + 0.08 * np.cos(3 * theta))
    assert mild.boundary_mean_curvature_min > 0.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        domains.make_ball(1, 1.0)
    with pytest.raises(ValueError):
        domains.make_ball(3, 0.0)
    with pytest.raises(ValueError):
        domains.make_ellipsoid((1.0,))
    with pytest.raises(ValueError):
        domains.make_ellipsoid((1.0, -1.0))
    with pytest.raises(ValueError):
        domains.make_star2d([1.0] * 7)
    with pytest.raises(ValueError):
        domains.make_star2d([1.0] * 7 + [-0.2])


def test_config_round_trips_and_aliases():
    ball = domains.domain_from_config(
        {"kind": "ball", "params": {"n": 3, "radius": 2.0}})
    assert ball.kind == "ball" and ball.radius == 2.0
    ell = domains.domain_from_config(
        {"kind": "ellipsoid", "params": {"semi_axes": [1.3, 1.0, 1.0]}})
    assert ell.semi_axes == (1.3, 1.0, 1.0)
    for alias in ("star", "star_shaped", "star2d"):
        star = domains.domain_from_config(
            {"kind": alias, "params": {"samples": [1.0] * 12}})
        assert star.kind == "star"
    with pytest.raises(ValueError):
        domains.domain_from_config(
            {"kind": "star_shaped", "params": {"n": 3, "samples": [1.0] * 12}})
    with pytest.raises(ValueError):
        domains.domain_from_config({"kind": "torus", "params": {}})


# ---------------------------------------------------------------------------
# the symmetry each domain declares to the grid solver
# ---------------------------------------------------------------------------

BALL3 = domains.make_ball(3, 1.0)
ELL = domains.make_ellipsoid((1.3, 1.0, 1.0))
SPHEROID = domains.make_ellipsoid((1.0, 1.0, 1.3))
STAR = domains.make_star2d(
    1.0 + 0.08 * np.cos(3 * np.linspace(0, 2 * math.pi, 16, endpoint=False)))
CI_STAR = domains.make_star2d([1.0, 1.08, 1.0, 0.94] * 2)

CONTRACT = pytest.mark.parametrize("domain", [
    domains.make_ball(2, 0.7), BALL3, domains.make_ellipsoid((1.3, 1.0)),
    domains.make_ellipsoid((1.0, 1.0)), ELL, SPHEROID,
    domains.make_ellipsoid((1.3, 1.0, 0.8)), CI_STAR],
    ids=["ball2", "ball3", "ellipse", "circle", "ellipsoid", "spheroid",
         "triaxial", "star"])


def _random_directions(n, k=200, seed=0):
    """Angles (k, n - 1) in the omega_jet chart and their unit vectors."""
    rng = np.random.default_rng(seed)
    angles = np.column_stack([rng.uniform(0.0, math.pi, (k, n - 2)),
                              rng.uniform(0.0, 2 * math.pi, k)])
    return angles, domains.omega_jet(angles)[0]


def _mirrored_angles(angles, axis):
    """The chart angles of the directions mirrored in x_axis: phi -> pi -
    phi (x_1), phi -> -phi (x_2), theta -> pi - theta (x_3 for n = 3)."""
    out = angles.copy()
    if axis == 2:
        out[:, 0] = math.pi - out[:, 0]
    elif axis == 1:
        out[:, -1] = -out[:, -1]
    else:
        out[:, -1] = math.pi - out[:, -1]
    return out


def _support(domain, omegas):
    return np.array([domain.support(w) for w in omegas])


@CONTRACT
def test_rho_is_invariant_under_every_declared_mirror(domain):
    # support takes the mirrored unit vector itself, so rho keeps every
    # bit.  rho_jet takes chart angles: phi -> -phi is exact there, while
    # pi - phi and pi - theta round pi, so those images keep rho to a
    # few ulps.  Every undeclared mirror moves rho far beyond rounding:
    # the CI star has none
    angles, omegas = _random_directions(domain.n)
    rho, support = domain.rho_jet(angles)[0], _support(domain, omegas)
    for axis in range(domain.n):
        flipped = omegas.copy()
        flipped[:, axis] *= -1.0
        if axis not in domain.mirror_axes:
            assert np.abs(_support(domain, flipped) - support).max() > 1e-3
            continue
        assert np.array_equal(_support(domain, flipped), support)
        image = domain.rho_jet(_mirrored_angles(angles, axis))[0]
        ulps = 0 if axis == 1 else 4
        assert (np.abs(image - rho) <= ulps * np.spacing(rho)).all()


@CONTRACT
def test_rho_is_invariant_under_rotations_where_declared(domain):
    angles, omegas = _random_directions(domain.n, seed=1)
    alpha = np.random.default_rng(2).uniform(0.0, 2 * math.pi)
    c, s = math.cos(alpha), math.sin(alpha)
    turned = omegas.copy()
    turned[:, 0] = c * omegas[:, 0] - s * omegas[:, 1]
    turned[:, 1] = s * omegas[:, 0] + c * omegas[:, 1]
    shifted = angles.copy()
    shifted[:, -1] += alpha
    rho, support = domain.rho_jet(angles)[0], _support(domain, omegas)
    moved = [np.abs(domain.rho_jet(shifted)[0] - rho) / np.spacing(rho),
             np.abs(_support(domain, turned) - support) / np.spacing(support)]
    if domain.rotates:
        assert max(m.max() for m in moved) <= 8
    else:
        assert min(m.max() for m in moved) > 1e6


@CONTRACT
def test_rotations_bring_the_polar_mirror(domain):
    # _build_orbits' closed-form ring-pair orbit {m, M-1-m} needs the
    # x_n mirror beside the rotations about x_n
    assert not domain.rotates or domain.n - 1 in domain.mirror_axes


def test_only_balls_and_polar_spheroids_rotate():
    # exact equality of the two semi-axes in the x1-x2 plane
    assert BALL3.rotates
    assert domains.make_ball(2, 1.0).rotates
    assert SPHEROID.rotates
    assert domains.make_ellipsoid((1.0, 1.0)).rotates
    for domain in (ELL, domains.make_ellipsoid((1.0, 1.3, 1.0)),
                   domains.make_ellipsoid((1.0, 1.0 + 1e-15, 1.3)),
                   domains.make_ellipsoid((1.3, 1.0)), STAR):
        assert not domain.rotates


def test_declarations_are_derived_not_fields():
    # mirror_axes, rotates and inscribed_radius follow from the fields;
    # none of them can be set
    assert [f.name for f in dataclasses.fields(domains.DomainSpec)] == \
        ["kind", "n", "radius", "semi_axes", "star_samples"]
    assert BALL3.mirror_axes == (0, 1, 2) and CI_STAR.mirror_axes == ()
    assert domains.make_ball(2, 0.7).inscribed_radius == 0.7
    assert ELL.inscribed_radius == 1.0
    assert CI_STAR.inscribed_radius == 0.94
    with pytest.raises(dataclasses.FrozenInstanceError):
        BALL3.rotates = False
