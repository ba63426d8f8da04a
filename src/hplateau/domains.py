"""Star-shaped solve domains and their radial support maps.

A domain is described by its support map rho: S^{n-1} -> (0, inf),
x in Omega iff |x| < rho(x/|x|).  The grid solver pulls everything back
through x = s * rho(omega(angles)) * omega(angles), so each domain kind
exposes rho together with its first and second angle derivatives:

* ball: rho = R, all derivatives zero;
* ellipsoid: rho(omega) = (omega^T M omega)^{-1/2}, M = diag(1/a_i^2),
  derivatives by the chain rule through the quadratic form;
* star (n = 2 only): rho(theta) from a periodic cubic spline through
  equispaced samples.

Angle conventions: n = 2 uses theta in [0, 2pi); n = 3 uses latitude
theta in (0, pi) and longitude phi in [0, 2pi) with
omega = (sin t cos p, sin t sin p, cos t).  Both are the n = 2, 3 cases
of omega(t_0, rest) = (sin t_0 * omega(rest), cos t_0).  omega_jet and
rho_jet take a batch of directions, angles of shape (k, n - 1), and
return the whole jet at once with no branch on n.

Each domain declares the symmetry group the grid solver folds its
unknowns by (mirror_axes, rotates) and its start cap's radius
(inscribed_radius), so the solver reads no domain kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DomainSpec",
    "make_ball",
    "make_ellipsoid",
    "make_star2d",
    "domain_from_config",
    "omega_jet",
]


def _omega_phases(n: int) -> np.ndarray:
    """Factor table of omega: component j is the product over angles a
    of cos(t_a) (phase 0), sin(t_a) (phase 3) or 1 (phase -1)."""
    if n == 2:
        return np.array([[0], [3]])
    inner = _omega_phases(n - 1)
    return np.vstack([np.column_stack([np.full(n - 1, 3), inner]),
                      [[0] + [-1] * (n - 2)]])


def _omega_product(angles, orders) -> np.ndarray:
    """omega at angles (k, n - 1), differentiated orders[i, a] times in
    angle a for each row i of orders: (k, len(orders), n).  Every
    component is a product of cos and sin factors, one per angle, and
    d/dt walks each factor along the cycle cos -> -sin -> -cos -> sin ->
    cos; a row reads its own factors alone, so its bits do not depend on
    the other rows asked for."""
    t = np.asarray(angles, dtype=float)
    d = t.shape[1]
    phase = _omega_phases(d + 1)
    cycle = np.stack([np.cos(t), -np.sin(t), -np.cos(t), np.sin(t)])
    f = cycle[(phase + orders[:, None, :]) % 4, :, np.arange(d)]
    f = np.where(phase[:, :, None] >= 0, f, (orders == 0)[:, None, :, None])
    return f.prod(axis=2).transpose(2, 0, 1)


def omega_jet(angles):
    """Unit directions with their first and second angle derivatives.

    angles has shape (k, n - 1); returns w (k, n), dw (k, n - 1, n) with
    dw[:, a] = dw/dt_a, and ddw (k, n - 1, n - 1, n), exactly symmetric
    in its two angle axes: one _omega_product at derivative orders 0,
    e_a and e_a + e_b.
    """
    k, d = np.shape(angles)
    eye = np.eye(d, dtype=int)
    jet = _omega_product(angles, np.vstack(
        [np.zeros((1, d), dtype=int), eye,
         (eye[:, None] + eye[None]).reshape(-1, d)]))
    return jet[:, 0], jet[:, 1:d + 1], jet[:, d + 1:].reshape(k, d, d, -1)


@dataclass(frozen=True)
class DomainSpec:
    """One solve domain; construct through the make_* helpers."""

    kind: str
    n: int
    radius: float | None = None
    semi_axes: tuple[float, ...] | None = None
    star_samples: tuple[float, ...] | None = None

    @cached_property
    def _star_spline(self):
        # imported here: scipy.interpolate drags in scipy.special/optimize/fft
        from scipy.interpolate import CubicSpline

        vals = np.asarray(self.star_samples, dtype=float)
        theta = np.linspace(0.0, 2.0 * math.pi, vals.size + 1)
        return CubicSpline(theta, np.append(vals, vals[0]), bc_type="periodic")

    # -- support map -------------------------------------------------------

    def support(self, omega) -> float:
        """rho at a unit direction omega."""
        omega = np.asarray(omega, dtype=float)
        if self.kind == "ball":
            return self.radius
        if self.kind == "ellipsoid":
            M = 1.0 / np.asarray(self.semi_axes, dtype=float) ** 2
            return 1.0 / math.sqrt(float((M * omega) @ omega))
        theta = math.atan2(omega[1], omega[0]) % (2.0 * math.pi)
        return float(self._star_spline(theta))

    def rho_jet(self, angles):
        """rho with its first and second angle derivatives.

        angles has shape (k, n - 1), as for omega_jet; returns rho (k,),
        grad (k, n - 1) and hess (k, n - 1, n - 1), hess exactly symmetric.
        Ellipsoids differentiate rho = (w^T M w)^{-1/2} through omega_jet.
        """
        t = np.asarray(angles, dtype=float)
        k, d = t.shape
        if self.kind == "ball":
            return np.full(k, float(self.radius)), np.zeros((k, d)), \
                np.zeros((k, d, d))
        if self.kind == "star":
            s = self._star_spline
            return s(t[:, 0]), s(t[:, 0], 1)[:, None], s(t[:, 0], 2)[:, None, None]
        M = 1.0 / np.asarray(self.semi_axes, dtype=float) ** 2
        w, dw, ddw = omega_jet(t)
        rho = 1.0 / np.sqrt(((M * w) * w).sum(axis=1))
        mwd = np.einsum("kn,kan->ka", M * w, dw)
        grad = -rho[:, None] ** 3 * mwd
        hess = 3.0 * rho[:, None, None] ** 5 * mwd[:, :, None] * mwd[:, None, :] \
            - rho[:, None, None] ** 3 * (np.einsum("kan,kbn->kab", M * dw, dw)
                                         + np.einsum("kn,kabn->kab", M * w, ddw))
        return rho, grad, 0.5 * (hess + hess.swapaxes(1, 2))

    # -- declared symmetry and start radius ---------------------------------

    @property
    def mirror_axes(self) -> tuple[int, ...]:
        """The axes i whose mirror x_i -> -x_i leaves the domain invariant:
        every axis of a ball or an ellipsoid, none of a star."""
        return () if self.kind == "star" else tuple(range(self.n))

    @property
    def rotates(self) -> bool:
        """Whether the domain is invariant under every rotation about x_n: a
        ball, or an ellipsoid with semi_axes[0] == semi_axes[1] exactly
        (an x3-aligned spheroid for n = 3, a circle for n = 2)."""
        return self.kind == "ball" or (self.kind == "ellipsoid"
                                       and self.semi_axes[0] == self.semi_axes[1])

    @property
    def inscribed_radius(self) -> float:
        """R of the umbilic cap every grid path starts on: the radius, the
        smallest semi-axis or the smallest star sample (the exact cap on
        a ball).  The mean of those starts an elongated domain outside the
        cone at small sigma: on the default meshes it sent the sigma 0.05
        ellipse and ellipsoid paths on a sigma walk, and the (3, 1)
        ellipse's at sigma <= 1 out of the cone at n/2 as well."""
        return float(np.min(self.radius or self.semi_axes or self.star_samples))

    # -- boundary mean curvature --------------------------------------------

    @cached_property
    def boundary_mean_curvature_min(self) -> float:
        """Min over the boundary of the mean curvature (outward normal).

        Positive for every convex body in the convention used here; the
        solver refuses domains where this dips below zero.
        """
        if self.kind == "ball":
            return 1.0 / self.radius
        if self.kind == "star":
            theta = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
            s = self._star_spline
            rho, d1, d2 = s(theta), s(theta, 1), s(theta, 2)
            num = rho ** 2 + 2.0 * d1 ** 2 - rho * d2
            return float((num / (rho ** 2 + d1 ** 2) ** 1.5).min())
        # on x^T M x = 1 the shape operator is P M P / |Mx| on the tangent
        # space (P projects out the normal N = Mx / |Mx|), so its mean
        # eigenvalue is (tr M - N^T M N) / ((n - 1) |Mx|)
        # the directions alone: omega_jet's derivatives would go unread
        if self.n == 2:
            angles = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)[:, None]
        else:
            grid = np.meshgrid(np.linspace(0.05, math.pi - 0.05, 60),
                               np.linspace(0.0, 2.0 * math.pi, 120, endpoint=False),
                               indexing="ij")
            angles = np.stack(grid, axis=-1).reshape(-1, 2)
        w = _omega_product(angles, np.zeros((1, self.n - 1), dtype=int))[:, 0]
        if self.n == 3:
            w = np.vstack([w, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
        M = 1.0 / np.asarray(self.semi_axes, dtype=float) ** 2
        Mx = M * w / np.sqrt(((M * w) * w).sum(axis=1))[:, None]
        norm = np.linalg.norm(Mx, axis=1)
        N = Mx / norm[:, None]
        mean = (M.sum() - ((M * N) * N).sum(axis=1)) / ((self.n - 1) * norm)
        return float(mean.min())


def make_ball(n: int, radius: float) -> DomainSpec:
    if n < 2:
        raise ValueError("need n >= 2")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    return DomainSpec(kind="ball", n=int(n), radius=float(radius))


def make_ellipsoid(semi_axes) -> DomainSpec:
    axes = tuple(float(a) for a in semi_axes)
    if len(axes) not in (2, 3):
        raise ValueError("ellipsoid domains support n in {2, 3}")
    if any(a <= 0.0 for a in axes):
        raise ValueError("semi-axes must be positive")
    return DomainSpec(kind="ellipsoid", n=len(axes), semi_axes=axes)


def make_star2d(samples) -> DomainSpec:
    vals = tuple(float(v) for v in samples)
    if len(vals) < 8:
        raise ValueError("need at least 8 radial samples")
    if any(v <= 0.0 for v in vals):
        raise ValueError("radial samples must be positive")
    return DomainSpec(kind="star", n=2, star_samples=vals)


def exact_float(value) -> float:
    """A JSON number as a float; a boolean or a non-number, a numeric
    string such as "0.01" too, is refused, not converted."""
    if isinstance(value, bool) \
            or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def float_tuple(values) -> tuple:
    """A JSON list of numbers as a tuple of floats (each by exact_float)."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"expected a list of numbers, got {values!r}")
    return tuple(exact_float(v) for v in values)


def exact_int(value) -> int:
    """A JSON number with no fractional part as an int; a boolean, a
    non-number or a fractional number is refused, not truncated."""
    if isinstance(value, bool) \
            or not isinstance(value, (int, float, np.integer)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def config_value(convert, value, key: str):
    """convert(value), where int means exact_int and float exact_float; a
    JSON value of the wrong type or form raises a ValueError that names
    its config key."""
    convert = {int: exact_int, float: exact_float}.get(convert, convert)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key}: {exc}") from None


def domain_from_config(cfg: dict) -> DomainSpec:
    """Build a DomainSpec from the CLI JSON shape {kind, params}."""
    kind = cfg.get("kind")
    params = cfg.get("params", {})

    def param(key, convert, default=None):
        value = default if params.get(key) is None else params[key]
        if value is None:
            raise ValueError(f"{kind} domains need params.{key}")
        return config_value(convert, value, f"params.{key}")

    if kind == "ball":
        return make_ball(param("n", int, 3), param("radius", float, 1.0))
    if kind == "ellipsoid":
        return make_ellipsoid(param("semi_axes", float_tuple))
    if kind in ("star", "star_shaped", "star2d"):
        if param("n", int, 2) != 2:
            raise ValueError("star-shaped domains are supported for n = 2 only")
        return make_star2d(param("samples", float_tuple))
    raise ValueError(f"unknown domain kind {kind!r}")
