"""Checkers written apart from hplateau, plus their self-test.

Nothing here calls into the package except the self-test, which compares
the closed forms below against the package's own to rounding.  The
workloads use these functions to judge the program's outputs:

* ``UmbilicCap``: the exact cap over a ball, derived from the sphere
  picture (centre at height -lam*a, radius a, u(R) = eps);
* ``rank_one_kstar``: the exact smallest K with M(K) = A + K b b^T
  positive semidefinite, from the inertia of A and one linear solve;
* ``mirror_maps``: index maps of the three mirror symmetries of a
  (1.3, 1, 1)-type ellipsoid on the offset spherical grid.

Run ``python3 hpbench/checks.py`` from the repository root for the
self-test (about a second).
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

#: ren_wang_min_k_batch stops bisecting at this relative bracket width.
RW_REL_TOL = 1.0e-6
#: Regularisation weight of the certification form used everywhere here.
EPS_RW = 0.1


# ---------------------------------------------------------------------------
# Umbilic cap
# ---------------------------------------------------------------------------

class UmbilicCap:
    """Upper part of the Euclidean sphere |(x, t) - (0, -lam a)| = a.

    Its hyperbolic principal curvatures all equal lam = (sigma/n)^(1/(n-1)),
    so sigma_{n-1} = n lam^(n-1) = sigma, and the radius a is fixed by
    u(R) = eps: sqrt(a^2 - R^2) = eps + lam a.
    """

    def __init__(self, n: int, sigma: float, R: float, eps: float):
        self.lam = lam = (sigma / n) ** (1.0 / (n - 1))
        # (1 - lam^2) a^2 - 2 eps lam a - (R^2 + eps^2) = 0, positive root
        qa, qb, qc = 1.0 - lam * lam, -2.0 * eps * lam, -(R * R + eps * eps)
        self.a = (-qb + math.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
        self.centre = -lam * self.a
        self.eps = eps
        self.R = R

    def height(self, r):
        r = np.asarray(r, dtype=float)
        return np.sqrt(self.a * self.a - r * r) + self.centre

    @property
    def nu_min(self) -> float:
        # vertical normal component (u - centre)/a is smallest where u = eps
        return self.lam + self.eps / self.a


# ---------------------------------------------------------------------------
# Exact Ren-Wang constant
# ---------------------------------------------------------------------------

def esym(rows: np.ndarray, k: int) -> np.ndarray:
    """sigma_k of each row as a plain sum over k-subsets (sigma_k<0 = 0)."""
    m, n = rows.shape
    if k < 0 or k > n:
        return np.zeros(m)
    out = np.zeros(m) if k else np.ones(m)
    for subset in itertools.combinations(range(n), k) if k else ():
        out += np.prod(rows[:, list(subset)], axis=1)
    return out


def rw_form(rows: np.ndarray, eps_rw: float = EPS_RW):
    """(A, b) with M(K) = A + K b b^T the Ren-Wang certification matrix.

    M(K) = kappa_1 (K g g^T - H) + diag(-g_1, (1+eps) g_2, ..., (1+eps) g_n)
    with g, H the gradient and Hessian of sigma_{n-1}; so A is everything
    but the K term and b = sqrt(kappa_1) g.
    """
    rows = np.asarray(rows, dtype=float)
    m, n = rows.shape
    g = np.stack([esym(np.delete(rows, i, axis=1), n - 2)
                  for i in range(n)], axis=1)
    A = np.zeros((m, n, n))
    for p, q in itertools.combinations(range(n), 2):
        h = esym(np.delete(rows, [p, q], axis=1), n - 3)
        A[:, p, q] = A[:, q, p] = -rows[:, 0] * h
    diag = (1.0 + eps_rw) * g
    diag[:, 0] = -g[:, 0]
    A[:, np.arange(n), np.arange(n)] += diag
    b = np.sqrt(rows[:, 0])[:, None] * g
    return A, b


def rank_one_kstar(rows: np.ndarray, eps_rw: float = EPS_RW) -> np.ndarray:
    """Smallest K >= 0 with A + K b b^T positive semidefinite, per row.

    A + K b b^T only gains on the b direction as K grows, and its
    eigenvalues interlace those of A.  So with two or more negative
    eigenvalues of A no K works (+inf); with none, K* = 0; with exactly
    one, det(A + K b b^T) = det(A) (1 + K b^T A^-1 b) must turn
    nonnegative, which needs c = b^T A^-1 b < 0 and then K* = -1/c.
    """
    return kstar_from_form(*rw_form(rows, eps_rw))


def kstar_from_form(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K* for stacked (A, b); see rank_one_kstar."""
    negatives = (np.linalg.eigvalsh(A) < 0.0).sum(axis=1)
    kstar = np.where(negatives >= 2, np.inf, 0.0)
    one = np.where(negatives == 1)[0]
    if one.size:
        c = np.einsum("mi,mi->m", b[one],
                      np.linalg.solve(A[one], b[one][..., None])[..., 0])
        kstar[one] = np.where(c < 0.0, -1.0 / np.where(c < 0.0, c, -1.0),
                              np.inf)
    return kstar


def rw_lam_min(rows: np.ndarray, K: np.ndarray, eps_rw: float = EPS_RW):
    """(smallest eigenvalue, spectral radius) of M(K) per row."""
    A, b = rw_form(rows, eps_rw)
    eigs = np.linalg.eigvalsh(A + K[:, None, None] * b[:, :, None] * b[:, None, :])
    return eigs[:, 0], np.abs(eigs).max(axis=1)


def rw_agrees(reported: np.ndarray, kstar: np.ndarray,
              k_cap: float = math.inf) -> np.ndarray:
    """Per-row verdict: the reported K is within RW_REL_TOL of K*.

    The tolerance is relative above 1 and absolute below, as the bisection
    stopping rule is; both sides must agree on which rows are infinite
    (a K* above the search cap k_cap counts as infinite).
    """
    inf_star = ~np.isfinite(kstar) | (kstar > k_cap)
    inf_rep = ~np.isfinite(reported)
    ok = inf_star == inf_rep
    both = ~inf_star & ~inf_rep
    diff = np.abs(reported[both] - kstar[both])
    ok[both] = diff <= RW_REL_TOL * np.maximum(1.0, kstar[both])
    return ok


def level_set_samples(n: int, count: int, seed: int,
                      level: float = 1.0) -> np.ndarray:
    """Rows of Gamma_{n-1} on {sigma_{n-1} = level}, sorted descending.

    Gaussian proposals shifted toward the diagonal are kept when every
    sigma_1 .. sigma_{n-1} is positive and then scaled onto the level set;
    the rejection boundary leaves many rows close to the cone boundary,
    where the certification form is stiff.
    """
    rng = np.random.default_rng(seed)
    shift = 0.6 * (n - 1) / math.sqrt(n)
    kept, have = [], 0
    while have < count:
        draw = np.sort(rng.standard_normal((2 * count, n)) + shift,
                       axis=1)[:, ::-1]
        inside = np.all([esym(draw, k) > 0.0 for k in range(1, n)], axis=0)
        kept.append(draw[inside])
        have += int(inside.sum())
    rows = np.concatenate(kept)[:count]
    return rows * (level / esym(rows, n - 1))[:, None] ** (1.0 / (n - 1))


# ---------------------------------------------------------------------------
# Grid mirror maps
# ---------------------------------------------------------------------------

def mirror_maps(J: int, M: int, L: int) -> dict:
    """Flat-index permutations of the offset spherical grid.

    Nodes are numbered (j - 1) M L + m L + l with theta_m = (m + 1/2) pi/M
    and phi_l = 2 pi l / L.  Then m -> M-1-m flips z, l -> -l flips y and
    l -> L/2 - l flips x (all mod L).
    """
    jj, mm, ll = np.meshgrid(np.arange(J), np.arange(M), np.arange(L),
                             indexing="ij")

    def flat(m, l):
        return (jj * M * L + m * L + l % L).ravel()

    return {"z": flat(M - 1 - mm, ll), "y": flat(mm, -ll),
            "x": flat(mm, L // 2 - ll)}


MIRROR_SIGNS = {"x": np.array([-1.0, 1.0, 1.0]),
                "y": np.array([1.0, -1.0, 1.0]),
                "z": np.array([1.0, 1.0, -1.0])}


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def _offset_grid_nodes(J: int, M: int, L: int, axes) -> np.ndarray:
    s = (np.arange(1, J + 1) - 0.5) / (J - 0.5)
    theta = (np.arange(M) + 0.5) * math.pi / M
    phi = np.arange(L) * 2.0 * math.pi / L
    S, T, P = np.meshgrid(s, theta, phi, indexing="ij")
    w = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)],
                 axis=-1).reshape(-1, 3)
    rho = 1.0 / np.sqrt((w * w / np.asarray(axes) ** 2).sum(axis=1))
    return S.reshape(-1, 1) * rho[:, None] * w


def self_test() -> list[str]:
    """Failures of the checkers against closed forms and the package."""
    failures = []

    # cap: boundary value, closed form vs the package, curvature by FD
    from hplateau import geometry
    for n, sigma, R, eps in [(2, 0.05, 1.0, 1e-4), (3, 1.5, 1.3, 1e-2),
                             (4, 3.99, 1.0, 1e-1), (5, 0.01, 0.7, 1e-3)]:
        cap = UmbilicCap(n, sigma, R, eps)
        ref = geometry.exact_cap(n, sigma, R, eps)
        r = np.linspace(0.0, R, 257)
        dev = float(np.abs(cap.height(r) - ref.height(r)).max())
        if dev > 1e-12 * max(1.0, cap.a):
            failures.append(f"cap n={n} sigma={sigma}: heights differ {dev:.1e}")
        if abs(cap.nu_min - ref.nu_min) > 1e-12:
            failures.append(f"cap n={n} sigma={sigma}: nu_min differs")
        if abs(float(cap.height(R)) - eps) > 1e-12:
            failures.append(f"cap n={n} sigma={sigma}: u(R) != eps")
        # radial curvature u u''/w^3 + 1/w at mid radius equals lam
        x, h = 0.5 * R, 1e-4 * R
        u0, up, um = (float(cap.height(v)) for v in (x, x + h, x - h))
        d1, d2 = (up - um) / (2 * h), (up - 2 * u0 + um) / h ** 2
        w = math.sqrt(1.0 + d1 * d1)
        if abs(u0 * d2 / w ** 3 + 1.0 / w - cap.lam) > 1e-5:
            failures.append(f"cap n={n} sigma={sigma}: curvature != lam")

    # esym against polynomial coefficients
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((50, 5))
    coeffs = np.array([np.poly(-r) for r in rows])  # prod (x + r_i)
    for k in range(6):
        if np.abs(esym(rows, k) - coeffs[:, k]).max() > 1e-12:
            failures.append(f"esym k={k} differs from polynomial coefficients")

    # K*: boundary of the PSD set, against a brute-force bisection
    for n in (2, 3, 4, 5):
        rows = level_set_samples(n, 400, seed=11 + n)
        kstar = rank_one_kstar(rows)
        fin = np.isfinite(kstar)
        lam, scale = rw_lam_min(rows[fin], kstar[fin])
        if np.abs(lam).max(initial=0.0) > 1e-12 * (1.0 + scale.max(initial=0.0)):
            failures.append(f"K* n={n}: lam_min(M(K*)) not ~0")
        pos = fin & (kstar > 0.0)
        lam_up, _ = rw_lam_min(rows[pos], kstar[pos] * (1 + 1e-6))
        lam_dn, _ = rw_lam_min(rows[pos], kstar[pos] * (1 - 1e-6))
        if (lam_up < 0.0).any() or (lam_dn >= 0.0).any():
            failures.append(f"K* n={n}: not the edge of the PSD set")
        lo, hi = np.zeros(40), np.full(40, 1e3)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lam_mid, _ = rw_lam_min(rows[:40], mid)
            lo, hi = np.where(lam_mid >= 0.0, lo, mid), np.where(lam_mid >= 0.0, mid, hi)
        if np.abs(hi - kstar[:40]).max() > 1e-9 * max(1.0, kstar[:40].max()):
            failures.append(f"K* n={n}: differs from brute-force bisection")
    # the three inertia cases on hand-made forms
    A = np.array([np.diag([-1.0, -1.0, 1.0]), np.diag([1.0, 2.0, 3.0]),
                  np.diag([-1.0, 1.0, 1.0]), np.diag([-1.0, 1.0, 1.0])])
    b = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                  [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    if kstar_from_form(A, b).tolist() != [math.inf, 0.0, 0.25, math.inf]:
        failures.append("K*: inertia cases wrong")
    ok = rw_agrees(np.array([1.0, 2.0 + 1e-7, np.inf, 0.9]),
                   np.array([1.0, 2.0, np.inf, 1.0]))
    if ok.tolist() != [True, True, True, False]:
        failures.append("rw_agrees verdicts wrong")

    # mirror maps: mapped nodes are the reflected nodes; maps are involutions
    for J, M, L in [(20, 12, 24), (12, 8, 16), (5, 4, 8)]:
        nodes = _offset_grid_nodes(J, M, L, (1.3, 1.0, 1.0))
        for axis, perm in mirror_maps(J, M, L).items():
            if np.abs(nodes[perm] - nodes * MIRROR_SIGNS[axis]).max() > 1e-12:
                failures.append(f"mirror {axis} on ({J},{M},{L}) misplaced")
            if not (perm[perm] == np.arange(perm.size)).all():
                failures.append(f"mirror {axis} on ({J},{M},{L}) not an involution")
    return failures


if __name__ == "__main__":
    import os
    import time

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    t0 = time.perf_counter()
    bad = self_test()
    for line in bad:
        print("FAIL", line)
    print(f"self-test {'failed' if bad else 'passed'} "
          f"in {time.perf_counter() - t0:.1f} s")
    sys.exit(1 if bad else 0)
