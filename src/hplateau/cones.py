"""Elementary symmetric function calculus on Garding cones.

Everything downstream (solver guards, curvature audits, form
certification) reduces to evaluating sigma_k and its first two
derivatives on spectra and deciding cone membership.  Scalar entry
points take a CurvatureVector (or anything coercible to one); the
``*_batch`` variants operate on (m, n) arrays of descending-sorted rows
and back the large sampling studies.

sigma_k is evaluated by expanding the product of (x + kappa_i) one root
at a time, which is numerically benign for the small n used here.
Derivatives are taken through the deletion identities

    d sigma_k / d kappa_i          = sigma_{k-1}(kappa with i removed)
    d^2 sigma_k / d kappa_p kappa_q = sigma_{k-2}(kappa with p, q removed)

rather than by differentiating the recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConePreconditionError, DegenerateSpectrumError

__all__ = [
    "CurvatureVector",
    "ConeMembership",
    "SymmetricJet",
    "RWQuery",
    "RWForm",
    "elementary_symmetric",
    "elementary_symmetric_batch",
    "elem_sym_table",
    "elem_sym_columns",
    "symmetric_jet",
    "jet_gradient_batch",
    "jet_hessian_batch",
    "cone_membership",
    "cone_mask_batch",
    "second_moment_slack",
    "second_moment_slack_batch",
    "negative_part_slack",
    "negative_part_slack_batch",
    "ren_wang_form",
    "ren_wang_matrices",
    "ren_wang_min_k",
    "ren_wang_min_k_batch",
    "eigenvalue_jet",
    "sample_cone",
]

#: The certification threshold is -PSD_TOL_SCALE * (1 + spectral radius).
#: At the exact K* the computed lam_min stays within 2e-16 (1 + spectral
#: radius) of zero on 60 000 level-set samples (n = 3, 4, 5), so 1e-12
#: leaves rounding room.  At 1e-9 a form 0.1% short of K* still passed on
#: rows near the cone boundary, where its lam_min is only -7e-11 (1 + radius).
PSD_TOL_SCALE = 1.0e-12

#: Relative eigenvalue gap below which the top eigenvalue counts as degenerate.
EIG_GAP_TOL = 1.0e-8


@dataclass(frozen=True)
class CurvatureVector:
    """A point spectrum kappa in R^n, n >= 2, stored sorted descending."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 2:
            raise ValueError("a curvature vector needs at least two entries")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("curvature entries must be finite")
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("curvature entries must be sorted descending; "
                             "use CurvatureVector.from_values to sort")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_values(cls, values) -> "CurvatureVector":
        arr = np.sort(np.asarray(values, dtype=float), kind="stable")[::-1]
        return cls(tuple(arr))

    @property
    def n(self) -> int:
        return len(self.values)

    def array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


@dataclass(frozen=True)
class ConeMembership:
    """Outcome of testing kappa against Gamma_k = {sigma_1 > 0, ..., sigma_k > 0}."""

    k: int
    sigma_values: tuple[float, ...]
    inside: bool


@dataclass(frozen=True)
class SymmetricJet:
    """sigma_k with its gradient and Hessian at a fixed spectrum."""

    k: int
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


@dataclass(frozen=True)
class RWQuery:
    """One evaluation of the certification form for the Ren-Wang inequality."""

    kappa: CurvatureVector
    eps_rw: float
    K: float
    form_matrix: np.ndarray
    min_eigenvalue: float
    certified: bool


def _coerce(kappa) -> CurvatureVector:
    if isinstance(kappa, CurvatureVector):
        return kappa
    return CurvatureVector.from_values(kappa)


def _check_k(n: int, k: int, kmin: int = 0) -> None:
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < kmin or k > n:
        raise ValueError(f"k={k} out of range [{kmin}, {n}]")


def elem_sym_columns(columns, kmax: int, shape=None) -> list:
    """[sigma_0, ..., sigma_kmax] of spectra given column by column.

    columns is a sequence of n same-shape arrays, entry i holding kappa_i
    of every spectrum; one array may stand for several entries (a
    repeated curvature).  Each sigma comes back as its own array of that
    shape (given as shape when columns is empty), sigma_0 = 1.  This is
    the one copy of the product expansion of prod (x + kappa_i): every
    sigma in the package, table or deletion, goes through it in the same
    order, so they agree to the bit.
    """
    if shape is None:
        shape = np.shape(columns[0])
    # separate arrays: a view into one (kmax + 1, ...) block would keep
    # the lower sigmas alive with any one of them, megabytes per form on
    # 20 000 rows, and fresh memory costs page faults on every call
    out = [np.ones(shape)] + [np.zeros(shape) for _ in range(kmax)]
    for i, v in enumerate(columns):
        for j in range(min(i + 1, kmax), 1, -1):
            out[j] += v * out[j - 1]
        if kmax:
            out[1] += v   # v * sigma_0, exactly
    return out


def elem_sym_table(rows: np.ndarray, kmax: int) -> np.ndarray:
    """All sigma_0 .. sigma_kmax along the last axis.

    rows has shape (..., n); the result has shape (..., kmax + 1) with
    sigma_0 = 1 in the first slot.
    """
    vals = np.asarray(rows, dtype=float)
    return np.stack(elem_sym_columns(_entries(vals), kmax), axis=-1)


def _sigma_top(entries, k: int, shape) -> np.ndarray:
    return elem_sym_columns(entries, k, shape)[k]


def _deleted_gradient(entries, k: int, shape) -> list:
    """d sigma_k / d kappa_i = sigma_{k-1}(kappa with i removed), per i."""
    return [_sigma_top(entries[:i] + entries[i + 1:], k - 1, shape)
            for i in range(len(entries))]


def _deleted_hessian(entries, k: int, shape) -> dict:
    """d^2 sigma_k / d kappa_p d kappa_q = sigma_{k-2}(kappa with p, q
    removed), keyed by (p, q) with p < q; zero for k < 2."""
    n = len(entries)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    if k < 2:
        return {pq: np.zeros(shape) for pq in pairs}
    return {(p, q): _sigma_top(
                entries[:p] + entries[p + 1:q] + entries[q + 1:], k - 2, shape)
            for p, q in pairs}


def _entries(vals: np.ndarray) -> list:
    return list(np.moveaxis(vals, -1, 0))


def elementary_symmetric_batch(rows: np.ndarray, k: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    _check_k(rows.shape[-1], k)
    return elem_sym_table(rows, k)[..., k]


def elementary_symmetric(kappa, k: int) -> float:
    """sigma_k(kappa); sigma_0 = 1 by convention."""
    return float(elementary_symmetric_batch(_coerce(kappa).array(), k))


def jet_gradient_batch(rows: np.ndarray, k: int) -> np.ndarray:
    """d sigma_k / d kappa_i by deletion, shape (..., n)."""
    vals = np.asarray(rows, dtype=float)
    _check_k(vals.shape[-1], k, kmin=1)
    return np.stack(_deleted_gradient(_entries(vals), k, vals.shape[:-1]),
                    axis=-1)


def jet_hessian_batch(rows: np.ndarray, k: int) -> np.ndarray:
    """d^2 sigma_k / d kappa_p d kappa_q by double deletion, zero diagonal."""
    vals = np.asarray(rows, dtype=float)
    n = vals.shape[-1]
    _check_k(n, k, kmin=1)
    hess = np.zeros(vals.shape[:-1] + (n, n), dtype=float)
    for (p, q), val in _deleted_hessian(_entries(vals), k,
                                        vals.shape[:-1]).items():
        hess[..., p, q] = val
        hess[..., q, p] = val
    return hess


def symmetric_jet(kappa, k: int) -> SymmetricJet:
    arr = _coerce(kappa).array()
    gradient = jet_gradient_batch(arr, k)   # its check holds k >= 1
    return SymmetricJet(
        k=k,
        value=float(elementary_symmetric_batch(arr, k)),
        gradient=gradient,
        hessian=jet_hessian_batch(arr, k),
    )


def cone_mask_batch(rows: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of rows lying strictly inside Gamma_k: sigma_1 ..
    sigma_k of the rows' columns tested one at a time, no table built."""
    rows = np.asarray(rows, dtype=float)
    _check_k(rows.shape[-1], k, kmin=1)
    sig = elem_sym_columns([rows[..., i] for i in range(rows.shape[-1])], k)
    inside = sig[1] > 0.0
    for s in sig[2:]:
        inside &= s > 0.0
    return inside


def cone_membership(kappa, k: int) -> ConeMembership:
    kv = _coerce(kappa)
    _check_k(kv.n, k, kmin=1)
    tab = elem_sym_table(kv.array(), k)
    sig = tuple(float(s) for s in tab[1:k + 1])
    return ConeMembership(
        k=k,
        sigma_values=sig,
        inside=all(s > 0.0 for s in sig),
    )


def _require_cone(kv: CurvatureVector, k: int, who: str) -> None:
    mem = cone_membership(kv, k)
    if not mem.inside:
        raise ConePreconditionError(
            f"{who} requires kappa in Gamma_{k}; sigma values {mem.sigma_values}"
        )


def second_moment_slack_batch(rows: np.ndarray, k: int) -> np.ndarray:
    """sum_i (d sigma_k/d kappa_i) kappa_i^2 - (k/n) sigma_1 sigma_k.

    Nonnegative on Gamma_k; rows are assumed to lie inside the cone.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[-1]
    grad = jet_gradient_batch(rows, k)
    tab = elem_sym_table(rows, k)
    moment = (grad * rows * rows).sum(axis=-1)
    return moment - (k / n) * tab[..., 1] * tab[..., k]


def second_moment_slack(kappa, k: int) -> float:
    kv = _coerce(kappa)
    _require_cone(kv, k, "second_moment_slack")
    return float(second_moment_slack_batch(kv.array(), k))


def negative_part_slack_batch(rows: np.ndarray, k: int) -> np.ndarray:
    """min over nonpositive entries of ((n-k)/k) kappa_1 + kappa_i; +inf if none.

    On Gamma_k any negative entry is dominated by the top one through
    this affine bound, so the value is nonnegative inside the cone.
    Rows must be sorted descending.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[-1]
    _check_k(n, k, kmin=1)
    bound = ((n - k) / k) * rows[..., 0] + rows[..., -1]
    return np.where(rows[..., -1] <= 0.0, bound, np.inf)


def negative_part_slack(kappa, k: int) -> float:
    kv = _coerce(kappa)
    _require_cone(kv, k, "negative_part_slack")
    return float(negative_part_slack_batch(kv.array(), k))


# ---------------------------------------------------------------------------
# Ren-Wang certification form
# ---------------------------------------------------------------------------

class RWForm:
    """The certification forms M(K) = A + K b b^T of m rows, entry by entry.

    A has shape (n, n, m) and b shape (n, m), so A[i, j] and b[i] are
    contiguous vectors over the rows and the K search works on whole
    entries of the batch at once.  A plain class: a dataclass would
    generate its methods with exec at every import of the package.
    """

    __slots__ = ("A", "b")

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A = A
        self.b = b

    def matrices(self, K) -> np.ndarray:
        """M(K) per row, shape (m, n, n); K a scalar or per-row vector."""
        Kv = np.broadcast_to(np.asarray(K, dtype=float), self.b.shape[1:])
        Kb = Kv * self.b
        M = self.A + Kb[:, None, :] * self.b[None, :, :]
        return np.ascontiguousarray(M.transpose(2, 0, 1))


def _ren_wang_parts(rows: np.ndarray, eps_rw: float) -> RWForm:
    """The certification form of each row, M(K) = A + K b b^T.

    With g the sigma_{n-1} gradient, H its Hessian and F^ii = g_i,

        A = -kappa_1 H + diag(-F^11, (1+eps) F^22, ...),  b = sqrt(kappa_1) g,

    so xi^T M(K) xi reproduces the third-order-term quadratic form of the
    Ren-Wang inequality.  kappa_1 > 0 on Gamma_{n-1}, so b is real.  g
    and H come from the deletion formulas of jet_gradient_batch and
    jet_hessian_batch, applied to the columns of ``rows``.  Every
    Ren-Wang entry point comes through here, so eps_rw > 0 is checked
    here alone.
    """
    if not eps_rw > 0.0:
        raise ValueError("eps_rw must be positive")
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    m, n = rows.shape
    kappa = list(np.ascontiguousarray(rows.T))
    g = _deleted_gradient(kappa, n - 1, (m,))
    A = np.empty((n, n, m))
    neg_k1 = -kappa[0]
    for (p, q), h in _deleted_hessian(kappa, n - 1, (m,)).items():
        A[p, q] = A[q, p] = neg_k1 * h
    A[0, 0] = -g[0]
    for i in range(1, n):
        A[i, i] = (1.0 + eps_rw) * g[i]
    return RWForm(A=A, b=np.sqrt(kappa[0]) * np.stack(g))


def ren_wang_matrices(rows: np.ndarray, eps_rw: float, K) -> np.ndarray:
    """Certification matrices M(K) = A + K b b^T per row, shape (m, n, n).

    See _ren_wang_parts.  K may be a scalar or a vector of per-row values.
    """
    return _ren_wang_parts(rows, eps_rw).matrices(K)


def _certified_batch(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eigs = np.linalg.eigvalsh(M)
    lam_min = eigs[:, 0]
    scale = np.abs(eigs).max(axis=1)
    tol = PSD_TOL_SCALE * (1.0 + scale)
    return lam_min >= -tol, lam_min


def ren_wang_form(kappa, eps_rw: float, K: float) -> RWQuery:
    """Evaluate the certification matrix at a single (kappa, K)."""
    kv = _coerce(kappa)
    if K < 0.0:
        raise ValueError("K must be nonnegative")
    _require_cone(kv, kv.n - 1, "ren_wang_form")
    M = ren_wang_matrices(kv.array()[None, :], eps_rw, K)
    cert, lam_min = _certified_batch(M)
    return RWQuery(
        kappa=kv,
        eps_rw=float(eps_rw),
        K=float(K),
        form_matrix=M[0],
        min_eigenvalue=float(lam_min[0]),
        certified=bool(cert[0]),
    )


def ren_wang_min_k_batch(rows: np.ndarray, eps_rw: float,
                         return_form: bool = False):
    """Smallest K >= 0 with M(K) = A + K b b^T PSD per row, in closed form.

    The update K b b^T is rank one and PSD, so the ascending eigenvalues
    interlace, lam_i(A) <= lam_i(M(K)) <= lam_{i+1}(A): the update lifts
    at most one eigenvalue of A across zero.  By the inertia of A:

    * no negative eigenvalue: M(0) = A is PSD, K* = 0;
    * two or more: lam_1(M(K)) <= lam_2(A) < 0 for every K, K* = inf;
    * exactly one, A nonsingular: lam_2(M(K)) >= lam_2(A) > 0, so M(K)
      is PSD exactly when det M(K) >= 0.  By the matrix determinant
      lemma det M(K) = det(A) (1 + K c) with c = b^T A^-1 b, and
      det(A) < 0, so that is 1 + K c <= 0.  It needs c < 0 and then
      K* = -1/c; with c >= 0 no K works and K* = inf.

    Both the inertia and c come from one unpivoted elimination
    A = L D L^T, L unit lower triangular and D = diag(d_1, ..., d_n),
    run entry by entry over the whole batch:

    * A and D are congruent, so by Sylvester's law of inertia A has as
      many negative eigenvalues as there are negative pivots d_k;
    * with y = L^-1 b, c = (L^-1 b)^T D^-1 (L^-1 b) = sum_k y_k^2 / d_k.

    So K* = -1/c when exactly one pivot is negative, none is zero and
    c < 0; K* = 0 when no pivot is negative, and +inf otherwise.  There
    is no eigensolver, no linear solve, no search and no tolerance.

    On Gamma_{n-1} the first pivot is A_11 = -g_1 < 0, and the first
    step leaves S = A_22 + a a^T / g_1 (a the rest of the first column):
    A plus a PSD term, so it cancels nothing.  A has exactly one
    negative eigenvalue iff S is PSD, and the rest of the elimination
    is then a Cholesky factorization of S, backward stable without
    pivoting (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 10).

    A zero pivot reads K* = +inf, with no division by it.  On
    Gamma_{n-1} a later pivot is zero only when S is not positive
    definite: a negative eigenvalue of S gives A two, and K* = inf
    anyway, while a singular PSD S makes A singular.  So a zero pivot
    can read +inf where the eigenvalue count would not only off
    Gamma_{n-1} (there g_1 may vanish, as at kappa = (1, 1, -1)) or on
    a singular form.

    With ``return_form`` the RWForm of the rows comes back as well, so
    that M(K) can be built for a check without rebuilding A and b.
    """
    form = _ren_wang_parts(rows, eps_rw)
    n, m = form.b.shape
    # the lower triangle of the Schur complements, one vector per entry
    S = {(i, j): form.A[i, j] for i in range(n) for j in range(i + 1)}
    y = list(form.b)
    negatives = np.zeros(m, dtype=int)
    flat = np.zeros(m, dtype=bool)
    c = np.zeros(m)
    for k in range(n):
        d = S[k, k]
        negatives += d < 0.0
        zero = d == 0.0
        flat |= zero
        d = np.where(zero, 1.0, d)
        c += y[k] * y[k] / d
        for i in range(k + 1, n):
            ell = S[i, k] / d
            y[i] = y[i] - ell * y[k]
            for j in range(k + 1, i + 1):
                S[i, j] = S[i, j] - ell * S[j, k]
    out = np.where(negatives == 0, 0.0, np.inf)
    one = (negatives == 1) & (c < 0.0)
    out[one] = -1.0 / c[one]
    out[flat] = np.inf
    return (out, form) if return_form else out


def ren_wang_min_k(kappa, eps_rw: float) -> float:
    kv = _coerce(kappa)
    _require_cone(kv, kv.n - 1, "ren_wang_min_k")
    return float(ren_wang_min_k_batch(kv.array()[None, :], eps_rw)[0])


# ---------------------------------------------------------------------------
# Top-eigenvalue jet along a quadratic matrix path
# ---------------------------------------------------------------------------

def eigenvalue_jet(a, adot, addot) -> tuple[float, float, float]:
    """Value and first two t-derivatives of the top eigenvalue of
    A + t Adot + (t^2/2) Addot at t = 0.

    Requires the top eigenvalue of A to be simple.  In the eigenbasis of
    A (top eigenvector first) the derivatives are the classical Rayleigh
    series: B_11 and C_11 + 2 sum_p B_1p^2 / (lam_1 - lam_p).
    """
    A = np.asarray(a, dtype=float)
    B_in = np.asarray(adot, dtype=float)
    C_in = np.asarray(addot, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected square matrices")
    if B_in.shape != A.shape or C_in.shape != A.shape:
        raise ValueError("path matrices must share the base shape")
    scale = max(1.0, float(np.abs(A).max()))
    for M in (A, B_in, C_in):
        if np.abs(M - M.T).max() > 1.0e-10 * scale:
            raise ValueError("path matrices must be symmetric")

    w, Q = np.linalg.eigh(0.5 * (A + A.T))
    lam = w[::-1]
    Q = Q[:, ::-1]
    gap = lam[0] - lam[1]
    if gap <= EIG_GAP_TOL * (1.0 + abs(lam[0])):
        raise DegenerateSpectrumError(
            f"top eigenvalue gap {gap:.3e} below tolerance; jet undefined")
    B = Q.T @ (0.5 * (B_in + B_in.T)) @ Q
    C = Q.T @ (0.5 * (C_in + C_in.T)) @ Q
    second = C[0, 0] + 2.0 * float(np.sum(B[0, 1:] ** 2 / (lam[0] - lam[1:])))
    return float(lam[0]), float(B[0, 0]), second


# ---------------------------------------------------------------------------
# Seeded rejection sampling of Gamma_k
# ---------------------------------------------------------------------------

def _diagonal_shift(n: int, k: int) -> float:
    # keeps the acceptance rate workable at high k while leaving plenty of
    # near-boundary mass; k = 1 needs no help
    if k <= 1:
        return 0.0
    return 0.6 * k / math.sqrt(n)


def sample_cone(n: int, k: int, count: int, seed: int,
                level: float | None = None) -> np.ndarray:
    """Draw ``count`` spectra from Gamma_k, rows sorted descending.

    Gaussian proposals shifted toward the diagonal by _diagonal_shift are
    sorted and rejection-filtered on strict cone membership.  With
    ``level`` set, accepted rows are rescaled by t = (level/sigma_k)^(1/k)
    onto the level set sigma_k = level; positive homogeneity keeps them
    inside the cone.  A fixed seed fully determines the output.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    _check_k(n, k, kmin=1)
    if count < 1:
        raise ValueError("count must be positive")
    if level is not None and level <= 0.0:
        raise ValueError("level must be positive")
    mu = _diagonal_shift(n, k)
    rng = np.random.default_rng(seed)
    chunks = []
    have = 0
    batch = max(4096, 2 * count)
    while have < count:
        draw = rng.standard_normal((batch, n)) + mu
        rows = np.sort(draw, axis=1)[:, ::-1]
        ok = cone_mask_batch(rows, k)
        good = rows[ok]
        if good.size:
            chunks.append(good)
            have += good.shape[0]
    rows = np.concatenate(chunks, axis=0)[:count]
    if level is not None:
        sk = elementary_symmetric_batch(rows, k)
        rows = rows * (level / sk)[:, None] ** (1.0 / k)
    return rows
