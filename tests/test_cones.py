"""Cone calculus against brute-force combinatorial oracles."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from hplateau import cones
from hplateau.errors import ConePreconditionError, DegenerateSpectrumError


def _sigma_brute(vals, k):
    # independent oracle: literal sum over k-subsets
    if k == 0:
        return 1.0
    return float(sum(math.prod(c) for c in itertools.combinations(vals, k)))


def _deleted(vals, *drop):
    return [v for i, v in enumerate(vals) if i not in drop]


# ---------------------------------------------------------------------------
# sigma_k table and jets vs. brute force
# ---------------------------------------------------------------------------

def test_elem_sym_table_matches_brute_force():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(40, 5))
    tab = cones.elem_sym_table(rows, 5)
    assert tab.shape == (40, 6)
    for i, row in enumerate(rows):
        for k in range(6):
            expect = _sigma_brute(row.tolist(), k)
            scale = 1.0 + abs(expect)
            assert abs(tab[i, k] - expect) <= 1e-12 * scale


def test_gradient_is_deleted_sigma():
    vals = [2.5, 1.0, 0.4, 0.1]
    jet = cones.symmetric_jet(vals, 3)
    for i in range(4):
        expect = _sigma_brute(_deleted(vals, i), 2)
        assert jet.gradient[i] == pytest.approx(expect, rel=1e-12)


def test_hessian_is_doubly_deleted_sigma():
    vals = [3.0, 1.5, 0.7, 0.2, 0.05]
    jet = cones.symmetric_jet(vals, 4)
    assert np.allclose(jet.hessian, jet.hessian.T)
    for i in range(5):
        assert jet.hessian[i, i] == 0.0
        for j in range(5):
            if i == j:
                continue
            expect = _sigma_brute(_deleted(vals, i, j), 2)
            assert jet.hessian[i, j] == pytest.approx(expect, rel=1e-12)


def test_jet_derivatives_match_finite_differences():
    vals = np.array([1.8, 0.9, 0.35])
    jet = cones.symmetric_jet(vals, 2)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fp = _sigma_brute((vals + e).tolist(), 2)
        fm = _sigma_brute((vals - e).tolist(), 2)
        assert jet.gradient[i] == pytest.approx((fp - fm) / (2 * h), rel=1e-8)
    # one mixed second difference
    e0 = np.array([h, 0.0, 0.0])
    e1 = np.array([0.0, h, 0.0])
    mixed = (_sigma_brute((vals + e0 + e1).tolist(), 2)
             - _sigma_brute((vals + e0 - e1).tolist(), 2)
             - _sigma_brute((vals - e0 + e1).tolist(), 2)
             + _sigma_brute((vals - e0 - e1).tolist(), 2)) / (4 * h * h)
    assert jet.hessian[0, 1] == pytest.approx(mixed, rel=1e-4)


def test_k_bounds_are_validated():
    with pytest.raises(ValueError):
        cones.symmetric_jet([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        cones.symmetric_jet([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        cones.elementary_symmetric([1.0, 2.0], 2.5)


def test_curvature_vector_sorting_contract():
    with pytest.raises(ValueError):
        cones.CurvatureVector((0.5, 1.0))
    kv = cones.CurvatureVector.from_values([0.5, 1.0, -0.2])
    assert kv.values == (1.0, 0.5, -0.2)
    with pytest.raises(ValueError):
        cones.CurvatureVector.from_values([1.0, float("nan")])
    with pytest.raises(ValueError):
        cones.CurvatureVector.from_values([1.0])


# ---------------------------------------------------------------------------
# membership and the two cone inequalities
# ---------------------------------------------------------------------------

def test_membership_flags_each_sigma_sign():
    mem = cones.cone_membership([2.0, 1.0, -0.5], 2)
    assert mem.inside
    assert mem.sigma_values == pytest.approx((2.5, 0.5))
    # sigma_3 = -1 < 0, so the same spectrum leaves Gamma_3
    assert not cones.cone_membership([2.0, 1.0, -0.5], 3).inside


def test_second_moment_slack_requires_cone():
    with pytest.raises(ConePreconditionError):
        cones.second_moment_slack([1.0, -2.0], 1)


def test_negative_part_slack_values():
    # no nonpositive entries: vacuous, +inf
    assert cones.negative_part_slack([2.0, 1.0, 0.5], 2) == math.inf
    # one nonpositive entry: ((n-k)/k) kappa_1 + kappa_min
    got = cones.negative_part_slack([2.0, 1.0, -0.5], 2)
    assert got == pytest.approx((1.0 / 2.0) * 2.0 - 0.5, rel=1e-12)


def test_cone_mask_batch_agrees_with_scalar():
    rows = cones.sample_cone(4, 2, 64, seed=3)
    loose = rows.copy()
    loose[::3, -1] -= 6.0  # push some rows out
    mask = cones.cone_mask_batch(np.sort(loose, axis=1)[:, ::-1], 2)
    for row, flag in zip(np.sort(loose, axis=1)[:, ::-1], mask):
        assert cones.cone_membership(row, 2).inside == bool(flag)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cone_mask_batch_is_the_stacked_table_verdict(n):
    # random rows, every row of a small integer lattice (exact zeros of
    # each sigma_k among them) and rows holding a NaN
    rng = np.random.default_rng(n)
    lattice = np.array(list(itertools.product(range(-2, 3), repeat=n)),
                       dtype=float)
    nan_rows = rng.normal(size=(40, n))
    nan_rows[np.arange(40), rng.integers(0, n, 40)] = np.nan
    rows = np.concatenate([rng.normal(size=(500, n)) + 0.5, lattice,
                           nan_rows])
    for k in range(1, n + 1):
        tab = cones.elem_sym_table(rows, k)
        assert (tab[:, k] == 0.0).any() and np.isnan(tab[:, k]).any()
        want = (tab[..., 1:k + 1] > 0.0).all(axis=-1)
        assert want.any() and not want.all()
        assert np.array_equal(cones.cone_mask_batch(rows, k), want)
        assert np.array_equal(
            cones.cone_mask_batch(rows[:500].reshape(2, 250, n), k),
            want[:500].reshape(2, 250))
        assert cones.cone_mask_batch(rows[0], k) == want[0]


# ---------------------------------------------------------------------------
# certification form
# ---------------------------------------------------------------------------

def test_form_matrix_at_umbilic_point():
    # kappa = (1,1,1), eps = 0.1, K = 0: gradient (2,2,2), Hessian ones-I,
    # so M = -H + diag(-2, 2.2, 2.2).  Its eigenvalues are 3.2 on the
    # antisymmetric direction and the 2x2 pencil [[-2, -sqrt2],[-sqrt2, 1.2]],
    # whose lower root is (-0.8 - sqrt(18.24))/2.
    q = cones.ren_wang_form([1.0, 1.0, 1.0], 0.1, 0.0)
    expect = np.array([[-2.0, -1.0, -1.0],
                       [-1.0, 2.2, -1.0],
                       [-1.0, -1.0, 2.2]])
    assert np.allclose(q.form_matrix, expect, atol=1e-14)
    assert q.min_eigenvalue == pytest.approx((-0.8 - math.sqrt(18.24)) / 2.0,
                                             rel=1e-12)
    assert not q.certified


def test_min_k_at_umbilic_point_closed_form():
    # In the symmetric 2x2 block the determinant is linear in K:
    # det = 4.8 K - 4.4, so the certified threshold is exactly 11/12.
    got = cones.ren_wang_min_k([1.0, 1.0, 1.0], 0.1)
    assert got == pytest.approx(11.0 / 12.0, rel=1e-12)
    # scaling kappa -> t kappa rescales the threshold by 1/t^2
    scaled = cones.ren_wang_min_k([0.5, 0.5, 0.5], 0.1)
    assert scaled == pytest.approx(4.0 * 11.0 / 12.0, rel=1e-12)


def test_min_k_brackets_certification():
    rows = cones.sample_cone(3, 2, 8, seed=11, level=1.0)
    ks = cones.ren_wang_min_k_batch(rows, 0.1)
    assert np.isfinite(ks).all()
    for row, kstar in zip(rows, ks):
        assert cones.ren_wang_form(row, 0.1, float(kstar) * 1.01).certified
        if kstar > 1e-3:
            assert not cones.ren_wang_form(row, 0.1,
                                           float(kstar) * 0.9).certified


@functools.lru_cache(maxsize=None)
def _stiff_rows(n, count=200):
    """The level-set samples of Gamma_{n-1} whose form A = M(0) has the
    largest spectral radius: rows near the cone boundary, where a loose
    PSD test goes wrong first."""
    rows = cones.sample_cone(n, n - 1, 20000, seed=55 + n, level=1.0)
    A = cones.ren_wang_matrices(rows, 0.1, 0.0)
    rho = np.abs(np.linalg.eigvalsh(A)).max(axis=1)
    return rows[np.argsort(rho)[-count:]]


def _bisect_min_k(rows, eps_rw):
    """Smallest K with lam_min(M(K)) >= 0 by doubling, then bisection down
    to adjacent floats: no tolerance anywhere but the sign of lam_min."""
    def psd(K, sel):
        M = cones.ren_wang_matrices(rows[sel], eps_rw, K)
        return np.linalg.eigvalsh(M)[:, 0] >= 0.0

    m = rows.shape[0]
    lo, hi = np.zeros(m), np.zeros(m)
    unbracketed = ~psd(hi, np.arange(m))
    hi[unbracketed] = 1.0
    while unbracketed.any():
        assert hi.max() < 1e15, "no certified K on some row"
        sel = np.where(unbracketed)[0]
        ok = psd(hi[sel], sel)
        unbracketed[sel[ok]] = False
        lo[sel[~ok]] = hi[sel[~ok]]
        hi[sel[~ok]] *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        sel = np.where((lo < mid) & (mid < hi))[0]
        if not sel.size:
            return hi
        ok = psd(mid[sel], sel)
        hi[sel[ok]] = mid[sel[ok]]
        lo[sel[~ok]] = mid[sel[~ok]]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_form_short_of_min_k_is_not_certified(n):
    # K* from the bisection, so that only the PSD test of the form is on trial
    rows = _stiff_rows(n, 20)
    for row, kstar in zip(rows, _bisect_min_k(rows, 0.1)):
        assert cones.ren_wang_form(row, 0.1, float(kstar)).certified
        assert not cones.ren_wang_form(row, 0.1, 0.999 * float(kstar)).certified


@given(st.integers(2, 5), st.integers(0, 200),
       st.lists(st.integers(0, 199), min_size=1, max_size=20))
def test_min_k_matches_bisection(n, seed_offset, stiff):
    rows = np.concatenate([cones.sample_cone(n, n - 1, 20, seed=3000 + seed_offset),
                           _stiff_rows(n)[stiff]])
    closed = cones.ren_wang_min_k_batch(rows, 0.1)
    assert np.isfinite(closed).all()
    bisected = _bisect_min_k(rows, 0.1)
    assert np.allclose(bisected, closed, rtol=1e-9, atol=0.0)


def test_min_k_infinite_off_the_cone():
    # inside Gamma_{n-1} the form A always has exactly one negative
    # eigenvalue; these rows (kappa_1 > 0, outside the cone) reach the
    # other two cases: one negative with b^T A^-1 b >= 0, and two negatives
    rows = np.array([[1.18480844, -0.65106643, -1.79513238],
                     [0.25169683, -0.3194147, -1.24860267]])
    A = cones.ren_wang_matrices(rows, 0.1, 0.0)
    assert ((np.linalg.eigvalsh(A) < 0.0).sum(axis=1) == [1, 2]).all()
    assert np.isinf(cones.ren_wang_min_k_batch(rows, 0.1)).all()
    for K in np.logspace(-3, 12, 16):
        M = cones.ren_wang_matrices(rows, 0.1, K)
        assert (np.linalg.eigvalsh(M)[:, 0] < 0.0).all()


def _sigma_by_columns(sub, k):
    """sigma_k of each row of ``sub``, expanding prod (x + kappa_i) in
    column order, as the package does."""
    out = np.zeros((sub.shape[0], k + 1))
    out[:, 0] = 1.0
    for i in range(sub.shape[1]):
        for j in range(min(i + 1, k), 0, -1):
            out[:, j] += sub[:, i] * out[:, j - 1]
    return out[:, k]


def _delete_form(rows, eps_rw):
    """(A, b) stacked per row, from np.delete on the rows: the form
    M(K) = A + K b b^T written out on its own, in the package's order of
    operations, so that it compares to the bit."""
    m, n = rows.shape
    g = np.stack([_sigma_by_columns(np.delete(rows, i, axis=1), n - 2)
                  for i in range(n)], axis=1)
    H = np.zeros((m, n, n))
    if n > 2:
        for p, q in itertools.combinations(range(n), 2):
            H[:, p, q] = H[:, q, p] = _sigma_by_columns(
                np.delete(rows, [p, q], axis=1), n - 3)
    A = -rows[:, 0, None, None] * H
    diag = (1.0 + eps_rw) * g
    diag[:, 0] = -g[:, 0]
    A[:, np.arange(n), np.arange(n)] += diag
    return A, np.sqrt(rows[:, :1]) * g


def _eig_solve_min_k(rows, eps_rw):
    """K* from the inertia by eigvalsh and c = b^T A^-1 b by a linear
    solve, one LAPACK call per row."""
    A, b = _delete_form(rows, eps_rw)
    negatives = (np.linalg.eigvalsh(A) < 0.0).sum(axis=1)
    out = np.where(negatives == 0, 0.0, np.inf)
    one = np.where(negatives == 1)[0]
    c = np.einsum("mi,mi->m", b[one],
                  np.linalg.solve(A[one], b[one, :, None])[:, :, 0])
    out[one[c < 0.0]] = -1.0 / c[c < 0.0]
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_matrices_bit_equal_to_delete_reference(n):
    rows = np.concatenate([cones.sample_cone(n, n - 1, 300, seed=40 + n),
                           _stiff_rows(n, 50)])
    A, b = _delete_form(rows, 0.1)
    Ks = (0.0, 2.5, np.linspace(0.0, 4.0, rows.shape[0]))
    for K in Ks:
        ref = A + np.broadcast_to(K, (rows.shape[0],))[:, None, None] \
            * b[:, :, None] * b[:, None, :]
        got = cones.ren_wang_matrices(rows, 0.1, K)
        assert got.shape == ref.shape and got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_min_k_matches_eigvalsh_and_solve(n):
    rows = np.concatenate([cones.sample_cone(n, n - 1, 2000, seed=60 + n),
                           cones.sample_cone(n, n - 1, 2000, seed=70 + n,
                                             level=1.0),
                           _stiff_rows(n)])
    got = cones.ren_wang_min_k_batch(rows, 0.1)
    ref = _eig_solve_min_k(rows, 0.1)
    assert (np.isinf(got) == np.isinf(ref)).all()
    fin = np.isfinite(ref)
    assert fin.all()
    assert (np.abs(got - ref) <= 1e-12 * np.maximum(1.0, ref)).all()


def test_min_k_calls_no_eigensolver_or_solve(monkeypatch):
    batches = [cones.sample_cone(n, n - 1, 100, seed=n, level=1.0)
               for n in (2, 3, 4, 5)]

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call inside the K search")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for rows in batches:
        assert np.isfinite(cones.ren_wang_min_k_batch(rows, 0.1)).all()


def test_min_k_degenerate_rows():
    # kappa = (1, 1, -1): g_1 = sigma_1(1, -1) = 0, so the first pivot is
    # exactly zero; it reads +inf, with no division by zero
    kappa = np.array([[1.0, 1.0, -1.0]])
    assert _delete_form(kappa, 0.1)[0][0, 0, 0] == 0.0
    assert np.isposinf(cones.ren_wang_min_k_batch(kappa, 0.1)).all()
    # kappa = (4, 1, 1, -1/2): g_1 = sigma_2(1, 1, -1/2) = 0 again, and the
    # eigenvalue reference agrees on +inf; carried past the zero pivot,
    # the elimination would read a finite K (about 7.14)
    kappa = np.array([[4.0, 1.0, 1.0, -0.5]])
    assert _delete_form(kappa, 0.1)[0][0, 0, 0] == 0.0
    assert np.isposinf(_eig_solve_min_k(kappa, 0.1)).all()
    assert np.isposinf(cones.ren_wang_min_k_batch(kappa, 0.1)).all()
    for n in (2, 3, 5):
        assert cones.ren_wang_min_k_batch(np.zeros((0, n)), 0.1).shape == (0,)
    # n = 2: A = diag(-1, 1 + eps) and b = sqrt(kappa_1) (1, 1), so
    # K* = (1 + eps) / (eps kappa_1)
    got = cones.ren_wang_min_k_batch(np.array([[1.0, 1.0], [2.0, 0.5]]), 0.1)
    assert got.tolist() == pytest.approx([11.0, 5.5], rel=1e-14)


def test_min_k_infinite_with_two_negatives_and_negative_c():
    # off the cone, A can have two negative eigenvalues while
    # b^T A^-1 b < 0: the determinant test alone would read a finite K
    rows = np.array([[1.134, 0.38, -1.165, -1.388]])
    A, b = _delete_form(rows, 0.1)
    assert (np.linalg.eigvalsh(A)[0] < 0.0).sum() == 2
    assert b[0] @ np.linalg.solve(A[0], b[0]) < 0.0
    assert np.isposinf(cones.ren_wang_min_k_batch(rows, 0.1)).all()
    for K in np.logspace(-3, 12, 16):
        M = cones.ren_wang_matrices(rows, 0.1, K)
        assert np.linalg.eigvalsh(M)[0, 0] < 0.0


def test_min_k_weakly_decreasing_in_eps():
    # a larger eps only adds positive diagonal, enlarging the certified set
    rows = cones.sample_cone(3, 2, 16, seed=21, level=1.0)
    tight = cones.ren_wang_min_k_batch(rows, 0.05)
    loose = cones.ren_wang_min_k_batch(rows, 0.5)
    assert (loose <= tight * (1.0 + 1e-5) + 1e-9).all()


def test_form_input_validation():
    with pytest.raises(ValueError):
        cones.ren_wang_form([1.0, 1.0, 1.0], -0.1, 1.0)
    with pytest.raises(ValueError):
        cones.ren_wang_form([1.0, 1.0, 1.0], 0.1, -1.0)
    with pytest.raises(ConePreconditionError):
        cones.ren_wang_min_k([1.0, -1.0, -1.0], 0.1)


@pytest.mark.parametrize("eps_rw", [0.0, -1.0])
def test_every_ren_wang_entry_point_rejects_nonpositive_eps(eps_rw):
    rows = cones.sample_cone(3, 2, 4, seed=0, level=1.0)
    with pytest.raises(ValueError, match="eps_rw"):
        cones.ren_wang_min_k_batch(rows, eps_rw)
    with pytest.raises(ValueError, match="eps_rw"):
        cones.ren_wang_matrices(rows, eps_rw, 1.0)
    with pytest.raises(ValueError, match="eps_rw"):
        cones.ren_wang_min_k(rows[0], eps_rw)
    with pytest.raises(ValueError, match="eps_rw"):
        cones.ren_wang_form(rows[0], eps_rw, 1.0)


# ---------------------------------------------------------------------------
# top-eigenvalue jet
# ---------------------------------------------------------------------------

def _eigmax(M):
    return float(np.linalg.eigvalsh(M)[-1])


def test_eigenvalue_jet_matches_finite_differences():
    rng = np.random.default_rng(5)
    A = np.diag([5.0, 1.0, 0.0, -1.0])
    B = rng.normal(size=(4, 4))
    B = 0.5 * (B + B.T)
    C = rng.normal(size=(4, 4))
    C = 0.5 * (C + C.T)
    val, d1, d2 = cones.eigenvalue_jet(A, B, C)
    assert val == pytest.approx(5.0)

    def path(t):
        return _eigmax(A + t * B + 0.5 * t * t * C)

    h = 1e-5
    assert d1 == pytest.approx((path(h) - path(-h)) / (2 * h), abs=1e-7)
    assert d2 == pytest.approx((path(h) - 2 * path(0.0) + path(-h)) / (h * h),
                               abs=1e-4)


def test_eigenvalue_jet_rejects_degenerate_top():
    with pytest.raises(DegenerateSpectrumError):
        cones.eigenvalue_jet(np.eye(3), np.eye(3), np.eye(3))


def test_eigenvalue_jet_rejects_asymmetric():
    A = np.diag([2.0, 1.0])
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        cones.eigenvalue_jet(A, bad, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        cones.eigenvalue_jet(np.zeros((2, 3)), np.zeros((2, 3)),
                             np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# cone sampling
# ---------------------------------------------------------------------------

def test_sample_cone_is_deterministic_and_inside():
    a = cones.sample_cone(4, 3, 200, seed=42)
    b = cones.sample_cone(4, 3, 200, seed=42)
    assert np.array_equal(a, b)
    assert a.shape == (200, 4)
    assert cones.cone_mask_batch(a, 3).all()
    assert (np.diff(a, axis=1) <= 0.0).all()
    c = cones.sample_cone(4, 3, 200, seed=43)
    assert not np.array_equal(a, c)


def test_sample_cone_level_normalisation():
    rows = cones.sample_cone(3, 2, 100, seed=9, level=2.5)
    sig = cones.elementary_symmetric_batch(rows, 2)
    assert np.allclose(sig, 2.5, rtol=1e-9)


def test_sample_cone_validation():
    with pytest.raises(ValueError):
        cones.sample_cone(1, 1, 10, seed=0)
    with pytest.raises(ValueError):
        cones.sample_cone(3, 2, 0, seed=0)
    with pytest.raises(ValueError):
        cones.sample_cone(3, 2, 10, seed=0, level=-1.0)


# ---------------------------------------------------------------------------
# algebraic identities as properties
# ---------------------------------------------------------------------------

def _spectra(draw_negative_tail=True):
    def build(vals, tail):
        vals = sorted(vals, reverse=True)
        if draw_negative_tail and tail is not None:
            vals[-1] = tail
        return sorted(vals, reverse=True)

    return st.integers(2, 5).flatmap(
        lambda n: st.builds(
            build,
            st.lists(st.floats(0.05, 4.0), min_size=n, max_size=n),
            st.one_of(st.none(), st.floats(-1.5, 0.0)),
        )
    )


@given(_spectra(), st.data())
def test_euler_identity(vals, data):
    n = len(vals)
    k = data.draw(st.integers(1, n), label="k")
    assume(cones.cone_membership(vals, k).inside)
    jet = cones.symmetric_jet(vals, k)
    lhs = float(np.dot(jet.gradient, vals))
    scale = 1.0 + abs(jet.value)
    assert abs(lhs - k * jet.value) <= 5e-12 * scale


@given(_spectra(), st.floats(0.1, 3.0), st.data())
def test_homogeneity(vals, t, data):
    n = len(vals)
    k = data.draw(st.integers(1, n), label="k")
    base = cones.elementary_symmetric(vals, k)
    scaled = cones.elementary_symmetric([t * v for v in vals], k)
    assert scaled == pytest.approx(t ** k * base, rel=1e-10, abs=1e-12)


@given(_spectra(), st.data())
def test_deletion_identity(vals, data):
    n = len(vals)
    k = data.draw(st.integers(1, n - 1), label="k")
    i = data.draw(st.integers(0, n - 1), label="i")
    full = cones.elementary_symmetric(vals, k)
    rest = _deleted(vals, i)
    expect = _sigma_brute(rest, k) + vals[i] * _sigma_brute(rest, k - 1)
    scale = 1.0 + abs(full)
    assert abs(full - expect) <= 1e-11 * scale


@given(st.integers(2, 5), st.integers(0, 200))
def test_sampled_rows_satisfy_both_slack_inequalities(n, seed_offset):
    k = n - 1
    rows = cones.sample_cone(n, k, 50, seed=1000 + seed_offset)
    quad = cones.second_moment_slack_batch(rows, k)
    neg = cones.negative_part_slack_batch(rows, k)
    scale = 1.0 + np.abs(rows).max(axis=1) ** (k + 1)
    assert (quad >= -1e-10 * scale).all()
    assert (neg >= -1e-10 * scale).all()
