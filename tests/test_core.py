"""Core types, factor assembly and feasibility checks."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impliedcorr.core import (
    CorrMatrix,
    FactorLoadings,
    IndexConstraint,
    MarketSpec,
    _as_corr,
    _factor_min_eigenvalue,
    assemble_correlation,
    check_feasibility,
    constraint_normal,
    hollow_form,
    portfolio_variance,
)
from reference import hollow_rounding_bound


def spec2(var):
    # 2 assets, sigma 0.2 each, equal weights.
    return MarketSpec(
        np.array([0.2, 0.2]),
        (IndexConstraint("market", np.array([0.5, 0.5]), var),),
    )


def random_ball_rows(rng, n, k):
    Z = rng.standard_normal((n, k))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    r = rng.uniform(size=n) ** (1.0 / k)
    return Z * r[:, None]


def test_loadings_promote_1d_to_column():
    X = FactorLoadings(np.array([0.3, -0.4]))
    assert X.values.shape == (2, 1)
    assert X.n == 2 and X.k == 1


def test_loadings_reject_bad_inputs():
    with pytest.raises(ValueError):
        FactorLoadings(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        FactorLoadings(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        FactorLoadings(np.zeros((0, 1)))


def test_loadings_array_is_read_only():
    X = FactorLoadings(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        X.values[0, 0] = 1.0


def test_corr_matrix_symmetrizes_and_freezes():
    C = CorrMatrix(np.array([[1.0, 0.4], [0.2, 1.0]]))
    assert C.values[0, 1] == C.values[1, 0] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        C.values[0, 1] = 0.0
    with pytest.raises(ValueError):
        CorrMatrix(np.zeros((2, 3)))


def test_corr_matrix_symmetrizes_without_overflow():
    # (a + b) / 2 overflows for finite a, b near the largest float; the
    # stored mean must stay finite (and no overflow warning be raised).
    C = CorrMatrix([[1.0, 1e308], [1.5e308, 1.0]])
    assert C.values[0, 1] == C.values[1, 0] == 0.5e308 + 0.75e308
    assert np.all(np.isfinite(C.values))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_empty_matrix_is_rejected():
    for entry in (CorrMatrix, _as_corr, check_feasibility):
        with pytest.raises(ValueError, match="non-empty"):
            entry(np.zeros((0, 0)))


def test_corr_array_views_a_bit_symmetric_target():
    A = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.0], [-0.2, 0.0, 1.0]])
    for arr in (A, np.asfortranarray(A)):
        view = _as_corr(arr).values
        assert np.shares_memory(view, arr)
        assert view.flags.c_contiguous and not view.flags.writeable
        assert arr.flags.writeable
        np.testing.assert_array_equal(bits(view), bits(A))
    # Anything else is copied by CorrMatrix, as before: symmetrized when
    # its bits are not symmetric (-0.0 against 0.0 included), converted
    # from float32, and rejected when not square or not finite.
    signed_zero = A.copy()
    signed_zero[1, 2] = -0.0
    asym = A.copy()
    asym[0, 1] = 0.5
    for arr in (signed_zero, asym, A.astype(np.float32)):
        out = _as_corr(arr).values
        assert not np.shares_memory(out, arr)
        np.testing.assert_array_equal(bits(out), bits(CorrMatrix(arr).values))
    assert _as_corr(asym).values[0, 1] == _as_corr(asym).values[1, 0] == 0.4
    assert bits(_as_corr(signed_zero).values)[1, 2] == bits(_as_corr(signed_zero).values)[2, 1]
    with pytest.raises(ValueError, match="square"):
        _as_corr(np.zeros((2, 3)))
    nan = A.copy()
    nan[0, 1] = nan[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _as_corr(nan)


def test_corr_matrix_eigenvalues():
    C = CorrMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert C.min_eigenvalue() == pytest.approx(0.5)
    assert check_feasibility(C).psd
    bad = np.ones((3, 3))
    bad[np.diag_indices(3)] = 1.0
    bad[0, 1] = bad[1, 0] = 0.9
    bad[0, 2] = bad[2, 0] = 0.9
    bad[1, 2] = bad[2, 1] = -0.9
    assert not check_feasibility(CorrMatrix(bad)).psd


def test_index_constraint_rejects_bad_weight_sum():
    with pytest.raises(ValueError, match="sum to"):
        IndexConstraint("m", np.array([0.5, 0.48]), 0.03)
    with pytest.raises(ValueError, match="positive"):
        IndexConstraint("m", np.array([0.5, 0.5]), 0.0)
    with pytest.raises(ValueError, match="has empty weights"):
        IndexConstraint("m", np.array([]), 0.03)


def test_market_spec_validation():
    # numpy scalars print as plain floats
    with pytest.raises(ValueError, match=r"^sigma\[1\] = 0\.0 is not positive$"):
        MarketSpec(np.array([0.2, 0.0]), (IndexConstraint("m", np.array([0.5, 0.5]), 0.03),))
    with pytest.raises(ValueError, match=r"^sigma\[1\] = -0\.1 is not positive$"):
        MarketSpec(np.array([0.2, -0.1]), (IndexConstraint("m", np.array([0.5, 0.5]), 0.03),))
    with pytest.raises(ValueError, match="^variance of constraint 'm' must be positive, got -0.1$"):
        IndexConstraint("m", np.array([0.5, 0.5]), np.float64(-0.1))
    with pytest.raises(ValueError, match="weights"):
        MarketSpec(np.array([0.2, 0.2, 0.2]), (IndexConstraint("m", np.array([0.5, 0.5]), 0.03),))
    with pytest.raises(ValueError, match="sigma must be non-empty"):
        MarketSpec(np.array([]), (IndexConstraint("m", np.array([0.5, 0.5]), 0.03),))
    with pytest.raises(ValueError, match="exactly one index constraint, got 0"):
        MarketSpec(np.array([0.2, 0.2]), ())
    con = IndexConstraint("m", np.array([0.5, 0.5]), 0.03)
    with pytest.raises(ValueError, match="exactly one index constraint, got 2"):
        MarketSpec(np.array([0.2, 0.2]), (con, con))


def test_scaled_weights():
    spec = spec2(0.03)
    np.testing.assert_allclose(spec.scaled_weights(), [0.1, 0.1])
    assert spec.market.name == "market"


def test_assemble_zero_loadings_is_identity():
    C = assemble_correlation(np.zeros((4, 2)))
    np.testing.assert_array_equal(C.values, np.eye(4))


def test_assemble_ones_column_is_all_ones():
    C = assemble_correlation(np.ones((3, 1)))
    np.testing.assert_array_equal(C.values, np.ones((3, 3)))


def test_assemble_sign_flip():
    C = assemble_correlation(np.array([[1.0], [-1.0]]))
    np.testing.assert_array_equal(C.values, [[1.0, -1.0], [-1.0, 1.0]])


def test_assemble_matches_hollow_hadamard_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 9)
        k = rng.integers(1, 4)
        X = rng.uniform(-0.6, 0.6, size=(n, k))
        C = assemble_correlation(X).values
        J = 1.0 - np.eye(n)
        expected = J * (X @ X.T) + np.eye(n)
        np.testing.assert_allclose(C, expected, atol=1e-15)
        np.testing.assert_array_equal(np.diag(C), np.ones(n))


@st.composite
def laid_out_loadings(draw):
    """Loadings in C order, Fortran order or as a strided view."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 6))
    big = draw(arrays(np.float64, (2 * n, 2 * k), elements=st.floats(-1.5, 1.5), fill=st.nothing()))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    X = big[::2, ::2]
    return np.ascontiguousarray(X) if layout == "C" else np.asfortranarray(X) if layout == "F" else X


@settings(derandomize=True, deadline=None, max_examples=200)
@given(laid_out_loadings())
def test_assembled_matrix_is_bit_symmetric_unit_diagonal_and_frozen(X):
    C = assemble_correlation(X).values
    assert np.array_equal(bits(C), bits(C.T))
    assert np.all(np.diag(C) == 1.0)
    assert not C.flags.writeable


def test_assemble_rejects_overflowing_products():
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        assemble_correlation(np.array([[1e200], [1e200]]))


def test_assemble_scans_only_when_the_entry_bound_overflows():
    # |(X X')_ij| <= k max|x_id|^2 is finite here, so no n x n scan runs.
    X = random_ball_rows(np.random.default_rng(2), 50, 3)
    with mock.patch.object(np, "isfinite", wraps=np.isfinite) as isfinite:
        assemble_correlation(X)
    assert all(call.args[0].shape == X.shape for call in isfinite.call_args_list)
    # The bound overflows, so the product is scanned; only its diagonal
    # overflowed, and that holds ones.
    with np.errstate(over="ignore"):
        C = assemble_correlation(np.array([[1e200, 0.0], [0.0, 1e200]]))
    assert np.array_equal(C.values, np.eye(2))


def test_assemble_psd_for_loadings_in_ball():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, 4))
        X = random_ball_rows(rng, n, k)
        C = assemble_correlation(X)
        assert C.min_eigenvalue() >= -1e-12


def test_portfolio_variance_hand_values():
    spec = spec2(0.03)
    assert portfolio_variance(np.eye(2), spec) == pytest.approx(0.02)
    assert portfolio_variance(np.ones((2, 2)), spec) == pytest.approx(0.04)
    with pytest.raises(ValueError):
        portfolio_variance(np.eye(3), spec)


def test_portfolio_variance_quadratic_form_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        sigma = rng.uniform(0.1, 0.5, size=n)
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        w[np.argmax(w)] += 1.0 - w.sum()
        spec = MarketSpec(sigma, (IndexConstraint("m", w, 0.05),))
        C = assemble_correlation(random_ball_rows(rng, n, 2)).values
        direct = sum(
            w[i] * sigma[i] * C[i, j] * sigma[j] * w[j]
            for i in range(n)
            for j in range(n)
        )
        assert portfolio_variance(C, spec) == pytest.approx(direct, rel=1e-12)


def test_check_feasibility_flags_each_violation():
    spec = spec2(0.03)
    ok = check_feasibility(np.eye(2), spec2(0.02))
    assert ok.mathematically_feasible and ok.economically_matched and ok.feasible

    out_of_bounds = np.array([[1.0, 1.2], [1.2, 1.0]])
    rep = check_feasibility(out_of_bounds, spec)
    assert not rep.bounded

    asym = np.array([[1.0, 0.3], [0.1, 1.0]])
    assert not check_feasibility(asym).symmetric
    assert check_feasibility(CorrMatrix(asym)).symmetric  # symmetrized on wrap

    bad_diag = np.eye(2)
    bad_diag[0, 0] = 0.99
    assert not check_feasibility(bad_diag).unit_diagonal

    C = np.ones((3, 3))
    C[0, 2] = C[2, 0] = -0.9
    C[0, 1] = C[1, 0] = 0.9
    C[1, 2] = C[2, 1] = 0.9
    np.fill_diagonal(C, 1.0)
    rep = check_feasibility(C)
    assert not rep.psd and not rep.mathematically_feasible


@pytest.mark.parametrize(
    "raw",
    [
        # (a + b) / 2 overflows here; C / 2 + C' / 2 holds a finite 1.25e308.
        [[1.0, 1e308], [1.5e308, 1.0]],
        [[1.0, 0.3], [0.1, 1.0]],
        [[1.0, 0.9, -0.9], [0.7, 1.0, 0.9], [-0.9, 0.9, 1.0]],
        np.random.default_rng(5).uniform(-1.0, 1.0, (6, 6)),
    ],
    ids=["overflow", "2x2", "indefinite", "random"],
)
def test_report_reads_an_asymmetric_array_as_corr_matrix_does(raw):
    raw = np.array(raw)
    n = raw.shape[0]
    spec = MarketSpec(np.linspace(0.1, 0.3, n), (IndexConstraint("m", np.full(n, 1.0 / n), 0.03),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_feasibility(raw, spec)
    ref = check_feasibility(CorrMatrix(raw), spec)
    assert not rep.symmetric and ref.symmetric
    assert math.isfinite(rep.min_eigenvalue)
    assert rep.min_eigenvalue.hex() == ref.min_eigenvalue.hex()
    np.testing.assert_array_equal(bits(rep.constraint_residuals), bits(ref.constraint_residuals))


def test_check_feasibility_without_spec_is_vacuously_matched():
    rep = check_feasibility(np.eye(3))
    assert rep.economically_matched
    assert rep.constraint_residuals.size == 0


def test_check_feasibility_tolerance():
    # tol is relative to (sum_i |sigma_i w_i|)^2 = 0.04, also below one: the
    # residual 5e-7 is 1.25e-5 of it.
    spec = spec2(0.02 + 5e-7)
    assert check_feasibility(np.eye(2), spec, tol=2e-5).economically_matched
    assert not check_feasibility(np.eye(2), spec, tol=1e-5).economically_matched


def test_feasibility_report_to_dict_round_trips_flags():
    rep = check_feasibility(np.eye(2), spec2(0.02))
    d = rep.to_dict()
    assert d["feasible"] is True
    assert d["mathematically_feasible"] is True
    assert isinstance(d["constraint_residuals"], list)


@st.composite
def kernel_inputs(draw):
    """v with mixed signs and |v_i| <= 0.9, plus two n x k loadings."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 4))
    v = draw(arrays(float, n, elements=st.floats(-0.9, 0.9), fill=st.nothing()))
    L = draw(arrays(float, (n, k), elements=st.floats(-1.0, 1.0), fill=st.nothing()))
    R = draw(arrays(float, (n, k), elements=st.floats(-1.0, 1.0), fill=st.nothing()))
    return v, L, R


KERNEL_PROPERTIES = settings(derandomize=True, deadline=None, max_examples=200)
# The rounding model fl(x op y) = (x op y)(1 + d) + e carries an absolute
# underflow term |e| <= TINY / 2 per product: with subnormal entries the
# relative bound below underflows to zero, and each of the kernel and its
# dense oracle can be off by a few subnormal units.
TINY = np.finfo(float).smallest_subnormal


@KERNEL_PROPERTIES
@given(kernel_inputs())
def test_constraint_normal_matches_dense_product(inputs):
    v, X, _ = inputs
    K = np.outer(v, v) - np.diag(v * v)
    # entrywise bound |(K X)_id| <= |v_i| sum_j |v_j| |X_jd| sets the scale
    scale = np.abs(v)[:, None] * (np.abs(v) @ np.abs(X))
    assert np.all(np.abs(constraint_normal(v, X) - K @ X) <= 1e-12 * scale + 4 * v.size * TINY)


@KERNEL_PROPERTIES
@given(kernel_inputs())
def test_hollow_form_matches_dense_and_inner_product(inputs):
    v, L, R = inputs
    M = L @ R.T
    np.fill_diagonal(M, 0.0)
    dense = float(v @ M @ v)
    inner = float(np.sum(L * constraint_normal(v, R)))
    scale = float((np.abs(L).T @ np.abs(v)) @ (np.abs(R).T @ np.abs(v)))
    h = hollow_form(v, L, R)
    assert abs(h - dense) <= 1e-12 * scale
    assert abs(h - inner) <= 1e-12 * scale
    assert hollow_form(v, L, R, np.einsum("ij,ij->i", L, R), v * v) == h


@st.composite
def adversarial_loadings(draw):
    """Loadings with rows on the sphere, zero rows, rows up to 1.5 outside
    Omega and duplicated rows; dyadic entries make bisection midpoints land
    exactly on some h_i = 1 - ||X_i||^2."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 5))
    entries = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]))
    X = draw(arrays(np.float64, (n, k), elements=entries, fill=st.nothing()))
    # Each row is kept as drawn if inside the ball (-1), clipped to the
    # sphere otherwise, or rescaled to the drawn radius.
    radii = st.one_of(st.just(-1.0), st.just(1.0), st.just(0.0), st.floats(0.0, 1.5))
    rad = draw(arrays(np.float64, n, elements=radii, fill=st.nothing()))
    norm = np.linalg.norm(X, axis=1)
    safe = np.where(norm > 0.0, norm, 1.0)
    X = X * np.where(rad < 0.0, 1.0 / np.maximum(norm, 1.0), rad / safe)[:, None]
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        X[i] = X[j]
    return X


@settings(derandomize=True, deadline=None, max_examples=200)
@given(adversarial_loadings())
# h_1 = 0.5 is the first midpoint of the bracket [0, 1]: a count that puts
# 1 / (h_1 - lam) into M returns 0.5 here instead of 0.3292.
@example(np.array([[0.5, 0.5], [-1.0 / 5**0.5, -2.0 / 5**0.5]]))
def test_factor_min_eigenvalue_matches_dense_solver(X):
    n, k = X.shape
    lam = _factor_min_eigenvalue(X)
    ref = float(np.linalg.eigvalsh(assemble_correlation(X).values)[0])
    # Rounding model, with s = max_i |h_i| + ||X||_F^2 >= ||C||_2: a
    # backward-stable eigensolver is exact for a matrix within about
    # n eps s of C, forming X X' moves C by k eps ||X||_F^2, and the
    # bisection stops at eps s.  8 (n + k) eps s covers all three; here it
    # is at most 7.2e-12, below 1e-12 n for every n drawn.
    r = np.einsum("ij,ij->i", X, X)
    s = float(np.max(np.abs(1.0 - r)) + r.sum())
    assert abs(lam - ref) <= 8 * (n + k) * np.finfo(float).eps * s


def test_min_eigenvalue_has_one_implementation():
    rng = np.random.default_rng(31)
    X = random_ball_rows(rng, 100, 2)
    C = assemble_correlation(X)
    # At n = 100 the factor iteration is faster than eigvalsh, and every
    # caller gets its value.
    lam = _factor_min_eigenvalue(X)
    assert C.min_eigenvalue() == lam
    rep = check_feasibility(C)
    assert rep.min_eigenvalue == lam and rep.psd
    # The same matrix without its loadings (read from CSV, say) and small
    # assembled matrices, where the factor iteration is slower, use eigvalsh.
    dense = float(np.linalg.eigvalsh(C.values)[0])
    assert CorrMatrix(C.values).min_eigenvalue() == dense
    assert check_feasibility(C.values).min_eigenvalue == dense
    assert abs(lam - dense) <= 1e-13
    X10 = random_ball_rows(rng, 10, 3)
    C10 = assemble_correlation(X10)
    assert C10.min_eigenvalue() == float(np.linalg.eigvalsh(C10.values)[0])


@pytest.mark.parametrize(
    "n, k, factor",
    [(60, 1, False), (71, 1, False), (72, 1, True), (80, 5, True), (80, 6, False), (80, 21, False),
     (100, 1, True), (300, 100, True), (300, 101, False)],
)
def test_min_eigenvalue_path_follows_the_size_rule(n, k, factor):
    # The factor iteration runs where n >= max(2 k + 70, 3 k); elsewhere a
    # dense eigvalsh of the n x n matrix is faster (CHANGES.md has the
    # timing grid).
    C = assemble_correlation(random_ball_rows(np.random.default_rng(n + k), n, k))
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        C.min_eigenvalue()
    dense_calls = sum(np.shape(call.args[0]) == (n, n) for call in eigvalsh.call_args_list)
    assert dense_calls == (0 if factor else 1)


def factor_min_eigenvalue_evaluations(X):
    """_factor_min_eigenvalue(X) and the number of Schur complements it
    decomposed, one np.linalg.eigh or eigvalsh call each."""
    with (
        mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh,
        mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh,
    ):
        lam = _factor_min_eigenvalue(X)
    return lam, eigh.call_count + eigvalsh.call_count


@pytest.mark.parametrize("k", [1, 3, 5])
def test_factor_min_eigenvalue_takes_few_evaluations(k):
    # Bisection took 36 to 44 evaluations on loadings like these.
    X = random_ball_rows(np.random.default_rng(k), 500, k)
    lam, evaluations = factor_min_eigenvalue_evaluations(X)
    assert evaluations <= 8
    assert abs(lam - float(np.linalg.eigvalsh(assemble_correlation(X).values)[0])) <= 1e-13


@settings(derandomize=True, deadline=None, max_examples=200)
@given(adversarial_loadings())
# Three duplicated rows outside Omega: lam_min = h_(1) is repeated and sits
# at the bracket's lower end, where rounding puts Newton points just below
# it.  Sending those to the midpoint turns the iteration into bisection (42
# evaluations instead of 2).
@example(np.array([[-0.75, 0.0, 0.75]] * 3 + [[-0.125, -0.25, -0.5]]))
# The fourth Newton point is exactly h_3 = 0.375 = lam_min, so row 3 enters
# S with h_3 - lam = 0.
@example(np.array([[0.0, -0.75], [-1.0, 0.0], [-0.25, 0.75], [0.25, 0.5]]))
# Rows 1 and 2 are equal, so lam_min = h_1 = h_2 = 1 - 54850 / 2^16 is the
# bracket's lower end.  The first Newton point lands 5.3e-16 below it, more
# than tol / 2 = 3.0e-16 outside the bracket, and is replaced by the
# midpoint (3 evaluations).
@example(np.array([[-65.0, -225.0], [-65.0, -225.0], [-66.0, -223.0]]) / 256.0)
def test_factor_min_eigenvalue_stays_within_the_bisection_steps(X):
    n, k = X.shape
    lam, evaluations = factor_min_eigenvalue_evaluations(X)
    r = np.einsum("ij,ij->i", X, X)
    h = 1.0 - r
    s = float(np.max(np.abs(h)) + r.sum())
    lo, hi = float(h.min()), min(1.0, float(np.sort(h)[k])) if n > k else 1.0
    tol = np.finfo(float).eps * s
    steps = math.ceil(math.log2((hi - lo) / tol)) if hi - lo > tol else 0
    assert evaluations <= min(steps, 8)
    ref = float(np.linalg.eigvalsh(assemble_correlation(X).values)[0])
    assert abs(lam - ref) <= 8 * (n + k) * np.finfo(float).eps * s


@st.composite
def near_bound_loadings(draw):
    """Adversarial loadings, some rows rescaled to squared norms on either
    side of the entry bound 1 + 1e-12 of the feasibility report."""
    X = draw(adversarial_loadings())
    r2 = st.sampled_from([1.0 - 1e-12, 1.0, 1.0 + 5e-13, 1.0 + 1e-12, 1.0 + 1.0000001e-12, 1.0 + 2e-12])
    for i in draw(st.lists(st.integers(0, X.shape[0] - 1), max_size=3)):
        norm = float(np.linalg.norm(X[i]))
        if norm > 0.0:
            X[i] *= math.sqrt(draw(r2)) / norm
    return X


@settings(derandomize=True, deadline=None, max_examples=200)
@given(near_bound_loadings())
@example(np.array([[1.0 + 1e-12, 0.0], [1.0 + 1e-12, 0.0]]))
def test_assembled_report_agrees_with_the_dense_report(X):
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    spec = MarketSpec(np.linspace(0.1, 0.5, n), (IndexConstraint("m", w, 0.04),))
    C = assemble_correlation(X)
    fast = check_feasibility(C, spec).to_dict()
    dense = check_feasibility(np.array(C.values), spec).to_dict()
    lam_fast, lam_dense = fast.pop("min_eigenvalue"), dense.pop("min_eigenvalue")
    (g_fast,), (g_dense,) = fast.pop("constraint_residuals"), dense.pop("constraint_residuals")
    assert fast == dense
    assert abs(lam_fast - lam_dense) <= 1e-9 * max(1.0, abs(lam_dense))
    # The residual of C(X) is the solver's hollow form; it differs from the
    # dense v'Cv by the rounding of the two variances and of each
    # subtraction from the target.
    v = spec.scaled_weights()
    assert g_fast == 0.04 - (hollow_form(v, X, X) + float(v @ v))
    eps = np.finfo(float).eps
    assert abs(g_fast - g_dense) <= hollow_rounding_bound(X, v) + eps * max(abs(g_fast), abs(g_dense))


def test_wrong_size_spec_raises_the_same_error_with_and_without_loadings():
    C = assemble_correlation(random_ball_rows(np.random.default_rng(5), 3, 2))
    with pytest.raises(ValueError) as factor:
        check_feasibility(C, spec2(0.03))
    with pytest.raises(ValueError) as dense:
        check_feasibility(np.array(C.values), spec2(0.03))
    assert str(factor.value) == str(dense.value) == "matrix is 3 x 3 for 2 assets"
