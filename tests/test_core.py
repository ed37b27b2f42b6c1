"""Core types, factor assembly and feasibility checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impliedcorr.core import (
    CorrMatrix,
    FactorLoadings,
    IndexConstraint,
    MarketSpec,
    assemble_correlation,
    check_feasibility,
    constraint_normal,
    hollow_form,
    portfolio_variance,
)


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


def test_loadings_omega_membership():
    assert FactorLoadings([[0.6, 0.8]]).in_omega()
    assert not FactorLoadings([[0.7, 0.8]]).in_omega()
    # eps widens the ball
    assert FactorLoadings([[1.0 + 1e-12]]).in_omega()


def test_corr_matrix_symmetrizes_and_freezes():
    C = CorrMatrix(np.array([[1.0, 0.4], [0.2, 1.0]]))
    assert C.values[0, 1] == C.values[1, 0] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        C.values[0, 1] = 0.0
    with pytest.raises(ValueError):
        CorrMatrix(np.zeros((2, 3)))


def test_corr_matrix_eigenvalues():
    C = CorrMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert C.min_eigenvalue() == pytest.approx(0.5)
    assert C.is_psd()
    bad = np.ones((3, 3))
    bad[np.diag_indices(3)] = 1.0
    bad[0, 1] = bad[1, 0] = 0.9
    bad[0, 2] = bad[2, 0] = 0.9
    bad[1, 2] = bad[2, 1] = -0.9
    assert not CorrMatrix(bad).is_psd()


def test_index_constraint_rejects_bad_weight_sum():
    with pytest.raises(ValueError, match="sum to"):
        IndexConstraint("m", np.array([0.5, 0.48]), 0.03)
    with pytest.raises(ValueError, match="positive"):
        IndexConstraint("m", np.array([0.5, 0.5]), 0.0)


def test_market_spec_validation():
    with pytest.raises(ValueError, match="not positive"):
        MarketSpec(np.array([0.2, 0.0]), (IndexConstraint("m", np.array([0.5, 0.5]), 0.03),))
    with pytest.raises(ValueError, match="weights"):
        MarketSpec(np.array([0.2, 0.2, 0.2]), (IndexConstraint("m", np.array([0.5, 0.5]), 0.03),))
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


def test_check_feasibility_without_spec_is_vacuously_matched():
    rep = check_feasibility(np.eye(3))
    assert rep.economically_matched
    assert rep.constraint_residuals.size == 0


def test_check_feasibility_tolerance():
    spec = spec2(0.02 + 5e-7)
    assert check_feasibility(np.eye(2), spec, tol=1e-6).economically_matched
    assert not check_feasibility(np.eye(2), spec, tol=1e-8).economically_matched


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
