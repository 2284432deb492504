import datetime as dt
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, PCG64, SeedSequence

from sectorport import portfolio
from sectorport.market_data import align
from sectorport.portfolio import (
    CovarianceMatrix,
    FrontierCloud,
    PortfolioWeights,
    _BLOCK_ROWS,
    _TEXT_BLOCK_ROWS,
    build_frontier,
    frontier_csv_blocks,
    max_sharpe_portfolio,
    mean_and_covariance,
    min_variance_portfolio,
    portfolio_report,
    sharpe_ratio,
)

from conftest import gbm_closes, series_from_closes
from oracles import analytic_min_variance, exact_max_sharpe, portfolio_stats, whole_array_frontier


def equicorrelated_cov(vols, rho):
    vols = np.asarray(vols, dtype=float)
    n = vols.size
    corr = rho * np.ones((n, n)) + (1 - rho) * np.eye(n)
    return np.outer(vols, vols) * corr


FIVE_ASSET_COV = CovarianceMatrix(
    ("A", "B", "C", "D", "E"), equicorrelated_cov([0.20, 0.25, 0.30, 0.35, 0.40], 0.2)
)
FIVE_ASSET_MEAN = np.array([0.08, 0.10, 0.12, 0.14, 0.16])


# ------------------------------------------------------ mean_and_covariance

def test_single_symbol_covariance_is_annualized_variance():
    closes = [100, 103, 99, 104, 101, 105]
    mean, cov = mean_and_covariance(("A",), align([series_from_closes("A", closes)]))
    rets = np.diff(closes) / np.array(closes[:-1], dtype=float)
    assert cov.entries.shape == (1, 1)
    assert cov.entries[0, 0] == pytest.approx(np.var(rets, ddof=1) * 250, rel=1e-12)
    assert mean[0] == pytest.approx(rets.mean() * 250, rel=1e-12)


def test_scaled_price_columns_are_perfectly_correlated():
    closes = [100, 103, 99, 104, 101]
    aligned = align(
        [series_from_closes("A", closes), series_from_closes("B", [2 * c for c in closes])]
    )
    _, cov = mean_and_covariance(("A", "B"), aligned)
    v = cov.entries
    corr = v[0, 1] / math.sqrt(v[0, 0] * v[1, 1])
    assert corr == pytest.approx(1.0, rel=1e-12)
    assert v[0, 0] == pytest.approx(v[1, 1], rel=1e-12)


def test_independent_streams_have_near_zero_covariance():
    # Monte-Carlo sanity: off-diagonal below 3 standard errors of zero
    rng = np.random.default_rng(123)
    n = 10_000
    closes = [100.0 * np.cumprod(1.0 + rng.normal(0, 0.01, n)) for _ in range(2)]
    aligned = align([series_from_closes("A", closes[0]), series_from_closes("B", closes[1])])
    _, cov = mean_and_covariance(("A", "B"), aligned)
    daily = cov.entries / 250.0
    stderr = math.sqrt(daily[0, 0] * daily[1, 1] / (n - 1))
    assert abs(daily[0, 1]) < 3 * stderr


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(3, 400), st.integers(0, 2**32))
def test_covariance_is_k_by_k_and_symmetric_bit_for_bit(k, n, seed):
    # the only producer of a CovarianceMatrix, so nothing downstream checks its shape or symmetry again
    closes = 100.0 * np.cumprod(1.0 + np.random.default_rng(seed).normal(0.0, 0.02, (n, k)), axis=0)
    mean, cov = mean_and_covariance(tuple(f"S{i}" for i in range(k)), closes)
    assert mean.shape == (k,) and cov.entries.shape == (k, k)
    assert np.array_equal(cov.entries, cov.entries.T)


def test_mean_and_covariance_needs_three_dates():
    aligned = align([series_from_closes("A", [1, 2])])
    with pytest.raises(ValueError, match=">= 3"):
        mean_and_covariance(("A",), aligned)


def test_mean_and_covariance_names_the_symbol_whose_variance_overflows():
    # B's returns are finite, but its variance overflows: the error names B, not a failed check downstream
    closes = np.array([[100.0, 10.0], [101.0, 1e300], [102.0, 10.0], [103.0, 11.0]])
    with pytest.raises(ValueError, match="^B: annualized return mean or variance is not finite$"):
        mean_and_covariance(("A", "B"), closes)


# ---------------------------------------------------------- portfolio_stats

def test_unit_vector_recovers_asset_stats():
    w = PortfolioWeights(("A", "B"), np.array([0.0, 1.0]))
    mean = np.array([0.1, 0.2])
    cov = CovarianceMatrix(("A", "B"), np.diag([0.04, 0.09]))
    ret, risk = portfolio_stats(w, mean, cov)
    assert ret == pytest.approx(0.2)
    assert risk == pytest.approx(0.3)


def test_equal_weight_uncorrelated_quadratic_form():
    # variances 1 and 4, equal weights: risk = sqrt(0.25*1 + 0.25*4)
    w = PortfolioWeights(("A", "B"), np.array([0.5, 0.5]))
    cov = CovarianceMatrix(("A", "B"), np.diag([1.0, 4.0]))
    _, risk = portfolio_stats(w, np.zeros(2), cov)
    assert risk == pytest.approx(math.sqrt(1.25), rel=1e-12)


def test_zero_mean_gives_zero_return():
    w = PortfolioWeights(("A", "B"), np.array([0.3, 0.7]))
    cov = CovarianceMatrix(("A", "B"), np.eye(2))
    ret, _ = portfolio_stats(w, np.zeros(2), cov)
    assert ret == 0.0


def test_portfolio_stats_dimension_mismatch():
    w = PortfolioWeights(("A", "B"), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        portfolio_stats(w, np.zeros(3), CovarianceMatrix(("A", "B"), np.eye(2)))


def test_portfolio_stats_rejects_negative_quadratic_form():
    # raw ndarray bypasses CovarianceMatrix validation to exercise the guard
    w = PortfolioWeights(("A", "B"), np.array([0.5, 0.5]))
    bad = np.array([[1.0, -3.0], [-3.0, 1.0]])
    with pytest.raises(ValueError, match="invalid covariance"):
        portfolio_stats(w, np.zeros(2), bad)


# ------------------------------------------------------------- weight rows

def weight_rows(seed, count, n_assets):
    """The weights of the seed's first count draws over n_assets uncorrelated unit-variance assets."""
    cov = CovarianceMatrix(tuple(f"S{i}" for i in range(n_assets)), np.eye(n_assets))
    return build_frontier(np.zeros(n_assets), cov, n_draws=count, risk_free=0.0, seed=seed).weights


def test_single_asset_weight_is_one():
    assert weight_rows(5, 1, 1)[0] == pytest.approx([1.0])


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=2**32))
def test_random_weights_on_simplex(n, seed):
    w = weight_rows(seed, 3, n)
    assert (w >= 0).all()
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-9


def test_random_weights_deterministic_per_seed():
    a = weight_rows(7, 3, 5)
    b = weight_rows(7, 3, 5)
    np.testing.assert_array_equal(a, b)


# -------------------------------------------------------------- sharpe_ratio

def test_sharpe_on_published_portfolio_pairs():
    # Eq.-(1) arithmetic on the auto and metal opt-risk (return, risk) pairs
    assert sharpe_ratio(0.1326, 0.2757, 0.01) == pytest.approx(0.4446862531737396, abs=1e-12)
    assert sharpe_ratio(0.6879, 0.4105, 0.01) == pytest.approx(1.6514007308160779, abs=1e-12)


def test_sharpe_zero_at_risk_free_return():
    assert sharpe_ratio(0.01, 0.5, 0.01) == 0.0


def test_sharpe_requires_positive_risk():
    with pytest.raises(ValueError, match="positive"):
        sharpe_ratio(0.1, 0.0, 0.01)
    with pytest.raises(ValueError, match="positive"):
        sharpe_ratio(0.1, -0.2, 0.01)


def test_sharpe_on_arrays_matches_scalars_and_rejects_any_nonpositive_risk():
    returns, risks = np.array([0.1326, 0.6879, 0.01]), np.array([0.2757, 0.4105, 0.5])
    expected = [sharpe_ratio(r, s, 0.01) for r, s in zip(returns, risks)]
    np.testing.assert_array_equal(sharpe_ratio(returns, risks, 0.01), expected)
    with pytest.raises(ValueError, match="positive, got 0.0"):
        sharpe_ratio(returns, np.array([0.2757, 0.0, 0.5]), 0.01)


def test_frontier_sharpes_come_from_sharpe_ratio():
    cloud = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=300, risk_free=0.02, seed=4)
    np.testing.assert_array_equal(cloud.sharpes, sharpe_ratio(cloud.returns, cloud.risks, 0.02))


@given(
    st.floats(-2, 2, allow_nan=False),
    st.floats(0.01, 5, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
)
def test_sharpe_antisymmetric_around_risk_free(r, sigma, rf):
    assert sharpe_ratio(2 * rf - r, sigma, rf) == pytest.approx(
        -sharpe_ratio(r, sigma, rf), rel=1e-9, abs=1e-12
    )


# ------------------------------------------------------------ build_frontier

def test_frontier_single_draw():
    cloud = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=1, risk_free=0.01, seed=0)
    assert cloud.n_draws == 1
    assert min_variance_portfolio(cloud) == 0


def test_identical_assets_collapse_the_cloud():
    # correlation 1 and equal means: weights cannot matter
    cov = CovarianceMatrix(("A", "B", "C"), equicorrelated_cov([0.2, 0.2, 0.2], 1.0))
    mean = np.array([0.1, 0.1, 0.1])
    cloud = build_frontier(mean, cov, n_draws=200, risk_free=0.01, seed=3)
    risks = {round(r, 12) for r in cloud.risks.tolist()}
    rets = {round(r, 12) for r in cloud.returns.tolist()}
    assert risks == {0.2}
    assert rets == {0.1}


def test_frontier_deterministic_for_fixed_seed():
    a = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=500, risk_free=0.01, seed=11)
    b = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=500, risk_free=0.01, seed=11)
    assert "".join(frontier_csv_blocks(a)) == "".join(frontier_csv_blocks(b))
    np.testing.assert_array_equal(a.weights, b.weights)


def test_frontier_draws_are_nested_prefixes():
    small = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=200, risk_free=0.01, seed=5)
    big = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=400, risk_free=0.01, seed=5)
    np.testing.assert_array_equal(small.weights, big.weights[:200])
    assert big.risks.min() <= small.risks.min()


def test_weight_block_rows_match_sequential_random_weights():
    rng = Generator(PCG64(SeedSequence(9)))
    rows = weight_rows(seed=9, count=4, n_assets=3)
    for i in range(4):
        x = rng.random(3)
        np.testing.assert_array_equal(x / x.sum(), rows[i])


def test_weight_block_divides_in_place_to_the_bits_of_the_out_of_place_division():
    raw = Generator(PCG64(SeedSequence(21))).random((20000, 12))
    want = raw / raw.sum(axis=1, keepdims=True)
    assert weight_rows(21, 20000, 12).tobytes() == want.tobytes()


def test_frontier_point_stats_recompute_from_weights():
    cloud = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=300, risk_free=0.01, seed=2)
    for i in range(0, cloud.n_draws, 23):
        weights = PortfolioWeights(cloud.symbols, cloud.weights[i])
        ret, risk = portfolio_stats(weights, FIVE_ASSET_MEAN, FIVE_ASSET_COV)
        assert ret == pytest.approx(cloud.returns[i], abs=1e-10)
        assert risk == pytest.approx(cloud.risks[i], abs=1e-10)
        assert cloud.sharpes[i] == pytest.approx((ret - 0.01) / risk, abs=1e-10)


# -------------------------------------------------------------- block kernel

def random_moments(k, seed):
    """A mean vector and a positive-definite covariance of k symbols."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.3, (k, k))
    cov = CovarianceMatrix(tuple(f"S{i}" for i in range(k)), a @ a.T / k + 0.01 * np.eye(k))
    return rng.normal(0.1, 0.1, k), cov


# Block sizes whose edges keep every draw's place in the BLAS kernel's groups (see _blocks):
# below, at and across the edges of small blocks, and of the real one.
BLOCK_SIZES = [16, 48, _BLOCK_ROWS]


@st.composite
def cloud_sizes(draw):
    block = draw(st.sampled_from(BLOCK_SIZES))
    offset = draw(st.one_of(st.sampled_from([-2, -1, 0, 1, 2]), st.integers(0, block - 1)))
    return block, max(1, draw(st.integers(0, 2)) * block + offset)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), cloud_sizes(), st.integers(0, 2**32))
def test_blocked_cloud_is_the_whole_array_formula_byte_for_byte(k, sizes, seed):
    # clouds stay under three blocks: above about 32k rows the reference's whole-array GEMV, at two
    # BLAS threads, splits at an unaligned row and leaves its own one-thread bits (see the thread test)
    block, n_draws = sizes
    mean, cov = random_moments(k, seed % 1000)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(portfolio, "_BLOCK_ROWS", block)
        cloud = build_frontier(mean, cov, n_draws=n_draws, risk_free=0.01, seed=seed)
    want = whole_array_frontier(mean, cov, n_draws, 0.01, seed)
    for got, ref in zip((cloud.weights, cloud.returns, cloud.risks, cloud.sharpes), want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n_draws", [1, 2, 5, 9], ids=["one-row", "one-block", "lone-last-row-joined", "two-blocks"])
def test_every_cloud_column_has_one_filled_row_per_draw(monkeypatch, n_draws):
    # build_frontier is the one producer of a FrontierCloud, so the cloud's column shapes are not checked again;
    # at 4-row blocks these sizes cover one row, one block, a lone last row joined to its block, and two blocks
    monkeypatch.setattr(portfolio, "_BLOCK_ROWS", 4)
    cloud = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=n_draws, risk_free=0.01, seed=n_draws)
    assert cloud.n_draws == n_draws and cloud.symbols == FIVE_ASSET_COV.symbols
    assert cloud.weights.shape == (n_draws, len(cloud.symbols))
    assert cloud.returns.shape == cloud.risks.shape == cloud.sharpes.shape == (n_draws,)
    np.testing.assert_allclose(cloud.weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(cloud.returns, cloud.weights @ FIVE_ASSET_MEAN, rtol=1e-12)
    assert (cloud.risks > 0).all()


def test_build_frontier_rejects_a_zero_risk():
    cov = CovarianceMatrix(("A", "B"), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="^annual_risk must be positive, got 0.0$"):
        build_frontier(np.zeros(2), cov, 20_000, 0.01, 0)


def traced_peak(call):
    """call's result and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_frontier_holds_nothing_the_size_of_the_weights_but_them():
    mean, cov = random_moments(12, 0)
    cloud, peak = traced_peak(lambda: build_frontier(mean, cov, n_draws=200_000, risk_free=0.01, seed=3))
    returned = sum(a.nbytes for a in (cloud.weights, cloud.returns, cloud.risks, cloud.sharpes))
    assert peak < returned + 4e6, f"peak {peak / 1e6:.1f} MB for {returned / 1e6:.1f} MB of columns"


def test_frontier_bytes_do_not_depend_on_the_blas_thread_count():
    # at two threads a whole-array GEMV over these 100,003 rows splits them at an unaligned row,
    # whose sum then runs in another order than at one thread; 8192-row blocks split evenly
    code = (
        "import hashlib, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_portfolio import build_frontier, random_moments\n"
        "mean, cov = random_moments(12, 0)\n"
        "cloud = build_frontier(mean, cov, n_draws=100_003, risk_free=0.01, seed=3)\n"
        "print(hashlib.sha256(cloud.returns.tobytes() + cloud.risks.tobytes()).hexdigest())\n"
    )
    src = str(Path(portfolio.__file__).parents[1])
    digests = {
        subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    }
    assert len(digests) == 1


# ----------------------------------------------------------------- selectors

def _cloud(risks, returns, sharpes):
    columns = (np.asarray(c, dtype=float) for c in (returns, risks, sharpes))
    return FrontierCloud(("A",), np.ones((len(risks), 1)), *columns)


def test_min_variance_scans_for_argmin():
    cloud = _cloud(risks=[0.3, 0.1, 0.2], returns=[0.1, 0.05, 0.2], sharpes=[0.3, 0.4, 0.9])
    assert min_variance_portfolio(cloud) == 1


def test_selector_ties_break_by_draw_index():
    cloud = _cloud(risks=[0.2, 0.2], returns=[0.1, 0.1], sharpes=[0.5, 0.5])
    assert min_variance_portfolio(cloud) == 0
    assert max_sharpe_portfolio(cloud) == 0


def test_max_sharpe_scans_for_argmax():
    cloud = _cloud(risks=[0.3, 0.1, 0.2], returns=[0.1, 0.05, 0.2], sharpes=[0.2, 0.9, 0.5])
    assert max_sharpe_portfolio(cloud) == 1


def test_max_sharpe_argmax_invariant_under_risk_free_shift_at_equal_risk():
    # shifting rf moves every equal-risk point's Sharpe by the same amount
    def cloud(rf):
        returns = np.array([0.10, 0.30, 0.20])
        return _cloud([0.25] * 3, returns, (returns - rf) / 0.25)

    assert max_sharpe_portfolio(cloud(0.01)) == max_sharpe_portfolio(cloud(0.05)) == 1


def test_selected_point_is_its_row():
    cloud = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=300, risk_free=0.01, seed=2)
    i = max_sharpe_portfolio(cloud)
    assert type(i) is int and cloud.sharpes[i] == cloud.sharpes.max()
    block = portfolio_report("demo", cloud, min_variance_portfolio(cloud), i)["opt_risk"]
    assert block["weights"] == dict(zip(cloud.symbols, cloud.weights[i].tolist()))
    assert (block["annual_return"], block["annual_risk"]) == (cloud.returns[i], cloud.risks[i])
    values = [*block["weights"].values(), block["annual_return"], block["annual_risk"]]
    assert all(type(v) is float for v in values)


def test_two_asset_min_variance_approaches_inverse_variance_weights():
    cov = CovarianceMatrix(("A", "B"), np.diag([1.0, 4.0]))
    cloud = build_frontier(np.array([0.1, 0.2]), cov, n_draws=100_000, risk_free=0.01, seed=1)
    w = cloud.weights[min_variance_portfolio(cloud)]
    assert np.abs(w - np.array([0.8, 0.2])).max() <= 0.03


def test_two_asset_max_sharpe_matches_grid_oracle():
    mean = np.array([0.12, 0.28])
    cov = CovarianceMatrix(("A", "B"), np.array([[0.05, 0.015], [0.015, 0.16]]))
    grid_best = max(
        sharpe_ratio(*portfolio_stats(PortfolioWeights(("A", "B"), np.array([w1, 1 - w1])), mean, cov), 0.01)
        for w1 in np.linspace(0.0, 1.0, 10_000)
    )
    cloud = build_frontier(mean, cov, n_draws=100_000, risk_free=0.01, seed=4)
    mc_best = cloud.sharpes[max_sharpe_portfolio(cloud)]
    assert abs(mc_best - grid_best) / grid_best <= 0.01


# ---------------------------------------------------- analytic_min_variance

def test_analytic_diag_inverse_variance_weighting():
    cov = CovarianceMatrix(("A", "B"), np.diag([1.0, 4.0]))
    assert analytic_min_variance(cov).weights == pytest.approx([0.8, 0.2], rel=1e-12)


def test_analytic_identity_gives_uniform_weights():
    cov = CovarianceMatrix(tuple("ABCD"), np.eye(4))
    assert analytic_min_variance(cov).weights == pytest.approx([0.25] * 4, rel=1e-12)


def test_analytic_three_asset_diag():
    cov = CovarianceMatrix(("A", "B", "C"), np.diag([1.0, 1.0, 2.0]))
    assert analytic_min_variance(cov).weights == pytest.approx([0.4, 0.4, 0.2], rel=1e-12)


def test_analytic_rejects_singular_covariance():
    cov = CovarianceMatrix(("A", "B"), np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="singular"):
        analytic_min_variance(cov)


def test_analytic_rejects_negative_components():
    cov = CovarianceMatrix(("A", "B"), np.array([[1.0, 0.8], [0.8, 0.7]]))
    with pytest.raises(ValueError, match="negative"):
        analytic_min_variance(cov)


def test_monte_carlo_minimum_never_beats_analytic():
    for seed in range(3):
        cloud = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=2000, risk_free=0.01, seed=seed)
        mc_risk = cloud.risks[min_variance_portfolio(cloud)]
        w_star = analytic_min_variance(FIVE_ASSET_COV)
        _, risk_star = portfolio_stats(w_star, FIVE_ASSET_MEAN, FIVE_ASSET_COV)
        assert mc_risk >= risk_star - 1e-12


# -------------------------------------------------------------------- types

def test_covariance_matrix_rejects_negative_eigenvalues():
    with pytest.raises(ValueError, match="PSD"):
        CovarianceMatrix(("A", "B"), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_portfolio_weights_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        PortfolioWeights(("A", "B"), np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="sum"):
        PortfolioWeights(("A", "B"), np.array([0.4, 0.4]))
    # abs(nan - 1) > 1e-9 is False, so the sum check alone lets a NaN through
    with pytest.raises(ValueError, match="finite"):
        PortfolioWeights(("A", "B"), np.array([np.nan, 1.0]))


# ------------------------------------------------------ exact long-only optimum

@st.composite
def long_only_problems(draw):
    """Moments of 2 to 8 symbols and a risk-free rate below at least one mean."""
    mean, cov = random_moments(draw(st.integers(2, 8)), draw(st.integers(0, 2**32 - 1)))
    risk_free = draw(st.floats(-0.1, float(mean.max()), exclude_max=True))
    return mean, cov, risk_free


@settings(max_examples=60, deadline=None)
@given(long_only_problems(), st.integers(0, 2**32 - 1))
def test_the_cloud_never_beats_the_exact_long_only_optimum(problem, seed):
    mean, cov, risk_free = problem
    exact, weights = exact_max_sharpe(mean, cov, risk_free)
    ret, risk = portfolio_stats(PortfolioWeights(cov.symbols, weights), mean, cov)
    assert (ret - risk_free) / risk == pytest.approx(exact, rel=1e-12)
    cloud = build_frontier(mean, cov, n_draws=2000, risk_free=risk_free, seed=seed)
    assert cloud.sharpes[max_sharpe_portfolio(cloud)] <= exact + 1e-12 * abs(exact)


@settings(max_examples=20, deadline=None)
@given(long_only_problems(), st.integers(0, 2**32 - 1))
def test_more_draws_of_one_seed_never_widen_the_gap_to_the_exact_optimum(problem, seed):
    mean, cov, risk_free = problem
    exact, _ = exact_max_sharpe(mean, cov, risk_free)
    gaps = []
    for n_draws in (2000, 20_000):
        cloud = build_frontier(mean, cov, n_draws=n_draws, risk_free=risk_free, seed=seed)
        gaps.append(exact - cloud.sharpes[max_sharpe_portfolio(cloud)])
    assert -1e-12 * abs(exact) <= gaps[1] <= gaps[0]


# ------------------------------------------------------------------ exports

def test_frontier_csv_layout():
    cloud = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=3, risk_free=0.01, seed=0)
    text = "".join(frontier_csv_blocks(cloud))
    lines = text.strip().split("\n")
    assert lines[0] == "draw_index,risk,return,sharpe,w_A,w_B,w_C,w_D,w_E"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    # weights round-trip through the >=10-significant-digit format
    parsed = np.array([float(x) for x in first[4:]])
    np.testing.assert_allclose(parsed, cloud.weights[0], rtol=1e-11)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3 * _TEXT_BLOCK_ROWS + 2), st.data())
def test_export_cut_at_any_row_joins_to_the_whole_export(k, n_draws, data):
    # cli's two-process export writes [0, mid) and [mid, n) apart and joins them
    mean, cov = random_moments(k, n_draws)
    cloud = build_frontier(mean, cov, n_draws=n_draws, risk_free=0.01, seed=n_draws)
    whole = "".join(frontier_csv_blocks(cloud))
    mid = data.draw(st.integers(0, n_draws), label="mid")
    block = data.draw(st.sampled_from([1, 7, _TEXT_BLOCK_ROWS]), label="block")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(portfolio, "_TEXT_BLOCK_ROWS", block)
        cut = "".join(frontier_csv_blocks(cloud, 0, mid)) + "".join(frontier_csv_blocks(cloud, mid))
    assert cut == whole


# sha256 of the export of the cloud below as one whole text, before it was streamed.
BLOCKS_CSV_SHA256 = "bfdd8753fc7481dbbb5bf007e472cd525b3f7dc363c628cee2eda3ddee071e57"


def test_frontier_csv_bytes_are_pinned_across_block_boundaries():
    # two full draw blocks and a partial one
    cloud = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=16_389, risk_free=0.01, seed=7)
    blocks = list(frontier_csv_blocks(cloud))
    # the header, sixteen full text blocks and a partial one
    assert [b.count("\n") for b in blocks] == [1, *[1024] * 16, 5]
    assert hashlib.sha256("".join(blocks).encode()).hexdigest() == BLOCKS_CSV_SHA256


# The tag that names the cloud's bits and those of the moments it is drawn from, the sha256 of the cloud below, its
# columns in order as little-endian float64, and the sha256 of the moments below, the mean then the covariance.
# cli keys its cached picks by the tag and the prices, not by the moments, so a change to these bits fails here
# until the tag and the digest are changed.
CLOUD_TAG, CLOUD_SHA256 = b"sectorport cloud 2", "d8406c1e47a4eb4636d8eb65cb67aea2805fe5a01e2bd90826d985c942ea11e5"
MOMENTS_SHA256 = "5527d9a27a72ac094b6a3d1ea68386ceda2f70e1ca0f0ca00e6411edeed33f05"


def test_cloud_bits_are_the_ones_its_tag_names():
    mean = np.array([0.08, 0.12, 0.05])
    cov = CovarianceMatrix(("A", "B", "C"), np.array([[0.04, 0.006, 0.002], [0.006, 0.09, 0.01], [0.002, 0.01, 0.0225]]))
    cloud = build_frontier(mean, cov, n_draws=20_000, risk_free=0.01, seed=9)
    assert len(list(portfolio._blocks(cloud.n_draws))) == 3
    columns = (cloud.weights, cloud.returns, cloud.risks, cloud.sharpes)
    digest = hashlib.sha256(b"".join(c.astype("<f8").tobytes() for c in columns)).hexdigest()
    assert (portfolio._CLOUD_TAG, digest) == (CLOUD_TAG, CLOUD_SHA256)


def test_moment_bits_are_the_ones_the_cloud_tag_names():
    # restrict, align and mean_and_covariance over three series that share some dates and not others
    series = [series_from_closes(s, gbm_closes(400, seed), start) for s, seed, start in
              [("A", 1, dt.date(2019, 1, 1)), ("B", 2, dt.date(2019, 1, 7)), ("C", 3, dt.date(2018, 12, 3))]]
    closes = align([s.restrict(dt.date(2019, 1, 1), dt.date(2020, 3, 31)) for s in series])
    mean, cov = mean_and_covariance(("A", "B", "C"), closes)
    digest = hashlib.sha256(mean.astype("<f8").tobytes() + cov.entries.astype("<f8").tobytes()).hexdigest()
    assert (portfolio._CLOUD_TAG, digest) == (CLOUD_TAG, MOMENTS_SHA256)


def test_portfolio_report_shape():
    cloud = build_frontier(FIVE_ASSET_MEAN, FIVE_ASSET_COV, n_draws=50, risk_free=0.01, seed=0)
    report = portfolio_report("demo", cloud, min_variance_portfolio(cloud), max_sharpe_portfolio(cloud))
    assert report["sector"] == "demo"
    for block in (report["min_risk"], report["opt_risk"]):
        assert set(block) == {"weights", "annual_return", "annual_risk"}
        assert set(block["weights"]) == {"A", "B", "C", "D", "E"}
        assert sum(block["weights"].values()) == pytest.approx(1.0, abs=1e-9)


def _array_records():
    """Two distinct, equal instances of each record type that holds arrays."""
    from sectorport.config import LstmConfig
    from sectorport.lstm import Scaler, init_model

    series = series_from_closes("A", [10.0, 11.0, 12.0, 11.5])
    other = series_from_closes("B", [20.0, 21.0, 19.0, 22.0])

    def model():
        config = LstmConfig(window=3, lstm_layers=(2,), dense_width=2)
        return init_model(config, Scaler(0.0, 1.0), Generator(PCG64(SeedSequence(0))))

    return {
        "CovarianceMatrix": lambda: mean_and_covariance(("A", "B"), align([series, other]))[1],
        "PortfolioWeights": lambda: PortfolioWeights(("A", "B"), np.array([0.25, 0.75])),
        "LstmModel": model,
    }


@pytest.mark.parametrize("kind", list(_array_records()))
def test_array_records_compare_without_raising(kind):
    # the generated __eq__ compared array fields with ==, which raised
    # "truth value of an array ... is ambiguous"; equality is identity now
    make = _array_records()[kind]
    a, b = make(), make()
    assert a == a
    assert not a == b
    assert a != b
