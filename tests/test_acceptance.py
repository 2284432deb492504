"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import datetime as dt
import time
from pathlib import Path

import numpy as np
import yaml
from numpy.random import Generator, PCG64, SeedSequence

from sectorport import lstm as fc
from sectorport import portfolio as po
from sectorport.backtest import roi, run_backtest
from sectorport.cli import cmd_frontier, cmd_train
from sectorport.config import load_config
from sectorport.portfolio import PortfolioWeights, sharpe_ratio

from conftest import gbm_closes, series_from_closes
from oracles import analytic_min_variance, gradient_check, portfolio_stats

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# (symbol, amount, start price, end actual price, end predicted price, printed shares)
IT_ROWS = [
    ("IFY", 27192, 1260, 1387, 1413, 21.58),
    ("TCS", 27052, 2928, 3153, 3151, 9.24),
    ("WIP", 26930, 388, 543, 549, 69.41),
    ("TEM", 214, 978, 1031, 1029, 0.22),
    ("HCL", 18612, 951, 951, 962, 19.57),
]


def test_criterion_01_it_ledger_reproduces_published_table():
    t0 = time.perf_counter()
    symbols = tuple(r[0] for r in IT_ROWS)
    weights = PortfolioWeights(symbols, np.array([r[1] for r in IT_ROWS]) / 100_000.0)
    ledger = run_backtest(
        100_000.0,
        weights,
        [float(r[2]) for r in IT_ROWS],
        [float(r[3]) for r in IT_ROWS],
        [float(r[4]) for r in IT_ROWS],
        "it",
    )
    elapsed = time.perf_counter() - t0
    shares_ok = all(abs(got["shares"] - row[5]) <= 0.01 for got, row in zip(ledger["rows"], IT_ROWS))
    total_ok = abs(ledger["total_actual"] - 115_593) <= 10
    roi_ok = abs(ledger["roi_actual_pct"] - 15.59) <= 0.05
    report(
        1,
        shares_ok and total_ok and roi_ok and elapsed < 1.0,
        f"shares ±0.01: {shares_ok}, total {ledger['total_actual']:.1f} (115593±10), "
        f"ROI {ledger['roi_actual_pct']:.3f}% (15.59±0.05), {elapsed:.3f}s",
    )


def test_criterion_02_auto_ledger_roi_pair():
    t0 = time.perf_counter()
    actual = roi(100_000.0, 99_490.0)
    predicted = roi(100_000.0, 99_614.0)
    elapsed = time.perf_counter() - t0
    ok = abs(actual - (-0.51)) <= 0.01 and abs(predicted - (-0.37)) <= 0.05
    report(
        2,
        ok and elapsed < 1.0,
        f"actual {actual:.4f}% (-0.51±0.01), predicted {predicted:.4f}% (-0.37±0.05), {elapsed:.3f}s",
    )


def test_criterion_03_sharpe_ratio_on_published_pairs():
    # Expected values frozen from independent arithmetic on the published
    # (return, risk) pairs with rf = 0.01:
    #   (0.1326 - 0.01) / 0.2757 = 0.4446862531737396   (rounds to 0.4447)
    #   (0.6879 - 0.01) / 0.4105 = 1.6514007308160779   (rounds to 1.6514)
    t0 = time.perf_counter()
    first = sharpe_ratio(0.1326, 0.2757, 0.01)
    second = sharpe_ratio(0.6879, 0.4105, 0.01)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(first - 0.4446862531737396) <= 1e-4
        and abs(first - 0.4447) <= 1e-4
        and abs(second - 1.6514007308160779) <= 1e-4
    )
    report(3, ok and elapsed < 1.0, f"pairs -> {first:.6f}, {second:.6f}, {elapsed:.3f}s")


def _five_asset_problem():
    vols = np.array([0.20, 0.25, 0.30, 0.35, 0.40])
    corr = 0.2 * np.ones((5, 5)) + 0.8 * np.eye(5)
    cov = po.CovarianceMatrix(tuple("ABCDE"), np.outer(vols, vols) * corr)
    mean = np.array([0.08, 0.10, 0.12, 0.14, 0.16])
    return mean, cov


def test_criterion_04_monte_carlo_vs_analytic_min_variance():
    t0 = time.perf_counter()
    mean, cov = _five_asset_problem()
    w_star = analytic_min_variance(cov)
    assert (w_star.weights > 0).all()
    _, risk_star = portfolio_stats(w_star, mean, cov)

    cloud_10k = po.build_frontier(mean, cov, n_draws=10_000, risk_free=0.01, seed=42)
    rel_10k = (cloud_10k.risks[po.min_variance_portfolio(cloud_10k)] - risk_star) / risk_star
    cloud_100k = po.build_frontier(mean, cov, n_draws=100_000, risk_free=0.01, seed=42)
    rel_100k = (cloud_100k.risks[po.min_variance_portfolio(cloud_100k)] - risk_star) / risk_star
    elapsed = time.perf_counter() - t0
    ok = 0 <= rel_10k <= 0.05 and 0 <= rel_100k <= 0.02 and elapsed < 10.0
    report(
        4,
        ok,
        f"rel gap 10k draws {rel_10k:.4f} (<=0.05), 100k draws {rel_100k:.4f} (<=0.02), {elapsed:.2f}s",
    )


def test_criterion_05_max_sharpe_grid_oracle():
    t0 = time.perf_counter()
    mean = np.array([0.12, 0.28])
    cov = po.CovarianceMatrix(("A", "B"), np.array([[0.05, 0.015], [0.015, 0.16]]))
    grid_best = max(
        sharpe_ratio(
            *portfolio_stats(PortfolioWeights(("A", "B"), np.array([w1, 1 - w1])), mean, cov), 0.01
        )
        for w1 in np.linspace(0.0, 1.0, 10_000)
    )
    cloud = po.build_frontier(mean, cov, n_draws=100_000, risk_free=0.01, seed=42)
    mc_best = cloud.sharpes[po.max_sharpe_portfolio(cloud)]
    rel = abs(mc_best - grid_best) / grid_best
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.01 and elapsed < 10.0
    report(5, ok, f"grid {grid_best:.6f} vs MC {mc_best:.6f}, rel {rel:.2e} (<=0.01), {elapsed:.2f}s")


def test_criterion_06_gradient_check_and_fault_detection():
    t0 = time.perf_counter()
    cfg = fc.LstmConfig(window=5, lstm_layers=(4,), dense_width=4, dropout_rate=0.0, seed=0)
    rng = Generator(PCG64(SeedSequence(0)))
    model = fc.init_model(cfg, fc.Scaler(0.0, 1.0), rng)
    inputs = rng.random((3, 5))
    targets = rng.random(3)

    clean = gradient_check(model, inputs, targets, epsilon=1e-5)
    faults_detected = []
    for tensor in model.params:
        err = gradient_check(model, inputs, targets, fault=tensor)
        faults_detected.append(err > 1e-4 and abs(err - 0.5) < 0.05)
    elapsed = time.perf_counter() - t0
    ok = clean < 1e-4 and all(faults_detected) and elapsed < 30.0
    report(
        6,
        ok,
        f"max rel err {clean:.2e} (<1e-4), {sum(faults_detected)}/{len(faults_detected)} "
        f"injected x2 faults detected, {elapsed:.2f}s",
    )


def test_criterion_07_sine_learnability():
    t0 = time.perf_counter()
    closes = 100.0 + 10.0 * np.sin(np.arange(400) * (2 * np.pi / 25))
    cfg = fc.LstmConfig(
        window=20,
        lstm_layers=(16,),
        dense_width=16,
        dropout_rate=0.0,
        batch_size=64,
        epochs=200,
        learning_rate=1e-3,
        seed=0,
    )
    _, trace = fc.train(cfg, closes)
    elapsed = time.perf_counter() - t0
    final_mae = trace[-1][2]
    decreasing = trace[-1][1] < trace[0][1]
    ok = final_mae < 0.05 and decreasing and elapsed < 120.0
    report(
        7,
        ok,
        f"epoch-200 scaled MAE {final_mae:.4f} (<0.05), loss {trace[0][1]:.5f} "
        f"-> {trace[-1][1]:.6f}, {elapsed:.1f}s",
    )


def test_criterion_08_full_scale_smoke():
    cfg = fc.LstmConfig()  # window 50, layers (256, 256), dense 256, batch 64
    rng = Generator(PCG64(SeedSequence(0)))
    model = fc.init_model(cfg, fc.Scaler(0.0, 1.0), rng)
    X = rng.random((64, 50))
    Y = rng.random(64)
    t0 = time.perf_counter()
    pred, cache = fc.forward_batch(model, X, training=True, pool=fc._BufferPool(), rng=rng)
    d_y = fc.huber_gradient(Y, pred, cfg.huber_delta) / 64
    grads = fc.backward_batch(model, cache, d_y, fc._BufferPool())
    elapsed = time.perf_counter() - t0
    finite = all(np.isfinite(g).all() for g in grads.values())
    ok = finite and elapsed < 10.0
    report(
        8,
        ok,
        f"(50 window, 256/256 lstm, 256 dense) fwd+bwd on batch 64: {elapsed:.2f}s (<10s), "
        f"finite grads: {finite}",
    )


def test_criterion_09_subcommand_determinism(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    from sectorport.market_data import serialize_csv

    for i, sym in enumerate(("AAA", "BBB", "CCC")):
        series = series_from_closes(sym, gbm_closes(320, seed=50 + i), start=dt.date(2016, 1, 4))
        (data / f"{sym}.csv").write_text(serialize_csv(series), encoding="utf-8")
    doc = {
        "data_dir": str(data),
        "seed": 7,
        "n_draws": 200,
        "sectors": [{"name": "demo", "members": [["AAA", 3.0], ["BBB", 2.0], ["CCC", 1.0]]}],
        "lstm": {
            "window": 10,
            "lstm_layers": [8],
            "dense_width": 8,
            "dropout_rate": 0.3,
            "batch_size": 32,
            "epochs": 2,
        },
    }
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    config = load_config(cfg_path)

    f1, r1 = cmd_frontier(config, "demo", tmp_path / "run1")
    f2, r2 = cmd_frontier(config, "demo", tmp_path / "run2")
    c1, t1 = cmd_train(config, "AAA", tmp_path / "run1")
    c2, t2 = cmd_train(config, "AAA", tmp_path / "run2")
    frontier_same = f1.read_bytes() == f2.read_bytes() and r1.read_bytes() == r2.read_bytes()
    train_same = c1.read_bytes() == c2.read_bytes() and t1.read_bytes() == t2.read_bytes()
    report(
        9,
        frontier_same and train_same,
        f"frontier byte-identical: {frontier_same}, train byte-identical: {train_same}",
    )


def test_criterion_10_non_reproducibility_disclosure():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    disclosed = "not reproducible" in readme.lower()
    covered = all(
        f"test_criterion_0{k}" in Path(__file__).read_text(encoding="utf-8") for k in range(1, 6)
    )
    report(
        10,
        disclosed and covered,
        "README discloses which published figures are out of reach and why; "
        "fixture arithmetic and oracle equivalence stand in (criteria 1-5)",
    )
