"""In-sample / out-sample backtest of cut strategies against EW and MV.

Simulates an unbalanced two-block market (8 + 12 assets), estimates weights
on the first half of the sample, holds them fixed on the second half, and
compares annualized Sharpe ratios and return dispersion. Writes the wealth
curves to CSV and SVG next to this script.
"""

from pathlib import Path

from portcut import BacktestConfig, CutPolicy, block_factor_market, run_backtest
from portcut.serialization import wealth_to_csv, wealth_to_svg

OUT_DIR = Path(__file__).resolve().parent

prices, block_of = block_factor_market(
    [8, 12], n_periods=1000, within_corr=0.9, across_corr=0.1,
    drift=0.0006, seed=2024)
print("assets:", len(prices.asset_ids), "| return rows:", prices.n_rows - 1)
print("block sizes:", [int((block_of == b).sum()) for b in (0, 1)])

config = BacktestConfig(
    split_index=500,
    strategies=("ew", "mv", "cutn-as1", "cutn-as2", "cutv-as1", "cutv-as2"),
    policy=CutPolicy(max_cuts=4, min_leaf_size=1),
    mv_ridge=1e-8,
)

report = run_backtest(prices, config)

print(f"\n{'strategy':>9} | {'mean':>9} | {'std':>9} | {'sharpe':>7} | cuts")
print("-" * 55)
for res in report.results:
    if not res.ok:
        print(f"{res.label:>9} | failed: {res.error_kind}")
        continue
    k = res.metadata.get("k_performed", "-")
    sharpe = f"{res.sharpe:7.3f}" if res.sharpe is not None else "   n/a"
    print(f"{res.label:>9} | {res.mean_return:9.6f} | {res.std_return:9.6f} "
          f"| {sharpe} | {k}")

ew_std = report.result("ew").std_return
lower = [res.label for res in report.results
         if res.ok and res.label not in ("ew", "mv") and res.std_return < ew_std]
print("\ncut strategies with lower out-sample dispersion than EW:", lower)

csv_path = OUT_DIR / "wealth_curves.csv"
svg_path = OUT_DIR / "wealth_curves.svg"
csv_path.write_text(wealth_to_csv(report))
svg_path.write_text(wealth_to_svg(report))
print(f"\nwealth curves written to {csv_path.name} and {svg_path.name}")
