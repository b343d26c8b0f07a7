"""Shared graph fixtures and small helpers for the test suite."""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from portcut import (
    BacktestReport,
    CutObjective,
    CutTree,
    IngestReport,
    InsufficientDataError,
    InvalidInputError,
    MarketGraph,
    MissingPolicy,
    NumericalFailureError,
    PriceMatrix,
)
from portcut.serialization import _SVG_COLORS, _XML_TEXT, tree_to_dict


def iter_bipartitions(n: int):
    """Yield every side assignment of n vertices, vertex 0 fixed to side 1.

    Mask k = 1 .. 2**(n-1) - 1 comes k-th; its bit b puts vertex b + 1 on side 2.
    """
    if n < 2:
        return
    masks = np.arange(1, 2 ** (n - 1))
    sides = np.ones((masks.size, n), dtype=int)
    sides[:, 1:] += (masks[:, None] >> np.arange(n - 1)) & 1
    yield from sides


def graph_from_edges(n: int, edges) -> MarketGraph:
    w = np.zeros((n, n))
    for i, j, v in edges:
        w[i, j] = w[j, i] = v
    return MarketGraph(w)


def partition_sets(side_of) -> frozenset:
    """Side-label-free view of a bipartition, for comparing cuts."""
    side = np.asarray(side_of)
    return frozenset((
        frozenset(np.flatnonzero(side == 1).tolist()),
        frozenset(np.flatnonzero(side == 2).tolist()),
    ))


def complete_random_graph(rng: np.random.Generator, n: int,
                          low: float = 0.05, high: float = 1.0) -> MarketGraph:
    w = rng.uniform(low, high, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return MarketGraph(w)


def planted_two_block_graph(rng: np.random.Generator, n: int):
    """Complete graph with intra-block weights at least 5x the inter-block ones."""
    n1 = int(rng.integers(2, n - 1))
    w = rng.uniform(0.02, 0.1, size=(n, n))
    w[:n1, :n1] = rng.uniform(0.5, 1.0, size=(n1, n1))
    w[n1:, n1:] = rng.uniform(0.5, 1.0, size=(n - n1, n - n1))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    truth = np.ones(n, dtype=int)
    truth[n1:] = 2
    return MarketGraph(w), truth


def random_cut_tree(rng: np.random.Generator, n_assets: int, k: int) -> CutTree:
    """A syntactically valid cut tree from random splits (no spectral work)."""
    tree = CutTree.root([f"a{i}" for i in range(n_assets)], CutObjective.NORMALIZED)
    for _ in range(k):
        splittable = [leaf.id for leaf in tree.leaves() if leaf.size >= 2]
        if not splittable:
            break
        leaf = tree.nodes[int(rng.choice(splittable))]
        cut_at = int(rng.integers(1, leaf.size))
        members = list(leaf.members)
        rng.shuffle(members)
        tree = tree.split(leaf.id, sorted(members[:cut_at]), sorted(members[cut_at:]),
                          float(rng.uniform(0.0, 1.0)))
    return tree


@pytest.fixture
def figure_cut_graph() -> MarketGraph:
    """Two 4-cliques joined by exactly three edges weighing .32, .24 and .23."""
    return graph_from_edges(8, [
        (0, 1, 0.60), (0, 2, 0.55), (0, 3, 0.50),
        (1, 2, 0.65), (1, 3, 0.45), (2, 3, 0.70),
        (4, 5, 0.62), (4, 6, 0.58), (4, 7, 0.49),
        (5, 6, 0.66), (5, 7, 0.52), (6, 7, 0.71),
        (3, 4, 0.32), (2, 5, 0.24), (1, 6, 0.23),
    ])


@pytest.fixture
def nested_block_graph() -> MarketGraph:
    """8 assets: tight pairs, medium quads, weak across quads."""
    w = np.full((8, 8), 0.1)
    for base in (0, 4):
        for i in range(base, base + 4):
            for j in range(i + 1, base + 4):
                w[i, j] = w[j, i] = 0.6
    for i, j in ((0, 1), (2, 3), (4, 5), (6, 7)):
        w[i, j] = w[j, i] = 0.9
    np.fill_diagonal(w, 0.0)
    return MarketGraph(w)


@pytest.fixture
def path4_graph() -> MarketGraph:
    return graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


@pytest.fixture
def two_triangles_graph() -> MarketGraph:
    return graph_from_edges(6, [
        (0, 1, 0.8), (1, 2, 0.7), (0, 2, 0.9),
        (3, 4, 0.8), (4, 5, 0.7), (3, 5, 0.9),
    ])


@pytest.fixture
def three_components_graph() -> MarketGraph:
    return graph_from_edges(8, [
        (0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.85),
        (3, 4, 0.9), (4, 5, 0.8), (3, 5, 0.85),
        (6, 7, 0.95),
    ])


def make_prices(columns, asset_ids=None, timestamps=None) -> PriceMatrix:
    """PriceMatrix from a dict/sequence of price columns."""
    arr = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    ids = tuple(asset_ids) if asset_ids else tuple(f"a{i}" for i in range(arr.shape[1]))
    stamps = tuple(timestamps) if timestamps else tuple(
        f"t{r:04d}" for r in range(arr.shape[0])
    )
    return PriceMatrix(prices=arr, asset_ids=ids, timestamps=stamps)


def overflowing_prices() -> PriceMatrix:
    """Two assets; after row 5, a0 alternates 1e-150/1e150, so holding it overflows."""
    calm = [100.0, 102.0, 99.0, 101.0, 104.0, 103.0]
    wild = calm + [1e-150, 1e150] * 3
    other = [50.0, 51.0, 49.5, 50.5, 52.0, 51.5, 53.0, 52.0, 54.0, 53.5, 55.0, 54.0]
    return make_prices([wild, other])


def write_prices_csv(path, prices: PriceMatrix, date_column: str = "date") -> None:
    lines = [date_column + "," + ",".join(prices.asset_ids)]
    for stamp, row in zip(prices.timestamps, prices.prices):
        lines.append(stamp + "," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def single_leaf_tree_doc(members, asset_ids) -> dict:
    """A cut_tree document whose root is its only leaf."""
    return {
        "schema_version": 1,
        "kind": "cut_tree",
        "objective": "cutn",
        "root_id": 0,
        "k_performed": 0,
        "leaf_ids": [0],
        "asset_ids": list(asset_ids),
        "nodes": [{"id": 0, "depth": 0, "members": list(members), "children": [],
                   "lambda2_at_split": None, "is_leaf": True}],
    }


TREE_DOC_DEFECTS = ("swapped-leaf-depths", "missing-children", "reversed-leaf-ids",
                    "infinite-member", "nan-lambda2", "infinite-lambda2", "true-lambda2",
                    "bool-members")


def break_tree_doc(doc: dict, defect: str) -> dict:
    """``doc`` with one tree invariant broken; it needs a depth-1 and a depth-2 leaf."""
    if defect == "swapped-leaf-depths":
        leaf_at = {node["depth"]: node for node in doc["nodes"] if node["is_leaf"]}
        leaf_at[1]["depth"], leaf_at[2]["depth"] = 2, 1
    elif defect == "missing-children":
        doc["nodes"][0]["children"] = [98, 99]
    elif defect == "infinite-member":
        # json writes and reads it as Infinity.
        doc["nodes"][1]["members"][0] = float("inf")
    elif defect in ("nan-lambda2", "infinite-lambda2"):
        # json writes and reads them as NaN and Infinity.
        doc["nodes"][0]["lambda2_at_split"] = float("nan" if defect == "nan-lambda2" else "inf")
    elif defect == "true-lambda2":
        # True == 1.0, so only a type check tells the bool from a number.
        doc["nodes"][0]["lambda2_at_split"] = True
    elif defect == "bool-members":
        # Members 0 and 1 as false and true: equal to the ints, but not numbers.
        for node in doc["nodes"]:
            node["members"] = [bool(m) if m < 2 else m for m in node["members"]]
    else:
        doc["leaf_ids"].reverse()
    return doc


WRITTEN_FIELD_DEFECTS = ("leaf-edge-budget", "edge-budget-trace", "asset-ids-string")


def six_asset_tree_doc(defect: str | None = None) -> dict:
    """A one-cut tree document on assets a..f with one field made wrong, if any.

    Replaying the splits never reads these fields, so only comparing them
    with the rebuilt tree's own document can reject it.
    """
    tree = CutTree.root(tuple("abcdef"), CutObjective.NORMALIZED)
    doc = tree_to_dict(tree.split(tree.root_id, [0, 1, 2], [3, 4, 5], 0.5))
    if defect == "leaf-edge-budget":
        doc["leaf_edge_budget"] += 1
    elif defect == "edge-budget-trace":
        doc["edge_budget_trace"][-1] += 1
    elif defect == "asset-ids-string":
        doc["asset_ids"] = "abcdef"
    return doc


def reference_cut_stats(graph: MarketGraph, side_of, objective: CutObjective):
    """``(n1, n2, v1, v2, cut, objective)`` by the scalar formula `spectral._scores` replaced.

    It sums the cut block in the labelling it is given, so the same cut labelled the other
    way round may score an ulp apart; the scorer always sums with vertex 0 on side 1.
    """
    side = np.asarray(side_of)
    i1, i2 = np.flatnonzero(side == 1), np.flatnonzero(side == 2)
    v1, v2 = float(graph.degrees.take(i1).sum()), float(graph.degrees.take(i2).sum())
    cut = float(graph.weights.take(i1, 0).take(i2, 1).sum())
    if objective is CutObjective.NORMALIZED:
        scale = 1.0 / i1.size + 1.0 / i2.size
    else:
        scale = 1.0 / v1 + 1.0 / v2
    return i1.size, i2.size, v1, v2, cut, scale * cut


def reference_partition_indicator(graph: MarketGraph, side_of, objective: CutObjective):
    """The indicator by boolean masks: each side's masses picked out and summed in vertex
    order, 1/M1 on side 1 and -1/M2 on side 2. `partition_indicator` must match it bit for
    bit while summing index-gathered masses and never scoring the cut."""
    mass = np.ones(graph.n_vertices) if objective is CutObjective.NORMALIZED else graph.degrees
    on1 = np.asarray(side_of) == 1
    return np.where(on1, 1.0 / mass[on1].sum(), -1.0 / mass[~on1].sum())


# Reference renderers: the per-element forms `portcut.serialization` must match
# byte for byte.

def reference_canonical_json(payload) -> str:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False,
                          allow_nan=False)
    except ValueError as exc:
        raise NumericalFailureError(f"cannot emit JSON: {exc}", diagnostics={}) from exc
    return text + "\n"


def reference_wealth_to_csv(report: BacktestReport) -> str:
    ok = [res for res in report.results if res.ok]
    if not ok:
        raise InvalidInputError("no successful strategies to emit")
    rows = [["date"] + [res.label for res in ok]]
    curves = [res.wealth_curve.tolist() for res in ok]
    rows += [[stamp] + [repr(curve[i]) for curve in curves]
             for i, stamp in enumerate(report.out_sample_dates)]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def reference_wealth_to_svg(report: BacktestReport) -> str:
    ok = [res for res in report.results if res.ok]
    if not ok:
        raise InvalidInputError("no successful strategies to plot")
    width, height, margin = 720, 420, 50.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    n_points = len(report.out_sample_dates)
    lo = min(float(res.wealth_curve.min()) for res in ok)
    hi = max(float(res.wealth_curve.max()) for res in ok)
    if hi == lo:
        hi = lo + 1.0

    def x_at(i: int) -> float:
        frac = i / (n_points - 1) if n_points > 1 else 0.0
        return margin + frac * plot_w

    def y_at(value: float) -> float:
        return margin + (1.0 - (value - lo) / (hi - lo)) * plot_h

    def label(value: float) -> str:
        fixed = f"{value:.3f}"
        return fixed if len(fixed) <= 12 else f"{value:.6g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin - 6:.1f}" y="{y_at(hi):.1f}" text-anchor="end" '
        f'font-size="11">{label(hi)}</text>',
        f'<text x="{margin - 6:.1f}" y="{y_at(lo):.1f}" text-anchor="end" '
        f'font-size="11">{label(lo)}</text>',
        f'<text x="{margin:.1f}" y="{height - margin + 16:.1f}" '
        f'font-size="11">{report.out_sample_dates[0].translate(_XML_TEXT)}</text>',
        f'<text x="{width - margin:.1f}" y="{height - margin + 16:.1f}" text-anchor="end" '
        f'font-size="11">{report.out_sample_dates[-1].translate(_XML_TEXT)}</text>',
    ]
    for k, res in enumerate(ok):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        points = " ".join(
            f"{x_at(i):.2f},{y_at(v):.2f}"
            for i, v in enumerate(res.wealth_curve.tolist())
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4:.1f}" y="{margin + 14 * k + 10:.1f}" '
            f'font-size="11" fill="{color}">{res.label.translate(_XML_TEXT)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Reference price reader: the whole-file per-cell form `portcut.ingest` must
# match, result for result and error for error.

def _reference_rows(handle, path: Path, delimiter: str):
    def nul_free():
        for line_no, line in enumerate(handle, start=1):
            if "\x00" in line:
                raise InvalidInputError(f"{path}:{line_no}: line contains NUL")
            yield line

    reader = csv.reader(nul_free(), delimiter=delimiter)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise InvalidInputError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _reference_cells(rows_in, path, asset_ids, date_idx, missing_policy):
    width = len(asset_ids) + 1
    dates, rows = [], []
    for line_no, row in rows_in:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise InvalidInputError(f"{path}:{line_no}: expected {width} cells, got {len(row)}")
        dates.append(row.pop(date_idx).strip())
        if not dates[-1]:
            raise InvalidInputError(f"{path}:{line_no}: missing date")
        values = []
        for column, cell in zip(asset_ids, row):
            try:
                value = float(cell)
            except ValueError:
                value = None
            if value is None or not 0.0 < value < math.inf:
                if cell.strip().lower() not in {"", "na", "nan", "null"}:
                    problem = ("unparseable" if value is None
                               else "nonpositive" if value <= 0.0 else "non-finite")
                    raise InvalidInputError(f"{path}:{line_no}: {problem} price "
                                            f"{cell!r} in column {column!r}")
                if missing_policy is MissingPolicy.ERROR:
                    raise InvalidInputError(
                        f"{path}:{line_no}: missing price in column {column!r}")
                value = math.nan
            values.append(value)
        rows.append(values)
    return dates, np.array(rows, dtype=float).reshape(len(rows), len(asset_ids))


def reference_ingest(spec):
    """``ingest_prices_with_report(spec)``, every row read by csv.reader and float()."""
    path = Path(spec.path)
    if not path.is_file():
        raise InvalidInputError(f"price file not found: {path}")
    with path.open(newline="", encoding="utf-8-sig") as handle:
        rows_in = _reference_rows(handle, path, spec.delimiter)
        try:
            header = [h.strip() for h in next(rows_in)[1]]
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file, header row required") from None
        if spec.date_column not in header:
            raise InvalidInputError(
                f"{path}: date column {spec.date_column!r} not in header {header}")
        date_idx = header.index(spec.date_column)
        asset_ids = [h for i, h in enumerate(header) if i != date_idx]
        if not asset_ids:
            raise InvalidInputError(f"{path}: no asset columns besides the date")
        if len(set(asset_ids)) != len(asset_ids):
            raise InvalidInputError(f"{path}: duplicate asset columns in header")
        dates, prices = _reference_cells(rows_in, path, asset_ids, date_idx,
                                         spec.missing_policy)
    dropped_assets, dropped_rows = (), ()
    if spec.missing_policy is MissingPolicy.DROP_ASSETS:
        incomplete = np.isnan(prices).any(axis=0)
        dropped_assets = tuple(a for a, bad in zip(asset_ids, incomplete) if bad)
        asset_ids = [a for a, bad in zip(asset_ids, incomplete) if not bad]
        prices = prices[:, ~incomplete]
        if not asset_ids:
            raise InsufficientDataError(f"{path}: every asset column has missing cells")
    elif spec.missing_policy is MissingPolicy.DROP_ROWS:
        incomplete = np.isnan(prices).any(axis=1)
        dropped_rows = tuple(d for d, bad in zip(dates, incomplete) if bad)
        dates = [d for d, bad in zip(dates, incomplete) if not bad]
        prices = prices[~incomplete]
    if len(dates) < 2:
        raise InsufficientDataError(
            f"{path}: {len(dates)} usable rows after drops, need at least 2")
    try:
        matrix = PriceMatrix(prices=prices, asset_ids=tuple(asset_ids), timestamps=tuple(dates))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    return matrix, IngestReport(dropped_rows=dropped_rows, dropped_assets=dropped_assets)
