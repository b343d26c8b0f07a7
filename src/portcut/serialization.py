"""JSON, CSV and SVG emission for trees, weights and backtest reports.

All writers produce canonical output: sorted JSON keys, shortest round-trip
float formatting, and a trailing newline, so identical runs emit identical
bytes.
"""

from __future__ import annotations

import csv
import io
import math
from json.encoder import encode_basestring
from typing import Dict, Sequence

import numpy as np

from .allocation import WeightVector
from .backtest import BacktestReport
from .errors import InvalidInputError, NumericalFailureError
from .market_graph import _labels
from .spectral import CutObjective
from .tree import CutTree, edge_budget_trace

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "tree_to_dict",
    "tree_from_dict",
    "weights_to_dict",
    "weights_to_csv",
    "report_to_dict",
    "wealth_to_csv",
    "wealth_to_svg",
]

SCHEMA_VERSION = 1


def canonical_json(payload) -> str:
    """``payload`` as JSON with sorted keys, a 2-space indent and no ASCII escaping, and a newline.

    Takes str-keyed dicts, lists, tuples, str, int, float, bool, None and their subclasses.
    NaN and infinities raise `NumericalFailureError`; any other value, an int too long to
    print, and a document nested too deep or circular raise `InvalidInputError`.
    """
    try:
        return _render(payload, "\n") + "\n"
    except (ValueError, RecursionError) as exc:  # a huge int; deep or circular nesting
        raise InvalidInputError(f"cannot emit JSON: {exc}") from exc


def _render(value, pad: str) -> str:
    """``value`` as JSON text indented from ``pad``, joined in C."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericalFailureError("cannot emit JSON: Out of range float values are not "
                                        f"JSON compliant: {value!r}", diagnostics={})
        return float.__repr__(value)
    if not isinstance(value, (dict, list, tuple)):
        raise InvalidInputError(f"cannot emit JSON: a value of type {type(value).__name__}")
    inner, brackets = pad + "  ", "{}" if isinstance(value, dict) else "[]"
    if not value:
        return brackets
    if isinstance(value, dict):
        bad = [key for key in value if not isinstance(key, str)]
        if bad:
            raise InvalidInputError(f"cannot emit JSON: key {bad[0]!r} is not a str")
        body = (f"{encode_basestring(k)}: {_render(v, inner)}" for k, v in sorted(value.items()))
    elif (kinds := set(map(type, value))) == {float} and math.isfinite(sum(value)):
        body = map(float.__repr__, value)  # a finite sum has finite terms
    elif kinds == {str}:
        body = map(encode_basestring, value)
    else:
        body = (_render(v, inner) for v in value)
    return brackets[0] + inner + ("," + inner).join(body) + pad + brackets[1]


def tree_to_dict(tree: CutTree) -> dict:
    nodes = [{
        "id": node.id,
        "depth": node.depth,
        "members": list(node.members),
        "children": list(node.children),
        "lambda2_at_split": node.lambda2_at_split,
        "is_leaf": node.is_leaf,
    } for node in map(tree.nodes.__getitem__, sorted(tree.nodes))]
    trace = edge_budget_trace(tree)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cut_tree",
        "objective": tree.objective.value,
        "root_id": tree.root_id,
        "k_performed": tree.k_performed,
        "leaf_ids": list(tree.leaf_ids),
        "asset_ids": list(tree.asset_ids),
        "nodes": nodes,
        "leaf_edge_budget": trace[-1],
        "edge_budget_trace": trace,
    }


def tree_from_dict(payload: dict) -> CutTree:
    """Rebuild a CutTree by replaying its internal nodes in first-child-id order.

    The document is accepted only if every key `tree_to_dict` writes for the
    rebuilt tree holds the same value in it; other keys are ignored.
    """
    if not isinstance(payload, dict) or payload.get("kind") != "cut_tree":
        raise InvalidInputError("not a cut_tree document")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise InvalidInputError(
            f"unsupported schema_version {payload.get('schema_version')!r}"
        )
    try:
        asset_ids = tuple(str(a) for a in payload["asset_ids"])
        nodes = sorted(payload["nodes"], key=lambda entry: entry["id"])
        by_id = {entry["id"]: entry for entry in nodes}
        if by_id[payload["root_id"]]["members"] != list(range(len(asset_ids))):
            raise InvalidInputError(f"root members are not exactly 0..{len(asset_ids) - 1}")
        tree = CutTree.root(asset_ids, CutObjective(payload["objective"]))
        for entry in sorted((e for e in nodes if e["children"]),
                            key=lambda e: e["children"][0]):
            left, right = (by_id[child]["members"] for child in entry["children"])
            tree = tree.split(entry["id"], left, right, entry["lambda2_at_split"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed cut_tree document: {exc!r}") from exc
    expected = tree_to_dict(tree)
    document = dict(payload, nodes=nodes)
    mismatched = [key for key in expected if document.get(key) != expected[key]]
    if mismatched:
        raise InvalidInputError(
            f"cut_tree {', '.join(mismatched)} disagree with the replayed splits")
    return tree


def weights_to_dict(asset_ids: Sequence[str], weights: WeightVector,
                    cluster_shares: Dict[int, float] | None = None) -> dict:
    asset_ids = _labels(asset_ids, weights.n_assets, "asset ids", "weights")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "weights",
        "scheme": weights.scheme_tag,
        "weights": [{"asset_id": a, "weight": w}
                    for a, w in zip(asset_ids, weights.weights.tolist())],
    }
    if cluster_shares is not None:
        payload["cluster_weights"] = {
            str(leaf_id): float(share) for leaf_id, share in cluster_shares.items()
        }
    return payload


def weights_to_csv(asset_ids: Sequence[str], weights: WeightVector) -> str:
    asset_ids = _labels(asset_ids, weights.n_assets, "asset ids", "weights")
    return _csv_text([("asset_id", "weight")] + [
        (a, repr(w)) for a, w in zip(asset_ids, weights.weights.tolist())])


def report_to_dict(report: BacktestReport, manifest: dict | None = None) -> dict:
    strategies = {}
    for res in report.results:
        if res.ok:
            strategies[res.label] = {
                "status": "ok",
                "weights": res.weights.weights.tolist(),
                "scheme": res.weights.scheme_tag,
                "wealth_curve": res.wealth_curve.tolist(),
                "mean_return": res.mean_return,
                "std_return": res.std_return,
                "sharpe": res.sharpe,
                "sharpe_degenerate": res.sharpe is None,
                "metadata": res.metadata,
            }
        else:
            strategies[res.label] = {
                "status": "error",
                "error_kind": res.error_kind,
                "error": res.error,
            }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "backtest_report",
        "manifest": manifest or {},
        "split_index": int(report.split_index),
        "annualization_factor": float(report.annualization_factor),
        "asset_ids": list(report.asset_ids),
        "out_sample_dates": list(report.out_sample_dates),
        "strategies": strategies,
    }


def wealth_to_csv(report: BacktestReport) -> str:
    """One row per out-sample date, one column per successful strategy."""
    ok = [res for res in report.results if res.ok]
    if not ok:
        raise InvalidInputError("no successful strategies to emit")
    dates = report.out_sample_dates
    if _csv_text(zip(dates)) != "\n".join([*dates, ""]):
        # Some date needs quoting: quote each cell as csv does when another follows it.
        dates = [_csv_text([(stamp, "")])[:-2] for stamp in dates]
    columns = (map(float.__repr__, res.wealth_curve.tolist()) for res in ok)
    return _csv_text([["date"] + [res.label for res in ok]]) + "\n".join(
        [*map(",".join, zip(dates, *columns)), ""])


def _csv_text(rows) -> str:
    """Rows as CSV text, one line each, quoting only the cells that need it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


# Escapes the characters XML reserves in text content.
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_SVG_WIDTH = 720
_SVG_HEIGHT = 420
_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
               "#17becf", "#7f7f7f"]


def _axis_label(value: float) -> str:
    """``value`` to 3 decimals, or to 6 significant digits where that would be long."""
    text = f"{value:.3f}"
    return text if len(text) <= 12 else f"{value:.6g}"


def wealth_to_svg(report: BacktestReport) -> str:
    """Minimal static line chart of the wealth curves."""
    ok = [res for res in report.results if res.ok]
    if not ok:
        raise InvalidInputError("no successful strategies to plot")
    width, height, margin = _SVG_WIDTH, _SVG_HEIGHT, 50.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    n_points = len(report.out_sample_dates)
    lo = min(float(res.wealth_curve.min()) for res in ok)
    hi = max(float(res.wealth_curve.max()) for res in ok)
    if hi == lo:  # widen a flat range by 1, or by one step where rounding loses the 1
        hi = max(lo + 1.0, math.nextafter(lo, math.inf))
        if hi == math.inf:  # at the largest double, widen downward instead
            hi, lo = lo, math.nextafter(lo, -math.inf)
    frac = np.arange(n_points) / (n_points - 1) if n_points > 1 else np.zeros(1)
    xs = list(map("%.2f".__mod__, (margin + frac * plot_w).tolist()))

    def y_at(value):  # a float or an array, by the same operations
        return margin + (1.0 - (value - lo) / (hi - lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin - 6:.1f}" y="{y_at(hi):.1f}" text-anchor="end" '
        f'font-size="11">{_axis_label(hi)}</text>',
        f'<text x="{margin - 6:.1f}" y="{y_at(lo):.1f}" text-anchor="end" '
        f'font-size="11">{_axis_label(lo)}</text>',
        f'<text x="{margin:.1f}" y="{height - margin + 16:.1f}" '
        f'font-size="11">{report.out_sample_dates[0].translate(_XML_TEXT)}</text>',
        f'<text x="{width - margin:.1f}" y="{height - margin + 16:.1f}" text-anchor="end" '
        f'font-size="11">{report.out_sample_dates[-1].translate(_XML_TEXT)}</text>',
    ]
    for k, res in enumerate(ok):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic is silent
            ys = map("%.2f".__mod__, y_at(res.wealth_curve).tolist())
        points = " ".join(map(",".join, zip(xs, ys)))
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
