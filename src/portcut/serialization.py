"""JSON, CSV and SVG emission for trees, weights and backtest reports.

All writers produce canonical output: sorted JSON keys, shortest round-trip
float formatting, and a trailing newline, so identical runs emit identical
bytes.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .allocation import WeightVector
from .backtest import BacktestReport
from .errors import InvalidInputError
from .spectral import CutObjective
from .tree import CutTree, CutTreeNode, edge_budget_trace, leaf_edge_budget

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
    """Deterministic JSON text: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def tree_to_dict(tree: CutTree) -> dict:
    nodes = []
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        nodes.append({
            "id": int(node.id),
            "depth": int(node.depth),
            "members": [int(m) for m in node.members],
            "children": [int(c) for c in node.children],
            "lambda2_at_split": (
                None if node.lambda2_at_split is None else float(node.lambda2_at_split)
            ),
            "is_leaf": node.is_leaf,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cut_tree",
        "objective": tree.objective.value,
        "root_id": int(tree.root_id),
        "k_performed": int(tree.k_performed),
        "leaf_ids": [int(i) for i in tree.leaf_ids],
        "asset_ids": list(tree.asset_ids),
        "nodes": nodes,
        "leaf_edge_budget": int(leaf_edge_budget(tree)),
        "edge_budget_trace": [int(b) for b in edge_budget_trace(tree)],
    }


def tree_from_dict(payload: dict) -> CutTree:
    """Rebuild a CutTree from its JSON document."""
    if not isinstance(payload, dict) or payload.get("kind") != "cut_tree":
        raise InvalidInputError("not a cut_tree document")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise InvalidInputError(
            f"unsupported schema_version {payload.get('schema_version')!r}"
        )
    try:
        objective = CutObjective(payload["objective"])
        nodes: Dict[int, CutTreeNode] = {}
        for entry in payload["nodes"]:
            node = CutTreeNode(
                id=int(entry["id"]),
                members=tuple(int(m) for m in entry["members"]),
                depth=int(entry["depth"]),
                lambda2_at_split=(
                    None if entry["lambda2_at_split"] is None
                    else float(entry["lambda2_at_split"])
                ),
                children=tuple(int(c) for c in entry["children"]),
            )
            nodes[node.id] = node
        tree = CutTree(
            nodes=nodes,
            root_id=int(payload["root_id"]),
            k_performed=int(payload["k_performed"]),
            objective=objective,
            leaf_ids=[int(i) for i in payload["leaf_ids"]],
            asset_ids=tuple(str(a) for a in payload["asset_ids"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed cut_tree document: {exc}") from exc
    _validate_tree(tree)
    return tree


def _validate_tree(tree: CutTree) -> None:
    if tree.root_id not in tree.nodes:
        raise InvalidInputError("root node missing from document")
    root_members = set(tree.nodes[tree.root_id].members)
    leaf_members: List[int] = []
    for leaf_id in tree.leaf_ids:
        node = tree.nodes.get(leaf_id)
        if node is None or not node.is_leaf:
            raise InvalidInputError(f"leaf id {leaf_id} is not a leaf of the document")
        leaf_members.extend(node.members)
    if len(leaf_members) != len(root_members) or set(leaf_members) != root_members:
        raise InvalidInputError("leaves do not partition the root members")
    if len(tree.leaf_ids) != tree.k_performed + 1:
        raise InvalidInputError("leaf count does not match k_performed + 1")
    if root_members != set(range(len(tree.asset_ids))):
        raise InvalidInputError(
            f"root members are not exactly 0..{len(tree.asset_ids) - 1} "
            f"for {len(tree.asset_ids)} asset_ids"
        )


def weights_to_dict(asset_ids: Sequence[str], weights: WeightVector,
                    cluster_shares: Dict[int, float] | None = None) -> dict:
    if len(asset_ids) != weights.n_assets:
        raise InvalidInputError(
            f"{len(asset_ids)} asset ids for {weights.n_assets} weights"
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "weights",
        "scheme": weights.scheme_tag,
        "weights": [
            {"asset_id": str(a), "weight": float(w)}
            for a, w in zip(asset_ids, weights.weights)
        ],
    }
    if cluster_shares is not None:
        payload["cluster_weights"] = {
            str(leaf_id): float(share) for leaf_id, share in cluster_shares.items()
        }
    return payload


def weights_to_csv(asset_ids: Sequence[str], weights: WeightVector) -> str:
    if len(asset_ids) != weights.n_assets:
        raise InvalidInputError(
            f"{len(asset_ids)} asset ids for {weights.n_assets} weights"
        )
    lines = ["asset_id,weight"]
    lines += [f"{a},{float(w)!r}" for a, w in zip(asset_ids, weights.weights)]
    return "\n".join(lines) + "\n"


def report_to_dict(report: BacktestReport, manifest: dict | None = None) -> dict:
    strategies = {}
    for res in report.results:
        if res.ok:
            strategies[res.label] = {
                "status": "ok",
                "weights": [float(w) for w in res.weights.weights],
                "scheme": res.weights.scheme_tag,
                "wealth_curve": [float(v) for v in res.wealth_curve],
                "mean_return": res.mean_return,
                "std_return": res.std_return,
                "sharpe": res.sharpe,
                "sharpe_degenerate": res.sharpe_degenerate,
                "metadata": _jsonable(res.metadata),
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
        "manifest": _jsonable(manifest or {}),
        "split_index": int(report.split_index),
        "annualization_factor": float(report.annualization_factor),
        "asset_ids": list(report.asset_ids),
        "out_sample_dates": list(report.out_sample_dates),
        "strategies": strategies,
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return float(value)


def wealth_to_csv(report: BacktestReport) -> str:
    """One row per out-sample date, one column per successful strategy."""
    ok = [res for res in report.results if res.ok]
    if not ok:
        raise InvalidInputError("no successful strategies to emit")
    header = ["date"] + [res.label for res in ok]
    lines = [",".join(header)]
    for i, stamp in enumerate(report.out_sample_dates):
        row = [stamp] + [repr(float(res.wealth_curve[i])) for res in ok]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
               "#17becf", "#7f7f7f"]


def wealth_to_svg(report: BacktestReport, width: int = 720, height: int = 420) -> str:
    """Minimal static line chart of the wealth curves."""
    ok = [res for res in report.results if res.ok]
    if not ok:
        raise InvalidInputError("no successful strategies to plot")
    margin = 50.0
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

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin - 6:.1f}" y="{y_at(hi):.1f}" text-anchor="end" '
        f'font-size="11">{hi:.3f}</text>',
        f'<text x="{margin - 6:.1f}" y="{y_at(lo):.1f}" text-anchor="end" '
        f'font-size="11">{lo:.3f}</text>',
        f'<text x="{margin:.1f}" y="{height - margin + 16:.1f}" '
        f'font-size="11">{report.out_sample_dates[0]}</text>',
        f'<text x="{width - margin:.1f}" y="{height - margin + 16:.1f}" '
        f'text-anchor="end" font-size="11">{report.out_sample_dates[-1]}</text>',
    ]
    for k, res in enumerate(ok):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        points = " ".join(
            f"{x_at(i):.2f},{y_at(float(v)):.2f}"
            for i, v in enumerate(res.wealth_curve)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4:.1f}" y="{margin + 14 * k + 10:.1f}" '
            f'font-size="11" fill="{color}">{res.label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
