"""Output checks for the benchmark, computed independently of portcut.

Every eigenvalue here comes from ``numpy.linalg.eigh`` and every wealth
curve, objective value and weight from plain numpy on the generated inputs,
so a check passes for any output within the acceptance suite's tolerances,
whatever eigensolver or summation order the program uses. Each check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Same bound as the program's eigenpair check and acceptance criterion 5.
LAMBDA2_REL_TOL = 1e-8
WEIGHT_SUM_TOL = 1e-9
WEIGHT_TOL = 1e-12
VALUE_RTOL = 1e-9
ORDER_RTOL = 1e-12
SIGN_TIE_TOL = 1e-12


def abs_corr_graph(returns: np.ndarray) -> np.ndarray:
    """|correlation| weights with a zero diagonal, as the paper defines them."""
    dev = returns - returns.mean(axis=0)
    sigma = dev.T @ dev / (returns.shape[0] - 1)
    scale = np.sqrt(np.diag(sigma))
    w = np.minimum(np.abs(sigma) / np.outer(scale, scale), 1.0)
    np.fill_diagonal(w, 0.0)
    return w


def fiedler(weights: np.ndarray, members: Sequence[int], objective: str):
    """(lambda2, Fiedler vector, max|L|) of the induced subgraph on ``members``.

    The vector follows the program's convention: unit norm in the
    objective's inner product, largest-magnitude entry positive.
    """
    idx = np.asarray(members, dtype=int)
    w = weights[np.ix_(idx, idx)]
    d = w.sum(axis=1)
    lap = np.diag(d) - w
    if objective == "cutn":
        evals, evecs = np.linalg.eigh(lap)
        u = evecs[:, 1]
    else:
        inv_sqrt_d = 1.0 / np.sqrt(d)
        evals, evecs = np.linalg.eigh(inv_sqrt_d[:, None] * lap * inv_sqrt_d[None, :])
        u = inv_sqrt_d * evecs[:, 1]
    k = int(np.argmax(np.abs(u)))
    if u[k] < 0.0:
        u = -u
    return float(evals[1]), u, float(np.max(np.abs(lap)))


def lambda2_problem(weights, members, objective, reported, where) -> Optional[str]:
    lam, _, lmax = fiedler(weights, members, objective)
    if reported is None or abs(reported - lam) > LAMBDA2_REL_TOL * lmax:
        return f"{where}: lambda2 {reported!r} differs from eigh's {lam!r}"
    return None


def scheme_weights(leaves, scheme: str, n: int) -> np.ndarray:
    """Per-asset weights from (members, depth) leaves under AS1 or AS2.

    AS1 gives a leaf 2**-depth, AS2 gives every leaf 1/(K+1); a leaf's share
    is split equally among its members.
    """
    w = np.zeros(n)
    for members, depth in leaves:
        share = 2.0 ** -depth if scheme == "as1" else 1.0 / len(leaves)
        w[list(members)] = share / len(members)
    return w


@dataclass
class RefTree:
    """Split order and leaves of a cut tree replayed with numpy's eigh."""

    leaves: List[Tuple[Tuple[int, ...], int]]   # (members, depth), dendrogram order
    splits: List[Tuple[float, float]]            # (lambda2, max|L| of the leaf cut)


def replay_tree(weights: np.ndarray, objective: str, max_cuts: int,
                min_leaf_size: int) -> RefTree:
    """Most-vertices repeated sign-split bisection without a lambda2 threshold.

    Used to recover leaf membership for backtest reports, which publish only
    weights and split lambda2 values. Planted-block inputs keep every Fiedler
    entry well away from zero, so the sign split is solver independent.
    """
    leaves = [(tuple(range(weights.shape[0])), 0)]
    rejected = set()
    splits = []
    while len(splits) < max_cuts:
        eligible = [leaf for leaf in leaves
                    if leaf[0] not in rejected and len(leaf[0]) >= 2 * min_leaf_size]
        if not eligible:
            break
        leaf = min(eligible, key=lambda lf: (-len(lf[0]), min(lf[0])))
        members, depth = leaf
        lam, u, lmax = fiedler(weights, members, objective)
        left = tuple(m for m, x in zip(members, u) if x >= -SIGN_TIE_TOL)
        right = tuple(m for m, x in zip(members, u) if x < -SIGN_TIE_TOL)
        if min(len(left), len(right)) < min_leaf_size:
            rejected.add(members)
            continue
        pos = leaves.index(leaf)
        leaves[pos:pos + 1] = [(left, depth + 1), (right, depth + 1)]
        splits.append((lam, lmax))
    return RefTree(leaves=leaves, splits=splits)


@dataclass
class BacktestReference:
    """What a correct backtest report must contain, from the generated inputs."""

    prices: np.ndarray          # rows kept after ingest drops
    split_index: int
    labels: Tuple[str, ...]
    dropped_rows: int
    max_cuts: int
    min_leaf_size: int
    annualization: float = 252.0

    def __post_init__(self):
        rets = np.diff(self.prices, axis=0) / self.prices[:-1]
        self.in_returns = rets[:self.split_index]
        self.out_returns = rets[self.split_index:]
        self.graph = abs_corr_graph(self.in_returns)
        dev = self.in_returns - self.in_returns.mean(axis=0)
        self.sigma = dev.T @ dev / (self.in_returns.shape[0] - 1)
        self.trees: Dict[str, RefTree] = {}

    def tree(self, objective: str) -> RefTree:
        if objective not in self.trees:
            self.trees[objective] = replay_tree(self.graph, objective,
                                                self.max_cuts, self.min_leaf_size)
        return self.trees[objective]


def check_backtest(outputs: Dict[str, bytes], ref: BacktestReference) -> List[str]:
    """Check report JSON, wealth CSV and SVG of one ``portcut backtest`` run."""
    if outputs.get("exit") != b"0":
        return [f"exit code {outputs.get('exit')!r}"]
    try:
        report = json.loads(outputs["report.json"])
        wealth_rows = list(csv.reader(io.StringIO(outputs["wealth.csv"].decode())))
        svg = ET.fromstring(outputs["wealth.svg"])
    except (KeyError, ValueError, ET.ParseError) as exc:
        return [f"output does not parse: {exc}"]

    problems = []
    strategies = report.get("strategies", {})
    if tuple(sorted(strategies)) != tuple(sorted(ref.labels)):
        return [f"strategies {sorted(strategies)} != {sorted(ref.labels)}"]
    if report.get("split_index") != ref.split_index:
        problems.append(f"split_index {report.get('split_index')} != {ref.split_index}")
    if report.get("manifest", {}).get("dropped_rows") != ref.dropped_rows:
        problems.append("manifest dropped_rows does not match the blanked rows")
    n = ref.prices.shape[1]
    for label in ref.labels:
        entry = strategies[label]
        if entry.get("status") != "ok":
            problems.append(f"{label}: status {entry.get('status')!r}")
            continue
        problems += _check_strategy(label, entry, ref, n)

    header = wealth_rows[0][1:] if wealth_rows else []
    if header != list(ref.labels):
        problems.append(f"wealth CSV columns {header} != {list(ref.labels)}")
    elif len(wealth_rows) - 1 != ref.out_returns.shape[0] + 1:
        problems.append("wealth CSV row count does not match the out-sample window")
    else:
        for j, label in enumerate(header, start=1):
            column = [float(row[j]) for row in wealth_rows[1:]]
            if column != strategies[label]["wealth_curve"]:
                problems.append(f"{label}: wealth CSV differs from the report")
    polylines = [el for el in svg.iter() if el.tag.endswith("polyline")]
    if len(polylines) != len(ref.labels):
        problems.append(f"SVG has {len(polylines)} curves for {len(ref.labels)} strategies")
    return problems


def _check_strategy(label: str, entry: dict, ref: BacktestReference, n: int) -> List[str]:
    problems = []
    w = np.asarray(entry["weights"], dtype=float)
    if w.shape != (n,) or abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
        return [f"{label}: weights do not form {n} entries summing to 1"]
    if label == "ew":
        if np.max(np.abs(w - 1.0 / n)) > WEIGHT_TOL:
            problems.append("ew: weights are not 1/N")
    elif label == "mv":
        # Minimum variance: Sigma w is proportional to the ones vector.
        g = ref.sigma @ w
        if np.max(np.abs(g - g.mean())) > 1e-8 * np.max(np.abs(g)):
            problems.append("mv: Sigma w is not constant across assets")
    else:
        objective, scheme = label.split("-")
        tree = ref.tree(objective)
        meta = entry.get("metadata", {})
        if meta.get("leaf_sizes") != [len(m) for m, _ in tree.leaves]:
            problems.append(f"{label}: leaves do not partition the assets as replayed")
        elif np.max(np.abs(w - scheme_weights(tree.leaves, scheme, n))) > WEIGHT_TOL:
            problems.append(f"{label}: weights differ from {scheme} on the replayed leaves")
        reported = meta.get("lambda2_trace", [])
        if len(reported) != len(tree.splits):
            problems.append(f"{label}: {len(reported)} splits, replay made {len(tree.splits)}")
        else:
            for i, (got, (want, lmax)) in enumerate(zip(reported, tree.splits)):
                if got is None or abs(got - want) > LAMBDA2_REL_TOL * lmax:
                    problems.append(f"{label}: split {i} lambda2 {got!r} != eigh {want!r}")

    port = ref.out_returns @ w
    wealth = np.concatenate([[1.0], np.cumprod(1.0 + port)])
    got = np.asarray(entry["wealth_curve"], dtype=float)
    if got.shape != wealth.shape or not np.allclose(got, wealth, rtol=VALUE_RTOL, atol=0.0):
        problems.append(f"{label}: wealth curve differs from weights x out-sample returns")
    sharpe = np.sqrt(ref.annualization) * port.mean() / port.std(ddof=1)
    if entry.get("sharpe") is None or not np.isclose(entry["sharpe"], sharpe,
                                                     rtol=VALUE_RTOL, atol=0.0):
        problems.append(f"{label}: Sharpe {entry.get('sharpe')!r} != {sharpe!r}")
    return problems


def check_trees(doc: dict, weights: np.ndarray) -> List[str]:
    """Check the cut trees and weights that the cut-deep workload encodes."""
    problems = []
    n = weights.shape[0]
    for tree in doc["trees"]:
        tag = f"{tree['objective']}/{tree['policy']}"
        nodes = {node["id"]: node for node in tree["nodes"]}
        leaves = [nodes[i] for i in tree["leaf_ids"]]
        members = sorted(m for leaf in leaves for m in leaf["members"])
        if members != list(range(n)):
            problems.append(f"{tag}: leaves do not partition the assets")
            continue
        if len(leaves) != tree["k_performed"] + 1:
            problems.append(f"{tag}: {len(leaves)} leaves after {tree['k_performed']} cuts")
        threshold = tree["lambda2_threshold"]
        for node in nodes.values():
            if not node["children"]:
                continue
            kids = [nodes[c] for c in node["children"]]
            if sorted(m for kid in kids for m in kid["members"]) != sorted(node["members"]):
                problems.append(f"{tag}: children of node {node['id']} do not partition it")
            if min(len(kid["members"]) for kid in kids) < tree["min_leaf_size"]:
                problems.append(f"{tag}: node {node['id']} has a child below min_leaf_size")
            lam = node["lambda2_at_split"]
            if threshold is not None and lam is not None and lam > threshold:
                problems.append(f"{tag}: node {node['id']} split above the threshold")
            problem = lambda2_problem(weights, node["members"], tree["objective"], lam,
                                      f"{tag} node {node['id']}")
            if problem:
                problems.append(problem)
        for scheme, got in tree["weights"].items():
            want = scheme_weights([(leaf["members"], leaf["depth"]) for leaf in leaves],
                                  scheme, n)
            got = np.asarray(got, dtype=float)
            if abs(float(got.sum()) - 1.0) > WEIGHT_SUM_TOL:
                problems.append(f"{tag} {scheme}: weights sum to {float(got.sum())!r}")
            elif np.max(np.abs(got - want)) > WEIGHT_TOL:
                problems.append(f"{tag} {scheme}: weights differ from the leaves' shares")
    return problems


def enumerate_min_cut(weights: np.ndarray, objective: str) -> float:
    """Exact minimum of the cut objective over all bipartitions, vectorised."""
    n = weights.shape[0]
    masks = np.arange(1, 2 ** (n - 1), dtype=np.int64)
    side2 = np.zeros((masks.size, n))
    side2[:, 1:] = (masks[:, None] >> np.arange(n - 1)) & 1
    side1 = 1.0 - side2
    cut = np.einsum("ij,ij->i", side2 @ weights, side1)
    if objective == "cutn":
        size1 = side1.sum(axis=1)
        return float(np.min(cut * (1.0 / size1 + 1.0 / (n - size1))))
    d = weights.sum(axis=1)
    v1 = side1 @ d
    v2 = side2 @ d
    ok = (v1 > 0) & (v2 > 0)
    return float(np.min(cut[ok] * (1.0 / v1[ok] + 1.0 / v2[ok])))


def objective_of(weights: np.ndarray, side_of: Sequence[int], objective: str) -> float:
    side = np.asarray(side_of)
    m1 = side == 1
    cut = float(weights[np.ix_(m1, ~m1)].sum())
    if objective == "cutn":
        return cut * (1.0 / m1.sum() + 1.0 / (~m1).sum())
    d = weights.sum(axis=1)
    return cut * (1.0 / d[m1].sum() + 1.0 / d[~m1].sum())


def check_oracle(doc: dict, weights: np.ndarray, exact_min: Dict[str, float]) -> List[str]:
    """Check brute-force and spectral cuts of the oracle workload."""
    problems = []
    n = weights.shape[0]
    for objective, result in doc.items():
        oracle, spectral = result["oracle"], result["spectral"]
        for tag, part in (("oracle", oracle), ("spectral", spectral)):
            side = part["side_of"]
            if len(side) != n or set(side) != {1, 2}:
                problems.append(f"{objective} {tag}: not a bipartition")
                continue
            value = objective_of(weights, side, objective)
            if not np.isclose(part["objective_value"], value, rtol=VALUE_RTOL, atol=0.0):
                problems.append(f"{objective} {tag}: objective {part['objective_value']!r} "
                                f"!= {value!r} for its sides")
        # The same cut summed over swapped sides can differ in the last digits.
        if oracle["objective_value"] > spectral["objective_value"] * (1.0 + ORDER_RTOL):
            problems.append(f"{objective}: oracle objective exceeds the spectral one")
        if not np.isclose(oracle["objective_value"], exact_min[objective],
                          rtol=VALUE_RTOL, atol=0.0):
            problems.append(f"{objective}: oracle {oracle['objective_value']!r} is not the "
                            f"enumerated minimum {exact_min[objective]!r}")
        problem = lambda2_problem(weights, range(n), objective, spectral["lambda2"],
                                  f"{objective} spectral")
        if problem:
            problems.append(problem)
    return problems
