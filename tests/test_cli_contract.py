"""The CLI contract on drawn price files and options, and on mutated tree
documents: exit code 0, 1 or 2; on 2, one JSON line on stderr naming a
PortfolioCutError and no output file; on 0, only drop notices on stderr and
outputs that parse."""

import contextlib
import copy
import csv
import io
import json
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import portcut.errors
from portcut.backtest import STRATEGIES
from portcut.cli import main
from portcut.serialization import tree_to_dict
from portcut.spectral import CutObjective
from portcut.tree import CutTree

# Cells that are missing, out of range, not numbers, or at the float limits.
ODD_CELLS = ["", "na", "inf", "1e400", "-1", "0", "5e-324", "1e300", "1e-300", "1_0", '1"0']
ERROR_KINDS = {name for name, value in vars(portcut.errors).items()
               if isinstance(value, type) and issubclass(value, portcut.errors.PortfolioCutError)}


@st.composite
def price_files(draw):
    """CSV text and its dates: moving, constant or duplicated columns with odd cells."""
    n_rows = draw(st.integers(2, 12)) if draw(st.booleans()) else draw(st.integers(6, 12))
    price = st.floats(1.0, 200.0).map(repr)
    # Half the files hold only prices, so that runs also get past ingest.
    cell = st.one_of(*[price] * 7, st.sampled_from(ODD_CELLS)) if draw(st.booleans()) else price
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(
            ["moving", "moving", "moving", "constant", "duplicate"][:4 + bool(columns)]))
        if kind == "moving":
            columns.append(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
        elif kind == "constant":
            columns.append([draw(cell)] * n_rows)
        else:
            columns.append(list(draw(st.sampled_from(columns))))
    dates = [f"2020-01-{r + 1:02d}" for r in range(n_rows)]
    lines = ["date," + ",".join(f"a{j}" for j in range(len(columns)))]
    lines += [",".join([date] + [column[r] for column in columns])
              for r, date in enumerate(dates)]
    return "\n".join(lines) + "\n", dates


@st.composite
def commands(draw, dates):
    """argv for `cut` or `backtest` without the input path and outputs."""
    options = ["--missing-policy", draw(st.sampled_from(["error", "drop-rows", "drop-assets"])),
               "--max-cuts", str(draw(st.integers(0, 3))),
               "--min-leaf-size", str(draw(st.integers(1, 2))),
               "--leaf-selection", draw(st.sampled_from(["vertices", "volume"]))]
    if draw(st.booleans()):
        options.append("--drop-degenerate")
    if draw(st.booleans()):
        options += ["--lambda2-threshold", draw(st.sampled_from(["0.5", "1.5"]))]
    if draw(st.booleans()):
        return ["cut", "--objective", draw(st.sampled_from(["cutn", "cutv"]))] + options
    # Mostly a split that leaves both windows 2 rows, when the file has them.
    index = st.one_of(st.integers(2, max(2, len(dates) - 3)), st.integers(-1, len(dates)))
    split = (["--split-index", str(draw(index))] if draw(st.booleans())
             else ["--split-date", draw(st.sampled_from(dates[2:-2] or dates))])
    strategies = draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, unique=True))
    return ["backtest", *split, "--strategies", ",".join(strategies),
            "--mv-ridge", draw(st.sampled_from(["0", "1e-8"]))] + options


@st.composite
def runs(draw):
    text, dates = draw(price_files())
    return text, draw(commands(dates))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_exit_code_and_outputs(run):
    text, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "prices.csv").write_text(text)
        outputs = ["-o", str(tmp / "out.json")]
        if argv[0] == "backtest":
            outputs += ["--wealth-csv", str(tmp / "wealth.csv"), "--svg", str(tmp / "wealth.svg")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([argv[0], str(tmp / "prices.csv"), *argv[1:], *outputs])
        written = sorted(path.name for path in tmp.iterdir())
        assert stdout.getvalue() == ""
        assert code in (0, 1, 2)
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert json.loads(lines[0])["error"] in ERROR_KINDS
            assert written == ["prices.csv"]
        if code == 0:
            for line in stderr.getvalue().splitlines():
                assert line.startswith("dropped zero-variance asset(s): "), line
            assert json.loads((tmp / "out.json").read_text())["manifest"]["command"] == argv[0]
            if argv[0] == "backtest":
                rows = list(csv.reader(io.StringIO((tmp / "wealth.csv").read_text())))
                assert len({len(row) for row in rows}) == 1
                ET.parse(tmp / "wealth.svg")


def _tree_document() -> dict:
    """A valid two-cut tree document on assets a..f."""
    tree = CutTree.root(tuple("abcdef"), CutObjective.NORMALIZED)
    tree = tree.split(tree.root_id, [0, 1, 2], [3, 4, 5], 0.5)
    return tree_to_dict(tree.split(1, [0], [1, 2], 0.75))


def _paths(node, path=()):
    """The key path of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


TREE_DOCUMENT = _tree_document()
TREE_PATHS = list(_paths(TREE_DOCUMENT))
# Values swapped in: non-finite, out of range or wrongly typed.
ODD_VALUES = [float("inf"), 10 ** 400, float("nan"), -1, None, "0", []]


def _mutated(doc: dict, path: tuple, choice) -> dict:
    """``doc`` with the value at ``path`` dropped, nested in a list or replaced."""
    *parents, key = path
    parent = doc
    for step in parents:
        parent = parent[step]
    if choice == "drop":
        del parent[key]
    else:
        parent[key] = [parent[key]] if choice == "nest" else ODD_VALUES[choice]
    return doc


@st.composite
def mutated_tree_documents(draw):
    doc = copy.deepcopy(TREE_DOCUMENT)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(TREE_PATHS))
        choice = draw(st.sampled_from([*range(len(ODD_VALUES)), "drop", "nest"]))
        # An earlier mutation may have removed or replaced the path.
        with contextlib.suppress(KeyError, IndexError, TypeError):
            doc = _mutated(doc, path, choice)
    return doc


@settings(max_examples=100, deadline=None)
@given(mutated_tree_documents(), st.sampled_from(["as1", "as2"]), st.sampled_from(["json", "csv"]))
@example(_mutated(copy.deepcopy(TREE_DOCUMENT), ("nodes", 2, "members", 0), 0), "as1", "json")
def test_allocate_exit_code_and_output(doc, scheme, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "tree.json").write_text(json.dumps(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["allocate", "--tree", str(tmp / "tree.json"), "--scheme", scheme,
                         "--format", fmt, "-o", str(tmp / "out")])
        written = sorted(path.name for path in tmp.iterdir())
        assert stdout.getvalue() == ""
        assert code in (0, 2)
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert json.loads(lines[0])["error"] in ERROR_KINDS
            assert written == ["tree.json"]
        else:
            assert stderr.getvalue() == ""
            text = (tmp / "out").read_text()
            if fmt == "json":
                assert json.loads(text)["kind"] == "weights"
            else:
                assert len({len(row) for row in csv.reader(io.StringIO(text))}) == 1
