#!/usr/bin/env python3
"""Mutation analysis of one portcut module against chosen test files.

    python3 tools/mutate.py src/portcut/cli.py tests/test_cli.py tests/test_cli_contract.py

Two families of mutants, one site each:

- raise deletion: one ``raise`` statement becomes ``pass``;
- operator swap: one comparison operator is swapped (``<``/``<=``, ``>``/``>=``,
  ``==``/``!=``, ``in``/``not in``), or every ``and``/``or`` of one boolean
  expression is swapped.

Each mutant is spliced into the module's text, so line numbers and comments
stay as they are, and written to a copy of ``src/``. The test files then run
with ``-x`` and ``-o pythonpath=<copy>``: the ini file's ``pythonpath = ["src"]``
comes before ``PYTHONPATH``, so without the override every mutant would load
the unmutated package and survive. A mutant is killed when the tests fail or
run past ``TIMEOUT_S``. The unmutated copy must pass first. Standard library
only; each mutant costs one pytest run, so this is a tool, not part of the
test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# A mutant can loop forever (a `<` turned `<=` in a loop bound); its run then counts as killed.
TIMEOUT_S = 600.0

# Operator class -> (pattern of its token in the gap between operands, swapped token).
COMPARE_SWAPS = {
    ast.Lt: (rb"<(?!=)", b"<="), ast.LtE: (rb"<=", b"<"),
    ast.Gt: (rb">(?!=)", b">="), ast.GtE: (rb">=", b">"),
    ast.Eq: (rb"==", b"!="), ast.NotEq: (rb"!=", b"=="),
    ast.In: (rb"(?<!not)\s\bin\b", b" not in"), ast.NotIn: (rb"\bnot\s+in\b", b"in"),
}
BOOL_SWAPS = {ast.And: (rb"\band\b", b"or"), ast.Or: (rb"\bor\b", b"and")}


def mutation_sites(source: bytes):
    """Yield ``(line, label, edits)``; an edit is ``(start, end, replacement)`` in bytes."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def start(node):
        return starts[node.lineno - 1] + node.col_offset

    def end(node):
        return starts[node.end_lineno - 1] + node.end_col_offset

    def swap_in_gap(left, right, pattern, replacement):
        gap = source[end(left):start(right)]
        match = re.search(pattern, gap)
        if match is None:
            raise ValueError(f"no {pattern!r} between operands at line {left.lineno}")
        return end(left) + match.start(), end(left) + match.end(), replacement

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            yield node.lineno, "raise -> pass", [(start(node), end(node), b"pass")]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in COMPARE_SWAPS:
                    pattern, replacement = COMPARE_SWAPS[type(op)]
                    edit = swap_in_gap(operands[i], operands[i + 1], pattern, replacement)
                    token = source[edit[0]:edit[1]].decode().strip()
                    yield node.lineno, f"{token} -> {replacement.decode().strip()}", [edit]
        elif isinstance(node, ast.BoolOp):
            pattern, replacement = BOOL_SWAPS[type(node.op)]
            edits = [swap_in_gap(left, right, pattern, replacement)
                     for left, right in zip(node.values, node.values[1:])]
            yield node.lineno, f"{type(node.op).__name__.lower()} -> {replacement.decode()}", edits


def apply(source: bytes, edits) -> bytes:
    for begin, finish, replacement in sorted(edits, reverse=True):
        source = source[:begin] + replacement + source[finish:]
    return source


def tests_pass(copy: str, tests) -> bool:
    # A mutant may write where the original does not (say, a file named "-"), so the
    # tests run from the temporary directory, never from the repository.
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--rootdir", ROOT, "-c", os.path.join(ROOT, "pyproject.toml"),
               "-o", f"pythonpath={copy}", *tests]
    env = dict(os.environ, PYTHONPATH=copy, PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(command, cwd=os.path.dirname(copy), env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a file under src/, e.g. src/portcut/cli.py")
    parser.add_argument("tests", nargs="+", help="test files or node ids to run")
    args = parser.parse_args()
    tests = [os.path.abspath(test) for test in args.tests]
    relative = os.path.relpath(os.path.abspath(args.module), SRC)
    if relative.startswith(os.pardir):
        parser.error(f"{args.module} is not under {SRC}")
    with open(args.module, "rb") as handle:
        source = handle.read()
    sites = sorted(mutation_sites(source), key=lambda site: site[0])
    with tempfile.TemporaryDirectory(prefix="portcut-mutants-") as workdir:
        copy = os.path.join(workdir, "src")
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = os.path.join(copy, relative)
        if not tests_pass(copy, tests):
            print("the tests fail on the unmutated copy; nothing to measure", file=sys.stderr)
            return 1
        survivors = []
        for line, label, edits in sites:
            with open(target, "wb") as handle:
                handle.write(apply(source, edits))
            killed = not tests_pass(copy, tests)
            print(f"{relative}:{line} {label}: {'killed' if killed else 'SURVIVED'}", flush=True)
            if not killed:
                survivors.append(f"{relative}:{line} {label}")
    print(f"killed {len(sites) - len(survivors)}/{len(sites)}")
    for survivor in survivors:
        print(f"survivor: {survivor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
