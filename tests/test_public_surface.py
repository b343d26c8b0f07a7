"""The package surface: exported names resolve, the README quickstart runs and
the README's command lines parse."""

import re
import shlex
from pathlib import Path

import portcut
from portcut.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(portcut.__all__) == len(set(portcut.__all__))
    missing = [name for name in portcut.__all__ if not hasattr(portcut, name)]
    assert missing == []


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, "<README.md python block>", "exec"), {})
    # The quickstart ends by printing the cut strategy's Sharpe ratio.
    float(capsys.readouterr().out.split()[-1])


def test_readme_commands_parse():
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv[1:] for argv in commands if argv[:1] == ["portcut"]]
    assert commands, "README has no portcut command"
    for argv in commands:
        build_parser().parse_args(argv)
