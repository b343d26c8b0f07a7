"""Every demo script runs to the end.

Each demo is copied into a temp folder first, so demo 04 writes its wealth
curves there and not into ``demos/``. It runs inside ``np.printoptions()``,
so a demo's ``set_printoptions`` does not reach other tests.
"""

import runpy
import shutil
from pathlib import Path

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def test_every_demo_is_collected():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path, capsys):
    script = shutil.copy(demo, tmp_path)
    before = np.get_printoptions()
    with np.printoptions():
        runpy.run_path(script, run_name="__main__")
    assert np.get_printoptions() == before
    assert capsys.readouterr().out
    if demo.name.startswith("04"):
        assert {path.name for path in tmp_path.iterdir()} == {
            demo.name, "wealth_curves.csv", "wealth_curves.svg"}
