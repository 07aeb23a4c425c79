"""Smoke test of the demos: each runs to completion as a script.

Demos 01-05 take about 6 s together. 06_refinement_orders.py is left out:
it takes about 9 s on its own, and the refinement study it runs is covered
by tests/test_studies.py and tests/test_acceptance.py.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ["01_mesh_and_assembly.py", "02_wiener_paths.py",
         "03_rotation_field.py", "04_single_trajectory.py",
         "05_monte_carlo.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["SLLGFEM_WORKERS"] = "1"
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
