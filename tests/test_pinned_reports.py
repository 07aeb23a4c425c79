"""Every benchmark workload reproduces its pinned report.

The workload configs, the pinned reports (seed 7) and the report check are
the benchmark's own, under perfbench/; this test only reads them. Each study
runs sequentially in-process.
"""

import importlib.util
from pathlib import Path

import pytest

from sllgfem import load_config, studies

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checking = _perfbench_module("checking")
workloads = _perfbench_module("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reproduces_pinned_report(tmp_path, monkeypatch, name):
    monkeypatch.setenv(studies.WORKERS_ENV, "1")
    ini = tmp_path / f"{name}.ini"
    ini.write_text(workloads.config_text(name, workloads.DEFAULT_SEED))
    config = load_config(str(ini), {"run.out": str(tmp_path / "out")})
    report = studies.run_study(config)
    assert not report.invariant_failures
    text = (tmp_path / "out" / "report.csv").read_text()
    pinned = (PERFBENCH / "reference" / f"{name}.csv").read_text()
    problems = checking.check_report(text, studies.INVARIANT_TOLS,
                                     config.params.solver_tol, pinned)
    assert problems == []
