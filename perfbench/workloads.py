"""The benchmark's workloads: one generated INI config each.

Every workload is a study handed to ``load_config`` and ``run_study``. The
seed given on the command line becomes ``run.seed``; nothing else depends
on it. Sizes are scaled so that one study takes a few seconds on a 2-core
machine while keeping its layer mix. Why each workload exists, and which
per-layer metric it should move, is in README.md and BENCHMARK.json.
"""

from __future__ import annotations

# Seed of the pinned reference reports under reference/.
DEFAULT_SEED = 7

WORKLOADS = {
    "refine-2d": {
        "workers": 1,
        "sections": {
            "mesh": {"dim": 2, "divisions": 32},
            "scheme": {"theta": 1.0, "T": 0.1, "J": 40},
            "noise": {"preset": "linear-gradient"},
            "initial": {"preset": "spiral", "tilt": 0.3},
            "run": {"mode": "refinement", "levels": 3, "samples": 1},
        },
    },
    "single-2d-96": {
        "workers": 1,
        "sections": {
            "mesh": {"dim": 2, "divisions": 96},
            "scheme": {"theta": 1.0, "T": 0.03, "J": 3},
            "noise": {"preset": "pair-noncommuting"},
            "initial": {"preset": "spiral"},
            "run": {"mode": "single", "snapshots": 2},
        },
    },
    "mc-3d-8": {
        "workers": 2,
        "sections": {
            "mesh": {"dim": 3, "divisions": 8},
            "scheme": {"theta": 0.7, "T": 0.04, "J": 8},
            "noise": {"preset": "linear-gradient"},
            "initial": {"preset": "spiral"},
            "run": {"mode": "monte-carlo", "samples": 4},
        },
    },
}


def config_text(name, seed):
    """The INI text of workload `name` with `run.seed = seed`."""
    sections = WORKLOADS[name]["sections"]
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        if section == "run":
            lines.append(f"seed = {int(seed)}")
        lines.append("")
    return "\n".join(lines)

