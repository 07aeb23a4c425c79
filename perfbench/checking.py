"""Correctness check of one study's ``report.csv``.

A bitwise comparison with a pinned report would reject legitimate changes
to the order of floating-point operations (a different linear solver moves
the round-off monitors by tens of percent at about 1e-15 absolute). So the
check splits the report quantities in three groups:

- round-off monitors are held to the program's own invariant thresholds
  (``studies.INVARIANT_TOLS``) and the scheme's solver tolerance;
- ``solver_iters_max`` is skipped, because another solver path changes it
  by design;
- every other value (energies, interpolant errors, weak residuals, orders,
  aggregates and the h, k, theta columns) must match the pinned report
  within ``|value - pinned| <= RTOL * |pinned| + ATOL``.

Without a pinned report (a seed other than the default) only the first
group and the program's own invariant suite are checked. Rows are matched
by their key, so the order of rows does not matter.
"""

from __future__ import annotations

import csv
import io
import math

RTOL = 1e-6
# Floor for pinned values that are zero or round-off sized (offdiag_worst,
# near-cancelling weak residuals).
ATOL = 1e-12

SKIPPED = frozenset({"solver_iters_max"})
# Round-off monitor -> key of its threshold in studies.INVARIANT_TOLS, or
# None for the scheme's solver tolerance. m0_drift is the normalization
# drift of the interpolated initial field, a unit-norm deviation.
MONITORS = {
    "max_unit_dev": "max_unit_dev",
    "max_tangency": "max_tangency",
    "max_orth_defect": "max_orth_defect",
    "m0_drift": "max_unit_dev",
    "residual_max": None,
}
_COMPARED_COLUMNS = ("h", "k", "theta", "value")


def parse_report(text):
    """Rows of a report CSV keyed by (kind, mode, level, seed, quantity)."""
    rows = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (row["kind"], row["mode"], int(row["level"]), int(row["seed"]),
               row["quantity"])
        rows[key] = {c: float(row[c]) for c in _COMPARED_COLUMNS}
    return rows


def _trajectory(key):
    """(level, stream) of a per-trajectory row; None for study-wide rows."""
    kind, _mode, level, seed, _quantity = key
    return (level, seed) if kind == "run" else None


def check_report(text, invariant_tols, solver_tol, reference=None):
    """Problems found in one report, as a list of (trajectory, message).

    `trajectory` is the (level, stream) the problem belongs to, or None
    when it concerns the whole study. `reference` is the pinned report
    text, or None to check the invariants only.
    """
    rows = parse_report(text)
    problems = []
    for key, cols in rows.items():
        quantity = key[-1]
        if quantity in SKIPPED:
            continue
        if not all(math.isfinite(v) for v in cols.values()):
            problems.append((_trajectory(key), f"{key}: non-finite value"))
            continue
        if quantity in MONITORS:
            tol_key = MONITORS[quantity]
            tol = solver_tol if tol_key is None else invariant_tols[tol_key]
            if abs(cols["value"]) > tol:
                problems.append((_trajectory(key),
                                 f"{key}: {cols['value']:.3e} exceeds "
                                 f"{tol:.1e}"))
    if reference is None:
        return problems

    for key, pinned in parse_report(reference).items():
        quantity = key[-1]
        if quantity in SKIPPED or quantity in MONITORS:
            continue
        got = rows.get(key)
        if got is None:
            problems.append((_trajectory(key), f"{key}: missing"))
            continue
        for column, want in pinned.items():
            value = got[column]
            if not abs(value - want) <= RTOL * abs(want) + ATOL:
                problems.append((_trajectory(key),
                                 f"{key} {column}: {value!r} differs from "
                                 f"pinned {want!r}"))
    return problems


def failed_trajectories(problems, attempted):
    """Count of trajectories hit by `problems`; a study-wide problem fails
    all `attempted` trajectories."""
    hit = {traj for traj, _ in problems}
    return attempted if None in hit else min(len(hit), attempted)
