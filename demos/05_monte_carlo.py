"""
Monte Carlo over independent paths
==================================

Runs the same configuration over several independent Brownian streams
and reports sample means and standard errors of the headline energy
quantities. Setting the SLLGFEM_WORKERS environment variable runs the
streams in parallel processes; the aggregation is order-independent, so
the report is bit-identical either way.
"""

import os
import textwrap

from sllgfem import load_config, run_study

os.makedirs("demo_out", exist_ok=True)
with open("demo_out/mc.ini", "w") as fh:
    fh.write(textwrap.dedent("""\
        [mesh]
        divisions = 8

        [scheme]
        theta = 1.0
        T = 0.5
        J = 50

        [noise]
        preset = linear-gradient

        [initial]
        preset = spiral
        tilt = 0.3

        [run]
        mode = monte-carlo
        samples = 8
        seed = 12
        out = demo_out/mc
        """))

config = load_config("demo_out/mc.ini")
report = run_study(config)

print("per-stream final energies:")
for stream, value in enumerate(report.values("final_energy", kind="run")):
    print(f"  stream {stream}: {value:.6f}")

print()
for name in ("final_energy", "sup_energy", "v_time_sum"):
    mean = report.values(f"mean:{name}", kind="aggregate")[0]
    err = report.values(f"stderr:{name}", kind="aggregate")[0]
    print(f"{name:13s} = {mean:.6f} +- {err:.6f}")

print()
print(f"report rows: {len(report.rows)}, artifacts in demo_out/mc/")
print("rerun with SLLGFEM_WORKERS=4 and diff the reports: identical.")
