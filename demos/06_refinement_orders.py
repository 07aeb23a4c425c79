"""
Observed convergence orders under common random numbers
=======================================================

A three-level refinement study with k proportional to h: each seed's
Brownian path is drawn once at the finest resolution and coarsened for
the coarser levels, so the level-to-level differences isolate the
discretization error. The report tabulates per-level means of the
interpolant error functionals and the weak-form residual, plus log2
ratios of consecutive levels as observed orders.

This desk-scale ladder (8 -> 32 divisions, 2 seeds) finishes in a few
seconds; the acceptance-grade study in the test suite uses five seeds
and a finer time grid.
"""

import os
import textwrap

from sllgfem import load_config, run_study

os.makedirs("demo_out", exist_ok=True)
with open("demo_out/refine.ini", "w") as fh:
    fh.write(textwrap.dedent("""\
        [mesh]
        divisions = 32

        [scheme]
        theta = 1.0
        T = 0.25
        J = 100

        [noise]
        preset = linear-gradient

        [initial]
        preset = spiral
        tilt = 0.3

        [run]
        mode = refinement
        levels = 3
        samples = 2
        seed = 7
        out = demo_out/refine
        """))

config = load_config("demo_out/refine.ini")
report = run_study(config)

quantities = ("m_gap_l2", "unit_defect_l2", "weak_residual_mean_abs")
print(f"{'level':>5s} {'h':>9s} {'k':>9s} "
      + " ".join(f"{q:>24s}" for q in quantities))
for lvl in range(3):
    row = next(r for r in report.rows
               if r["kind"] == "run" and r["level"] == lvl)
    means = [report.values(f"mean:{q}", kind="aggregate", level=lvl)[0]
             for q in quantities]
    print(f"{lvl:5d} {row['h']:9.4f} {row['k']:9.4f} "
          + " ".join(f"{m:24.6e}" for m in means))

print()
print("observed orders (log2 of consecutive level-mean ratios):")
for lvl in range(2):
    orders = [report.values(f"order:{q}", kind="order", level=lvl)[0]
              for q in quantities]
    print(f"  levels {lvl}->{lvl + 1}: "
          + " ".join(f"{q} {o:+.3f}" for q, o in zip(quantities, orders)))
