"""
One stochastic trajectory, step by step
=======================================

Runs the linear theta-scheme on a 16x16 mesh under a spatially varying
noise component and prints the per-step diagnostics the library
tracks: exchange energy, update size, the stochastic load correction
(nonzero only because the coefficient field varies in space), and the
constraint defects. The final state is written as a
legacy VTK snapshot (both the rotated frame m and the physical field
M = Z m) into demo_out/.
"""

import os

import numpy as np

from sllgfem import (P1Space, SchemeParams, build_structured_mesh,
                     make_noise, run, sample_path, write_vtk)
from sllgfem.fem import interpolate_nodal
from sllgfem.reconstruct import reconstruct_M

space = P1Space(build_structured_mesh(2, 16))
coeffs = make_noise("linear-gradient", amplitude=1.0)
params = SchemeParams(lambda1=1.0, lambda2=1.0, theta=1.0, T=0.5, J=100)
path = sample_path(seed=1, q=coeffs.q, J=params.J, T=params.T)

# initial field: one winding of an in-plane spiral, slightly tilted
tilt = 0.2
m0 = interpolate_nodal(
    lambda x: np.stack([np.cos(tilt) * np.cos(2 * np.pi * x[:, 0]),
                        np.cos(tilt) * np.sin(2 * np.pi * x[:, 0]),
                        np.sin(tilt) + 0 * x[:, 0]], axis=1), space)

# an observer sees every step; this one keeps only the latest rotation field
latest = {}
traj = run(m0, params, path, coeffs, space,
           observers=[lambda step: latest.update(field=step.field_next)])

print(" step      energy     |v|^2_lumped     F value    unit dev   tangency")
for row in traj.diagnostics[::20]:
    print(f" {row['j']:4d}  {row['energy']:10.5f}  {row['v_norm_sq']:13.3e}"
          f"  {row['F_value']:+11.4f}  {row['unit_dev_max']:9.2e}"
          f"  {row['tangency_max']:9.2e}")
print(f"final  {traj.energy[-1]:10.5f}")
print()
print(f"energy sup over the run : {traj.energy.max():.5f}")
print(f"initial-data drift fixed: {traj.m0_drift:.2e}")

os.makedirs("demo_out", exist_ok=True)
write_vtk("demo_out/final_state.vtk", space.mesh, traj.m,
          reconstruct_M(traj.m, latest["field"]),
          comment="final state of the single-trajectory demo")
print("wrote demo_out/final_state.vtk")
