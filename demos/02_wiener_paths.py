"""
Reproducible Wiener paths and coarsening
========================================

The driver hands out counter-based streams: the same (seed, stream)
always yields the same increments, different streams are independent,
and coarsening a path by summing adjacent increments reproduces the
exact Brownian values on the coarse grid. That last property is what
refinement studies use to keep one realization across all levels.
"""

import numpy as np

from sllgfem import coarsen, sample_path

path = sample_path(seed=42, q=2, J=1000, T=1.0)
print(f"q = {path.q}, J = {path.J}, k = {path.k}")

W = np.vstack([np.zeros((1, path.q)), np.cumsum(path.increments, axis=0)])
print(f"W(T) = {W[-1]}")
print(f"increment std = {path.increments.std():.4f} "
      f"(sqrt(k) = {np.sqrt(path.k):.4f})")

# identical draw, independent stream
again = sample_path(seed=42, q=2, J=1000, T=1.0)
other = sample_path(seed=42, q=2, J=1000, T=1.0, stream=1)
print(f"same stream identical:   {np.array_equal(path.increments, again.increments)}")
print(f"other stream differs:    {not np.array_equal(path.increments, other.increments)}")

# 4x coarsening: the coarse path hits the same Brownian values
coarse = coarsen(path, 4)
W4 = np.vstack([np.zeros((1, path.q)), np.cumsum(coarse.increments, axis=0)])
gap = np.abs(W4 - W[::4]).max()
print(f"coarse grid values (J = {coarse.J}, k = {coarse.k}) match the "
      f"fine path to {gap:.2e}")
