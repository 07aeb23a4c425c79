"""Seeded q-dimensional Wiener increments on a uniform time grid.

Streams come from the counter-based Philox generator keyed by
(seed, stream): stream 0 is the default path, Monte Carlo sample s uses
stream s, so distinct samples are independent without coordination and any
sample can be regenerated in isolation. Within a stream the J*q standard
normals are drawn step-major, component-minor.

Refinement studies generate the finest path once and sum consecutive
increments (never re-draw), so coarse and fine levels share the same
Brownian path exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WienerPath:
    """Increments dW[j, i] ~ Normal(0, k) of step k, for steps j < J and
    components i < q; J and q are read off the (J, q) increments."""

    k: float
    increments: np.ndarray

    def __post_init__(self):
        if self.increments.ndim != 2:
            raise ValueError(f"increments must be (J, q), got shape "
                             f"{self.increments.shape}")
        if not np.isfinite(self.increments).all():
            raise ValueError("non-finite Wiener increment")
        self.increments.setflags(write=False)

    @property
    def J(self):
        return self.increments.shape[0]

    @property
    def q(self):
        return self.increments.shape[1]


def sample_path(seed, q, J, T, stream=0):
    """Draw a WienerPath with step k = T/J from stream (seed, stream),
    each of which must lie in [0, 2^64)."""
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= int(value) < 2**64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    key = np.array([int(seed), int(stream)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    k = T / J
    increments = rng.standard_normal((J, q)) * np.sqrt(k)
    return WienerPath(k=k, increments=increments)


def coarsen(path, factor):
    """Sum groups of `factor` consecutive increments (factor a power of 2).

    The coarse path covers the same Brownian path with step factor*k.
    """
    factor = int(factor)
    if factor < 1 or (factor & (factor - 1)) != 0:
        raise ValueError(f"factor must be a positive power of 2, got {factor}")
    if path.J % factor != 0:
        raise ValueError(f"factor {factor} does not divide J = {path.J}")
    if factor == 1:
        return path
    J = path.J // factor
    increments = path.increments.reshape(J, factor, path.q).sum(axis=1)
    return WienerPath(k=path.k * factor, increments=increments)

