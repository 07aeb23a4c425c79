"""Noise coefficient fields g_i: D -> R^3 with analytic Jacobians.

Each component is a pair of vectorized callbacks: values g_i(x) and the
Jacobian columns dg_i/dx_d for the spatial directions d = 1..dim. Presets
cover the regimes the analysis distinguishes: commuting constants,
non-commuting constants, and spatially varying fields. The homogeneous
Neumann condition on g_i is declared by the model, not checked here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# the constant presets as the `vectors` they stand for, scaled by amplitude
_CONSTANT_PRESETS = {
    "zero": ((0.0, 0.0, 0.0),),
    "constant-z": ((0.0, 0.0, 1.0),),
    "constant-x": ((1.0, 0.0, 0.0),),
    "pair-noncommuting": ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
}
PRESETS = (*_CONSTANT_PRESETS, "linear-gradient")


@dataclass(frozen=True)
class NoiseComponent:
    """One field g_i; callbacks take (P, dim) points.

    g_fn returns (P, 3); jac_fn returns (P, 3, dim) with jac[:, :, d] the
    directional derivative dg/dx_d.
    """

    g_fn: object
    jac_fn: object


@dataclass(frozen=True)
class NoiseCoefficients:
    components: tuple = field(default_factory=tuple)

    @property
    def q(self):
        return len(self.components)

    def g_at(self, points):
        """Values of all components, shape (q, P, 3). A component whose
        values are not (P, 3) raises ValueError."""
        points = np.asarray(points, dtype=float)
        return _evaluate([c.g_fn for c in self.components], points,
                         (len(points), 3), "coefficient value")

    def jac_at(self, points):
        """Jacobians of all components, shape (q, P, 3, dim). A component
        whose Jacobians are not (P, 3, dim) raises ValueError; in 3D a
        transposed Jacobian, (P, dim, 3), has the right shape and is not
        caught."""
        points = np.asarray(points, dtype=float)
        return _evaluate([c.jac_fn for c in self.components], points,
                         (len(points), 3, points.shape[1]), "Jacobian value")


def _evaluate(fns, points, shape, what):
    """The callbacks `fns` at `points`, written into one (len(fns), *shape)
    array; each result must have `shape` and all of them finite
    entries."""
    out = np.empty((len(fns),) + shape)
    for i, fn in enumerate(fns):
        vals = fn(points)
        if np.shape(vals) != shape:
            raise ValueError(f"noise component {i} returned {what}s of "
                             f"shape {np.shape(vals)}, expected {shape}")
        out[i] = vals
    if not np.isfinite(out).all():
        raise ValueError(f"non-finite noise {what}")
    return out


def constant_component(vector):
    """g identically equal to `vector`; Jacobian zero. Both callbacks
    return read-only broadcast views, which allocate nothing."""
    vec = np.asarray(vector, dtype=float).reshape(3)

    def g_fn(x):
        return np.broadcast_to(vec, (len(x), 3))

    def jac_fn(x):
        return np.broadcast_to(0.0, (len(x), 3, x.shape[1]))

    return NoiseComponent(g_fn, jac_fn)


def linear_gradient_component(amplitude=1.0):
    """g(x) = amplitude * (x_1, 0, 1 - x_1), varying along the first axis;
    its constant Jacobian comes as a read-only broadcast view."""
    amp = float(amplitude)

    def g_fn(x):
        out = np.zeros((len(x), 3))
        out[:, 0] = amp * x[:, 0]
        out[:, 2] = amp * (1.0 - x[:, 0])
        return out

    def jac_fn(x):
        jac = np.zeros((3, x.shape[1]))
        jac[0, 0] = amp
        jac[2, 0] = -amp
        return np.broadcast_to(jac, (len(x), 3, x.shape[1]))

    return NoiseComponent(g_fn, jac_fn)


def make_noise(preset, amplitude=1.0, vectors=()):
    """Build NoiseCoefficients: one constant component amplitude * v per
    vector v, or the linear-gradient field.

    A nonempty `vectors` lists the constant vectors and overrides `preset`.
    Otherwise `preset` names them through _CONSTANT_PRESETS ("zero",
    "constant-z", "constant-x", "pair-noncommuting"), or is
    "linear-gradient" (q=1, spatially varying).
    """
    amp = float(amplitude)
    if not len(vectors):
        if preset == "linear-gradient":
            return NoiseCoefficients((linear_gradient_component(amp),))
        if preset not in _CONSTANT_PRESETS:
            raise ValueError(f"unknown noise preset {preset!r}")
        vectors = _CONSTANT_PRESETS[preset]
    return NoiseCoefficients(tuple(
        constant_component(amp * np.asarray(v, dtype=float))
        for v in vectors))
