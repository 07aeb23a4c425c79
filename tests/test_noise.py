"""Noise coefficient presets and Jacobian consistency."""

import re

import numpy as np
import pytest

from sllgfem.fem import P1Space
from sllgfem.mesh import build_structured_mesh
from sllgfem.noise import (PRESETS, NoiseComponent, NoiseCoefficients,
                           constant_component, linear_gradient_component,
                           make_noise)
from sllgfem.rotation import init_rotation_field


def _probe_points(n=40, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.95, size=(n, dim))


def test_presets_all_build():
    for name in PRESETS:
        coeffs = make_noise(name)
        assert coeffs.q >= 1


def test_preset_dimensions_and_values():
    x = _probe_points()
    z = make_noise("constant-z", amplitude=2.0)
    np.testing.assert_array_equal(z.g_at(x)[0], np.tile([0.0, 0.0, 2.0],
                                                        (len(x), 1)))
    pair = make_noise("pair-noncommuting")
    assert pair.q == 2
    np.testing.assert_array_equal(pair.g_at(x)[0][0], [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(pair.g_at(x)[1][0], [1.0, 0.0, 0.0])
    assert make_noise("zero").g_at(x).max() == 0.0


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        make_noise("white")


def test_explicit_vectors():
    coeffs = make_noise("ignored", amplitude=0.5,
                        vectors=[[1, 0, 0], [0, 2, 0], [0, 0, 4]])
    assert coeffs.q == 3
    x = _probe_points(5)
    g = coeffs.g_at(x)
    np.testing.assert_allclose(g[1][0], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(g[2][0], [0.0, 0.0, 2.0])
    # an empty list means "use the preset", so the preset must be known
    with pytest.raises(ValueError, match="unknown noise preset"):
        make_noise("ignored", vectors=[])
    for name in PRESETS:
        np.testing.assert_array_equal(
            make_noise(name, 0.5, vectors=[]).g_at(x),
            make_noise(name, 0.5).g_at(x))


def test_constant_component_has_zero_jacobian():
    x = _probe_points()
    comp = constant_component([3.0, -1.0, 2.0])
    assert np.all(comp.jac_fn(x) == 0.0)


def test_linear_gradient_matches_finite_differences():
    # jac[:, :, d] must be the directional derivative along x_d
    coeffs = NoiseCoefficients((linear_gradient_component(1.7),))
    x = _probe_points()
    jac = coeffs.jac_at(x)[0]
    eps = 1e-6
    for d in range(x.shape[1]):
        xp = x.copy()
        xm = x.copy()
        xp[:, d] += eps
        xm[:, d] -= eps
        fd = (coeffs.g_at(xp)[0] - coeffs.g_at(xm)[0]) / (2 * eps)
        np.testing.assert_allclose(jac[:, :, d], fd, atol=1e-9)


def test_shapes_q_p_3():
    coeffs = make_noise("pair-noncommuting")
    x = _probe_points(7)
    assert coeffs.g_at(x).shape == (2, 7, 3)
    assert coeffs.jac_at(x).shape == (2, 7, 3, 2)


def test_nonfinite_values_rejected():
    def bad_g(x):
        out = np.zeros((len(x), 3))
        out[0, 0] = np.inf
        return out

    def zero_jac(x):
        return np.zeros((len(x), 3, x.shape[1]))

    coeffs = NoiseCoefficients((NoiseComponent(bad_g, zero_jac),))
    with pytest.raises(ValueError):
        coeffs.g_at(_probe_points(3))


@pytest.mark.parametrize("kind, bad", [
    ("value", ("P", 2)), ("value", (1, 3)), ("value", (3,)),
    ("jacobian", ("P", 3)), ("jacobian", ("P", 3, 1)),
    ("jacobian", (1, 3, 2))])
def test_misshapen_callback_results_rejected(kind, bad):
    # 2D points, so values must be (P, 3) and Jacobians (P, 3, 2); the
    # error names the component and the shape it returned, also when the
    # rotation field is the first to evaluate the noise
    def misshapen(x):
        return np.zeros(tuple(len(x) if n == "P" else n for n in bad))

    good = linear_gradient_component()
    comp = (NoiseComponent(misshapen, good.jac_fn) if kind == "value"
            else NoiseComponent(good.g_fn, misshapen))
    coeffs = NoiseCoefficients((good, comp))
    x = _probe_points(5)
    shape = tuple(len(x) if n == "P" else n for n in bad)
    message = rf"noise component 1 .* shape {re.escape(str(shape))}"
    evaluate, other = ((coeffs.g_at, coeffs.jac_at) if kind == "value"
                       else (coeffs.jac_at, coeffs.g_at))
    with pytest.raises(ValueError, match=message):
        evaluate(x)
    assert other(x).shape[:2] == (2, 5)
    with pytest.raises(ValueError, match="noise component 1 "):
        init_rotation_field(P1Space(build_structured_mesh(2, 2)), coeffs)
