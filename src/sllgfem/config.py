"""Run configuration: a small sectioned text format, fully validated.

The format is INI-style (hand-editable, diff-able): sections [mesh],
[scheme], [noise], [initial], [run]; every key has a documented default,
and the resolved configuration (defaults filled in) can be echoed back as
text that parses to the same config. Range violations and the weak-
implicitness step-size guard are reported as ConfigError, which the CLI
maps to exit code 4.

Grammar (defaults in parentheses):

  [mesh]    dim (2) | divisions (8) | file ("") | domain_size (1.0)
  [scheme]  theta (1.0) | lambda1 (1.0) | lambda2 (1.0) | T (1.0) |
            J (100) | solver_tol (1e-12) | guard_c (2.0)
  [noise]   preset (constant-z) | amplitude (1.0) | vectors ("")
  [initial] preset (uniform) | direction (0 0 1) | winding (1.0) |
            tilt (0.0)
  [run]     mode (single) | seed (0) | samples (4) | levels (3) |
            out (out) | snapshots (0)

`vectors` overrides the noise preset with explicit constant vectors,
semicolon-separated ("0 0 1; 1 0 0" gives q = 2). Initial presets:
"uniform" (constant `direction`, normalized) and "spiral" (unit field
winding `winding` times around the z-axis along x_1, lifted out of the
plane by the constant angle `tilt`).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigError
from .fem import P1Space, interpolate_nodal
from .mesh import build_structured_mesh, read_mesh_text
from .noise import PRESETS, make_noise
from .scheme import SchemeParams, check_theta_guard

_SCHEMA = {
    "mesh": {"dim": "2", "divisions": "8", "file": "", "domain_size": "1.0"},
    "scheme": {"theta": "1.0", "lambda1": "1.0", "lambda2": "1.0",
               "T": "1.0", "J": "100", "solver_tol": "1e-12",
               "guard_c": "2.0"},
    "noise": {"preset": "constant-z", "amplitude": "1.0", "vectors": ""},
    "initial": {"preset": "uniform", "direction": "0 0 1",
                "winding": "1.0", "tilt": "0.0"},
    "run": {"mode": "single", "seed": "0", "samples": "4", "levels": "3",
            "out": "out", "snapshots": "0"},
}

_MODES = ("single", "monte-carlo", "refinement")
_INITIAL_PRESETS = ("uniform", "spiral")


@dataclass(frozen=True)
class SimulationConfig:
    """Fully resolved and validated run description."""

    dim: int
    divisions: int
    mesh_file: str
    domain_size: float
    params: SchemeParams
    guard_c: float
    noise_preset: str
    amplitude: float
    vectors: tuple
    initial_preset: str
    direction: tuple
    winding: float
    tilt: float
    mode: str
    seed: int
    samples: int
    levels: int
    out: str
    snapshots: int
    defaulted: tuple = dataclass_field(default=(), compare=False)

    def build_mesh(self):
        if self.mesh_file:
            return read_mesh_text(self.mesh_file)
        return build_structured_mesh(self.dim, self.divisions,
                                     self.domain_size)

    def build_space(self):
        return P1Space(self.build_mesh())

    def build_noise(self):
        vectors = self.vectors if self.vectors else None
        return make_noise(self.noise_preset, self.amplitude, vectors)

    def initial_field(self, space):
        if self.initial_preset == "uniform":
            d = np.asarray(self.direction, dtype=float)
            nrm = np.linalg.norm(d)
            if nrm == 0.0:
                raise ConfigError("initial.direction must be nonzero")
            d = d / nrm
            return np.tile(d, (space.N, 1))
        w, tilt = self.winding, self.tilt
        ca, sa = np.cos(tilt), np.sin(tilt)

        def f(x):
            ang = 2.0 * np.pi * w * x[..., 0]
            return np.stack([ca * np.cos(ang), ca * np.sin(ang),
                             sa * np.ones_like(ang)], axis=-1)

        return interpolate_nodal(f, space)

    def echo_text(self):
        """The resolved config as sectioned text; reparses to this config."""
        buf = io.StringIO()
        values = {
            "mesh": {"dim": self.dim, "divisions": self.divisions,
                     "file": self.mesh_file,
                     "domain_size": repr(self.domain_size)},
            "scheme": {"theta": repr(self.params.theta),
                       "lambda1": repr(self.params.lambda1),
                       "lambda2": repr(self.params.lambda2),
                       "T": repr(self.params.T), "J": self.params.J,
                       "solver_tol": repr(self.params.solver_tol),
                       "guard_c": repr(self.guard_c)},
            "noise": {"preset": self.noise_preset,
                      "amplitude": repr(self.amplitude),
                      "vectors": "; ".join(
                          " ".join(repr(c) for c in v)
                          for v in self.vectors)},
            "initial": {"preset": self.initial_preset,
                        "direction": " ".join(repr(c)
                                              for c in self.direction),
                        "winding": repr(self.winding),
                        "tilt": repr(self.tilt)},
            "run": {"mode": self.mode, "seed": self.seed,
                    "samples": self.samples, "levels": self.levels,
                    "out": self.out, "snapshots": self.snapshots},
        }
        defaulted = set(self.defaulted)
        for section, keys in values.items():
            buf.write(f"[{section}]\n")
            for key, val in keys.items():
                mark = "  # default" if f"{section}.{key}" in defaulted else ""
                buf.write(f"{key} = {val}{mark}\n")
            buf.write("\n")
        return buf.getvalue()


class _Reader:
    """Typed key extraction with field-naming errors and default tracking."""

    def __init__(self, parser):
        self.parser = parser
        self.defaulted = []

    def get(self, section, key):
        if self.parser.has_option(section, key):
            return self.parser.get(section, key).strip()
        self.defaulted.append(f"{section}.{key}")
        return _SCHEMA[section][key]

    def get_int(self, section, key, lo=None, hi=None):
        raw = self.get(section, key)
        try:
            val = int(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key} = {raw!r} is not an integer")
        self._check_range(section, key, val, lo, hi)
        return val

    def get_float(self, section, key, lo=None, hi=None, strict_lo=False):
        raw = self.get(section, key)
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key} = {raw!r} is not a number")
        if not np.isfinite(val):
            raise ConfigError(f"{section}.{key} = {raw!r} is not finite")
        if strict_lo and lo is not None and val <= lo:
            raise ConfigError(f"{section}.{key} = {val} must be > {lo}")
        self._check_range(section, key, val, None if strict_lo else lo, hi)
        return val

    @staticmethod
    def _check_range(section, key, val, lo, hi):
        if lo is not None and val < lo:
            raise ConfigError(f"{section}.{key} = {val} out of range "
                              f"[{lo}, {'inf' if hi is None else hi}]")
        if hi is not None and val > hi:
            raise ConfigError(f"{section}.{key} = {val} out of range "
                              f"[{lo}, {hi}]")


def _parse_vectors(raw):
    if not raw:
        return ()
    vecs = []
    for part in raw.split(";"):
        toks = part.split()
        if len(toks) != 3:
            raise ConfigError(f"noise.vectors entry {part.strip()!r} must "
                              "have exactly 3 components")
        try:
            vecs.append(tuple(float(t) for t in toks))
        except ValueError:
            raise ConfigError(f"noise.vectors entry {part.strip()!r} is "
                              "not numeric")
    return tuple(vecs)


def load_config(path, overrides=None):
    """Parse, apply CLI overrides, validate, and resolve defaults.

    `overrides` maps "section.key" to replacement string values (applied
    before validation, so overridden values face the same checks). Raises
    ConfigError on parse errors (with line information), unknown sections
    or keys, range violations, and step-size guard violations.
    """
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    parser.optionxform = str          # keys are case-sensitive (T vs t)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}")

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    for name, value in (overrides or {}).items():
        section, _, key = name.partition(".")
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown override {name!r}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, str(value))

    r = _Reader(parser)
    dim = r.get_int("mesh", "dim", 2, 3)
    divisions = r.get_int("mesh", "divisions", 1)
    mesh_file = r.get("mesh", "file")
    domain_size = r.get_float("mesh", "domain_size", 0.0, strict_lo=True)

    theta = r.get_float("scheme", "theta", 0.0, 1.0)
    lambda1 = r.get_float("scheme", "lambda1")
    lambda2 = r.get_float("scheme", "lambda2", 0.0, strict_lo=True)
    T = r.get_float("scheme", "T", 0.0, strict_lo=True)
    J = r.get_int("scheme", "J", 1)
    solver_tol = r.get_float("scheme", "solver_tol", 0.0, strict_lo=True)
    guard_c = r.get_float("scheme", "guard_c", 0.0, strict_lo=True)
    if lambda1 == 0.0:
        raise ConfigError("scheme.lambda1 must be nonzero")
    params = SchemeParams(lambda1=lambda1, lambda2=lambda2, theta=theta,
                          T=T, J=J, solver_tol=solver_tol)

    preset = r.get("noise", "preset")
    if preset not in PRESETS:
        raise ConfigError(f"noise.preset = {preset!r}; known presets: "
                          f"{', '.join(PRESETS)}")
    amplitude = r.get_float("noise", "amplitude")
    vectors = _parse_vectors(r.get("noise", "vectors"))

    initial_preset = r.get("initial", "preset")
    if initial_preset not in _INITIAL_PRESETS:
        raise ConfigError(f"initial.preset = {initial_preset!r}; known: "
                          f"{', '.join(_INITIAL_PRESETS)}")
    raw_dir = r.get("initial", "direction")
    try:
        direction = tuple(float(t) for t in raw_dir.split())
    except ValueError:
        raise ConfigError(f"initial.direction = {raw_dir!r} is not numeric")
    if len(direction) != 3:
        raise ConfigError("initial.direction must have 3 components")
    winding = r.get_float("initial", "winding")
    tilt = r.get_float("initial", "tilt")

    mode = r.get("run", "mode")
    if mode not in _MODES:
        raise ConfigError(f"run.mode = {mode!r}; known modes: "
                          f"{', '.join(_MODES)}")
    seed = r.get_int("run", "seed", 0)
    samples = r.get_int("run", "samples", 1)
    levels = r.get_int("run", "levels", 1)
    out = r.get("run", "out")
    snapshots = r.get_int("run", "snapshots", 0)

    if mode == "monte-carlo" and samples < 2:
        raise ConfigError(f"run.samples = {samples}; monte-carlo mode needs "
                          "at least 2")
    if mode == "refinement":
        if levels < 3:
            raise ConfigError(f"run.levels = {levels}; refinement mode "
                              "needs at least 3")
        factor = 2 ** (levels - 1)
        if mesh_file:
            raise ConfigError("refinement mode requires a structured mesh "
                              "(mesh.file is set)")
        if divisions % factor or J % factor:
            raise ConfigError(f"refinement with {levels} levels needs "
                              f"mesh.divisions and scheme.J divisible by "
                              f"{factor}; got {divisions} and {J}")

    cfg = SimulationConfig(
        dim=dim, divisions=divisions, mesh_file=mesh_file,
        domain_size=domain_size, params=params, guard_c=guard_c,
        noise_preset=preset, amplitude=amplitude, vectors=vectors,
        initial_preset=initial_preset, direction=direction, winding=winding,
        tilt=tilt, mode=mode, seed=seed, samples=samples, levels=levels,
        out=out, snapshots=snapshots, defaulted=tuple(r.defaulted))

    if mesh_file:
        h = cfg.build_mesh().h
    else:
        h = np.sqrt(dim) * domain_size / divisions
    ok, bound = check_theta_guard(params, h, guard_c)
    if not ok:
        raise ConfigError(
            f"scheme.theta = {theta} needs time steps k <= {bound:.6g} "
            f"(k = O(h^2) stability guard for theta < 1/2, k = O(h) at "
            f"theta = 1/2); got k = {params.k:.6g}. Increase scheme.J, "
            "refine less, or raise theta.")
    return cfg
