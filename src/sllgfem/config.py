"""Run configuration: a small sectioned text format, fully validated.

The format is INI-style (hand-editable, diff-able): sections [mesh],
[scheme], [noise], [initial], [run]. `KEYS` below declares every key once:
the `SimulationConfig` field it fills, its default and its parser. The
README's "Config format" section is the prose grammar. The resolved
configuration (defaults filled in) is echoed back as text that parses to
the same config. Bad values, cross-key violations and the weak-
implicitness step-size guard are reported as ConfigError, which the CLI
maps to exit code 4.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field as dataclass_field
from operator import attrgetter

import numpy as np

from .errors import ConfigError, MeshError
from .fem import P1Space, interpolate_nodal
from .mesh import build_structured_mesh, read_mesh_text
from .noise import PRESETS, make_noise
from .scheme import SchemeParams, check_theta_guard


def _number(kind, lo=None, hi=None, strict=False, nonzero=False):
    """An int or finite float in [lo, hi] ((lo, hi] if strict)."""
    noun = "an integer" if kind is int else "a number"

    def parse(name, raw):
        try:
            val = kind(raw)
        except ValueError:
            raise ConfigError(f"{name} = {raw!r} is not {noun}")
        if not np.isfinite(val):
            raise ConfigError(f"{name} = {raw!r} is not finite")
        if strict and val <= lo:
            raise ConfigError(f"{name} = {val} must be > {lo}")
        if (not strict and lo is not None and val < lo) or (
                hi is not None and val > hi):
            raise ConfigError(f"{name} = {val} out of range "
                              f"[{lo}, {'inf' if hi is None else hi}]")
        if nonzero and val == 0:
            raise ConfigError(f"{name} must be nonzero")
        return val
    return parse


def _choice(*options):
    def parse(name, raw):
        if raw not in options:
            kind = name.partition(".")[2]
            raise ConfigError(f"{name} = {raw!r}; known {kind}s: "
                              f"{', '.join(options)}")
        return raw
    return parse


def _text(name, raw):
    return raw


def _triple(where, raw):
    toks = raw.split()
    if len(toks) != 3:
        raise ConfigError(f"{where} must have exactly 3 components")
    try:
        vec = tuple(float(t) for t in toks)
    except ValueError:
        raise ConfigError(f"{where} is not numeric")
    if not np.isfinite(vec).all():
        raise ConfigError(f"{where} is not finite")
    return vec


def _direction(name, raw):
    vec = _triple(f"{name} = {raw!r}", raw)
    if not any(vec):
        raise ConfigError(f"{name} must be nonzero")
    return vec


def _vectors(name, raw):
    """Semicolon-separated constant 3-vectors; empty gives ()."""
    if not raw:
        return ()
    return tuple(_triple(f"{name} entry {part.strip()!r}", part)
                 for part in raw.split(";"))


# section -> key -> (SimulationConfig field, default text, parser). Fields
# under `params.` are the SchemeParams arguments.
KEYS = {
    "mesh": {
        "dim": ("dim", "2", _number(int, 2, 3)),
        "divisions": ("divisions", "8", _number(int, 1)),
        "file": ("mesh_file", "", _text),
        "domain_size": ("domain_size", "1.0",
                        _number(float, 0.0, strict=True)),
    },
    "scheme": {
        "theta": ("params.theta", "1.0", _number(float, 0.0, 1.0)),
        "lambda1": ("params.lambda1", "1.0", _number(float, nonzero=True)),
        "lambda2": ("params.lambda2", "1.0",
                    _number(float, 0.0, strict=True)),
        "T": ("params.T", "1.0", _number(float, 0.0, strict=True)),
        "J": ("params.J", "100", _number(int, 1)),
        "solver_tol": ("params.solver_tol", "1e-12",
                       _number(float, 0.0, strict=True)),
        "guard_c": ("guard_c", "2.0", _number(float, 0.0, strict=True)),
    },
    "noise": {
        "preset": ("noise_preset", "constant-z", _choice(*PRESETS)),
        "amplitude": ("amplitude", "1.0", _number(float)),
        "vectors": ("vectors", "", _vectors),
    },
    "initial": {
        "preset": ("initial_preset", "uniform", _choice("uniform", "spiral")),
        "direction": ("direction", "0 0 1", _direction),
        "winding": ("winding", "1.0", _number(float)),
        "tilt": ("tilt", "0.0", _number(float)),
    },
    "run": {
        "mode": ("mode", "single",
                 _choice("single", "monte-carlo", "refinement")),
        "seed": ("seed", "0", _number(int, 0)),
        "samples": ("samples", "4", _number(int, 1)),
        "levels": ("levels", "3", _number(int, 1)),
        "out": ("out", "out", _text),
        "snapshots": ("snapshots", "0", _number(int, 0)),
    },
}


def _echo(val):
    """Text of a parsed value that parses back to the same value."""
    if isinstance(val, float):
        return repr(val)
    if isinstance(val, tuple):
        sep = "; " if val and isinstance(val[0], tuple) else " "
        return sep.join(_echo(v) for v in val)
    return str(val)


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
            return np.tile(d / np.linalg.norm(d), (space.N, 1))
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
        defaulted = set(self.defaulted)
        for section, keys in KEYS.items():
            buf.write(f"[{section}]\n")
            for key, (field, _, _) in keys.items():
                mark = "  # default" if f"{section}.{key}" in defaulted else ""
                buf.write(f"{key} = {_echo(attrgetter(field)(self))}{mark}\n")
            buf.write("\n")
        return buf.getvalue()


def load_config(path, overrides=None):
    """Parse, apply CLI overrides, validate, and resolve defaults.

    `overrides` maps "section.key" to replacement string values (applied
    before validation, so overridden values face the same checks). Raises
    ConfigError on parse errors (with line information), unknown sections
    or keys, bad values, cross-key violations and step-size guard
    violations.
    """
    # ";" separates noise vectors, so only "#" starts an inline comment;
    # whole-line ";" comments still parse
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    parser.optionxform = str          # keys are case-sensitive (T vs t)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}")

    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    for name, value in (overrides or {}).items():
        section, _, key = name.partition(".")
        if key not in KEYS.get(section, {}):
            raise ConfigError(f"unknown override {name!r}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, str(value))

    values, defaulted = {}, []
    for section, keys in KEYS.items():
        for key, (field, default, parse) in keys.items():
            name = f"{section}.{key}"
            if parser.has_option(section, key):
                raw = parser.get(section, key).strip()
            else:
                raw = default
                defaulted.append(name)
            values[field] = parse(name, raw)
    params = {f.partition(".")[2]: values.pop(f)
              for f in list(values) if f.startswith("params.")}
    cfg = SimulationConfig(params=SchemeParams(**params),
                           defaulted=tuple(defaulted), **values)

    if cfg.mode == "monte-carlo" and cfg.samples < 2:
        raise ConfigError(f"run.samples = {cfg.samples}; monte-carlo mode "
                          "needs at least 2")
    if cfg.mode == "refinement":
        if cfg.levels < 3:
            raise ConfigError(f"run.levels = {cfg.levels}; refinement mode "
                              "needs at least 3")
        factor = 2 ** (cfg.levels - 1)
        if cfg.mesh_file:
            raise ConfigError("refinement mode requires a structured mesh "
                              "(mesh.file is set)")
        if cfg.divisions % factor or cfg.params.J % factor:
            raise ConfigError(f"refinement with {cfg.levels} levels needs "
                              f"mesh.divisions and scheme.J divisible by "
                              f"{factor}; got {cfg.divisions} and "
                              f"{cfg.params.J}")

    if cfg.mesh_file:
        try:
            h = cfg.build_mesh().h
        except (OSError, MeshError) as e:
            raise ConfigError(f"mesh.file = {cfg.mesh_file!r}: {e}") from None
    else:
        h = np.sqrt(cfg.dim) * cfg.domain_size / cfg.divisions
    ok, bound = check_theta_guard(cfg.params, h, cfg.guard_c)
    if not ok:
        raise ConfigError(
            f"scheme.theta = {cfg.params.theta} needs time steps "
            f"k <= {bound:.6g} (k = O(h^2) stability guard for theta < 1/2, "
            f"k = O(h) at theta = 1/2); got k = {cfg.params.k:.6g}. "
            "Increase scheme.J, refine less, or raise theta.")
    return cfg
