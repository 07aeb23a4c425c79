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
from dataclasses import dataclass, field as dataclass_field, replace
from operator import attrgetter

import numpy as np

from .errors import ConfigError, MeshError
from .fem import P1Space, binary_exponent, interpolate_nodal
from .mesh import build_structured_mesh, read_mesh_text
from .noise import PRESETS, make_noise
from .scheme import GUARD_C, SchemeParams, check_theta_guard


def _number(kind, lo=None, hi=None):
    """An int or finite float in [lo, hi]; an int's range is int64's
    unless [lo, hi] says otherwise."""
    noun = "an integer" if kind is int else "a number"
    if kind is int:
        lo = -2**63 if lo is None else lo
        hi = 2**63 - 1 if hi is None else hi

    def parse(name, raw):
        try:
            val = kind(raw)
        except ValueError:
            raise ConfigError(f"{name} = {raw!r} is not {noun}")
        if kind is float and not np.isfinite(val):
            raise ConfigError(f"{name} = {raw!r} is not finite")
        if (lo is not None and val < lo) or (hi is not None and val > hi):
            raise ConfigError(f"{name} = {val} out of range "
                              f"[{lo}, {'inf' if hi is None else hi}]")
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


def _path(name, raw):
    """A file system path that resolved.ini can echo: UTF-8 text without a
    NUL byte, which no path holds."""
    if "\0" in raw:
        raise ConfigError(f"{name} = {raw!r} holds a NUL byte")
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError:      # undecodable bytes from the command line
        raise ConfigError(f"{name} = {raw!r} is not UTF-8 text") from None
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
# under `params.` are the SchemeParams arguments, which SchemeParams checks.
KEYS = {
    "mesh": {
        "dim": ("dim", "2", _number(int, 2, 3)),
        "divisions": ("divisions", "8", _number(int, 1)),
        "file": ("mesh_file", "", _path),
    },
    "scheme": {
        "theta": ("params.theta", "1.0", _number(float)),
        "lambda1": ("params.lambda1", "1.0", _number(float)),
        "lambda2": ("params.lambda2", "1.0", _number(float)),
        "T": ("params.T", "1.0", _number(float)),
        "J": ("params.J", "100", _number(int)),
        "solver_tol": ("params.solver_tol", "1e-12", _number(float)),
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
        # sample_path keys Philox with the seed's 64 unsigned bits
        "seed": ("seed", "0", _number(int, 0, 2**64 - 1)),
        "samples": ("samples", "4", _number(int, 1)),
        "levels": ("levels", "3", _number(int, 1)),
        "out": ("out", "out", _path),
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
    params: SchemeParams
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
        return build_structured_mesh(self.dim, self.divisions)

    def build_space(self):
        return P1Space(self.build_mesh())

    def build_noise(self):
        return make_noise(self.noise_preset, self.amplitude, self.vectors)

    def initial_field(self, space):
        if self.initial_preset == "uniform":
            d = np.asarray(self.direction, dtype=float)
            # an exact power-of-two scaling keeps the norm from under- or
            # overflowing
            d = np.ldexp(d, -binary_exponent(d))
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
                if field == "divisions" and self.mesh_file:
                    continue
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
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except (OSError, UnicodeDecodeError) as e:
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
    try:
        scheme = SchemeParams(**params)
    except ValueError as e:       # each message starts with the field name
        raise ConfigError(f"scheme.{e}") from None
    cfg = SimulationConfig(params=scheme, defaulted=tuple(defaulted),
                           **values)

    if cfg.mode == "monte-carlo" and cfg.samples < 2:
        raise ConfigError(f"run.samples = {cfg.samples}; monte-carlo mode "
                          "needs at least 2")
    if cfg.mode == "refinement":
        if cfg.levels < 3:
            raise ConfigError(f"run.levels = {cfg.levels}; refinement mode "
                              "needs at least 3")
        if cfg.levels > 63:     # no int64 divisions is divisible by 2^63
            raise ConfigError(f"run.levels = {cfg.levels}; refinement mode "
                              "allows at most 63")
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
            mesh = cfg.build_mesh()
        except (OSError, MeshError) as e:
            raise ConfigError(f"mesh.file = {cfg.mesh_file!r}: {e}") from None
        # the file sets the dimension and size: mesh.dim may only repeat it
        for key, clash in (("dim", cfg.dim != mesh.dim), ("divisions", True)):
            if clash and f"mesh.{key}" not in defaulted:
                raise ConfigError(f"mesh.{key} = {getattr(cfg, key)}, but "
                                  f"mesh.file = {cfg.mesh_file!r} is a "
                                  f"{mesh.dim}D mesh; leave it unset")
        cfg = replace(cfg, dim=mesh.dim, defaulted=tuple(
            name for name in defaulted if name != "mesh.dim"))
        h, x1 = mesh.h, float(np.abs(mesh.vertices[:, 0]).max())
    else:
        h, x1 = np.sqrt(cfg.dim) / cfg.divisions, 1.0
    if (cfg.initial_preset == "spiral"
            and not np.isfinite(2.0 * np.pi * cfg.winding * x1)):
        raise ConfigError(f"initial.winding = {cfg.winding} makes the "
                          f"spiral's angle overflow (|x1| up to {x1:g})")
    ok, bound = check_theta_guard(cfg.params, h)
    if not ok:
        rule = ("h^2 for theta < 1/2" if cfg.params.theta < 0.5
                else "h at theta = 1/2")
        raise ConfigError(
            f"scheme.theta = {cfg.params.theta} needs time steps "
            f"k <= {bound:.6g} (stability guard k <= {GUARD_C:g} {rule}, "
            f"h = {h:.6g}); got k = {cfg.params.k:.6g}. "
            "Increase scheme.J, refine less, or raise theta.")
    return cfg
