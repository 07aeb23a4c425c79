"""Config parsing, validation, echo round-trip, and the CLI wrapper.

The CLI is driven in-process through main(argv) so exit codes and the
stdout/stderr contract can be asserted without spawning interpreters; the
overflow paths, huge sizes, a pool worker that fails and the extreme-value
property test run it in a child process, as `python -m sllgfem.cli` with
numpy's warnings made errors.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sllgfem import (ConfigError, Mesh, build_structured_mesh, load_config,
                     studies)
from sllgfem.cli import build_parser, main
from sllgfem.config import KEYS
from sllgfem.mesh import write_mesh_text
from sllgfem.noise import PRESETS

from children import child_python


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def fast_single(tmp_path, extra="", out="out"):
    # 4x4 mesh, 10 steps: a full study in well under a second
    return write_cfg(tmp_path, f"""\
[mesh]
divisions = 4

[scheme]
J = 10
T = 0.1

[run]
out = {tmp_path / out}
{extra}""")


# ---------------------------------------------------------------- config


def test_empty_config_gives_documented_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, ""))
    assert cfg.dim == 2
    assert cfg.divisions == 8
    assert cfg.mesh_file == ""
    assert cfg.params.theta == 1.0
    assert cfg.params.lambda1 == 1.0
    assert cfg.params.lambda2 == 1.0
    assert cfg.params.T == 1.0
    assert cfg.params.J == 100
    assert cfg.params.solver_tol == 1e-12
    assert cfg.noise_preset == "constant-z"
    assert cfg.amplitude == 1.0
    assert cfg.vectors == ()
    assert cfg.initial_preset == "uniform"
    assert cfg.direction == (0.0, 0.0, 1.0)
    assert cfg.winding == 1.0
    assert cfg.tilt == 0.0
    assert cfg.mode == "single"
    assert (cfg.seed, cfg.samples, cfg.levels) == (0, 4, 3)
    assert cfg.out == "out"
    assert cfg.snapshots == 0
    # every key in the grammar was defaulted
    assert len(cfg.defaulted) == 22


def test_echo_text_reparses_to_same_config(tmp_path):
    cfg = load_config(write_cfg(tmp_path, """\
[mesh]
divisions = 6

[scheme]
theta = 0.75
lambda1 = -0.5
T = 0.25
J = 40

[noise]
vectors = 0 0 1; 0.5 0 0

[initial]
preset = spiral
winding = 2.0
tilt = 0.3

[run]
mode = monte-carlo
samples = 5
seed = 11
"""))
    again = load_config(write_cfg(tmp_path, cfg.echo_text(), name="echo.ini"))
    assert again == cfg                  # defaulted is excluded from eq
    assert again.defaulted == ()         # echo spells out every key


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, **kw).map(repr)


def _triples(nonzero=False):
    triple = st.tuples(*[st.floats(-2.0, 2.0)] * 3)
    if nonzero:
        triple = triple.filter(any)
    return triple.map(lambda v: " ".join(map(repr, v)))


@st.composite
def _valid_configs(draw):
    """Config text setting a random subset of the keys to valid values;
    refinement gets the divisibility it needs, and theta > 1/2 keeps the
    step-size guard out of the way."""
    mode = draw(st.sampled_from(["single", "monte-carlo", "refinement"]))
    step = 4 if mode == "refinement" else 1
    values = {
        "mesh": {"dim": st.sampled_from(["2", "3"]),
                 "divisions": st.integers(1, 16).map(lambda n: str(step * n))},
        "scheme": {"theta": _floats(0.5, 1.0, exclude_min=True),
                   "lambda1": _floats(-5.0, 5.0).filter(lambda v: v != "0.0"
                                                        and v != "-0.0"),
                   "lambda2": _floats(1e-3, 5.0),
                   "T": _floats(1e-3, 10.0),
                   "J": st.integers(1, 500).map(lambda n: str(step * n)),
                   "solver_tol": _floats(1e-15, 1e-3)},
        "noise": {"preset": st.sampled_from(PRESETS),
                  "amplitude": _floats(-3.0, 3.0),
                  "vectors": st.lists(_triples(), max_size=3).map("; ".join)},
        "initial": {"preset": st.sampled_from(["uniform", "spiral"]),
                    "direction": _triples(nonzero=True),
                    "winding": _floats(-4.0, 4.0),
                    "tilt": _floats(-1.5, 1.5)},
        "run": {"seed": st.integers(0, 2 ** 40).map(str),
                "samples": st.integers(2, 8).map(str),
                "levels": st.just("3"),
                "snapshots": st.integers(0, 5).map(str)},
    }
    lines = []
    for section, keys in values.items():
        lines.append(f"[{section}]")
        if section == "run":
            lines.append(f"mode = {mode}")
        for key, strategy in keys.items():
            if draw(st.booleans()):
                lines.append(f"{key} = {draw(strategy)}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@settings(max_examples=40, deadline=None)
@given(_valid_configs())
def test_echo_text_of_random_configs_reparses_to_same_config(config_dir,
                                                             text):
    cfg = load_config(write_cfg(config_dir, text))
    again = load_config(write_cfg(config_dir, cfg.echo_text(),
                                  name="echo.ini"))
    assert again == cfg
    assert again.defaulted == ()


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write_cfg(tmp_path, "[bogus]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key scheme.gamma"):
        load_config(write_cfg(tmp_path, "[scheme]\ngamma = 2\n"))
    # the guard constant and the unit domain are fixed, not settable
    for section, key, value in (("mesh", "domain_size", "2.0"),
                                ("scheme", "guard_c", "1e9")):
        with pytest.raises(ConfigError,
                           match=f"unknown key {section}.{key}"):
            load_config(write_cfg(tmp_path, f"[{section}]\n{key} = {value}\n"))
    cfg = write_cfg(tmp_path, "[scheme]\nsolver_maxiter = 2000\n")
    with pytest.raises(ConfigError, match="unknown key scheme.solver_maxiter"):
        load_config(cfg)
    assert main([cfg]) == 4


@pytest.mark.parametrize("text, field", [
    ("[scheme]\ntheta = 1.5\n", "scheme.theta"),
    ("[scheme]\ntheta = -0.1\n", "scheme.theta"),
    ("[scheme]\nJ = ten\n", "scheme.J"),
    ("[scheme]\nT = nan\n", "scheme.T"),
    ("[scheme]\nlambda2 = -1\n", "scheme.lambda2"),
    ("[mesh]\ndim = 4\n", "mesh.dim"),
    ("[run]\nmode = warp\n", "run.mode"),
    ("[noise]\npreset = sideways\n", "noise.preset"),
    ("[initial]\npreset = vortex\n", "initial.preset"),
    ("[initial]\ndirection = 1 2\n", "initial.direction"),
    ("[initial]\ndirection = nan 0 1\n", "initial.direction"),
], ids=["theta-high", "theta-low", "J-word", "T-nan", "lambda2-neg",
        "dim", "mode", "noise-preset", "init-preset", "direction-len",
        "direction-nan"])
def test_bad_values_name_the_field(tmp_path, text, field):
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        load_config(write_cfg(tmp_path, text))


def test_zero_lambda1_rejected(tmp_path):
    with pytest.raises(ConfigError, match="lambda1 must be nonzero"):
        load_config(write_cfg(tmp_path, "[scheme]\nlambda1 = 0\n"))


def test_weak_implicitness_guard(tmp_path):
    # theta below 1/2 needs k <= 2 h^2; on the default 8x8 mesh
    # that bound is 0.0625, so J = 10 (k = 0.1) must be refused
    with pytest.raises(ConfigError,
                       match=r"stability guard k <= 2 h\^2 for theta < 1/2"):
        load_config(write_cfg(tmp_path, "[scheme]\ntheta = 0.3\nJ = 10\n"))
    # at theta = 1/2 the bound is 2 h = 0.354, so J = 2 (k = 0.5) is refused
    with pytest.raises(ConfigError,
                       match="stability guard k <= 2 h at theta = 1/2"):
        load_config(write_cfg(tmp_path, "[scheme]\ntheta = 0.5\nJ = 2\n"))
    ok = load_config(write_cfg(tmp_path, "[scheme]\ntheta = 0.3\nJ = 400\n",
                               name="ok.ini"))
    assert ok.params.theta == 0.3


def test_mode_specific_validation(tmp_path):
    with pytest.raises(ConfigError, match="at least 2"):
        load_config(write_cfg(
            tmp_path, "[run]\nmode = monte-carlo\nsamples = 1\n"))
    with pytest.raises(ConfigError, match="at least 3"):
        load_config(write_cfg(
            tmp_path, "[run]\nmode = refinement\nlevels = 2\n"))
    with pytest.raises(ConfigError, match="divisible by 4611686018427387904"):
        load_config(write_cfg(
            tmp_path, "[run]\nmode = refinement\nlevels = 63\n"))
    with pytest.raises(ConfigError, match="divisible by 4"):
        load_config(write_cfg(
            tmp_path, "[mesh]\ndivisions = 10\n[run]\nmode = refinement\n"))
    with pytest.raises(ConfigError, match="divisible by 4"):
        load_config(write_cfg(
            tmp_path, "[scheme]\nJ = 102\n[run]\nmode = refinement\n"))


def test_explicit_vectors_override_preset(tmp_path):
    cfg = load_config(write_cfg(tmp_path, """\
[noise]
preset = zero
amplitude = 2.0
vectors = 0 0 1; 1 0 0
"""))
    assert cfg.vectors == ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    coeffs = cfg.build_noise()
    assert coeffs.q == 2
    x = np.zeros((1, 2))
    g = coeffs.g_at(x)
    np.testing.assert_allclose(g[0, 0], [0.0, 0.0, 2.0])   # amplitude scales
    np.testing.assert_allclose(g[1, 0], [2.0, 0.0, 0.0])


def test_spaced_semicolon_separates_vectors(tmp_path):
    # ";" separates vectors wherever it stands; only "#" opens an inline
    # comment, and a whole-line ";" comment is still a comment
    cfg = load_config(write_cfg(tmp_path, """\
; full-line comment
[noise]
vectors = 0 0 1 ; 1 0 0   # two components
"""))
    assert cfg.vectors == ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    assert cfg.build_noise().q == 2


def test_bad_vector_entries(tmp_path):
    with pytest.raises(ConfigError, match="exactly 3 components"):
        load_config(write_cfg(tmp_path, "[noise]\nvectors = 0 0\n"))
    with pytest.raises(ConfigError, match="not numeric"):
        load_config(write_cfg(tmp_path, "[noise]\nvectors = a b c\n"))
    with pytest.raises(ConfigError, match="not finite"):
        load_config(write_cfg(tmp_path, "[noise]\nvectors = 0 0 1; inf 0 0\n"))


def test_spiral_initial_field(tmp_path):
    cfg = load_config(write_cfg(tmp_path, """\
[mesh]
divisions = 4

[initial]
preset = spiral
winding = 2.0
tilt = 0.3
"""))
    space = cfg.build_space()
    m0 = cfg.initial_field(space)
    ang = 2.0 * np.pi * 2.0 * space.mesh.vertices[:, 0]
    expect = np.stack([np.cos(0.3) * np.cos(ang),
                       np.cos(0.3) * np.sin(ang),
                       np.sin(0.3) * np.ones_like(ang)], axis=-1)
    np.testing.assert_allclose(m0, expect, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(m0, axis=1), 1.0, atol=1e-15)


def test_uniform_initial_field_normalizes(tmp_path):
    cfg = load_config(write_cfg(
        tmp_path, "[initial]\ndirection = 1 1 1\n"))
    m0 = cfg.initial_field(cfg.build_space())
    np.testing.assert_allclose(m0, np.full_like(m0, 1.0 / np.sqrt(3.0)))
    with pytest.raises(ConfigError, match="nonzero"):
        load_config(write_cfg(
            tmp_path, "[initial]\ndirection = 0 0 0\n", name="bad.ini"))


def test_overrides_apply_before_validation(tmp_path):
    path = write_cfg(tmp_path, "[scheme]\ntheta = 1.0\n")
    cfg = load_config(path, {"scheme.theta": "0.75", "run.seed": "9"})
    assert cfg.params.theta == 0.75
    assert cfg.seed == 9
    with pytest.raises(ConfigError, match="scheme.theta"):
        load_config(path, {"scheme.theta": "1.5"})
    with pytest.raises(ConfigError, match="unknown override"):
        load_config(path, {"nope.x": "1"})


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.ini"))


def test_cli_config_that_is_not_utf8_exit_4(tmp_path, capsys):
    cfg = tmp_path / "latin1.ini"
    cfg.write_bytes(b"[mesh]\ndivisions = 4\n# caf\xe9\n")
    assert main([str(cfg)]) == 4
    assert re.search(r"config error: cannot read config .*latin1\.ini: "
                     r"'utf-8' codec can't decode byte 0xe9",
                     capsys.readouterr().err)


def test_readme_documents_every_key_with_its_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```")[1]
    parts = re.split(r"^\[(\w+)\]", block, flags=re.M)
    documented = {section: dict(re.findall(r"(\w+) \(([^)]*)\)", body))
                  for section, body in zip(parts[1::2], parts[2::2])}
    declared = {section: {key: default or '""'
                          for key, (_, default, _) in keys.items()}
                for section, keys in KEYS.items()}
    assert documented == declared


# ------------------------------------------------------------------- CLI


def test_parser_prog_name():
    assert build_parser().prog == "simulate"


def test_cli_single_run_success(tmp_path, capsys):
    assert main([fast_single(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "single study complete: 1 trajectory(s)" in out
    outdir = tmp_path / "out"
    for artifact in ("resolved.ini", "report.csv", "diagnostics_seed0.csv"):
        assert (outdir / artifact).is_file()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = write_cfg(tmp_path, "[scheme]\ngamma = 2\n")
    assert main([bad]) == 4
    assert "config error:" in capsys.readouterr().err
    assert main([str(tmp_path / "absent.ini")]) == 4


def test_cli_usage_errors_exit_4(tmp_path, capsys):
    cfg = fast_single(tmp_path)
    assert main([cfg, "--theta", "abc"]) == 4
    assert ("config error: scheme.theta = 'abc' is not a number"
            in capsys.readouterr().err)
    assert main([cfg, "--bogus", "1"]) == 4
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main([]) == 4
    assert "usage: simulate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0


def test_cli_zero_direction_fails_before_any_write(tmp_path, capsys):
    cfg = fast_single(tmp_path, extra="[initial]\ndirection = 0 0 0\n")
    assert main([cfg]) == 4
    assert "initial.direction must be nonzero" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("keys, message", [
    ({"run.seed": "1" + "0" * 400}, r"run\.seed = 10{400} out of range"),
    ({"run.seed": str(2**64)}, r"run\.seed = 18446744073709551616 out of"),
    ({"mesh.divisions": str(10**30)}, r"mesh\.divisions = 10{30} out of"),
    ({"scheme.J": str(-2**63 - 1)}, r"scheme\.J = -9223372036854775809 out"),
    ({"scheme.lambda1": "1e200"},
     r"scheme\.lambda1 = 1e\+200 makes mu overflow"),
    ({"scheme.lambda2": "1e200"},
     r"scheme\.lambda2 = 1e\+200 makes mu overflow"),
    ({"scheme.T": "1e300"}, r"scheme\.T = 1e\+300 makes k\^2 overflow"),
    ({"scheme.lambda1": "1e-200", "scheme.lambda2": "1e-200"},
     r"scheme\.lambda1 = 1e-200 makes mu underflow"),
    ({"scheme.lambda1": "-1e-201", "scheme.lambda2": "1e-200"},
     r"scheme\.lambda2 = 1e-200 makes mu underflow"),
    ({"scheme.T": "5e-324"}, r"scheme\.T = 5e-324 makes k underflow"),
    ({"initial.preset": "spiral", "initial.winding": "1.7976931348623157e308"},
     r"initial\.winding = 1\.7976931348623157e\+308 makes the spiral's"),
    ({"initial.preset": "spiral", "initial.winding": "-1e308"},
     r"initial\.winding = -1e\+308 makes the spiral's angle overflow"),
], ids=["seed-1e400", "seed-2**64", "divisions-1e30", "J-below-int64",
        "lambda1-1e200", "lambda2-1e200", "T-1e300", "mu-underflow-lambda1",
        "mu-underflow-lambda2", "k-underflow-T", "winding-max",
        "winding-neg"])
def test_cli_overflowing_value_exit_4_before_any_write(tmp_path, capsys, keys,
                                                       message):
    # an int beyond its range, a constant whose mu or k^2 overflows or whose
    # mu or k underflows to 0, or a spiral whose angle overflows on the unit
    # square, is named at the gate instead of raising later
    assert main([keyed_cfg(tmp_path, keys)]) == 4
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def keyed_cfg(tmp_path, keys):
    """A 2D 4^2, J = 4 single-run config with `keys` ("section.key" to
    text) on top."""
    keys = {"mesh.divisions": "4", "scheme.J": "4", "scheme.T": "0.1",
            "run.out": str(tmp_path / "out"), **keys}
    sections = {}
    for name, val in keys.items():
        section, _, option = name.partition(".")
        sections.setdefault(section, []).append(f"{option} = {val}")
    return write_cfg(tmp_path, "".join(
        f"[{section}]\n" + "\n".join(lines) + "\n"
        for section, lines in sections.items()))


def test_spiral_winding_gate_uses_the_mesh_files_largest_x1(tmp_path,
                                                            capsys):
    # 2 pi 1e300 is finite on the unit square, but not at |x1| = 1e10
    unit = build_structured_mesh(2, 1)
    mesh = tmp_path / "wide.txt"
    write_mesh_text(Mesh(unit.vertices * [1e10, 1.0], unit.cells), mesh)
    spiral = "[initial]\npreset = spiral\nwinding = 1e300\n"
    assert load_config(fast_single(tmp_path, spiral)).winding == 1e300
    cfg = write_cfg(tmp_path, f"[mesh]\nfile = {mesh}\n[run]\n"
                              f"out = {tmp_path / 'out'}\n{spiral}")
    assert main([cfg]) == 4
    assert re.search(r"initial\.winding = 1e\+300 makes the spiral's angle "
                     r"overflow \(\|x1\| up to 1e\+10\)",
                     capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_seed_takes_every_64_bit_value(tmp_path):
    path = write_cfg(tmp_path, "")
    assert load_config(path, {"run.seed": str(2**64 - 1)}).seed == 2**64 - 1
    with pytest.raises(ConfigError, match="run.seed"):
        load_config(path, {"run.seed": str(2**64)})


@pytest.mark.parametrize("direction, expect", [
    ("1e-200 0 0", [1.0, 0.0, 0.0]),
    ("0 -1e-320 0", [0.0, -1.0, 0.0]),
    ("1e300 1e300 0", [np.sqrt(0.5), np.sqrt(0.5), 0.0]),
    ("-1e308 1e308 1e308", [-np.sqrt(1 / 3), np.sqrt(1 / 3), np.sqrt(1 / 3)]),
], ids=["1e-200", "subnormal", "1e300", "1e308"])
def test_uniform_direction_whose_norm_under_or_overflows(tmp_path, capsys,
                                                         direction, expect):
    path = fast_single(tmp_path, extra=f"[initial]\ndirection = {direction}\n")
    cfg = load_config(path)
    m0 = cfg.initial_field(cfg.build_space())
    np.testing.assert_allclose(m0, np.tile(expect, (len(m0), 1)),
                               rtol=0, atol=1e-15)
    assert main([path]) == 0


@pytest.mark.parametrize("text,reason", [
    (None, "No such file"),
    ("2 x 3\n", "invalid literal"),
    ("2 3 1\n0 0\n1 0\n2 0\n0 1 2\n", "degenerate (measure 0.0)"),
    ("2 3 0\n0 0\n1 0\n0 1\n", "mesh has no cells"),
    ("2 4 1\n0 0\n1 0\n0 1\n1 1\n0 1 2\n", "vertex 3 belongs to no cell"),
    ("2 3 1\n0 0\nnan 0\n0 1\n0 1 2\n",
     "vertex 1 has a non-finite coordinate (nan, 0.0)"),
    ("2 3 1\n0 0\n1e160 0\n0 1e160\n0 1 2\n",
     "cell 0 has a non-finite measure"),
    ("2 3 2\n0 0\n1 0\n0 1\n0 1 2\n0 2 1\n",
     "facet (1, 2) has both its cells on one side"),
    ("2 3 1\n0 0\n1 0\n0 1e-155\n0 1 2\n", "cell 0 is too thin"),
    ("2 3 1\n0 0\n1 0\n0 1e-320\n0 1 2\n", "cell 0 is too thin"),
], ids=["missing", "non-numeric-header", "degenerate-cell", "no-cells",
        "unused-vertex", "nan-vertex", "overflowing-measure",
        "repeated-cell", "sliver", "subnormal-sliver"])
def test_cli_bad_mesh_file_exit_4_before_any_write(tmp_path, capsys, text,
                                                   reason):
    mesh = tmp_path / "mesh.txt"
    if text is not None:
        mesh.write_text(text)
    cfg = write_cfg(tmp_path, f"""\
[mesh]
file = {mesh}

[scheme]
J = 10
T = 0.1

[run]
out = {tmp_path / "out"}
""")
    assert main([cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: mesh.file") and reason in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["run.out", "mesh.file"])
def test_cli_nul_byte_in_a_path_exit_4_before_any_write(tmp_path, capsys,
                                                       monkeypatch, key):
    # argv cannot carry a NUL byte; a config file can
    monkeypatch.chdir(tmp_path)
    cfg = keyed_cfg(tmp_path, {key: "a\0b"})
    assert main([cfg]) == 4
    assert (capsys.readouterr().err
            == f"config error: {key} = 'a\\x00b' holds a NUL byte\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_cli_out_that_is_not_utf8_exit_4_before_any_write(tmp_path, capsys,
                                                         monkeypatch):
    # a byte that is not UTF-8 reaches argv as a lone surrogate, which
    # resolved.ini could not echo
    monkeypatch.chdir(tmp_path)
    cfg = keyed_cfg(tmp_path, {})
    assert main([cfg, "--out", "o\udcff"]) == 4
    assert (capsys.readouterr().err
            == "config error: run.out = 'o\\udcff' is not UTF-8 text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


def test_mesh_file_sets_its_own_dimension(tmp_path, capsys):
    mesh = tmp_path / "cube.txt"
    write_mesh_text(build_structured_mesh(3, 2), mesh)
    base = f"[mesh]\nfile = {mesh}\n{{}}[run]\nout = {tmp_path / 'out'}\n"
    for extra, key in (("dim = 2\n", "mesh.dim = 2"),
                       ("divisions = 5\n", "mesh.divisions = 5")):
        assert main([write_cfg(tmp_path, base.format(extra))]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}") and "3D mesh" in err
        assert not (tmp_path / "out").exists()
    cfg = load_config(write_cfg(tmp_path, base.format("")))
    assert cfg.dim == 3
    echo = cfg.echo_text()
    mesh_section = echo.split("[scheme]")[0]
    assert "dim = 3\n" in mesh_section and "divisions" not in mesh_section
    again = load_config(write_cfg(tmp_path, echo, name="echo.ini"))
    assert again == cfg
    assert load_config(write_cfg(tmp_path, base.format("dim = 3\n"))) == cfg


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    # an unreachable relative-residual tolerance stalls the first solve
    cfg = write_cfg(tmp_path, f"""\
[mesh]
divisions = 4

[scheme]
J = 2
T = 0.1
solver_tol = 1e-30

[initial]
preset = spiral

[run]
out = {tmp_path / "out"}
""")
    assert main([cfg]) == 3
    assert "solver failure:" in capsys.readouterr().err


def noise_cfg(tmp_path, keys):
    """A 2D 2^2, J = 2 single run of a spiral under linear-gradient noise,
    with `keys` on top."""
    return keyed_cfg(tmp_path, {"mesh.divisions": "2", "scheme.J": "2",
                                "scheme.T": "0.02", "initial.preset": "spiral",
                                "noise.preset": "linear-gradient", **keys})


@pytest.mark.parametrize("keys", [
    {"noise.amplitude": "1e50"}, {"noise.amplitude": "1e100"},
    {"scheme.lambda1": "1e100"},
], ids=["amplitude-1e50", "amplitude-1e100", "lambda1-1e100"])
def test_cli_overflowing_load_exit_3_naming_the_load(tmp_path, keys):
    # the load's entries or only its norm overflow (1e50: entries up to
    # about 1e195, a norm of inf; 1e100: the field's invariants overflow
    # at t_1, which the load check catches)
    proc = child_python(["-m", "sllgfem.cli", noise_cfg(tmp_path, keys)])
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert re.fullmatch(r"solver failure: .*: the step's load has a "
                        r"non-finite norm \((inf|nan)\)\n", proc.stderr)


@pytest.mark.parametrize("keys, message", [
    ({"noise.amplitude": "1e200"}, r"noise\.amplitude = 1e\+200"),
    ({"noise.vectors": "1e300 0 0"}, r"noise\.vectors = 1e\+300 0\.0 0\.0"),
    ({"noise.vectors": "1e200 0 0", "scheme.J": "1"},
     r"noise\.vectors = 1e\+200 0\.0 0\.0"),
    ({"noise.vectors": "1e200 0 0"}, r"noise\.vectors = 1e\+200 0\.0 0\.0"),
    ({"noise.preset": "constant-x", "noise.amplitude": "1e300",
      "noise.vectors": "0 0 1; 1e10 0 0"},
     r"noise\.vectors = 0\.0 0\.0 1\.0; 10000000000\.0 0\.0 0\.0"),
], ids=["amplitude-1e200", "vectors-1e300", "vectors-1e200-J1",
        "vectors-1e200-J2", "vectors-times-amplitude"])
def test_cli_noise_whose_set_up_overflows_exit_4_naming_the_key(tmp_path,
                                                               keys, message):
    # |g|^2, sum G_i^2, sum H_i or g itself overflows at a corner of the
    # unit square: rejected at the gate with one message, nothing written
    proc = child_python(["-m", "sllgfem.cli", noise_cfg(tmp_path, keys)])
    assert proc.returncode == 4, proc.stderr[-2000:]
    assert re.fullmatch(rf"config error: {message} makes the noise's set-up "
                        rf"terms overflow on the mesh \(.*\)\n", proc.stderr)
    assert not (tmp_path / "out").exists()


def test_noise_gate_uses_the_mesh_files_vertices(tmp_path, capsys):
    # |g|^2 = 2e300 is finite on the unit square, but not at |x1| = 1e10
    unit = build_structured_mesh(2, 1)
    mesh = tmp_path / "wide.txt"
    write_mesh_text(Mesh(unit.vertices * [1e10, 1.0], unit.cells), mesh)
    noise = "[noise]\npreset = linear-gradient\namplitude = 1e150\n"
    assert load_config(fast_single(tmp_path, noise)).amplitude == 1e150
    cfg = write_cfg(tmp_path, f"[mesh]\nfile = {mesh}\n[run]\n"
                              f"out = {tmp_path / 'out'}\n{noise}")
    assert main([cfg]) == 4
    assert re.search(r"noise\.amplitude = 1e\+150 makes the noise's set-up "
                     r"terms overflow", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("J, code, message", [
    ("100000000000", 5, r"out of memory: level 0 stream 0 \(base seed 0\): "
                        r"Unable to allocate 745\. GiB .*"),
    (str(2**62), 4, r"config error: scheme\.J = 4611686018427387904 makes "
                    r"the Wiener path \(1 increments per step\) larger than "
                    r"any array can be"),
], ids=["J-1e11", "J-2**62"])
def test_cli_huge_J_ends_at_its_documented_exit(tmp_path, J, code, message):
    # J = 1e11: the Wiener path needs 745 GiB, and its allocation fails in
    # the child's 2 GiB address space (exit 5, naming the trajectory).
    # J = 2^62: no array can hold the path, so the gate rejects it before
    # anything is written (exit 4)
    proc = child_python(["-m", "sllgfem.cli",
                         noise_cfg(tmp_path, {"scheme.J": J})])
    assert proc.returncode == code, proc.stderr[-2000:]
    assert re.fullmatch(message + r"\n", proc.stderr)
    out = tmp_path / "out"
    assert not (out / "report.csv").exists()
    assert out.exists() == (code == 5)


@pytest.mark.parametrize("dim, divisions, code, message", [
    (2, "1000000", 5, r"out of memory: level 0 stream 0 \(base seed 0\): "
                      r"Unable to allocate .*"),
    (2, "3037000499", 4, None), (2, str(2**62), 4, None),
    (3, "100000", 4, None),
], ids=["2D-1e6", "2D-3037000499", "2D-2**62", "3D-1e5"])
def test_cli_huge_divisions_end_at_their_documented_exit(tmp_path, dim,
                                                         divisions, code,
                                                         message):
    # 2D 1e6: KZ's operator build would take 1.3e15 bytes, which an array
    # may hold, so the first allocation of the mesh build fails in the
    # child's 2 GiB address space (exit 5, naming the trajectory). The
    # others ask for more than intp's maximum, and the gate rejects them
    # before anything is written (exit 4)
    proc = child_python(["-m", "sllgfem.cli", noise_cfg(
        tmp_path, {"mesh.dim": str(dim), "mesh.divisions": divisions})])
    assert proc.returncode == code, proc.stderr[-2000:]
    message = message or (rf"config error: mesh\.divisions = {divisions} "
                          rf"makes the mesh's per-cell arrays larger than "
                          rf"any array can be")
    assert re.fullmatch(message + r"\n", proc.stderr)
    out = tmp_path / "out"
    assert not (out / "report.csv").exists()
    assert out.exists() == (code == 5)


# Runs the CLI on argv with two pool workers, whatever the CPU count, and
# with studies._trajectory replaced by the `trajectory` defined in the
# code given as argv[1], if any; forked workers inherit it
_CLI_POOL = """\
import os, sys
from sllgfem import studies
from sllgfem.cli import main
exec(sys.argv[1])
if "trajectory" in globals():
    studies._trajectory = trajectory
os.environ[studies.WORKERS_ENV] = "2"
studies._cpu_count = lambda: 2
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("patch, message", [
    ("", r"out of memory: level 0 stream 0 \(base seed 0\): Unable to "
         r"allocate .*"),
    ("def trajectory(config, level, stream):\n    os._exit(9)\n",
     r"a worker process died: .*terminated abruptly.*"),
], ids=["worker-memory-error", "worker-dies"])
def test_cli_pool_worker_out_of_resources_exit_5(tmp_path, patch, message):
    # a worker's MemoryError (J = 1e11 in a 2 GiB address space) or a
    # worker that dies (BrokenProcessPool) ends the study at exit 5
    cfg = noise_cfg(tmp_path, {"run.mode": "monte-carlo",
                               "scheme.J": "100000000000"})
    proc = child_python(["-c", _CLI_POOL, patch, cfg])
    assert proc.returncode == 5, proc.stderr[-2000:]
    assert re.fullmatch(message + r"\n", proc.stderr)
    assert not (tmp_path / "out" / "report.csv").exists()


def test_cli_step_matrix_beyond_float32_range_is_factored_scaled(tmp_path):
    # mu k theta K and the lumped blocks reach about 1e38-1e39, past
    # float32's largest value: cast unscaled, the matrix overflows (a numpy
    # warning) and its LU is singular (exit 3). Scaled by a power of two
    # first, every solve refines, and the run ends on the tangency
    # invariant (exit 2), as with a float64 LU
    cfg = keyed_cfg(tmp_path, {"scheme.lambda1": "1e40",
                               "scheme.lambda2": "1e40", "scheme.T": "4e-42",
                               "initial.preset": "spiral",
                               "noise.preset": "linear-gradient"})
    proc = child_python(["-m", "sllgfem.cli", cfg])
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "invariant failure:" in proc.stderr
    assert "solver failure" not in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("levels", [64, 2**62])
def test_cli_refinement_levels_above_63_exit_4_naming_the_key(tmp_path,
                                                              levels):
    # 2^(levels - 1) is not formed: at 2^62 levels it needs 2^59 bytes
    cfg = keyed_cfg(tmp_path, {"run.mode": "refinement",
                               "run.levels": str(levels)})
    proc = child_python(["-m", "sllgfem.cli", cfg])
    assert proc.returncode == 4, proc.stderr[-2000:]
    assert (f"config error: run.levels = {levels}; refinement mode allows "
            f"at most 63") in proc.stderr
    assert not (tmp_path / "out").exists()


# Runs the CLI on each config path given, as `python -m sllgfem.cli` would
# (an escaping exception is exit 1), and prints the exit codes last
_CLI_BATCH = """\
import sys, traceback
from sllgfem.cli import main
codes = []
for cfg in sys.argv[1:]:
    try:
        codes.append(main([cfg]))
    except Exception:
        traceback.print_exc()
        codes.append(1)
print(*codes)
"""

# Extreme texts for a numeric key: subnormals, the largest doubles, int64's
# edges and 10^400, which is an int but not a finite float; 1e100 overflows
# the load. The explicit examples below give the noise magnitudes the
# random draws rarely reach
_EXTREMES = ("5e-324", "-5e-324", "1e-310", "1e100", "1e308", "-1e308",
             "1.7976931348623157e308", str(2**63 - 1), str(2**63),
             str(2**63 + 1), str(-2**63 - 1), "1" + "0" * 400, "1e400", "0",
             "-0.0", "1", "-1", "0.5")
_NUMBERS = st.one_of(st.sampled_from(_EXTREMES),
                     st.floats(allow_nan=False, allow_infinity=False)
                     .map(repr))
# A size key is small, or takes a text the loader rejects, so that no
# accepted config is large
_SIZE_KEYS = ("mesh.divisions", "scheme.J", "run.samples", "run.levels")
_REJECTED_SIZES = st.sampled_from(("0", "-1", str(2**63), str(-2**63 - 1),
                                   "1" + "0" * 400, "5e-324", "1e308",
                                   "1e400", "0.5"))
# In range, but more than refinement mode's 63 levels; unused in the other
# modes. Not a rejected size: the parser accepts 2^62 for any size key
_LEVELS_ABOVE_63 = ("64", str(2**62), str(2**63 - 1))
_TRIPLES = st.lists(_NUMBERS, min_size=3, max_size=3).map(" ".join)


@st.composite
def _extreme_configs(draw):
    """Keys ("section.key" to text): every size key, at most one of them
    rejected or run.levels above 63, and up to three other keys."""
    keys = {name: draw(st.sampled_from(("1", "2"))) for name in _SIZE_KEYS}
    if draw(st.booleans()):
        name = draw(st.sampled_from(_SIZE_KEYS))
        keys[name] = draw(_REJECTED_SIZES | st.sampled_from(_LEVELS_ABOVE_63)
                          if name == "run.levels" else _REJECTED_SIZES)
    optional = {
        "mesh.dim": st.one_of(st.sampled_from(("2", "3")), _NUMBERS),
        **{f"scheme.{key}": _NUMBERS
           for key in ("theta", "lambda1", "lambda2", "T", "solver_tol")},
        "noise.preset": st.sampled_from(PRESETS),
        "noise.amplitude": _NUMBERS,
        "noise.vectors": st.lists(_TRIPLES, max_size=2).map("; ".join),
        "initial.preset": st.sampled_from(("uniform", "spiral")),
        "initial.direction": _TRIPLES,
        **{f"initial.{key}": _NUMBERS for key in ("winding", "tilt")},
        "run.mode": st.sampled_from(("single", "monte-carlo", "refinement")),
        "run.seed": _NUMBERS,
        "run.snapshots": _NUMBERS,
    }
    for name in draw(st.lists(st.sampled_from(sorted(optional)),
                              max_size=3, unique=True)):
        keys[name] = draw(optional[name])
    return keys


_NOISE_MAGNITUDES = [
    {**{name: "2" for name in _SIZE_KEYS}, "initial.preset": "spiral",
     **noise}
    for mag in ("1e100", "1e200", "1e300")
    for noise in ({"noise.preset": "linear-gradient", "noise.amplitude": mag},
                  {"noise.vectors": f"{mag} 0 0; 0 1 0"})]


@settings(max_examples=4, deadline=None)
@given(st.lists(_extreme_configs(), min_size=6, max_size=6))
@example(batch=_NOISE_MAGNITUDES)
def test_cli_exits_0_2_3_or_4_on_extreme_values(config_dir, batch):
    # no config the grammar admits ends in a traceback or a numpy warning
    # (exit 1), a rejected one writes nothing, one that fails leaves no
    # report.csv, and none leaves a partial file. The CLI runs in a child
    # process, where numpy's warnings are errors
    work = Path(tempfile.mkdtemp(dir=config_dir))
    cfgs = []
    for i, keys in enumerate(batch):
        (work / str(i)).mkdir()
        cfgs.append(keyed_cfg(work / str(i), keys))
    proc = child_python(["-c", _CLI_BATCH, *cfgs])
    assert proc.returncode == 0, proc.stderr[-2000:]
    codes = [int(c) for c in proc.stdout.splitlines()[-1].split()]
    assert len(codes) == len(batch)
    for i, (keys, code) in enumerate(zip(batch, codes)):
        assert code in (0, 2, 3, 4), (keys, proc.stderr[-2000:])
        out = work / str(i) / "out"
        assert not list(out.glob("*.part")), keys
        if code == 3:
            assert not (out / "report.csv").exists(), keys
        if code == 4:
            assert not out.exists(), keys


def test_cli_invariant_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(studies.INVARIANT_TOLS, "max_unit_dev", -1.0)
    assert main([fast_single(tmp_path)]) == 2
    assert "invariant failure:" in capsys.readouterr().err


def test_cli_unusable_out_exit_4_before_any_trajectory(tmp_path, capsys,
                                                     monkeypatch):
    # a path under a regular file cannot be made a directory
    blocker = tmp_path / "file"
    blocker.write_text("")

    def no_run(*args, **kwargs):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(studies, "run", no_run)
    assert main([fast_single(tmp_path), "--out", str(blocker / "sub")]) == 4
    assert re.search(r"config error: run\.out = '.*/file/sub' is not a "
                     r"usable directory: Not a directory",
                     capsys.readouterr().err)
    assert blocker.read_text() == ""


def test_cli_failed_rerun_leaves_no_stale_report(tmp_path):
    # the first run's report.csv must not sit next to the rerun's
    # resolved.ini as if it were the rerun's
    keys = {"initial.preset": "spiral", "noise.preset": "linear-gradient"}
    assert main([keyed_cfg(tmp_path, keys)]) == 0
    assert (tmp_path / "out" / "report.csv").is_file()
    proc = child_python(["-m", "sllgfem.cli", keyed_cfg(
        tmp_path, {**keys, "noise.amplitude": "1e50"})])
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert "amplitude = 1e+50" in (tmp_path / "out" / "resolved.ini"
                                   ).read_text()
    assert not (tmp_path / "out" / "report.csv").exists()


@pytest.mark.parametrize("snapshots, name", [
    ("2", "snap_000000.vtk"), ("0", "diagnostics_seed0.csv"),
    ("0", "report.csv")])
def test_cli_failed_write_exit_4_naming_the_file(tmp_path, snapshots, name):
    # files of at most 900 bytes: resolved.ini (about 550) and the
    # diagnostics at J = 4 (about 200) fit; a snapshot (about 1100), the
    # diagnostics at J = 32 (about 1200) and the report (about 1300) do not
    J = "32" if name.startswith("diagnostics") else "4"
    cfg = keyed_cfg(tmp_path, {"scheme.J": J, "run.snapshots": snapshots})
    proc = child_python(["-m", "sllgfem.cli", cfg], file_size=900)
    assert proc.returncode == 4, proc.stderr[-2000:]
    assert re.search(rf"config error: run\.out = '.*/out': cannot write "
                     rf"{re.escape(name)}: File too large", proc.stderr)
    assert "Traceback" not in proc.stderr
    out = tmp_path / "out"
    assert (out / "resolved.ini").is_file()
    assert not (out / name).exists()
    assert not (out / "report.csv").exists()
    assert not list(out.glob("*.part"))


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_exception_inside_a_write_leaves_no_part_file(tmp_path, monkeypatch,
                                                      error):
    # an exception that is not an OSError still removes the .part, and is
    # raised again: a MemoryError ends at exit 5, a KeyboardInterrupt is
    # not the CLI's to catch
    def failing_write_vtk(path, *args, **kwargs):
        with open(path, "w") as fh:
            fh.write("# vtk DataFile Version 3.0\n")
        raise error("inside write_vtk")

    monkeypatch.setattr(studies, "write_vtk", failing_write_vtk)
    cfg = keyed_cfg(tmp_path, {"run.snapshots": "2"})
    if error is MemoryError:
        assert main([cfg]) == 5
    else:
        with pytest.raises(KeyboardInterrupt):
            main([cfg])
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["resolved.ini"]


def test_cli_flag_overrides(tmp_path):
    cfg = fast_single(tmp_path)
    out2 = tmp_path / "alt"
    assert main([cfg, "--theta", "0.7", "--seed", "3",
                 "--out", str(out2)]) == 0
    assert (out2 / "diagnostics_seed3.csv").is_file()
    resolved = (out2 / "resolved.ini").read_text()
    assert "theta = 0.7" in resolved
    assert "seed = 3" in resolved
    report = (out2 / "report.csv").read_text().splitlines()
    header = report[0].split(",")
    theta_col = header.index("theta")
    assert all(float(line.split(",")[theta_col]) == 0.7
               for line in report[1:])


def test_cli_snapshot_stride(tmp_path):
    assert main([fast_single(tmp_path), "--snapshots", "5"]) == 0
    snaps = sorted(p.name for p in (tmp_path / "out").glob("snap_*.vtk"))
    assert snaps == ["snap_000000.vtk", "snap_000005.vtk", "snap_000010.vtk"]


def test_cli_reports_are_reproducible(tmp_path):
    cfg = fast_single(tmp_path, extra="seed = 7\n")
    assert main([cfg, "--out", str(tmp_path / "a")]) == 0
    assert main([cfg, "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "report.csv").read_bytes()
            == (tmp_path / "b" / "report.csv").read_bytes())


def test_cli_bad_worker_count_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(studies.WORKERS_ENV, "three")
    cfg = fast_single(tmp_path, extra="mode = monte-carlo\n")
    assert main([cfg, "--samples", "2"]) == 4
    assert "SLLGFEM_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_monte_carlo_run_count(tmp_path, capsys):
    cfg = fast_single(tmp_path, extra="mode = monte-carlo\n")
    assert main([cfg, "--samples", "3"]) == 0
    assert "monte-carlo study complete: 3 trajectory(s)" in (
        capsys.readouterr().out)
    diags = list((tmp_path / "out").glob("diagnostics_seed0_stream*.csv"))
    assert len(diags) == 3
