"""Config parsing, validation, echo round-trip, and the CLI wrapper.

The CLI is driven in-process through main(argv) so exit codes and the
stdout/stderr contract can be asserted without spawning interpreters.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sllgfem import ConfigError, build_structured_mesh, load_config, studies
from sllgfem.cli import build_parser, main
from sllgfem.config import KEYS
from sllgfem.mesh import write_mesh_text
from sllgfem.noise import PRESETS


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
], ids=["missing", "non-numeric-header", "degenerate-cell", "no-cells",
        "unused-vertex", "nan-vertex", "overflowing-measure",
        "repeated-cell"])
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


def test_cli_invariant_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(studies.INVARIANT_TOLS, "max_unit_dev", -1.0)
    assert main([fast_single(tmp_path)]) == 2
    assert "invariant failure:" in capsys.readouterr().err


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
