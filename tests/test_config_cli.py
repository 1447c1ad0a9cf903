import contextlib
import csv
import io
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import molto.asd as asd
import molto.cli as cli
import molto.elasticity as el
import molto.problems as problems
from molto.config import _RULES, KINDS, _parse_value, load_config, parse_config
from molto.errors import ConfigError
from molto.mesh import build_rect_mesh

BUNDLED = ("girder", "girder_desk", "gripper", "lbracket", "clamped_tri",
           "surrogate2", "surrogate3")


def bundled_text(name: str) -> str:
    return resources.files("molto.configs").joinpath(f"{name}.cfg").read_text()


def test_bundled_configs_load_without_defaults():
    for name in BUNDLED:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_config(bundled_text(name), source=name)
        assert caught == [], name


def test_girder_config_reference_values():
    config = parse_config(bundled_text("girder"))
    v = config.values
    assert v["young"] == 1.0
    assert v["poisson"] == 0.3
    assert v["volume_fraction"] == 0.45
    assert v["traction"] == 1.0
    assert v["length"] == 1.0
    assert v["ersatz_exponent"] == 3.0
    assert v["ersatz_floor"] == 1e-3
    assert v["wave_speed"] == 0.014
    assert v["interface_width"] == 1.0
    assert v["wave_damping"] == 0.001
    assert config.initial_weights() == [(0.9, 0.1), (0.1, 0.9)]
    assert v["edge_tolerance"] == 0.04
    assert v["dedup_tolerance"] == 1e-3


def test_lbracket_config_reference_values():
    config = parse_config(bundled_text("lbracket"))
    v = config.values
    assert v["stress_exponent"] == 5.0
    assert v["yield_stress"] == 42.0
    assert v["stress_limit"] == 0.05
    assert v["weight_inertia"] == 6.0
    assert v["weight_damping"] == 12.0
    assert v["weight_stiffness"] == 10.0
    assert v["edge_tolerance"] == 0.04
    assert v["filter_eta"] == 1e-4
    assert v["filter_gamma"] == 2.0
    assert config.initial_weights() == [(0.05, 0.95), (0.95, 0.05)]
    problem = config.build_problem()
    assert (problem.filter_eta, problem.filter_gamma) == (1e-4, 2.0)


def test_gripper_config_reference_values():
    config = parse_config(bundled_text("gripper"))
    v = config.values
    assert v["spring_in"] == 1e5
    assert v["spring_out"] == 1e3
    assert v["dir_in"] == (1.0, 0.0)
    assert v["dir_out"] == (0.0, -1.0)
    assert v["volume_fraction"] == 0.30
    assert v["wave_speed"] == 0.011
    assert v["weight_inertia"] == 8.0
    assert v["weight_damping"] == 14.0
    assert v["weight_stiffness"] == 10.0
    assert v["edge_tolerance"] == 0.01
    assert config.initial_weights() == [(0.999, 0.001), (0.70, 0.30)]


def test_clamped_tri_config_reference_values():
    config = parse_config(bundled_text("clamped_tri"))
    v = config.values
    assert v["wave_speed"] == 0.018
    assert v["wave_damping"] == 0.002
    assert v["weight_inertia"] == 0.5
    assert v["weight_damping"] == 5.0
    assert v["weight_stiffness"] == 0.5
    assert v["edge_tolerance"] == 0.15
    assert v["max_levels"] == 6
    assert len(config.initial_weights()) == 3


def test_volume_fraction_range_check():
    text = bundled_text("girder").replace("volume_fraction = 0.45",
                                          "volume_fraction = 1.5")
    with pytest.raises(ConfigError, match="volume_fraction"):
        parse_config(text)


def test_volume_fraction_reaches_beam_problems():
    for name in ("girder", "clamped_tri"):
        text = bundled_text(name).replace("volume_fraction = 0.45",
                                          "volume_fraction = 0.2")
        text = text.replace("nx = 60", "nx = 6").replace("ny = 30", "ny = 3")
        problem = parse_config(text, source=name).build_problem()
        assert problem.volume_fraction == 0.2, name


def test_every_rule_is_a_key_and_every_default_reads_back():
    # each rule belongs to some kind, and each default, written as config
    # text, reads back as itself: a key's type is its default's
    assert set(_RULES) == {key for kind in KINDS.values() for key in kind.keys}
    for name, kind in KINDS.items():
        for key, default in kind.keys.items():
            if key == "weights_init":
                assert default is None
                continue
            text = (" ".join(map(str, default)) if isinstance(default, tuple)
                    else str(default))
            value = _parse_value(key, default, text)
            assert type(value) is type(default) and value == default, (name, key)


def test_unknown_key_rejected_with_location():
    text = bundled_text("girder") + "mystery_knob = 3\n"
    with pytest.raises(ConfigError, match="mystery_knob"):
        parse_config(text)


def test_missing_problem_key():
    with pytest.raises(ConfigError, match="problem"):
        parse_config("nx = 3\n")


def test_malformed_line_reports_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("problem = girder\nnx 40\n")


def test_weights_must_lie_in_simplex():
    text = bundled_text("surrogate2").replace(
        "weights_init = 0.9 0.1 ; 0.1 0.9", "weights_init = 0.9 0.2 ; 0.1 0.9")
    with pytest.raises(ConfigError, match="simplex"):
        parse_config(text)


def test_defaults_are_warned():
    text = "problem = surrogate\nweights_init = 0.9 0.1 ; 0.1 0.9\n"
    with pytest.warns(UserWarning, match="edge_tolerance"):
        parse_config(text)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


# (config, old text, new text, the keys whose lines the error names): every
# kind of error load_config raises for a file it can read
_LOAD_ERRORS = [
    ("girder_desk", "nx = 60", "nx 60", ("nx",)),
    ("girder_desk", "ny = 30", "ny = 30\nny = 31", ()),
    ("girder_desk", "jobs = 1", "jobs =", ("jobs",)),
    ("girder_desk", "problem = girder", "", ()),
    ("girder_desk", "problem = girder", "problem = bridge", ("problem",)),
    ("girder_desk", "jobs = 1", "jobs = 1\nmystery_knob = 3", ("mystery_knob",)),
    ("girder_desk", "traction = 1.0", "traction = nan", ("traction",)),
    ("girder_desk", "nx = 60", "nx = sixty", ("nx",)),
    ("girder_desk", "ny = 30", "ny = 30.5", ("ny",)),
    ("gripper", "dir_in = 1 0", "dir_in = 1 0 0", ("dir_in",)),
    ("girder_desk", "weights_init = 0.9 0.1 ; 0.1 0.9", "weights_init = ;",
     ("weights_init",)),
    ("girder_desk", "volume_fraction = 0.45", "volume_fraction = 1.5",
     ("volume_fraction",)),
    ("girder_desk", "weights_init = 0.9 0.1 ; 0.1 0.9", "", ()),
    ("surrogate3", "0.15 0.15 0.70", "0.15 0.85", ("weights_init",)),
    ("surrogate3", "0.70 0.15 0.15 ;", "0.70 0.20 0.15 ;", ("weights_init",)),
    ("surrogate3", "; 0.15 0.15 0.70", "", ("weights_init",)),
    ("surrogate3", "0.15 0.70 0.15 ;", "0.70 0.15 0.15 ;", ("weights_init",)),
    ("girder_desk", "max_iterations = 800\nwindow = 5", "max_iterations = 3",
     ("max_iterations",)),
    ("girder_desk", "max_iterations = 800\nwindow = 5", "window = 900", ("window",)),
    ("girder_desk", "max_iterations = 800\nwindow = 5", "max_iterations = 3\nwindow = 6",
     ("max_iterations", "window")),
]


@pytest.mark.filterwarnings("ignore:.*using default")
@pytest.mark.parametrize("name, old, new, keys", _LOAD_ERRORS)
def test_every_load_error_starts_with_its_file(tmp_path, name, old, new, keys):
    # the message starts with the file, then the lines of the keys it names
    text = bundled_text(name)
    assert old in text
    text = text.replace(old, new)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(ConfigError) as caught:
        load_config(cfg)
    lines = [str(next(n for n, line in enumerate(text.splitlines(), start=1)
                      if line.split("=")[0].split()[:1] == [key])) for key in keys]
    where = (f"line{'s' if len(lines) > 1 else ''} {' and '.join(lines)}: "
             if lines else "")
    assert str(caught.value).startswith(f"{cfg}: {where}"), str(caught.value)


@pytest.mark.parametrize("content", [None, "directory", b"problem = girder\xff\n"],
                         ids=["missing", "directory", "not_utf8"])
def test_an_unreadable_config_error_starts_with_its_file(tmp_path, content):
    cfg = tmp_path / "bad.cfg"
    if content == "directory":
        cfg.mkdir()
    elif content is not None:
        cfg.write_bytes(content)
    with pytest.raises(ConfigError, match="cannot read config") as caught:
        load_config(cfg)
    assert str(caught.value).startswith(f"{cfg}: ")


@pytest.mark.parametrize("name", ["girder_desk", "lbracket", "gripper", "clamped_tri"])
def test_build_problem_builds_no_mesh_operator(name):
    # the benchmark's setup time covers load_config and build_problem; the
    # mesh operators are built on a candidate's first use, not there
    path = resources.files("molto.configs").joinpath(f"{name}.cfg")
    mesh = load_config(path).build_problem().mesh
    operators = {"strain_operator", "strain_operator_transpose", "element_mean_operator",
                 "nodal_projection"}
    assert not operators & set(vars(mesh))
    assert mesh.strain_operator.shape == (3 * mesh.num_triangles, 2 * mesh.num_nodes)
    assert "strain_operator" in vars(mesh)


def test_export_field_roundtrip(tmp_path):
    mesh = build_rect_mesh(1.0, 1.0, 1, 1)
    phi = np.ones(mesh.num_nodes)
    path = tmp_path / "field.dat"
    cli.export_field(phi, mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"nodes {mesh.num_nodes} triangles {mesh.num_triangles}"
    assert all(line.endswith("1.000000000") for line in lines[1:1 + mesh.num_nodes])
    nodes, values, tris = cli.read_field(path)
    assert np.allclose(values, 1.0)
    assert np.array_equal(tris, mesh.triangles)
    # written decimals are reproduced exactly on a second write
    path2 = tmp_path / "again.dat"
    cli.export_field(values, mesh, path2)
    _, values2, _ = cli.read_field(path2)
    assert np.array_equal(values, values2)


def test_export_field_matches_row_format(tmp_path):
    # the batched writer produces the bytes of one formatted write per row,
    # signed zeros and large values included
    mesh = build_rect_mesh(1.0, 1.0, 2, 2, crossed=True)
    phi = np.linspace(-1.0, 1.0, mesh.num_nodes)
    phi[:3] = (-0.0, 1e6, -1e6)
    path = tmp_path / "field.dat"
    cli.export_field(phi, mesh, path)
    rows = [f"nodes {mesh.num_nodes} triangles {mesh.num_triangles}\n"]
    rows += [f"{x:.9f} {y:.9f} {value:.9f}\n" for (x, y), value in zip(mesh.nodes, phi)]
    rows += [f"{i} {j} {k}\n" for i, j, k in mesh.triangles]
    data = path.read_bytes()
    assert data == "".join(rows).encode()
    assert b" -0.000000000\n" in data and b" 1000000.000000000\n" in data


def test_register_roundtrip_fidelity(tmp_path):
    # one feasibility flag per constraint: two (stress pair) or one (volume)
    from molto.optimizer import SolutionCandidate
    for k, feasible in enumerate([(True, False), (False,)]):
        cands = [SolutionCandidate(w_star=(0.123456789012, 0.876543210988),
                                   w_final=(0.2, 0.8),
                                   objectives=(1.0 / 3.0, 2.0 / 7.0),
                                   normalized=(0.5, 0.25),
                                   feasible=feasible, converged=True,
                                   iterations=42)]
        path = tmp_path / f"register_{k}.csv"
        cli.write_register(cands, path)
        header = path.read_text().splitlines()[0].split(",")
        assert [c for c in header if c.startswith("feasible_")] == [
            f"feasible_{i + 1}" for i in range(len(feasible))]
        back = cli.read_register(path)[0]
        for a, b in zip(back.objectives, cands[0].objectives):
            assert abs(a - b) <= 1e-9 * abs(b)
        assert back.w_star == cands[0].w_star and back.normalized == (0.5, 0.25)
        assert back.feasible == feasible
        assert back.converged and back.iterations == 42


def test_cli_validate_and_errors(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(bundled_text("surrogate2"))
    assert cli.main(["validate", str(cfg)]) == 0
    assert "ok" in capsys.readouterr().out
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem = girder\nnonsense = 1\n")
    assert cli.main(["validate", str(bad)]) == 2


def test_cli_validate_lists_defaults_before_a_failing_first_candidate(tmp_path, capsys):
    # the first reference weight alone decides: its failure is exit 2, after
    # the applied defaults are listed
    text = bundled_text("girder_desk").replace("young = 1.0", "young = 1e300")
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(text.replace("ersatz_floor = 0.001\n", ""))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(["validate", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert f"warning: {cfg}: using default ersatz_floor = 0.001" in out
    assert f"{cfg}: the first candidate fails: SolverFailure" in err


def test_cli_rejects_window_above_max_iterations(tmp_path, capsys):
    text = bundled_text("girder_desk").replace("max_iterations = 800",
                                               "max_iterations = 3")
    cfg = tmp_path / "short.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "max_iterations (3) must be at least window (5)" in err
    assert not out.exists()


@pytest.mark.parametrize("name, old, new, message", [
    ("lbracket", "nx = 40", "nx = 7", "does not divide cut"),
    ("gripper", "dir_in = 1 0", "dir_in = 1.0 1.0", "must be a unit vector"),
    ("girder_desk", "weight_clamp = 0.001", "weight_clamp = 0.6",
     "out of range for 'weight_clamp'"),
    ("surrogate3", "; 0.15 0.15 0.70", "",
     "weights_init has 2 vectors, 3 objectives need at least 3"),
    ("surrogate3", "0.15 0.70 0.15 ;", "0.70 0.15 0.15 ;",
     "weights_init repeats the vector (0.7, 0.15, 0.15)"),
    ("lbracket", "cut = 0.6", "cut = 1.2", "cut must satisfy 0 < cut < outer"),
    ("surrogate2", "jobs = 1", "jobs = 1\nedge_tolerance = 0.5",
     "lines 4 and 8: key 'edge_tolerance' given twice"),
    ("surrogate2", "out_dir = molto_out/surrogate2", "out_dir =",
     "line 8: empty value for 'out_dir'"),
    ("girder_desk", "weights_init = 0.9 0.1 ; 0.1 0.9",
     "weights_init = 0.8 0.1 0.1 ; 0.1 0.8 0.1 ; 0.1 0.1 0.8",
     "girder requires 2 objectives, weights_init has 3"),
], ids=["lbracket_nx", "gripper_dir_in", "weight_clamp", "weights_too_few",
        "weights_repeated", "lbracket_cut", "key_repeated", "out_dir_empty",
        "weights_dimension"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_configs_the_problem_rejects(tmp_path, capsys, name, old, new,
                                                message, command):
    # each value passes the schema's type check; the parser's rules for
    # repeated keys and empty values, the problem, the weight clamp's real
    # range or the refinement loop's rules for the initial weights reject it
    # before any candidate runs
    text = bundled_text(name)
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new))
    out = tmp_path / "out"
    argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


_SMALL_GIRDER = {"nx = 60": "nx = 12", "ny = 30": "ny = 6"}


@pytest.mark.parametrize("via", ["flag", "env"])
def test_cli_unusable_output_dir_exits_before_any_candidate(tmp_path, monkeypatch,
                                                            capsys, via):
    # a path that cannot become a directory is bad input: the run stops
    # with exit 2 before it spends time on candidates whose results it
    # could not write
    text = bundled_text("girder_desk")
    for small, smaller in _SMALL_GIRDER.items():
        text = text.replace(small, smaller)
    cfg = tmp_path / "g.cfg"
    cfg.write_text(text)
    taken = tmp_path / "taken"
    taken.write_text("")
    calls = []
    monkeypatch.setattr(asd, "run_candidate", lambda *args: calls.append(args))
    argv = ["run", str(cfg)]
    if via == "env":
        monkeypatch.setenv(cli.OUTPUT_ENV, str(taken))
    else:
        monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
        argv += ["--out", str(taken)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "cannot create output directory" in err and "Traceback" not in err
    assert calls == []


@pytest.mark.parametrize("name, old, new, runner", [
    ("surrogate2", "weights_init = 0.9 0.1", "weights_init = nan nan", "surrogate"),
    ("girder_desk", "wave_speed = 0.2", "wave_speed = inf", "run"),
    ("girder_desk", "traction = 1.0", "traction = inf", "run"),
    ("girder_desk", "young = 1.0", "young = inf", "run"),
], ids=["weights_nan", "wave_speed_inf", "traction_inf", "young_inf"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_non_finite_values(tmp_path, capsys, name, old, new, runner,
                                       command):
    # each value passes its range check (nan fails none of the weight checks,
    # inf is positive); the parser names the line instead
    text = bundled_text(name)
    for small, smaller in _SMALL_GIRDER.items():
        text = text.replace(small, smaller)
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new))
    out = tmp_path / "out"
    argv = ([command, str(cfg)] if command == "validate"
            else [runner, str(cfg), "--out", str(out)])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    lineno = next(i for i, line in enumerate(text.splitlines(), start=1)
                  if line.startswith(old))
    assert f"line {lineno}: cannot parse" in err and "not a finite number" in err
    assert "Traceback" not in err
    assert not out.exists()


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected an argument
        return exc.code


@pytest.mark.parametrize("argv", [
    ["run", "{cfg}", "--jobs", "0"],
    ["surrogate", "{cfg}", "--jobs", "-3"],
    ["pareto", "{register}", "--tol", "-1"],
    ["pareto", "{missing}"],
    ["pareto", "{empty}"],
    ["pareto", "{register}", "--out", "{tmp}/missing_dir/x.csv"],
    ["pareto", "{register}", "--out", "{tmp}"],
])
def test_cli_bad_arguments_exit_2(tmp_path, monkeypatch, capsys, argv):
    out = tmp_path / "out"
    monkeypatch.setenv(cli.OUTPUT_ENV, str(out))
    cfg = tmp_path / "s.cfg"
    cfg.write_text(bundled_text("surrogate2"))
    register = tmp_path / "register.csv"
    cli.write_register([_candidate((1.0, 2.0))], register)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    paths = {"cfg": cfg, "register": register, "missing": tmp_path / "none.csv",
             "empty": empty, "tmp": tmp_path}
    assert _exit_code([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() and "Traceback" not in captured.err
    assert not out.exists()


def test_cli_surrogate_run_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(bundled_text("surrogate2"))
    out = tmp_path / "results"
    assert cli.main(["surrogate", str(cfg), "--out", str(out)]) == 0
    register = out / "register.csv"
    levels = out / "levels.csv"
    pareto = out / "pareto.csv"
    assert register.exists() and levels.exists() and pareto.exists()
    with open(levels) as fh:
        rows = list(csv.reader(fh))
    means = [float(r[2]) for r in rows[1:]]
    assert all(a > b for a, b in zip(means, means[1:]))
    candidates = cli.read_register(register)
    assert len(candidates) >= 8


def test_cli_surrogate_requires_surrogate_kind(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text(bundled_text("girder"))
    assert cli.main(["surrogate", str(cfg)]) == 2


def test_cli_env_var_output_dir(tmp_path, monkeypatch):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(bundled_text("surrogate2"))
    target = tmp_path / "env_out"
    monkeypatch.setenv(cli.OUTPUT_ENV, str(target))
    assert cli.main(["surrogate", str(cfg)]) == 0
    assert (target / "register.csv").exists()


def test_cli_pareto_offline(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(bundled_text("surrogate2"))
    out = tmp_path / "res"
    cli.main(["surrogate", str(cfg), "--out", str(out)])
    capsys.readouterr()
    filtered = tmp_path / "filtered.csv"
    assert cli.main(["pareto", str(out / "register.csv"), "--tol", "1e-6",
                     "--out", str(filtered)]) == 0
    kept = cli.read_register(filtered)
    assert len(kept) >= 8


BOM = b"\xef\xbb\xbf"  # UTF-8 byte order mark, as some Windows editors write it


@pytest.mark.parametrize("name", BUNDLED)
def test_cli_validate_accepts_a_byte_order_mark(tmp_path, capsys, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_bytes(BOM + bundled_text(name).encode("utf-8"))
    assert cli.main(["validate", str(cfg)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_pareto_reads_a_register_with_a_byte_order_mark(tmp_path, capsys):
    register = tmp_path / "register.csv"
    cli.write_register([_candidate((1.0, 2.0)), _candidate((2.0, 1.0)),
                        _candidate((3.0, 3.0))], register)
    register.write_bytes(BOM + register.read_bytes())
    out = tmp_path / "filtered.csv"
    assert cli.main(["pareto", str(register), "--out", str(out)]) == 0
    assert [c.objectives for c in cli.read_register(out)] == [(1.0, 2.0), (2.0, 1.0)]


def test_cli_pareto_rejects_empty_register(tmp_path, capsys):
    register = tmp_path / "register.csv"
    cli.write_register([_candidate((1.0, 2.0))], register)
    header = register.read_text().splitlines()[0]
    register.write_text(header + "\n")
    out = tmp_path / "filtered.csv"
    assert cli.main(["pareto", str(register), "--out", str(out)]) == 2
    assert "no candidate rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("header", [
    "a,b,c",
    # a register's header without its normalized objectives
    "index,wstar_1,wstar_2,wfinal_1,wfinal_2,j_1,j_2,feasible_1,converged,iterations",
], ids=["foreign", "truncated"])
def test_cli_pareto_rejects_a_csv_that_is_not_a_register(tmp_path, capsys, header):
    bad = tmp_path / "bad.csv"
    width = len(header.split(","))
    bad.write_text("\n".join([header, ",".join(["1"] * width),
                               ",".join(["2"] * width)]) + "\n")
    out = tmp_path / "o.csv"
    assert cli.main(["pareto", str(bad), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert str(bad) in captured.err and "not a register" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("1,0.5,0.5,0.5,0.5,nan,1.5,1,1,1,1,1,3", "non-finite"),
    ("1,0.5,0.5,0.5,0.5,inf,1.5,1,1,1,1,1,3", "non-finite"),
    ("1,0.5,0.5,0.5,0.5,abc,1.5,1,1,1,1,1,3", "malformed"),
    ("1,0.5,0.5", "malformed"),
    ("1,0.5,0.5,0.5,0.5,1.0,2.0,1,1,7,1,1,3", "malformed"),
    ("1,0.5,0.5,0.5,0.5,1.0,2.0,1,1,1,1,-3,3", "malformed"),
    ("1,0.5,0.5,0.5,0.5,1.0,2.0,1,1,1,1,1,-12", "malformed"),
    ("abc,-5,6,0.5,0.5,1.0,2.0,1,1,1,1,1,3", "malformed"),
    ("abc,0.5,0.5,0.5,0.5,1.0,2.0,1,1,1,1,1,3", "malformed"),
    ("-1,0.5,0.5,0.5,0.5,1.0,2.0,1,1,1,1,1,3", "malformed"),
    ("1.5,0.5,0.5,0.5,0.5,1.0,2.0,1,1,1,1,1,3", "malformed"),
    ("1,-5,6,0.5,0.5,1.0,2.0,1,1,1,1,1,3", "open simplex"),
    ("1,0.5,0.6,0.5,0.5,1.0,2.0,1,1,1,1,1,3", "open simplex"),
    ("1,0.5,0.5,1.0,0.0,1.0,2.0,1,1,1,1,1,3", "open simplex"),
    ("1,0.5,0.5,0.5,nan,1.0,2.0,1,1,1,1,1,3", "open simplex"),
])
def test_cli_pareto_rejects_bad_rows(tmp_path, capsys, row, message):
    register = tmp_path / "register.csv"
    cli.write_register([_candidate((1.0, 2.0))], register)
    lines = register.read_text().splitlines()
    finite = "2,0.5,0.5,0.5,0.5,2.0,1.0,1,1,1,1,1,3"
    register.write_text("\n".join([*lines, row, finite]) + "\n")
    assert cli.main(["pareto", str(register)]) == 2
    captured = capsys.readouterr()
    assert "line 3" in captured.err and message in captured.err
    assert captured.out == ""


@pytest.fixture(scope="module")
def surrogate_register(tmp_path_factory):
    """The register of a surrogate2.cfg run capped at two refinement levels."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "s.cfg"
    cfg.write_text(bundled_text("surrogate2").replace("max_levels = 6", "max_levels = 2"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["surrogate", str(cfg), "--out", str(root / "out")]) == 0
    return root, (root / "out" / "register.csv").read_bytes()


_CELLS = st.one_of(
    st.sampled_from(["", "x", "nan", "-nan", "inf", "-inf", "1e999", "0.5", "0", "1", "-1"]),
    # past the csv module's field limit, and integers past int()'s digit limit
    st.sampled_from(["1" * 200_000, "9" * 5000, "9" * 40, "-" + "9" * 40]),
    st.text(max_size=6))
_BYTES = st.one_of(st.sampled_from([b"\x00", b"\xef\xbb\xbf", b"\xff", b"\r", b"\n",
                                    b'"', b","]),
                   st.binary(min_size=1, max_size=4))


@st.composite
def _mutated(draw, register: bytes) -> bytes:
    """``register`` with one to three edits: a cell replaced, a row or column
    dropped or repeated, bytes inserted, or the file truncated. The header
    is the last row drawn, so most edits reach the data rows."""
    rows = list(csv.reader(register.decode().splitlines()))
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["cell", "drop_row", "repeat_row", "drop_column",
                                     "repeat_column", "insert", "truncate"]))
        if edit in ("insert", "truncate"):
            edits.append((edit, draw(st.integers(0, 10 ** 6)), draw(_BYTES)))
            continue
        if not rows:
            continue
        i = draw(st.sampled_from([*range(1, len(rows)), 0]))
        j = draw(st.integers(0, max(len(rows[i]) - 1, 0)))
        if edit == "cell" and rows[i]:
            rows[i][j] = draw(_CELLS)
        elif edit == "drop_row":
            del rows[i]
        elif edit == "repeat_row":
            rows.insert(i, list(rows[i]))
        elif edit.endswith("column"):
            # a column edit reaches the data rows or, as drawn, the header too
            for row in rows[draw(st.sampled_from([1, 0])):]:
                row[j:j + 1] = row[j:j + 1] * (2 if edit == "repeat_column" else 0)
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    data = text.getvalue().encode()
    for edit, back, extra in edits:
        at = len(data) - back % (len(data) + 1)
        data = data[:at] + extra + data[at:] if edit == "insert" else data[:at]
    return data


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_pareto_ends_in_a_bounded_exit_on_a_mutated_register(surrogate_register, data):
    # whatever the edits, molto pareto accepts the register or rejects it
    # with a message (exit 2); it never raises
    root, register = surrogate_register
    path = root / "mutated.csv"
    path.write_bytes(data.draw(_mutated(register)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(["pareto", str(path)])
    assert code in (0, 2)
    assert code == 0 or err.getvalue().strip()


# every bundled config capped so that an example runs in a fraction of a
# second: a coarse mesh, a few iterations, no refinement and at most two
# workers; the L-bracket's spacing must divide its cut
_FUZZ_CAPS = {"nx": 12, "ny": 6, "max_iterations": 3, "window": 2, "max_levels": 0,
              "jobs": 2}
_FUZZ_VALUES = st.one_of(
    st.sampled_from(["", "x", "nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e-300",
                     "1e999", "0", "-0", "-1", "2", "0.5", "1_0", "0x10", "\u0661\u0662",
                     "0.5 0.5", "1 0", "0.9 0.1 ; 0.1 0.9", "True", "1e", "+", "\xa0"]),
    st.text(max_size=6))
_FUZZ_BYTES = st.one_of(st.sampled_from([b"\xef\xbb\xbf", b"\xff", b"\x00", b"\r", b"\n",
                                         b"=", b"#", b";", b"\t", b"\xe2\x80\x8b"]),
                        st.binary(min_size=1, max_size=3))


def _capped_lines(name: str) -> list:
    """The key = value lines of the bundled config ``name``, capped."""
    caps = {**_FUZZ_CAPS, "nx": 10} if name == "lbracket" else _FUZZ_CAPS
    lines = []
    for line in bundled_text(name).splitlines():
        key = line.split("=", 1)[0].strip()
        lines.append(f"{key} = {caps[key]}" if key in caps else line)
    return lines


@st.composite
def _mutated_config(draw) -> bytes:
    """A capped bundled config with one to three edits: a key dropped,
    repeated or blanked, a value replaced, or bytes inserted."""
    lines = _capped_lines(draw(st.sampled_from(BUNDLED)))
    inserts = []
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop", "repeat", "blank", "value", "bytes"]))
        if edit == "bytes":
            inserts.append((draw(st.integers(0, 10 ** 6)), draw(_FUZZ_BYTES)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        key = lines[i].split("=", 1)[0].strip()
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        else:
            lines[i] = f"{key} = {'' if edit == 'blank' else draw(_FUZZ_VALUES)}"
    data = ("\n".join(lines) + "\n").encode()
    for back, extra in inserts:
        at = len(data) - back % (len(data) + 1)
        data = data[:at] + extra + data[at:]
    return data


def _within_caps(data: bytes) -> bool:
    """Whether ``data``, if it loads at all, keeps every value within
    ``_FUZZ_CAPS``: an edit may drop a capped key, and its default is the
    full size."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            values = parse_config(data.decode("utf-8-sig")).values
    except Exception:   # the CLI run of the example reports it
        return True
    return all(values.get(key, 0) <= cap for key, cap in _FUZZ_CAPS.items())


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_validate_and_run_end_in_a_bounded_exit_on_a_mutated_config(fuzz_dir, data):
    # whatever the edits, validate and a capped run each end in exit 0, 1 or
    # 2, with a message for 1 and 2, and never raise
    config = data.draw(_mutated_config())
    assume(_within_caps(config))
    cfg = fuzz_dir / "mutated.cfg"
    cfg.write_bytes(config)
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(fuzz_dir / "out")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("ignore")
            mp.delenv(cli.OUTPUT_ENV, raising=False)
            code = cli.main(argv)
        assert code in (0, 1, 2)
        assert code == 0 or err.getvalue().strip()


def _too_large(*args, **kwargs):
    raise MemoryError("Unable to allocate 364. TiB for an array")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_mesh_too_large_to_allocate_is_a_configuration_error(tmp_path, monkeypatch,
                                                               capsys, command):
    # no array is allocated: the mesh builder fails as numpy does for a mesh
    # past the address space
    monkeypatch.setattr(problems, "build_rect_mesh", _too_large)
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    cfg = tmp_path / "g.cfg"
    cfg.write_text(bundled_text("girder_desk"))
    out = tmp_path / "out"
    argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: girder: the problem does not fit in memory: " \
        "Unable to allocate 364. TiB" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_running_out_of_memory_mid_run_exits_1(tmp_path, monkeypatch, capsys, command):
    # the first candidate builds the stiffness pattern, once the problem is
    # built: running out of memory there is exit 1 for validate and run
    monkeypatch.setattr(el, "StiffnessPattern", _too_large)
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    cfg = tmp_path / "g.cfg"
    text = bundled_text("girder_desk")
    for small, smaller in _SMALL_GIRDER.items():
        text = text.replace(small, smaller)
    cfg.write_text(text)
    argv = [command, str(cfg)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert cli.main(argv) == 1
    assert "error: out of memory: Unable to allocate 364. TiB" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run", "pareto"])
def test_cli_rejects_input_that_is_not_utf8(tmp_path, monkeypatch, capsys, command):
    out = tmp_path / "out"
    monkeypatch.setenv(cli.OUTPUT_ENV, str(out))
    if command == "pareto":
        bad = tmp_path / "register.csv"
        cli.write_register([_candidate((1.0, 2.0))], bad)
    else:
        bad = tmp_path / "s.cfg"
        bad.write_text(bundled_text("surrogate2"))
    # a byte that no UTF-8 text contains, in a comment line
    bad.write_bytes(bad.read_bytes() + b"# \xff\n")
    assert cli.main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert str(bad) in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def _candidate(objectives):
    from molto.optimizer import SolutionCandidate
    return SolutionCandidate(w_star=(0.5, 0.5), w_final=(0.5, 0.5),
                             objectives=objectives, normalized=objectives,
                             feasible=(True, True), converged=True, iterations=3)


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ENV, str(tmp_path / "out"))
    cfg = tmp_path / "s.cfg"
    cfg.write_text(bundled_text("surrogate2"))

    def explode(*args, **kwargs):
        raise RuntimeError("synthetic numerical failure")

    monkeypatch.setattr(cli, "run_asd", explode)
    assert cli.main(["surrogate", str(cfg)]) == 1


def test_cli_fem_run_smoke(tmp_path, monkeypatch):
    # tiny girder run end to end through the CLI
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    text = bundled_text("girder_desk")
    text = text.replace("nx = 60", "nx = 20").replace("ny = 30", "ny = 10")
    text = text.replace("max_iterations = 800", "max_iterations = 30")
    text = text.replace("max_levels = 3", "max_levels = 1")
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(text)
    out = tmp_path / "fem_out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "register.csv").exists()
    # the register reads back: one feasibility flag per (volume) constraint
    assert cli.main(["pareto", str(out / "register.csv")]) == 0
    assert cli.read_register(out / "register.csv")[0].feasible in ((True,), (False,))
    assert (out / "candidate_0.csv").exists()
    assert (out / "candidate_0_final.dat").exists()
    nodes, values, tris = cli.read_field(out / "candidate_0_final.dat")
    assert np.abs(values).max() <= 1.0


def test_cli_register_independent_of_jobs(tmp_path, monkeypatch):
    # two workers share the problem and its lazily built stiffness pattern
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    text = bundled_text("lbracket")
    text = text.replace("nx = 40", "nx = 10")
    text = text.replace("max_iterations = 800", "max_iterations = 25")
    text = text.replace("max_levels = 3", "max_levels = 1")
    cfg = tmp_path / "small.cfg"
    cfg.write_text(text)
    registers = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["run", str(cfg), "--jobs", str(jobs), "--out", str(out)]) == 0
        registers.append((out / "register.csv").read_bytes())
    assert registers[0].count(b"\n") >= 3
    assert registers[0] == registers[1]


def test_cli_writes_failures(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    from molto.errors import SolverFailure
    from molto.problems import SurrogateProblem

    real = SurrogateProblem.evaluate

    def evaluate(self, w_star):
        if np.allclose(w_star, (0.5, 0.5)):
            raise SolverFailure("synthetic breakdown at the middle weight")
        return real(self, w_star)

    monkeypatch.setattr(SurrogateProblem, "evaluate", evaluate)
    text = bundled_text("surrogate2")
    text = text.replace("weights_init = 0.9 0.1 ; 0.1 0.9",
                        "weights_init = 0.9 0.1 ; 0.5 0.5 ; 0.1 0.9")
    text = text.replace("max_levels = 6", "max_levels = 0")
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    out = tmp_path / "results"
    assert cli.main(["surrogate", str(cfg), "--out", str(out)]) == 0
    with open(out / "failures.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["wstar_1", "wstar_2", "error"],
                    ["0.5", "0.5",
                     "SolverFailure: synthetic breakdown at the middle weight"]]
    assert len(cli.read_register(out / "register.csv")) == 2


def test_cli_failed_sweep_names_its_cause(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)
    from molto.errors import SolverFailure
    from molto.problems import SurrogateProblem

    def evaluate(self, w_star):
        raise SolverFailure("synthetic breakdown")

    monkeypatch.setattr(SurrogateProblem, "evaluate", evaluate)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(bundled_text("surrogate2"))
    assert cli.main(["surrogate", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert ("all 2 candidates failed at level 0; "
            "first: SolverFailure: synthetic breakdown") in err


def test_an_interrupted_run_exits_130(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.OUTPUT_ENV, raising=False)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_asd", interrupted)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(bundled_text("surrogate2"))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 130
    assert capsys.readouterr().err == "interrupted\n"


# each config capped to a few iterations of one level on a coarse mesh
_EXTREME_CAPS = {"girder_desk": {"nx": "6", "ny": "3"}, "lbracket": {"nx": "10"},
                 "gripper": {"nx": "6", "ny": "3"}}


def test_extreme_float_values_end_in_a_bounded_exit(tmp_path, capsys):
    # every float key of three configs set, one at a time, to 1e300 and to
    # 1e-300: validate and run each end in exit 0, 1 or 2, with a message
    # for 1 and 2, and never in an escaping exception. Validate runs the
    # first passes of the first candidate, so it passes no probe on which
    # every candidate of the run fails, and rejects none the run takes
    # without a failure
    cfg = tmp_path / "extreme.cfg"
    escaped, silent, passed_then_failed, rejected_clean, probes = [], [], [], [], 0
    for name, caps in _EXTREME_CAPS.items():
        caps = {**caps, "max_iterations": "5", "max_levels": "0", "jobs": "1"}
        lines = [line.split("=", 1) for line in bundled_text(name).splitlines()
                 if "=" in line and not line.startswith("#")]
        values = {key.strip(): value.strip() for key, value in lines}
        floats = [key for key, default in KINDS[values["problem"]].keys.items()
                  if isinstance(default, float) and key in values]
        for key in floats:
            for extreme in ("1e300", "1e-300"):
                text = "\n".join(f"{k} = {v}" for k, v in
                                 {**values, **caps, key: extreme}.items())
                cfg.write_text(text + "\n")
                out = tmp_path / f"{name}_{key}_{extreme}"
                codes = {}
                for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
                    probes += 1
                    probe = (name, key, extreme, argv[0])
                    try:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            code = codes[argv[0]] = cli.main(argv)
                    except Exception as exc:
                        escaped.append((*probe, f"{type(exc).__name__}: {exc}"))
                        continue
                    err = capsys.readouterr().err
                    if code not in (0, 1, 2) or (code and not err.strip()):
                        silent.append((*probe, code))
                if codes.get("validate") == 0 and codes.get("run") == 1:
                    passed_then_failed.append((name, key, extreme))
                if (codes.get("run") == 0 and codes.get("validate") != 0
                        and len((out / "failures.csv").read_text().splitlines()) == 1):
                    rejected_clean.append((name, key, extreme))
    assert probes == 288
    assert escaped == []
    assert silent == []
    assert passed_then_failed == []
    assert rejected_clean == []
