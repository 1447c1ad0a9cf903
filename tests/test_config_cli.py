import csv
import warnings
from importlib import resources

import numpy as np
import pytest

import molto.asd as asd
import molto.cli as cli
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
