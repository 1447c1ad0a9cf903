"""Command line interface: run, surrogate, validate, pareto.

Exit codes: 0 success, 1 numerical failure or out of memory, 2 configuration
error, 130 interrupted (the candidates finished by then are not written yet).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .asd import ASDConfig, dedup, normalize_objectives, pareto_filter, run_asd
from .config import load_config
from .errors import ConfigError, MoltoError
from .mesh import Mesh
from .optimizer import SolutionCandidate, run_candidate
from .weights import in_open_simplex

OUTPUT_ENV = "MOLTO_OUTPUT_DIR"


def export_field(phi: np.ndarray, mesh: Mesh, path) -> None:
    """Write a nodal field as `x y value` rows plus triangle connectivity."""
    if phi.shape != (mesh.num_nodes,):
        raise MoltoError("field dimension does not match mesh")
    with open(path, "w") as fh:
        fh.write(f"nodes {mesh.num_nodes} triangles {mesh.num_triangles}\n")
        rows = np.column_stack([mesh.nodes, phi])
        fh.write("%.9f %.9f %.9f\n" * mesh.num_nodes % tuple(rows.ravel().tolist()))
        fh.write("%d %d %d\n" * mesh.num_triangles % tuple(mesh.triangles.ravel().tolist()))


def read_field(path):
    with open(path) as fh:
        header = fh.readline().split()
        n_nodes, n_tris = int(header[1]), int(header[3])
        rows = [fh.readline().split() for _ in range(n_nodes)]
        tris = [fh.readline().split() for _ in range(n_tris)]
    nodes = np.array([[float(r[0]), float(r[1])] for r in rows])
    values = np.array([float(r[2]) for r in rows])
    triangles = np.array([[int(c) for c in r] for r in tris])
    return nodes, values, triangles


def _candidate_row(index: int, cand: SolutionCandidate) -> list:
    return ([index] + list(cand.w_star) + list(cand.w_final)
            + list(cand.objectives) + list(cand.normalized)
            + [int(f) for f in cand.feasible]
            + [int(cand.converged), cand.iterations])


def _register_header(m: int, n_feasible: int) -> list:
    """Columns of a register with m objectives and one feasibility flag per
    constraint."""
    return (["index"]
            + [f"wstar_{a + 1}" for a in range(m)]
            + [f"wfinal_{a + 1}" for a in range(m)]
            + [f"j_{a + 1}" for a in range(m)]
            + [f"jnorm_{a + 1}" for a in range(m)]
            + [f"feasible_{k + 1}" for k in range(n_feasible)]
            + ["converged", "iterations"])


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_register(candidates, path) -> None:
    first = candidates[0]
    _write_csv(path, _register_header(len(first.objectives), len(first.feasible)),
               (_candidate_row(i, cand) for i, cand in enumerate(candidates)))


def read_register(path) -> list:
    candidates = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh.readlines())
            # each row with the line it ends on
            rows = [(reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read register {path}: {exc}") from exc
    header = rows[0][1] if rows else []
    m = sum(1 for name in header if name.startswith("wstar_"))
    n_g = sum(1 for name in header if name.startswith("feasible_"))
    if m < 1 or header != _register_header(m, n_g):
        raise ConfigError(f"{path}: not a register (unexpected header)")
    for line, row in rows[1:]:
        vals = row[1:]
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} columns, the header has {len(header)}")
            w_star, w_final, objectives, normalized = (
                tuple(map(float, vals[k * m:(k + 1) * m])) for k in range(4))
            *flags, iterations = (int(v) for v in vals[4 * m:])
            if not set(flags) <= {0, 1} or min(int(row[0]), iterations) < 0:
                raise ValueError("flags must be 0 or 1, index and iterations >= 0")
            if not (in_open_simplex(w_star) and in_open_simplex(w_final)):
                raise ValueError("wstar and wfinal must lie in the open simplex")
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}: line {line}: malformed row ({exc})") from exc
        if not np.all(np.isfinite(objectives)):
            raise ConfigError(f"{path}: line {line}: non-finite objective")
        candidates.append(SolutionCandidate(
            w_star=w_star, w_final=w_final, objectives=objectives,
            normalized=normalized, feasible=tuple(map(bool, flags[:-1])),
            converged=bool(flags[-1]), iterations=iterations))
    return candidates


def _write_outputs(result, out_dir: Path, problem) -> None:
    candidates = result.register.candidates
    write_register(candidates, out_dir / "register.csv")

    _write_csv(out_dir / "levels.csv",
               ["level", "candidates", "mean_edge", "std_edge"], result.history)
    _write_csv(out_dir / "failures.csv",
               [f"wstar_{a + 1}" for a in range(problem.num_objectives)] + ["error"],
               ([*cand.w_star, cand.error] for cand in result.failures))

    for k, cand in enumerate(candidates):
        if cand.history:
            m = len(cand.objectives)
            n_g = len(cand.history[0][2])
            _write_csv(out_dir / f"candidate_{k}.csv",
                       ["iteration"] + [f"j_{a + 1}" for a in range(m)]
                       + [f"g_{a + 1}" for a in range(n_g)]
                       + [f"w_{a + 1}" for a in range(m)],
                       ([s, *j, *g, *w] for s, j, g, w in cand.history))
        if cand.phi is not None:
            export_field(cand.phi, problem.mesh, out_dir / f"candidate_{k}_final.dat")

    pareto = result.pareto
    if pareto:
        m = len(pareto[0].objectives)
        coords = normalize_objectives(np.array([c.objectives for c in pareto]))
        _write_csv(out_dir / "pareto.csv", [f"j_{a + 1}" for a in range(m)]
                   + [f"jhat_{a + 1}" for a in range(m)],
                   (list(cand.objectives) + list(coord)
                    for cand, coord in zip(pareto, coords)))


def _cmd_validate(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = load_config(args.config)
        problem = config.build_problem()
        # the first passes of the first candidate, as run takes them
        first = run_candidate(problem, config.initial_weights()[0], dataclasses.replace(
            config.run_config(), max_iterations=2, window=2))
    for w in caught:
        print(f"warning: {w.message}")
    if first.failed:
        raise ConfigError(f"{args.config}: the first candidate fails: {first.error}")
    print(f"ok: {config.kind} configuration with "
          f"{len(config.initial_weights())} initial weights")
    return 0


def _run_common(args, require_kind=None) -> int:
    config = load_config(args.config)
    if require_kind and config.kind != require_kind:
        raise ConfigError(f"expected a {require_kind} configuration, "
                          f"got '{config.kind}'")
    asd_cfg = config.asd_config()
    if args.jobs is not None:
        asd_cfg.jobs = args.jobs
    out_dir = Path(os.environ.get(OUTPUT_ENV) or args.out or config.values["out_dir"])
    problem = config.build_problem()
    # before any candidate runs, so a bad directory costs no results
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    result = run_asd(problem, config.initial_weights(), asd_cfg)
    _write_outputs(result, out_dir, problem)
    for level, count, mean, std in result.history:
        print(f"level {level}: {count} candidates, "
              f"mean edge {mean:.6f} (std {std:.6f})")
    print(f"{len(result.pareto)} Pareto-efficient candidates "
          f"({len(result.failures)} failed runs) -> {out_dir}")
    return 0


def _cmd_pareto(args) -> int:
    candidates = read_register(args.register)
    if not candidates:
        raise ConfigError(f"{args.register}: register has no candidate rows")
    kept = pareto_filter(dedup(candidates, args.tol))
    out = Path(args.out) if args.out else None
    if out:
        try:
            write_register(kept, out)
        except OSError as exc:
            raise ConfigError(f"cannot write register {out}: {exc}") from exc
        print(f"{len(kept)} of {len(candidates)} candidates kept -> {out}")
    else:
        for cand in kept:
            print(",".join(f"{v:.9g}" for v in cand.objectives))
    return 0


def _checked(convert, ok, requirement):
    """An argparse type: ``convert`` the text, then require ``ok`` of it."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


_JOBS = _checked(int, lambda v: v > 0, "a positive integer")
_TOL = _checked(float, lambda v: v >= 0.0, "a non-negative number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molto",
        description="Multi-objective level set topology optimization with "
                    "adaptive simplex refinement of the Pareto frontier")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("run", "run the full refinement loop"),
                       ("surrogate", "run the refinement loop on an analytic mapping")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("config")
        cmd.add_argument("--jobs", type=_JOBS, default=None)
        cmd.add_argument("--out", default=None)

    val = sub.add_parser("validate", help="check a configuration file")
    val.add_argument("config")

    par = sub.add_parser("pareto", help="re-filter a register CSV offline")
    par.add_argument("register")
    par.add_argument("--tol", type=_TOL, default=ASDConfig.dedup_tolerance)
    par.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "run":
            return _run_common(args)
        if args.command == "surrogate":
            return _run_common(args, require_kind="surrogate")
        return _cmd_pareto(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (MoltoError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
