"""molto benchmark: one workload, one process.

    python3 bench/run.py --workload girder_sweep --seed 0 --seconds 40 --trace 0

Each sweep drives the same path as ``molto run`` / ``molto surrogate``:
``molto.cli.main`` loads the generated config, builds the problem, runs the
ASD loop and writes the outputs. Sweeps repeat while another one fits in
``--seconds``; every sweep is checked against the recorded fingerprint and
against the files it wrote. With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` the run first times untraced
sweeps, then installs the layer wrappers of ``tracing.py`` and reports the
per-layer table plus the tracing overhead. Spans and a full record go to
``.bench_out/<workload>/``. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5          # set-ups timed before each untraced sweep
PROBE_MMAP_THRESHOLD = 128 * 1024


class BenchError(Exception):
    """The program cannot be run or measured from this checkout."""


def load_program():
    """Import molto from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "molto" / "__init__.py").is_file():
        raise BenchError(f"no molto sources under {src}")
    sys.path.insert(0, str(src))
    import molto
    if Path(molto.__file__).resolve().parent != (src / "molto").resolve():
        raise BenchError(f"imported molto from {molto.__file__}, not {src}")
    import molto.cli
    import molto.config
    return molto


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": git_commit(),
            "threads": {k: os.environ.get(k) for k in wl.THREAD_ENV}}


class Sweeper:
    """Runs sweeps through the CLI and keeps each sweep's ASDResult."""

    def __init__(self, molto, workload: wl.Workload, cfg_path: Path,
                 out_dir: Path):
        self.cli = molto.cli
        self.config = molto.config
        self.setup_times = []
        self.workload = workload
        self.cfg_path = cfg_path
        self.out_dir = out_dir
        self.result = None
        run_asd = self.cli.run_asd

        def capture(*args, **kwargs):
            self.result = run_asd(*args, **kwargs)
            return self.result
        self.cli.run_asd = capture

    def time_setup(self) -> None:
        """Time load_config + build_problem, the sweep's set-up. Spreading
        the repetitions over the run, between sweeps, keeps their median
        as steady as the sweeps' own."""
        for _ in range(SETUP_REPS):
            start = perf_counter()
            self.config.load_config(self.cfg_path).build_problem()
            self.setup_times.append(perf_counter() - start)

    def run(self, tracer=None):
        """One sweep; returns (seconds, exit code, ASDResult or None)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [self.workload.command, str(self.cfg_path),
                "--out", str(self.out_dir)]
        self.result = None
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                start = perf_counter()
                code = self.cli.main(argv)
                seconds = perf_counter() - start
            else:
                code, root = tracer.root(lambda: self.cli.main(argv))
                seconds = root.duration
        return seconds, code, self.result


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_outputs(result, out_dir: Path, workload: wl.Workload) -> list:
    """The written files agree with the sweep's in-memory result."""
    errors = []
    cands = result.register.candidates
    rows = _csv_rows(out_dir / "register.csv")
    m = len(cands[0].objectives)
    if len(rows) != len(cands):
        errors.append(f"register.csv has {len(rows)} rows for {len(cands)} candidates")
    for row, cand in zip(rows, cands):
        written = tuple(float(v) for v in row[1 + 2 * m:1 + 3 * m])
        if written != tuple(float(j) for j in cand.objectives):
            errors.append(f"register.csv objectives {written} != {cand.objectives}")
            break
    if len(_csv_rows(out_dir / "levels.csv")) != len(result.history):
        errors.append("levels.csv does not match the refinement history")
    if len(_csv_rows(out_dir / "pareto.csv")) != len(result.pareto):
        errors.append("pareto.csv does not match the Pareto set")
    if workload.fem:
        for k, cand in enumerate(cands):
            if len(_csv_rows(out_dir / f"candidate_{k}.csv")) != cand.iterations + 1:
                errors.append(f"candidate_{k}.csv does not hold every iteration")
            if not (out_dir / f"candidate_{k}_final.dat").is_file():
                errors.append(f"candidate_{k}_final.dat is missing")
    return errors


def check_girder(result) -> list:
    """Criterion 9's shape checks that hold on capped candidates too."""
    errors = []
    if result.failures:
        errors.append(f"{len(result.failures)} failed candidates")
    for cand in result.register.candidates:
        if cand.weight_clamps:
            errors.append(f"w*={cand.w_star}: {cand.weight_clamps} weight clamps")
    means = [row[2] for row in result.history]
    if not all(a > b for a, b in zip(means, means[1:])):
        errors.append(f"mean edge length does not fall level by level: {means}")
    return errors


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def run_phase(sweeper, budget: float, record: dict, tracer=None) -> list:
    """Sweeps until the next one would overrun ``budget`` (at least one);
    returns one dict per sweep."""
    sweeps = []
    elapsed = 0.0
    while not sweeps or elapsed + statistics.median(
            s["seconds"] for s in sweeps) <= budget:
        if tracer is None:
            sweeper.time_setup()
        seconds, code, result = sweeper.run(tracer)
        elapsed += seconds
        sweep = {"seconds": seconds, "code": code, "result": result,
                 "bytes": output_bytes(sweeper.out_dir)
                 if sweeper.out_dir.is_dir() else 0,
                 "errors": [], "max_rel_diff": 0.0}
        if code != 0 or result is None:
            sweep["errors"].append(f"molto exited with code {code}")
        else:
            errors, worst = wl.compare(wl.fingerprint(result), record)
            errors += check_outputs(result, sweeper.out_dir, sweeper.workload)
            if sweeper.workload.girder_checks:
                errors += check_girder(result)
            sweep["errors"] = errors
            sweep["max_rel_diff"] = worst
        for err in sweep["errors"]:
            print(f"FAIL {sweeper.workload.name}: {err}", file=sys.stderr)
        sweeps.append(sweep)
    return sweeps


def _counts(sweeps):
    attempted = failed = 0
    for s in sweeps:
        r = s["result"]
        if r is None:   # a sweep without a result is one failed attempt
            attempted += 1
            failed += 1
        else:
            attempted += len(r.register) + len(r.failures)
            failed += len(r.failures)
    return attempted, failed


def peak_rss_mb(workload: wl.Workload, seed: int) -> float:
    """Peak resident memory of one sweep in a fresh process (rss_probe.py).

    glibc's mmap threshold is pinned there, so freed large arrays go back to
    the OS and the peak is the live high-water mark; with the default
    sliding threshold it also holds allocator caching, which varies by a
    third from run to run under jobs=2. Call it before this process grows:
    Linux carries the spawning process's resident size into the child's
    peak across exec."""
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(PROBE_MMAP_THRESHOLD))
    proc = subprocess.run(
        [sys.executable, str(wl.BENCH_DIR / "rss_probe.py"),
         "--workload", workload.name, "--seed", str(seed)],
        env=env, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"rss probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def end_to_end(sweeps, setup_times) -> dict:
    """Medians over the sweeps of the run."""
    per = []
    for s in sweeps:
        r = s["result"]
        cands = r.register.candidates
        finished = len(cands) + len(r.failures)
        passes = sum(c.iterations + 1 for c in cands + r.failures)
        per.append({
            "sweep_s": s["seconds"],
            "candidates_per_s": finished / s["seconds"],
            "ms_per_iteration": 1000.0 * s["seconds"] / passes,
            "iterations_per_candidate": passes / finished,
            "success_fraction": len(cands) / finished,
            "frontier_mean_edge": r.history[-1][2],
            "pareto_points": len(r.pareto),
        })
    out = {k: statistics.median(p[k] for p in per) for k in per[0]}
    out["setup_s"] = statistics.median(setup_times)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl.pin_threads()
    warnings.simplefilter("ignore")   # applied-default notices, not failures
    try:
        molto = load_program()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    import tracing

    workload = wl.WORKLOADS[args.workload]
    variant = wl.variant_of(args.seed)
    record = wl.load_record(workload.name, variant)
    work = ROOT / ".bench_out" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    text, weights = wl.config_text(ROOT, workload, args.seed)
    cfg_path = work / "sweep.cfg"
    cfg_path.write_text(text)

    env = environment()
    print(f"workload {workload.name} seed {args.seed} (variant {variant}) "
          f"jobs {workload.jobs} weights {weights}")
    print("environment " + json.dumps(env))

    rss_mb = None
    if not args.trace:
        try:
            rss_mb = peak_rss_mb(workload, args.seed)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"FAIL {workload.name}: {exc}", file=sys.stderr)

    sweeper = Sweeper(molto, workload, cfg_path, work / "out")
    budget = args.seconds / 2 if args.trace else args.seconds
    sweeps = run_phase(sweeper, budget, record)
    tracer = None
    if args.trace:
        untraced_s = statistics.median(s["seconds"] for s in sweeps)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_phase(sweeper, budget, record, tracer)
        sweeps += traced
    correct = all(not s["errors"] for s in sweeps) and (
        bool(args.trace) or rss_mb is not None)
    attempted, failed = _counts(sweeps)

    if not correct:
        metrics = {}
    elif args.trace:
        roots = [s for s in tracer.spans if s.name == "sweep"]
        candidates = [c for s in traced
                      for c in s["result"].register.candidates + s["result"].failures]
        metrics = tracing.layer_metrics(tracer.spans, roots, candidates,
                                      workload.jobs)
        metrics["cli.bytes_written"] = statistics.median(s["bytes"] for s in traced)
        metrics["trace.overhead_s"] = statistics.median(
            s["seconds"] for s in traced) - untraced_s
        tracer.write(work / "spans.json")
    else:
        metrics = end_to_end(sweeps, sweeper.setup_times)
        metrics["peak_rss_mb"] = rss_mb

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"]
               for m in declared["end_to_end"] + declared["per_layer"]}
    tagged = {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()}
    for name, m in tagged.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  sweeps {len(sweeps)}, max relative difference to the record "
          f"{max(s['max_rel_diff'] for s in sweeps):.3e}")

    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": tagged}
    (work / f"result_trace{args.trace}.json").write_text(json.dumps(
        {**summary, "workload": workload.name, "seed": args.seed,
         "variant": variant, "environment": env,
         "sweep_seconds": [s["seconds"] for s in sweeps],
         "errors": [e for s in sweeps for e in s["errors"]]}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
