"""Workload definitions, seeded config generation and the results fingerprint.

This module imports nothing but the standard library, so the runner can pin
the BLAS/OpenMP thread counts before numpy is first imported.

A workload is a bundled molto config plus a few overridden keys. The seed
selects one of ``VARIANTS`` input variants: variant 0 is the bundled level-0
reference weights, the others jitter them slightly (``jitter_weights``). Every variant of every workload has a recorded
fingerprint (``fingerprints.json``, written by ``record.py``), so every run
checks its outputs against a record, whatever seed it is given.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 4
JITTER = 0.002
# Relative tolerance for recorded floating-point results. Runs of the
# recording commit reproduce the record bit for bit, with --jobs 1 and
# --jobs 2 alike; the slack admits reordered floating-point sums (a new
# sparse ordering, a cached assembly) without admitting a changed algorithm.
RTOL = 1e-6

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "BLIS_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
FINGERPRINTS = BENCH_DIR / "fingerprints.json"


def pin_threads() -> None:
    """One BLAS/OpenMP thread per process, so the config's ``jobs`` is the
    only source of parallelism. Must run before numpy is imported."""
    for key in THREAD_ENV:
        os.environ[key] = "1"
    # outputs go where the benchmark says, never where the caller's env points
    os.environ.pop("MOLTO_OUTPUT_DIR", None)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # bundled config under src/molto/configs
    command: str         # molto CLI subcommand that runs it
    overrides: dict      # keys replaced in the bundled config
    fem: bool
    girder_checks: bool = False

    @property
    def jobs(self) -> int:
        return int(self.overrides.get("jobs", 1))


# Why each workload exists is written up in NOTES.md. asd_surrogate is not
# declared in BENCHMARK.json: its sweep time spreads too widely from run to
# run on the reference machine for the largest allowed bound.
WORKLOADS = {
    w.name: w for w in (
        Workload("girder_sweep", "girder_desk.cfg", "run",
                 {"max_levels": "0", "max_iterations": "30", "jobs": "1"},
                 fem=True, girder_checks=True),
        Workload("lbracket_sweep", "lbracket.cfg", "run",
                 {"max_levels": "1", "max_iterations": "45", "jobs": "2"},
                 fem=True),
        Workload("asd_surrogate", "surrogate3.cfg", "surrogate",
                 {"edge_tolerance": "0.03", "max_levels": "4", "jobs": "1"},
                 fem=False),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _parse_lines(text: str) -> list:
    """(key, raw line) pairs; comments and blank lines get key None."""
    out = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        key = body.split("=", 1)[0].strip() if "=" in body else None
        out.append((key, line))
    return out


def _format_weights(vectors) -> str:
    return " ; ".join(" ".join(repr(c) for c in w) for w in vectors)


def jitter_weights(vectors, variant: int) -> list:
    """Variant 0 returns the weights unchanged; the others contract or expand
    the reference simplex about its centre by a seeded factor of at most
    JITTER. A similarity keeps the refinement's complex combinatorially the
    same, so frontier metrics move smoothly instead of flipping with
    Delaunay ties on the regular midpoint grid."""
    if variant == 0:
        return [tuple(w) for w in vectors]
    eps = random.Random(variant).uniform(-JITTER, JITTER)
    out = []
    for w in vectors:
        head = [round((1.0 - eps) * c + eps / len(w), 6) for c in w[:-1]]
        out.append(tuple(head + [1.0 - math.fsum(head)]))
    return out


def config_text(root: Path, workload: Workload, seed: int):
    """The generated config for this workload and seed, and its level-0
    reference weights."""
    bundled = (root / "src" / "molto" / "configs" / workload.config).read_text()
    lines = _parse_lines(bundled)
    weights_raw = next(line.split("=", 1)[1].split("#", 1)[0]
                       for key, line in lines if key == "weights_init")
    bundled_weights = [tuple(float(c) for c in g.split())
                       for g in weights_raw.split(";") if g.strip()]
    weights = jitter_weights(bundled_weights, variant_of(seed))

    values = dict(workload.overrides, weights_init=_format_weights(weights))
    out, seen = [], set()
    for key, line in lines:
        if key in values:
            out.append(f"{key} = {values[key]}")
            seen.add(key)
        else:
            out.append(line)
    out += [f"{key} = {value}" for key, value in values.items() if key not in seen]
    return "\n".join(out) + "\n", weights


# -- results fingerprint -----------------------------------------------------

def fingerprint(result) -> dict:
    """What a sweep must reproduce: final objectives and iteration counts per
    reference weight, the refinement history and the frontier size."""
    return {
        "candidates": [{"w_star": [float(c) for c in cand.w_star],
                        "objectives": [float(j) for j in cand.objectives],
                        "iterations": int(cand.iterations),
                        "converged": bool(cand.converged)}
                       for cand in result.register.candidates],
        "failures": len(result.failures),
        "levels": [[int(lv), int(n), float(mean), float(std)]
                   for lv, n, mean, std in result.history],
        "pareto_points": len(result.pareto),
    }


def load_record(workload: str, variant: int) -> dict:
    with open(FINGERPRINTS) as fh:
        return json.load(fh)[workload][str(variant)]


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def compare(got: dict, want: dict):
    """List of mismatch messages (empty when the sweep matches the record)
    and the largest relative difference seen on a floating-point value."""
    errors, worst = [], 0.0

    def close(label, a, b, floor=0.0):
        nonlocal worst
        if abs(a - b) <= floor:
            return
        rel = _rel(a, b)
        worst = max(worst, rel)
        if rel > RTOL:
            errors.append(f"{label}: got {a!r}, recorded {b!r} (rel {rel:.2e})")

    for key in ("failures", "pareto_points"):
        if got[key] != want[key]:
            errors.append(f"{key}: got {got[key]}, recorded {want[key]}")
    if len(got["candidates"]) != len(want["candidates"]):
        errors.append(f"candidates: got {len(got['candidates'])}, "
                      f"recorded {len(want['candidates'])}")
    for k, (g, w) in enumerate(zip(got["candidates"], want["candidates"])):
        label = f"candidate {k} w*={w['w_star']}"
        if any(abs(a - b) > 1e-12 for a, b in zip(g["w_star"], w["w_star"])):
            errors.append(f"{label}: reference weight {g['w_star']} differs")
            continue
        for key in ("iterations", "converged"):
            if g[key] != w[key]:
                errors.append(f"{label}: {key} {g[key]}, recorded {w[key]}")
        for a, (x, y) in enumerate(zip(g["objectives"], w["objectives"])):
            close(f"{label} j_{a + 1}", x, y)
    if len(got["levels"]) != len(want["levels"]):
        errors.append(f"levels: got {len(got['levels'])} rows, "
                      f"recorded {len(want['levels'])}")
    for g, w in zip(got["levels"], want["levels"]):
        if g[:2] != w[:2]:
            errors.append(f"level row {g[:2]} differs from recorded {w[:2]}")
        # a flat two-point std is exactly 0; compare it absolutely near 0
        close(f"level {w[0]} mean edge", g[2], w[2])
        close(f"level {w[0]} std edge", g[3], w[3], floor=1e-12)
    return errors, worst
