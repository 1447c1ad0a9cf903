"""Peak resident memory of one benchmark sweep, in a fresh process.

    python3 bench/rss_probe.py --workload NAME --seed N

run.py starts it with glibc's mmap threshold pinned (see run.peak_rss_mb).
Prints the peak resident set in MB as its last line; exits 1 if the sweep
fails.
"""

from __future__ import annotations

import argparse
import resource
import sys
import warnings

import workloads as wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    wl.pin_threads()
    warnings.simplefilter("ignore")
    import run
    molto = run.load_program()
    workload = wl.WORKLOADS[args.workload]
    work = run.ROOT / ".bench_out" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "rss_probe.cfg"
    cfg_path.write_text(wl.config_text(run.ROOT, workload, args.seed)[0])
    sweeper = run.Sweeper(molto, workload, cfg_path, work / "rss_probe_out")
    _, code, result = sweeper.run()
    if code != 0 or result is None or result.failures:
        print(f"sweep failed with exit code {code}", file=sys.stderr)
        return 1
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
