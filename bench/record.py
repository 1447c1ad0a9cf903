"""Re-record fingerprints.json: one sweep per workload and seed variant.

    python3 bench/record.py [--workload NAME ...]

Every sweep runs with ``jobs = 1``, so the ``jobs = 2`` benchmark runs of
lbracket_sweep must reproduce a serial record. Re-record only when a change
is meant to alter results, and say so in the change.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

import workloads as wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)

    wl.pin_threads()
    warnings.simplefilter("ignore")
    import run
    molto = run.load_program()

    record = json.loads(wl.FINGERPRINTS.read_text()) if wl.FINGERPRINTS.is_file() else {}
    for name in args.workload or sorted(wl.WORKLOADS):
        serial = dataclasses.replace(
            wl.WORKLOADS[name],
            overrides={**wl.WORKLOADS[name].overrides, "jobs": "1"})
        work = run.ROOT / ".bench_out" / "record" / name
        work.mkdir(parents=True, exist_ok=True)
        record[name] = {}
        for variant in range(wl.VARIANTS):
            cfg_path = work / f"variant{variant}.cfg"
            cfg_path.write_text(wl.config_text(run.ROOT, serial, variant)[0])
            sweeper = run.Sweeper(molto, serial, cfg_path, work / "out")
            seconds, code, result = sweeper.run()
            if code != 0 or result is None:
                print(f"{name} variant {variant}: molto exited with {code}",
                      file=sys.stderr)
                return 1
            errors = run.check_outputs(result, sweeper.out_dir, serial)
            if serial.girder_checks:
                errors += run.check_girder(result)
            if errors:
                print(f"{name} variant {variant}: " + "; ".join(errors),
                      file=sys.stderr)
                return 1
            record[name][str(variant)] = wl.fingerprint(result)
            print(f"{name} variant {variant}: {len(result.register)} candidates, "
                  f"{len(result.pareto)} Pareto points, {seconds:.1f} s")
    wl.FINGERPRINTS.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
