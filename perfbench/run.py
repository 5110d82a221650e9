"""One command for the serving benchmark.

    python3 perfbench/run.py --workload cold-hubs --seed 1 --seconds 10 --trace 0

Run from the repository root. The package is imported from ``src/`` of
the same checkout. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end metrics declared in ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics. The exit code is 0 only
when every checked answer matched its reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-hubs", "live-skewed", "fleet-skewed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = declared["per_layer" if args.trace else "end_to_end"]

    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    names = {m["name"] for m in catalogue}
    unknown = set(result.metrics) - names
    missing = names - set(result.metrics)
    if unknown or missing:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(unknown | missing)}"
        )

    print("provenance " + json.dumps(result.provenance, sort_keys=True))
    for line in result.summary:
        print(line)
    metrics = {}
    for metric in catalogue:
        value = result.metrics[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<36} {value:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
