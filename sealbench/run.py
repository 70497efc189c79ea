"""Run one benchmark workload against the sensorseal library in this checkout.

    python3 sealbench/run.py --workload ingest_peak --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; `--trace 0` reports the end-to-end
metrics and `--trace 1` the per-layer ones from a traced replay. Notes
on sample counts go to standard error. A failed output check exits 1
and names the check; a checkout without the library's sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sensorseal" / "__init__.py").is_file():
        log(f"no sensorseal sources under {SRC}; run from a full checkout")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import sensorseal
    if Path(sensorseal.__file__).resolve().parent != SRC / "sensorseal":
        log(f"imported sensorseal from {sensorseal.__file__}, not from {SRC}")
        return 2

    from sealbench import workloads
    from sealbench.oracle import CheckFailed

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    try:
        result = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), BENCH_DIR / "work", log)
    except CheckFailed as e:
        log(str(e))
        return 1
    if result.trace is not None:
        out = BENCH_DIR / "results" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(result.trace))
        log(f"spans and layer totals written to {out.relative_to(ROOT)}")
    for name, (value, unit) in result.metrics.items():
        log(f"  {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": result.counts.attempted,
        "failed": result.counts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
