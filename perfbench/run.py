"""Benchmark of the evoloop loop, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qa_train --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics of a traced pass. The lines before it list every metric
with its unit, the per-iteration wall-time series and the path of a detail
record (machine, configs, digests, accuracies) under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import PER_LAYER  # noqa: E402
from workloads import END_TO_END, WORKLOADS, run_workload  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_evoloop():
    """Import the package from this checkout's sources, never an installed copy."""
    if not (SRC / "evoloop" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no evoloop sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import evoloop

    if Path(evoloop.__file__).resolve().parent != (SRC / "evoloop").resolve():
        raise SystemExit(f"perfbench: imported evoloop from {evoloop.__file__}, not {SRC}")
    return evoloop


def main(argv=None) -> int:
    args = parse_args(argv)
    ev = import_evoloop()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    scratch = OUT / tag
    out = run_workload(ev, args.workload, args.seed, args.seconds, bool(args.trace), scratch, SRC)
    detail = out["detail"]
    table = PER_LAYER if args.trace else END_TO_END
    source = detail["per_layer"] if args.trace else detail["end_to_end"]
    metrics = {name: {"value": source.get(name, 0.0), "unit": table[name][0]} for name in table}

    detail_path = scratch / "result.json"
    detail_path.write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"cycles={detail['cycles']} measured={detail['measured_s']:.1f}s"
    )
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    series = detail["iteration_series_s"]
    print(f"  iteration_series_s ({len(series)}): " + " ".join(f"{t:.4f}" for t in series))
    print(
        f"  iteration_growth_ratio (last-quarter / first-quarter median, ungated): "
        f"{detail['iteration_growth_ratio']:.3f}"
    )
    print(f"  iter_tail_s is p{detail['tail_percentile']:g}")
    for error in detail["errors"]:
        print(f"  FAILED {error.splitlines()[0]}")
    print(f"  detail {detail_path.relative_to(ROOT)}")
    print(json.dumps({**out["result"], "metrics": metrics}, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
