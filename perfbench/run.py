"""Campaign benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload hc-warm --seed 0 --seconds 10 --trace 0

Workloads: hc-warm, dm-stochastic, sweep-scalar, sweep-fused (README.md
beside this file explains each).  With ``--trace 0`` the last stdout line
reports the end-to-end metrics; with ``--trace 1`` it reports the per-layer
metrics of a traced pass.  The line before it is the full run record.
Exits non-zero, printing no result, when the program's sources are missing.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"cells_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Campaign benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default=None, help="override the workload's scale (smoke for quick checks)"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    # Replace the script directory so the benchmark modules import as a package.
    sys.path[:1] = [str(SRC), str(ROOT)]

    from perfbench.env import pin_threads

    pin_threads()
    workdir_root = ROOT / ".perfbench-work"
    workdir_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=workdir_root))
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    try:
        import repro.experiments  # noqa: F401  (registers every job kind)

        from perfbench.runner import run_workload
        from perfbench.workloads import get_workload

        import_s = time.perf_counter() - _PROCESS_START
        workload = get_workload(args.workload)
        record = run_workload(
            workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=workdir,
            import_s=import_s,
            scale=args.scale,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir_root.rmdir()
        except OSError:
            pass  # another run still owns a directory in it

    values = record["per_layer"] if args.trace else record["end_to_end"]
    units = _per_layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    metrics = {name: {"value": value, "unit": units(name)} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"{workload.name:>14} {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    tail = record["tail"]
    print(
        f"{workload.name:>14} {'cell_tail_s':<28} {tail['cell_tail_s']:>14.6g} s "
        f"(rank {tail['rank']} of {tail['samples']} cells; reported, not gated)"
    )
    print(f"{workload.name:>14} {'attempted / failed':<28} {record['result']['attempted']:>7} / "
          f"{record['result']['failed']}")
    print(json.dumps({"record": record}, sort_keys=True))
    result = dict(record["result"], metrics=metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
