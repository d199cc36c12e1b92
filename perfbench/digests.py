"""Per-cell output digests: computing, checking and regenerating them.

A digest is a hash of a cell's complete metric dictionary with every float
written in hexadecimal, so two digests match only when every metric is
bit-identical.  The committed files under ``digests/`` hold one digest per
cell for every pool entry of ``workloads.POOL_SIZE`` and every scale the
benchmark runs.  They were produced by the scalar serial path
(``execute_job``), so the ``sweep`` family is the sweep-scalar reference
that sweep-fused cells must match.

Regenerate (only when a change is meant to alter results) with::

    python3 -m perfbench.digests --family hc-warm --scale ci

run from the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

__all__ = ["cell_id", "metrics_digest", "load_digests", "DIGEST_DIR"]

DIGEST_DIR = Path(__file__).resolve().parent / "digests"


def cell_id(spec) -> str:
    """Stable identity of a cell, computed by the benchmark itself."""
    payload = json.dumps([spec.kind, sorted(spec.param_dict().items())], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def metrics_digest(metrics: dict) -> str:
    """Bit-exact digest of one cell's metric dictionary."""

    def exact(value: float) -> str | None:
        value = float(value)
        return None if math.isnan(value) else value.hex()

    payload = json.dumps({name: exact(value) for name, value in metrics.items()}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def _path(family: str) -> Path:
    return DIGEST_DIR / f"{family}.json"


def load_digests(family: str, scale: str) -> dict[str, str]:
    """Committed ``{cell id: digest}`` of one family at one scale."""
    path = _path(family)
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(scale, {})


def _generate(family: str, scale: str) -> dict[str, str]:
    import tempfile

    from repro.experiments.campaign import execute_job
    from repro.experiments.common import get_trained_model
    from repro.utils.cache import DiskCache
    from repro.zoo.registry import ModelRegistry

    from perfbench.workloads import DATASET, POOL_SIZE, VICTIM_SEED, WORKLOADS

    workload = next(w for w in WORKLOADS.values() if w.digest_family == family)
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as cache_dir:
        registry = ModelRegistry(DiskCache(cache_dir))
        get_trained_model(DATASET, scale, registry=registry, seed=VICTIM_SEED)
        for index in range(POOL_SIZE):
            cells = workload.cells_for_entry(scale, index)
            for spec in workload.primers(scale, cells):
                execute_job(spec, registry=registry)
            for spec in cells:
                out[cell_id(spec)] = metrics_digest(execute_job(spec, registry=registry).metrics)
            print(f"{family} {scale}: pool entry {index} done", file=sys.stderr, flush=True)
    return out


def main(argv: list[str] | None = None) -> int:
    from perfbench.env import pin_threads

    pin_threads()
    sys.path.insert(0, str(DIGEST_DIR.parent.parent / "src"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--family", required=True, choices=("hc-warm", "dm-stochastic", "sweep"))
    parser.add_argument("--scale", required=True)
    args = parser.parse_args(argv)
    digests = _generate(args.family, args.scale)
    path = _path(args.family)
    existing = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    existing[args.scale] = dict(sorted(digests.items()))
    path.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
