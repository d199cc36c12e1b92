"""One benchmark run: set-up, measured passes, output checks, metrics.

A run is a single process that executes everything serially:

1. **Set-up**, repeated ``Workload.setup_repeats`` times, each into a fresh
   cache directory: train the victim model and prime the solve cache.
   ``setup_s`` is the import time plus the median repeat.
2. **Measured passes** over the workload's cells through ``run_campaign``
   (serial executor, no artifact store).  Whole passes only, so every run
   times the same cells; a further pass starts only if it is projected to
   end within ``seconds`` normalized seconds.
3. **Checks**: every cell's metric digest must equal the committed one.

The reference kernel of :mod:`perfbench.hostref` runs before and between
set-up repeats and after every finished cell; its time is subtracted from
the pass it interrupts.  In a traced run one untraced pass comes first, so
the traced pass can be compared with it (the tracing overhead).
"""

from __future__ import annotations

import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.digests import cell_id, load_digests, metrics_digest
from perfbench.hostref import HostReference
from perfbench.tracing import Tracer, installed
from perfbench.workloads import DATASET, VICTIM_SEED, Workload

__all__ = ["tail_index", "tail_value", "PassResult", "run_workload"]

# Spans the benchmark itself opens around a pass and around reference-kernel
# samples; they are not program layers.
ROOT_SPAN = "campaign.run"
REF_SPAN = "bench.ref"
# Largest allowed gap between the summed self times and the traced cell time.
SELF_SUM_TOLERANCE = 0.05
# Reference samples taken before the first set-up and after each one.
SETUP_SAMPLES = 3
# Samples on each side of a cell whose median scales it.
CELL_SAMPLES = 3


def tail_index(count: int) -> int:
    """Index (into ascending order) of the highest percentile that still has
    at least ten samples beyond it; the maximum when there are ten or fewer."""
    if count <= 0:
        raise ValueError("no samples")
    return max(count - 11, 0) if count > 10 else count - 1


def tail_value(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[tail_index(len(ordered))]


@dataclass
class PassResult:
    """Raw outcome of one pass over the workload's cells (perf_counter clock)."""

    start: float
    end: float = 0.0
    ref_s: float = 0.0
    # Per completed cell: (elapsed seconds, started at, finished at).
    cells: list[tuple[float, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def work_s(self) -> float:
        """Raw seconds of the pass, reference-kernel time excluded."""
        return self.end - self.start - self.ref_s

    def cell_times(self, host: HostReference) -> list[float]:
        """Normalized per-cell seconds, each scaled by its bracketing samples."""
        return [host.normalize_interval(t, a, b, CELL_SAMPLES) for t, a, b in self.cells]

    def normalized_work(self, host: HostReference) -> float:
        """Normalized seconds of the pass: cells scaled locally, the engine's
        own time between them by the samples around the pass."""
        glue = self.work_s - sum(t for t, _, _ in self.cells)
        return sum(self.cell_times(host)) + host.normalize_interval(glue, self.start, self.end)


def _run_pass(cells, registry, workload: Workload, host: HostReference, tracer, expected):
    from repro.experiments.campaign import Campaign, run_campaign
    from repro.experiments.telemetry.events import JobFinished, JobStarted

    campaign = Campaign(
        name=f"perfbench-{workload.name}", scale=workload.scale, seed=VICTIM_SEED, jobs=tuple(cells)
    )
    ref_before = host.spent_s
    started_at: dict[str, float] = {}
    finished_at: dict[str, float] = {}
    computing = False
    computed_at = 0.0

    def span(name: str):
        return nullcontext() if tracer is None else tracer.span(name)

    def between_cells(event) -> None:
        # Serial and fused execution both announce cells before they run and
        # report them after.  A fused group reports all its cells at once:
        # they share the group's interval, so they share one scaling.
        nonlocal computing, computed_at
        if isinstance(event, JobStarted):
            started_at.setdefault(event.key, time.perf_counter())
            computing = True
        elif isinstance(event, JobFinished):
            if computing:
                computing, computed_at = False, time.perf_counter()
            finished_at[event.key] = computed_at
            with span(REF_SPAN):
                host.sample()

    outcome = PassResult(start=time.perf_counter(), attempted=len(cells))
    try:
        with span(ROOT_SPAN):
            result = run_campaign(
                campaign, registry=registry, executor="serial", fuse=workload.fuse,
                on_event=between_cells,
            ).results
    except Exception:  # noqa: BLE001 - a failing cell is a counted failure
        outcome.end = time.perf_counter()
        outcome.ref_s = host.spent_s - ref_before
        outcome.failed = len(cells)
        outcome.errors.append(traceback.format_exc())
        return outcome
    outcome.end = time.perf_counter()
    outcome.ref_s = host.spent_s - ref_before
    for spec in cells:
        job = result.get(spec.key)
        if job is None:
            outcome.failed += 1
            outcome.errors.append(f"no result for cell {spec.param_dict()}")
            continue
        outcome.cells.append((job.elapsed, started_at[spec.key], finished_at[spec.key]))
        want = expected.get(cell_id(spec))
        got = outcome.digests[cell_id(spec)] = metrics_digest(job.metrics)
        if want != got:
            outcome.failed += 1
            outcome.errors.append(
                f"digest mismatch for cell {spec.param_dict()}: expected {want}, got {got}"
            )
    return outcome


def _setup_once(workload: Workload, scale: str, cells, workdir: Path, tracer):
    """Train the victim into a fresh cache and prime the solve cache."""
    from repro.experiments.campaign import execute_job
    from repro.experiments.common import get_trained_model
    from repro.utils.cache import DiskCache
    from repro.zoo.registry import ModelRegistry

    registry = ModelRegistry(DiskCache(tempfile.mkdtemp(prefix="cache-", dir=workdir)))
    before = tracer.total("zoo.get") if tracer is not None else 0.0
    get_trained_model(DATASET, scale, registry=registry, seed=VICTIM_SEED)
    train_s = tracer.total("zoo.get") - before if tracer is not None else 0.0
    for spec in workload.primers(scale, cells):
        execute_job(spec, registry=registry)
    return registry, train_s


def _tail_record(cell_times: list[float]) -> dict[str, float]:
    """``cell_tail_s`` with its rank and sample count (reported, not gated)."""
    if not cell_times:
        return {"cell_tail_s": float("nan"), "samples": 0, "rank": 0, "percentile": 0.0}
    rank = tail_index(len(cell_times)) + 1
    return {
        "cell_tail_s": tail_value(cell_times),
        "samples": len(cell_times),
        "rank": rank,
        "percentile": 100.0 * rank / len(cell_times),
    }


def _layer_metrics(tracer: Tracer, norm) -> dict[str, float]:
    counters = tracer.counters
    cell_s = tracer.total(ROOT_SPAN) - tracer.total(REF_SPAN)
    self_sum = sum(span.self_s for span in tracer.spans if span.name != REF_SPAN)
    return {
        "cache.solve_hits": counters["cache.solve_hits"],
        "cache.solve_lookups": counters["cache.solve_lookups"],
        "attacks.attack_s": norm(tracer.total("attacks.attack")),
        "attacks.attack_batch_s": norm(tracer.total("attacks.attack_batch")),
        "attacks.lanes": counters["attacks.lanes"],
        "attacks.admm_iters": counters["attacks.admm_iters"],
        "lowering.lower_s": norm(tracer.total("lowering.lower")),
        "lowering.repair_s": norm(tracer.total("lowering.repair")),
        "lowering.self_s": norm(
            tracer.self_time("lowering.lower") + tracer.self_time("lowering.repair")
        ),
        "device.feasible_cells_calls": tracer.calls("device.feasible_cells"),
        "device.feasible_cells_s": norm(tracer.total("device.feasible_cells")),
        "nn.forward_calls": counters["nn.forward_calls"],
        "nn.images_forwarded": counters["nn.images_forwarded"],
        "nn.forward_s": norm(tracer.total("nn.forward")),
        "nn.model_copies": counters["nn.model_copies"],
        "evaluation.evaluate_s": norm(tracer.total("evaluation.evaluate")),
        "defenses.judge_s": norm(tracer.total("defenses.judge")),
        "defenses.verdicts": counters["defenses.verdicts"],
        "campaign.self_s": norm(
            tracer.self_time(ROOT_SPAN)
            + tracer.self_time("campaign.job")
            + tracer.self_time("fusion.group")
        ),
        "fusion.groups": counters["fusion.groups"],
        "trace.cell_s": norm(cell_s),
        "trace.self_sum_s": norm(self_sum),
    }


def run_workload(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    import_s: float,
    scale: str | None = None,
) -> dict[str, Any]:
    """Execute one run and return its record (result line fields included)."""
    scale = scale or workload.scale
    cells = workload.cells(scale, seed)
    expected = load_digests(workload.digest_family, scale)
    host = HostReference()
    host.sample(SETUP_SAMPLES)

    # -- set-up ------------------------------------------------------------------------
    setup_tracer = Tracer() if trace else None
    setups: list[tuple[float, float]] = []
    trains: list[float] = []
    registry = None
    for _ in range(workload.setup_repeats):
        if registry is not None:
            shutil.rmtree(registry.disk_cache.directory, ignore_errors=True)
        started = time.perf_counter()
        with installed(setup_tracer) if setup_tracer is not None else nullcontext():
            registry, train_s = _setup_once(workload, scale, cells, workdir, setup_tracer)
        setups.append((started, time.perf_counter()))
        trains.append(train_s)
        host.sample(SETUP_SAMPLES)
    setup_norm = [
        host.normalize_interval(end - start, start, end, SETUP_SAMPLES) for start, end in setups
    ]
    # Imports ran before the first sample; the first samples scale them.
    import_norm = import_s * host.scale_for(statistics.median(host.samples_ms[:SETUP_SAMPLES]))

    # -- measured passes -------------------------------------------------------------------
    passes: list[PassResult] = []
    traced: PassResult | None = None
    pass_tracer = Tracer() if trace else None
    while True:
        passes.append(_run_pass(cells, registry, workload, host, None, expected))
        done = sum(p.normalized_work(host) for p in passes)
        if trace or done + passes[-1].normalized_work(host) > seconds:
            break
    if pass_tracer is not None:
        with installed(pass_tracer):
            traced = _run_pass(cells, registry, workload, host, pass_tracer, expected)

    # -- metrics ---------------------------------------------------------------------------
    norm = host.normalize
    cell_times = [t for p in passes for t in p.cell_times(host)]
    work_s = sum(p.normalized_work(host) for p in passes)
    completed = len(cell_times)
    all_passes = passes + ([traced] if traced is not None else [])
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    errors = [e for p in all_passes for e in p.errors]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    end_to_end = {
        "cells_per_s": completed / work_s if work_s > 0 else float("nan"),
        "setup_s": import_norm + statistics.median(setup_norm),
        "peak_rss_mb": peak_rss_mb,
    }
    record: dict[str, Any] = {
        "workload": workload.name,
        "scale": scale,
        "seed": seed,
        "plan_seeds": sorted({spec.param_dict()["plan_seed"] for spec in cells}),
        "cells": len(cells),
        "passes": len(passes),
        "tail": _tail_record(cell_times),
        "host": {"ref_ms": host.ref_ms, "nominal_ms": host.nominal_ms,
                 "factor": host.factor, "samples": len(host.samples_ms)},
        "raw": {"import_s": import_s, "setup_repeats_s": [end - start for start, end in setups],
                "pass_work_s": [p.work_s for p in passes],
                "pass_ref_s": [p.ref_s for p in passes]},
        "end_to_end": end_to_end,
        "cell_digests": passes[0].digests,
        "timeline": {
            "samples": [[start, ms] for start, ms in zip(host.starts, host.samples_ms)],
            "setups": setups,
            "cells": [list(cell) for p in passes for cell in p.cells],
        },
        "errors": errors[:5],
    }
    correct = failed == 0 and completed > 0
    if pass_tracer is not None and traced is not None:
        layers = _layer_metrics(pass_tracer, norm)
        layers["zoo.train_s"] = norm(statistics.median(trains))
        untraced = passes[0].normalized_work(host)
        layers["trace.overhead_pct"] = (
            100.0 * (traced.normalized_work(host) - untraced) / untraced
            if untraced > 0
            else float("nan")
        )
        cell_s, self_sum = layers["trace.cell_s"], layers["trace.self_sum_s"]
        coverage_ok = cell_s > 0 and abs(self_sum - cell_s) <= SELF_SUM_TOLERANCE * cell_s
        correct = correct and coverage_ok
        record["per_layer"] = layers
        record["self_by_layer_s"] = {
            name: norm(value)
            for name, value in sorted(pass_tracer.self_by_layer(exclude=(REF_SPAN,)).items())
        }
    record["result"] = {"correct": correct, "attempted": attempted, "failed": failed}
    for message in errors[:5]:
        print(message, file=sys.stderr)
    return record
