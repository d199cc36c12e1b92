"""In-memory spans around the program's public calls, installed from outside.

The traced run wraps each public layer boundary — model registry, disk
cache, ADMM solvers, lowering, device templates, forward passes, evaluation,
defense judging and the campaign engine — by replacing the attribute where
the caller looks it up (a class attribute for methods, the importing
module's global for functions).  Nothing inside ``src/`` changes, and the
patches are removed when :func:`installed` exits.

Each span records its name, start, end and parent; its *self time* is its
duration minus the time its direct children cover, so the self times of
all spans under a root add up to the root's duration exactly.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "installed", "layer_of"]


@dataclass
class Span:
    """One finished span."""

    name: str
    start: float
    end: float
    parent: int | None
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(span_name: str) -> str:
    """Layer a span belongs to: the part of its name before the first dot."""
    return span_name.split(".", 1)[0]


class Tracer:
    """Records nested spans and event counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        # Open spans: [index into spans, name, start, time covered by children].
        self._open: list[list[Any]] = []

    # -- span bookkeeping ------------------------------------------------------------
    def enter(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else None
        # Reserve the slot now so children can name their parent.
        self.spans.append(Span(name, 0.0, 0.0, parent, 0.0))
        self._open.append([len(self.spans) - 1, name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        index, _, start, children = self._open.pop()
        duration = end - start
        span = self.spans[index]
        span.start, span.end, span.self_s = start, end, duration - children
        if self._open:
            self._open[-1][3] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is currently open."""
        return any(frame[1] == name for frame in self._open)

    # -- aggregation -----------------------------------------------------------------
    def total(self, name: str) -> float:
        """Inclusive seconds of all spans called ``name``."""
        return sum(span.duration for span in self.spans if span.name == name)

    def self_time(self, name: str) -> float:
        """Self seconds of all spans called ``name``."""
        return sum(span.self_s for span in self.spans if span.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def self_by_layer(self, exclude: tuple[str, ...] = ()) -> dict[str, float]:
        """Self seconds summed per layer, skipping spans named in ``exclude``."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span.name in exclude:
                continue
            layer = layer_of(span.name)
            out[layer] = out.get(layer, 0.0) + span.self_s
        return out

    # -- wrapping --------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        outermost_only: bool = False,
        count: Callable[["Tracer", tuple, dict, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span called ``name``.

        ``outermost_only`` passes nested calls of the same span straight
        through (a forward pass that calls another forward entry point is
        one pass).  ``count`` sees the arguments and result of each recorded
        call and updates :attr:`counters`.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if outermost_only and tracer.inside(name):
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced


# -- the program's layer boundaries ------------------------------------------------------


def _count_cache_load(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # Model-weight lookups happen inside ModelRegistry.get; every other
    # DiskCache.load in a cell is the hardware-cost solve cache.
    if tracer.inside("zoo.get"):
        return
    tracer.counters["cache.solve_lookups"] += 1
    if result is not None:
        tracer.counters["cache.solve_hits"] += 1


def _count_attack(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["attacks.admm_iters"] += int(result.admm.iterations_run)


def _count_attack_batch(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["attacks.lanes"] += len(result)
    tracer.counters["attacks.admm_iters"] += sum(int(r.admm.iterations_run) for r in result)


def _count_forward(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["nn.forward_calls"] += 1
    # Rows of the output: images, times lanes for a stacked pass.
    if getattr(result, "ndim", 0) >= 2:
        tracer.counters["nn.images_forwarded"] += int(result.size // result.shape[-1])


def _count_copy(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["nn.model_copies"] += 1


def _count_verdicts(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["defenses.verdicts"] += int(result.trials)


def _count_group(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["fusion.groups"] += 1


def _targets() -> list[tuple[Any, str, str, dict]]:
    """(owner, attribute, span name, wrap options) for every traced call."""
    from repro.attacks import lowering
    from repro.attacks.batched import BatchedFaultSneakingAttack
    from repro.attacks.fault_sneaking import FaultSneakingAttack
    from repro.experiments import campaign, common, defense_matrix, fusion, hardware_cost
    from repro.hardware.device.templates import FlipTemplate
    from repro.nn.model import Sequential
    from repro.utils.cache import DiskCache
    from repro.zoo.registry import ModelRegistry

    forward = {"outermost_only": True, "count": _count_forward}
    return [
        (ModelRegistry, "get", "zoo.get", {}),
        (DiskCache, "load", "cache.load", {"count": _count_cache_load}),
        (FaultSneakingAttack, "attack", "attacks.attack", {"count": _count_attack}),
        (
            BatchedFaultSneakingAttack,
            "attack_batch",
            "attacks.attack_batch",
            {"count": _count_attack_batch},
        ),
        (hardware_cost, "lower_attack", "lowering.lower", {}),
        (lowering, "repair_plan", "lowering.repair", {}),
        (FlipTemplate, "feasible_cells", "device.feasible_cells", {}),
        (Sequential, "predict_logits", "nn.forward", forward),
        (Sequential, "forward_between", "nn.forward", forward),
        (Sequential, "copy", "nn.copy", {"count": _count_copy}),
        (common, "evaluate_attack_result", "evaluation.evaluate", {}),
        (common, "evaluate_attack_results", "evaluation.evaluate", {}),
        (defense_matrix, "evaluate_defense", "defenses.judge", {"count": _count_verdicts}),
        (campaign, "execute_job", "campaign.job", {}),
        (fusion, "run_fused_group", "fusion.group", {"count": _count_group}),
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every traced call to record into ``tracer``; restore on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, name, options in _targets():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original, **options))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
