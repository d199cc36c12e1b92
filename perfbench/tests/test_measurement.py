"""Unit tests of the benchmark's measurement arithmetic (no program runs)."""

import math

import pytest

from perfbench.digests import metrics_digest
from perfbench.hostref import HostReference
from perfbench.runner import tail_index, tail_value
from perfbench.tracing import Tracer
from perfbench.workloads import POOL_SIZE, WORKLOADS, _half_fraction


# -- tail percentile ---------------------------------------------------------------------


@pytest.mark.parametrize("count", [11, 12, 18, 24, 25, 36, 100])
def test_tail_leaves_exactly_ten_samples_beyond(count):
    assert count - 1 - tail_index(count) == 10


@pytest.mark.parametrize("count", [1, 5, 10])
def test_tail_of_ten_or_fewer_samples_is_the_maximum(count):
    assert tail_index(count) == count - 1


def test_tail_value_of_25_samples_is_the_15th_smallest():
    samples = [float(v) for v in reversed(range(1, 26))]
    assert tail_value(samples) == 15.0


def test_tail_rejects_empty_samples():
    with pytest.raises(ValueError):
        tail_index(0)


# -- nested spans ------------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    tracer.enter("campaign.run")  # t=0
    clock.now = 1.0
    tracer.enter("lowering.lower")  # t=1
    clock.now = 2.0
    tracer.enter("lowering.repair")  # t=2
    clock.now = 5.0
    tracer.exit()  # repair: 3 s, no children
    clock.now = 6.0
    tracer.enter("nn.forward")  # t=6
    clock.now = 8.0
    tracer.exit()  # forward: 2 s
    clock.now = 9.0
    tracer.exit()  # lower: 8 s, children 5 s
    clock.now = 10.0
    tracer.exit()  # run: 10 s, child 8 s
    assert tracer.self_time("lowering.repair") == 3.0
    assert tracer.self_time("nn.forward") == 2.0
    assert tracer.self_time("lowering.lower") == 3.0
    assert tracer.self_time("campaign.run") == 2.0
    assert tracer.total("lowering.lower") == 8.0
    assert sum(span.self_s for span in tracer.spans) == tracer.total("campaign.run")
    assert tracer.self_by_layer() == {"campaign": 2.0, "lowering": 6.0, "nn": 2.0}
    parents = {span.name: span.parent for span in tracer.spans}
    assert parents["campaign.run"] is None
    assert tracer.spans[parents["lowering.repair"]].name == "lowering.lower"


def test_outermost_only_records_one_span_per_outer_call():
    tracer = Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("nn.forward", inner, outermost_only=True)

    def outer(x):
        return wrapped_inner(wrapped_inner(x))

    wrapped_outer = tracer.wrap("nn.forward", outer, outermost_only=True)
    seen = []
    counted = tracer.wrap(
        "nn.forward", outer, outermost_only=True,
        count=lambda t, args, kwargs, result: seen.append(result),
    )
    assert wrapped_outer(1) == 3
    assert counted(5) == 7
    assert tracer.calls("nn.forward") == 2
    assert seen == [7]


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("campaign.job", boom)()
    assert tracer.calls("campaign.job") == 1
    assert not tracer.inside("campaign.job")


# -- normalization -----------------------------------------------------------------------


def test_normalization_scales_by_nominal_over_median_reference():
    host = HostReference(nominal_ms=12.0)
    host.samples_ms = [30.0, 10.0, 20.0]
    assert host.ref_ms == 20.0
    assert host.factor == pytest.approx(0.6)
    assert host.normalize(10.0) == pytest.approx(6.0)


def test_scale_for_is_nominal_over_reference():
    host = HostReference(nominal_ms=8.0)
    assert host.scale_for(16.0) == pytest.approx(0.5)


def test_a_uniformly_slower_host_normalizes_to_the_same_seconds():
    fast, slow = HostReference(nominal_ms=12.0), HostReference(nominal_ms=12.0)
    fast.samples_ms = [12.0, 12.5, 11.5]
    slow.samples_ms = [x * 1.3 for x in fast.samples_ms]
    assert slow.normalize(5.0 * 1.3) == pytest.approx(fast.normalize(5.0))


def test_reference_samples_accumulate_their_time():
    host = HostReference()
    host.sample(2)
    assert len(host.samples_ms) == len(host.starts) == len(host.ends) == 2
    assert host.spent_s == pytest.approx(sum(host.samples_ms) / 1e3)
    assert host.ref_ms > 0


def _timeline(samples):
    """A HostReference whose samples are (start, ms) pairs on a fake clock."""
    host = HostReference(nominal_ms=12.0)
    for start, ms in samples:
        host.starts.append(start)
        host.ends.append(start + ms / 1e3)
        host.samples_ms.append(ms)
    return host


def test_an_interval_is_scaled_by_the_samples_that_bracket_it():
    host = _timeline([(0.0, 12.0), (1.0, 24.0), (3.0, 8.0), (9.0, 48.0)])
    # Work in [1.1, 2.9]: bracketed by the 24 ms and 8 ms samples.
    assert host.local_factor(1.1, 2.9) == pytest.approx(12.0 / 16.0)
    assert host.normalize_interval(2.0, 1.1, 2.9) == pytest.approx(1.5)
    # Windows of two samples use the median of each side.
    assert host.local_factor(2.0, 2.5, window=2) == pytest.approx(12.0 / ((18.0 + 28.0) / 2))


def test_an_interval_without_samples_on_both_sides_uses_the_run_median():
    host = _timeline([(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)])
    assert host.local_factor(0.0, 0.5) == pytest.approx(12.0 / 20.0)
    assert host.local_factor(3.5, 4.0) == pytest.approx(12.0 / 20.0)


def test_normalization_needs_samples():
    with pytest.raises(ValueError):
        HostReference().factor


# -- inputs and digests ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_run_spreads_consecutive_pool_entries_over_its_cells(name):
    workload = WORKLOADS[name]
    cells = workload.cells("smoke", 14)
    assert [spec.key for spec in cells] == [spec.key for spec in workload.cells("smoke", 14)]
    assert cells == workload.cells("smoke", 14 + POOL_SIZE)
    entries = [spec.param_dict()["plan_seed"] for spec in cells]
    expected = [(14 + i % workload.entries_per_run) % POOL_SIZE for i in range(len(cells))]
    assert entries == expected
    for spec in cells:
        params = spec.param_dict()
        assert params.get("flip_seed", 101 + params["plan_seed"]) == 101 + params["plan_seed"]


def test_primers_cover_every_solve_of_a_run():
    workload = WORKLOADS["hc-warm"]
    cells = workload.cells("smoke", 5)
    primers = workload.primers("smoke", cells)
    solves = {(spec.param_dict()["s"], spec.param_dict()["plan_seed"]) for spec in cells}
    assert {(p.param_dict()["s"], p.param_dict()["plan_seed"]) for p in primers} == solves
    assert all(p.param_dict()["trials"] == 0 for p in primers)


def test_digest_sees_the_last_bit_and_tolerates_nan():
    base = {"a": 0.1, "b": float("nan")}
    bumped = {"a": math.nextafter(0.1, 1.0), "b": float("nan")}
    assert metrics_digest(base) == metrics_digest(dict(reversed(list(base.items()))))
    assert metrics_digest(base) != metrics_digest(bumped)


def test_half_fraction_covers_every_axis_pair_nearly_evenly():
    from itertools import combinations, product

    from repro.experiments.campaign import JobSpec

    axes = (("x", (0, 1, 2)), ("y", ("p", "q")), ("z", (1, 4)))
    specs = [JobSpec.make("k", x=x, y=y, z=z) for x, y, z in product(*(l for _, l in axes))]
    kept = [spec.param_dict() for spec in _half_fraction(specs, axes)]
    assert len(kept) == len(specs) // 2
    for (a, levels_a), (b, levels_b) in combinations(axes, 2):
        counts = {(u, v): 0 for u in levels_a for v in levels_b}
        for params in kept:
            counts[(params[a], params[b])] += 1
        assert min(counts.values()) >= 1
        assert max(counts.values()) - min(counts.values()) <= 1
