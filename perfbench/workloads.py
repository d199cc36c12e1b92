"""The benchmark's workloads: which campaign cells run, and with which inputs.

Every workload is a fixed grid of campaign cells (:class:`JobSpec`), built
through the experiment modules' public ``build_campaign`` functions. The
inputs of a cell are its attack plan seed and its Monte-Carlo flip seed. They come from a pool of
``POOL_SIZE`` entries, and committed per-cell output digests exist for
every entry (see ``digests.py``). Entry ``i`` is plan seed ``i`` with flip
seed ``101 + i``. The victim model seed stays 0, so every run attacks the
same victim.

A run spreads ``entries_per_run`` consecutive pool entries, starting at the
workload seed, round-robin over its cells. One plan seed per run would make
a run's cost depend on how hard that one plan happens to be: across seeds,
the hc-warm pass time ranged over ±25 % with a single plan.

Why each workload exists is recorded in ``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "POOL_SIZE",
    "VICTIM_SEED",
    "DATASET",
    "Workload",
    "WORKLOADS",
    "get_workload",
    "with_entry",
]

POOL_SIZE = 16
VICTIM_SEED = 0
DATASET = "mnist_like"
# Monte-Carlo trials per dm-stochastic cell.
DM_TRIALS = 12


def with_entry(spec, index: int):
    """``spec`` with the plan and flip seeds of pool entry ``index``."""
    from repro.experiments.campaign import JobSpec

    entry = index % POOL_SIZE
    params = spec.param_dict()
    params["plan_seed"] = entry
    if "flip_seed" in params:
        params["flip_seed"] = 101 + entry
    return JobSpec.make(spec.kind, **params)


def _half_fraction(specs, axes: tuple[tuple[str, tuple], ...]):
    """Keep the cells whose axis indices sum to an even number.

    A half fraction of a full factorial grid: every pair of levels of any
    two axes keeps at least one cell, and the counts of any two such pairs
    differ by at most one.
    """
    kept = []
    for spec in specs:
        params = spec.param_dict()
        parity = sum(levels.index(params[name]) for name, levels in axes)
        if parity % 2 == 0:
            kept.append(spec)
    return kept


# -- grids (runs assign each cell its pool entry with with_entry) ---------------------


def _hc_grid(scale: str) -> list:
    from repro.experiments import hardware_cost
    from repro.experiments.common import get_setting

    campaign = hardware_cost.build_campaign(scale, seed=VICTIM_SEED, dataset=DATASET)
    return _half_fraction(
        list(campaign.jobs),
        (
            ("storage", tuple(campaign.metadata["storages"])),
            ("profile", tuple(campaign.metadata["profiles"])),
            ("budget", tuple(hardware_cost.BUDGET_LEVELS)),
            ("s", tuple(get_setting(scale).hardware_s_values)),
        ),
    )


def _dm_grid(scale: str) -> list:
    from repro.experiments import defense_matrix
    from repro.experiments.common import get_setting

    campaign = defense_matrix.build_campaign(
        scale,
        seed=VICTIM_SEED,
        dataset=DATASET,
        attackers=("trrespass-stochastic",),
        trials=DM_TRIALS,
    )
    return _half_fraction(
        list(campaign.jobs),
        (
            ("defense", tuple(campaign.metadata["defenses"])),
            ("budget", tuple(campaign.metadata["budgets"])),
            ("s", tuple(get_setting(scale).hardware_s_values)),
        ),
    )


def _sweep_grid(scale: str) -> list:
    from repro.experiments.common import get_setting, sweep_cell_spec, usable_r_values

    setting = get_setting(scale)
    return [
        sweep_cell_spec(dataset=DATASET, scale=scale, seed=VICTIM_SEED, s=s, r=r)
        for s in setting.s_values
        for r in usable_r_values(setting)
    ]


def _solve_primers(scale: str, cells: list) -> list:
    """One cheap hardware-cost cell per distinct (S, pool entry) of ``cells``.

    Each stores its ADMM solve in the cache that every hc-warm and
    dm-stochastic cell with that S and plan seed then reads; the solve key
    ignores storage, profile and budget.
    """
    from repro.experiments import hardware_cost

    template = {
        spec.param_dict()["s"]: spec
        for spec in hardware_cost.build_campaign(
            scale, seed=VICTIM_SEED, dataset=DATASET, storages=("int8",),
            profiles=("ddr3-noecc",), trials=0,
        ).jobs
        if spec.param_dict()["budget"] == "unlimited"
    }
    needed = dict.fromkeys(
        (spec.param_dict()["s"], spec.param_dict()["plan_seed"]) for spec in cells
    )
    return [with_entry(template[s], plan_seed) for s, plan_seed in needed]


def _no_primers(scale: str, cells: list) -> list:
    return []


# -- workloads ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    scale: str
    fuse: bool
    setup_repeats: int
    entries_per_run: int
    digest_family: str
    grid: Callable[[str], list]
    primers: Callable[[str, list], list]

    def cells(self, scale: str, seed: int) -> list:
        """The cells of one run: the grid with pool entries assigned."""
        return [
            with_entry(spec, seed + position % self.entries_per_run)
            for position, spec in enumerate(self.grid(scale))
        ]

    def cells_for_entry(self, scale: str, index: int) -> list:
        """The grid with every cell on one pool entry (digest generation)."""
        return [with_entry(spec, index) for spec in self.grid(scale)]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="hc-warm",
            scale="ci",
            fuse=False,
            setup_repeats=2,
            entries_per_run=4,
            digest_family="hc-warm",
            grid=_hc_grid,
            primers=_solve_primers,
        ),
        Workload(
            name="dm-stochastic",
            scale="ci",
            fuse=False,
            setup_repeats=2,
            entries_per_run=4,
            digest_family="dm-stochastic",
            grid=_dm_grid,
            primers=_solve_primers,
        ),
        # A paper-scale set-up (victim training) takes 12-18 s; a second one
        # per run does not fit the benchmark's total budget of 3420 s.
        Workload(
            name="sweep-scalar",
            scale="paper",
            fuse=False,
            setup_repeats=1,
            entries_per_run=POOL_SIZE,
            digest_family="sweep",
            grid=_sweep_grid,
            primers=_no_primers,
        ),
        Workload(
            name="sweep-fused",
            scale="paper",
            fuse=True,
            setup_repeats=1,
            entries_per_run=POOL_SIZE,
            digest_family="sweep",
            grid=_sweep_grid,
            primers=_no_primers,
        ),
    )
}


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
