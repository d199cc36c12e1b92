"""Tests for the campaign orchestration engine.

The cheap tests drive the engine through test-only job kinds (no model
training); the equality test runs a real experiment grid serially and in
parallel and demands byte-identical tables.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import table4
from repro.experiments.campaign import (
    EXECUTOR_BACKENDS,
    ArtifactStore,
    Campaign,
    ExecutorConfig,
    FuturesExecutor,
    JobSpec,
    SerialExecutor,
    execute_job,
    job_kinds,
    make_executor,
    register_job,
    run_campaign,
)
from repro.utils.errors import ConfigurationError

# -- test-only job kinds -------------------------------------------------------------


@register_job("test-echo")
def _echo_job(*, registry=None, value, workdir=None):
    """Return its input; optionally record that it actually executed."""
    if workdir is not None:
        marker = Path(workdir) / f"ran_{value}"
        marker.write_text(marker.read_text() + "x" if marker.exists() else "x")
    return {"value": float(value), "double": 2.0 * value}


@register_job("test-flaky")
def _flaky_job(*, registry=None, value, workdir, fail_at):
    """Simulate an interrupt: raise on one cell while a flag file exists."""
    if value == fail_at and (Path(workdir) / "fail.flag").exists():
        raise RuntimeError("simulated interrupt")
    return {"value": float(value)}


def _echo_campaign(values, workdir=None, name="test-campaign"):
    jobs = tuple(
        JobSpec.make("test-echo", value=v, workdir=None if workdir is None else str(workdir))
        for v in values
    )
    return Campaign(name=name, scale="smoke", seed=0, jobs=jobs)


def _executions(workdir) -> int:
    return sum(len(p.read_text()) for p in Path(workdir).glob("ran_*"))


# -- specs ---------------------------------------------------------------------------


class TestJobSpec:
    def test_key_is_order_insensitive(self):
        a = JobSpec.make("k", x=1, y=2)
        b = JobSpec.make("k", y=2, x=1)
        assert a == b
        assert a.key == b.key

    def test_key_depends_on_kind_and_params(self):
        assert JobSpec.make("k", x=1).key != JobSpec.make("k", x=2).key
        assert JobSpec.make("k", x=1).key != JobSpec.make("j", x=1).key

    def test_as_dict(self):
        spec = JobSpec.make("k", x=1)
        assert spec.as_dict() == {"kind": "k", "key": spec.key, "params": {"x": 1}}

    def test_registered_kinds_include_real_grids(self):
        kinds = job_kinds()
        assert "sweep-cell" in kinds
        assert "layer-attack" in kinds

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_job("test-echo")(lambda **kw: {})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_job(JobSpec.make("no-such-kind"))


# -- executors -----------------------------------------------------------------------


class TestMakeExecutor:
    def test_default_serial_for_one_job(self):
        result = run_campaign(_echo_campaign([1]), jobs=1)
        assert result.stats.executor == "serial"

    def test_default_pool_for_many_jobs(self):
        result = run_campaign(_echo_campaign([1, 2]), jobs=2)
        assert result.stats.executor == "process-pool"
        assert result.stats.jobs == 2

    def test_explicit_backends(self):
        from repro.experiments.service.fleet import FleetExecutor

        pairs = [
            ("serial", SerialExecutor),
            ("process-pool", FuturesExecutor),
            ("fleet", FleetExecutor),
        ]
        for backend, cls in pairs:
            # The named backend wins over the job count's default rule.
            assert type(make_executor(ExecutorConfig(backend=backend, jobs=2))) is cls

    def test_backends_constant_is_exhaustive(self):
        assert EXECUTOR_BACKENDS == ("serial", "process-pool", "fleet")
        for backend in EXECUTOR_BACKENDS:
            executor = make_executor(ExecutorConfig(backend=backend, jobs=2))
            assert executor.name == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(_echo_campaign([1]), jobs=2, executor="multiprocessing")

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(_echo_campaign([1]), jobs=0)

    def test_unknown_backend_is_a_value_error_naming_the_choices(self):
        # Unknown backends raise a ValueError whose message lists every
        # valid backend, whether named in a config or passed by name.
        for build in (
            lambda: ExecutorConfig(backend="threads", jobs=2),
            lambda: run_campaign(_echo_campaign([1]), jobs=2, executor="threads"),
        ):
            with pytest.raises(ValueError) as excinfo:
                build()
            for backend in EXECUTOR_BACKENDS:
                assert backend in str(excinfo.value)


class TestExecutorConfig:
    def test_defaults(self):
        config = ExecutorConfig()
        assert config.backend == "serial"
        assert config.jobs == 1
        assert config.spawn_workers is True

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutorConfig(backend="threads")

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutorConfig(jobs=0)

    def test_nonpositive_max_attempts_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutorConfig(backend="fleet", max_attempts=0)

    def test_config_selects_backend_class(self):
        pairs = [("serial", SerialExecutor), ("process-pool", FuturesExecutor)]
        for backend, cls in pairs:
            executor = make_executor(ExecutorConfig(backend=backend, jobs=2))
            assert isinstance(executor, cls)
            assert executor.config.backend == backend

    def test_constructor_takes_an_optional_config(self):
        assert SerialExecutor().config == ExecutorConfig()
        # The class, not the config, decides the backend it reports.
        executor = FuturesExecutor(ExecutorConfig(jobs=3))
        assert executor.config.backend == "process-pool"
        assert executor.jobs == 3

    def test_fleet_backend_resolves(self):
        from repro.experiments.service.fleet import FleetExecutor

        executor = make_executor(ExecutorConfig(backend="fleet", jobs=2))
        assert isinstance(executor, FleetExecutor)
        assert executor.jobs == 2
        assert executor.parallel

    def test_config_rejects_extra_make_executor_arguments(self):
        # make_executor takes the config alone; the legacy shapes are errors.
        with pytest.raises(TypeError):
            make_executor(ExecutorConfig(), backend="serial")  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            make_executor(ExecutorConfig(), 2)  # type: ignore[call-arg]
        with pytest.raises(ConfigurationError, match="ExecutorConfig"):
            make_executor(2)  # type: ignore[arg-type]

    def test_constructor_rejects_cache_dir_alongside_config(self, tmp_path):
        # Worker registries get their cache directory from ``registry`` only.
        with pytest.raises(TypeError):
            SerialExecutor(ExecutorConfig(), str(tmp_path))  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            ExecutorConfig(cache_dir=str(tmp_path))  # type: ignore[call-arg]

    def test_run_campaign_accepts_a_config(self):
        campaign = _echo_campaign([1, 2])
        result = run_campaign(campaign, executor=ExecutorConfig(backend="serial"))
        assert result.stats.executor == "serial"
        assert result.stats.total == 2


class TestDeprecatedConstructors:
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_positional_jobs_is_rejected(self, backend):
        cls = type(make_executor(ExecutorConfig(backend=backend, jobs=2)))
        with pytest.raises(ConfigurationError, match="ExecutorConfig"):
            cls(2)  # type: ignore[arg-type]

    def test_config_construction_does_not_warn(self, recwarn):
        SerialExecutor(ExecutorConfig())
        SerialExecutor()
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]


class TestExecutorBackends:
    @pytest.mark.parametrize("backend", ["serial", "process-pool"])
    def test_all_backends_produce_same_results(self, backend):
        campaign = _echo_campaign([1, 2, 3, 4])
        result = run_campaign(campaign, jobs=2, executor=backend)
        values = {key: r.metrics["double"] for key, r in result.results.items()}
        expected = {spec.key: 2.0 * spec.param_dict()["value"] for spec in campaign.jobs}
        assert values == expected
        assert result.stats.executor == backend


# -- engine behaviour ----------------------------------------------------------------


class TestRunCampaign:
    def test_duplicate_cells_execute_once(self, tmp_path):
        campaign = _echo_campaign([5, 5, 5], workdir=tmp_path)
        result = run_campaign(campaign)
        assert result.stats.total == 1
        assert _executions(tmp_path) == 1

    def test_cache_miss_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        campaign = _echo_campaign([1, 2, 3], workdir=tmp_path)

        first = run_campaign(campaign, store=store)
        assert first.stats.executed == 3
        assert first.stats.cache_hits == 0
        assert _executions(tmp_path) == 3

        second = run_campaign(campaign, store=store)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == 3
        assert _executions(tmp_path) == 3  # nothing re-ran
        for spec in campaign.jobs:
            assert second.metrics_for(spec) == first.metrics_for(spec)
            assert second.result_for(spec).cached

    def test_no_store_means_no_memoization(self, tmp_path):
        campaign = _echo_campaign([1, 2], workdir=tmp_path)
        run_campaign(campaign)
        run_campaign(campaign)
        assert _executions(tmp_path) == 4

    def test_resume_after_interrupt(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        (tmp_path / "fail.flag").write_text("1")
        jobs = tuple(
            JobSpec.make("test-flaky", value=v, workdir=str(tmp_path), fail_at=3)
            for v in [1, 2, 3, 4]
        )
        campaign = Campaign(name="flaky", scale="smoke", seed=0, jobs=jobs)

        with pytest.raises(RuntimeError, match="simulated interrupt"):
            run_campaign(campaign, store=store)
        # Cells completed before the interrupt were persisted incrementally.
        completed = [spec for spec in jobs if store.load(spec) is not None]
        assert 1 <= len(completed) < len(jobs)

        (tmp_path / "fail.flag").unlink()
        resumed = run_campaign(campaign, store=store)
        assert resumed.stats.cache_hits == len(completed)
        assert resumed.stats.executed == len(jobs) - len(completed)
        assert {r.metrics["value"] for r in resumed.results.values()} == {1.0, 2.0, 3.0, 4.0}

    def test_missing_result_raises_with_context(self):
        campaign = _echo_campaign([1])
        result = run_campaign(campaign)
        with pytest.raises(KeyError, match="test-campaign"):
            result.result_for(JobSpec.make("test-echo", value=99, workdir=None))

    def test_manifest_structure(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        campaign = _echo_campaign([1, 2])
        manifest = run_campaign(campaign, store=store).manifest()
        assert manifest["campaign"] == "test-campaign"
        assert manifest["stats"]["total_jobs"] == 2
        assert manifest["stats"]["executed"] == 2
        assert len(manifest["jobs"]) == 2
        assert all(j["status"] == "completed" for j in manifest["jobs"])
        # The manifest must be JSON-serialisable as-is.
        json.dumps(manifest)

    def test_write_manifest(self, tmp_path):
        result = run_campaign(_echo_campaign([1, 2]))
        path = result.write_manifest(
            tmp_path / "deep" / "manifest.json", command={"experiment": "test"}
        )
        payload = json.loads(path.read_text())
        assert payload["command"] == {"experiment": "test"}
        assert payload["stats"]["total_jobs"] == 2
        assert path.read_text().endswith("\n")

    def test_canonical_manifest_is_executor_independent(self):
        campaign = _echo_campaign([1, 2, 3])
        serial = run_campaign(campaign, executor="serial")
        pooled = run_campaign(campaign, jobs=2, executor="process-pool")
        assert json.dumps(serial.canonical_manifest(), sort_keys=True) == json.dumps(
            pooled.canonical_manifest(), sort_keys=True
        )
        # The full manifests differ (executor identity, timings)...
        assert serial.manifest()["stats"]["executor"] == "serial"
        assert pooled.manifest()["stats"]["executor"] == "process-pool"
        # ...and the canonical view keeps jobs sorted by content hash.
        keys = [job["key"] for job in serial.canonical_manifest()["jobs"]]
        assert keys == sorted(keys)

    def test_canonical_manifest_encodes_nan_as_null(self, tmp_path):
        campaign = Campaign(
            name="nan", scale="smoke", seed=0, jobs=(JobSpec.make("test-nan"),)
        )
        result = run_campaign(campaign)
        path = result.write_manifest(tmp_path / "canonical.json", canonical=True)
        payload = json.loads(path.read_text())
        assert payload["jobs"][0]["metrics"]["value"] is None
        assert payload["jobs"][0]["metrics"]["other"] == 1.0
        assert "NaN" not in path.read_text()

    def test_write_manifest_canonical_ignores_command(self, tmp_path):
        result = run_campaign(_echo_campaign([1]))
        path = result.write_manifest(
            tmp_path / "canonical.json", command={"x": 1}, canonical=True
        )
        assert "command" not in json.loads(path.read_text())


@register_job("test-nan")
def _nan_job(*, registry=None):
    return {"value": float("nan"), "other": 1.0}


class TestArtifactStore:
    def test_nan_metrics_roundtrip_as_strict_json(self, tmp_path):
        import math

        store = ArtifactStore(tmp_path)
        spec = JobSpec.make("test-nan")
        store.store(execute_job(spec))
        # The artifact on disk is strict JSON (no bare NaN token), filed in
        # the store's two-level content-hash shard...
        key = spec.key
        raw = (tmp_path / key[:2] / key[2:4] / f"{key}.json").read_text()
        assert "NaN" not in raw
        json.loads(raw)
        # ...and the sentinel survives the round trip.
        loaded = store.load(spec)
        assert math.isnan(loaded.metrics["value"])
        assert loaded.metrics["other"] == 1.0

    def test_kind_mismatch_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = JobSpec.make("test-echo", value=1, workdir=None)
        result = execute_job(spec)
        store.store(result)
        # Forge an entry whose kind does not match the requesting spec.
        store.cache.store_json(spec.key, {"kind": "other", "metrics": {"x": 1.0}})
        assert store.load(spec) is None

    def test_disabled_store(self, tmp_path):
        store = ArtifactStore(tmp_path, enabled=False)
        spec = JobSpec.make("test-echo", value=1, workdir=None)
        store.store(execute_job(spec))
        assert store.load(spec) is None


class TestIsolation:
    def test_serial_execution_preserves_global_rng_state(self):
        import numpy as np

        np.random.seed(4242)
        expected = np.random.random(3)
        np.random.seed(4242)
        run_campaign(_echo_campaign([1, 2, 3]))
        observed = np.random.random(3)
        np.testing.assert_array_equal(observed, expected)

    def test_worker_registry_honours_disabled_cache(self, tmp_path, monkeypatch):
        from repro.experiments import campaign as campaign_module
        from repro.utils.cache import DiskCache
        from repro.zoo.registry import ModelRegistry

        monkeypatch.setattr(campaign_module, "_WORKER_REGISTRY", None)
        # A caller registry with caching disabled must stay disabled in the
        # worker rather than falling back to the shared default cache dir.
        disabled = ModelRegistry(DiskCache(tmp_path, enabled=False))
        initargs = campaign_module._worker_registry_config(disabled)
        assert initargs == (None, True)
        campaign_module._init_worker(*initargs)
        assert campaign_module._WORKER_REGISTRY.disk_cache.enabled is False

        enabled = ModelRegistry(DiskCache(tmp_path))
        assert campaign_module._worker_registry_config(enabled) == (str(tmp_path), False)
        assert campaign_module._worker_registry_config(None) == (None, False)


# -- serial vs parallel equality on a real grid --------------------------------------


class TestParallelEquality:
    @pytest.mark.parametrize("backend", ["process-pool", "fleet"])
    def test_table4_parallel_matches_serial(self, backend, session_registry, monkeypatch):
        # Workers build their registry from the session registry's cache dir;
        # REPRO_CACHE_DIR keeps any default-registry fallback inside the tmp dir.
        monkeypatch.setenv(
            "REPRO_CACHE_DIR", str(session_registry.disk_cache.directory)
        )
        serial = table4.run(
            "smoke", registry=session_registry, seed=0, datasets=("mnist_like",)
        )
        parallel = table4.run(
            "smoke",
            registry=session_registry,
            seed=0,
            datasets=("mnist_like",),
            jobs=2,
            executor=backend,
        )
        assert parallel.render("csv", digits=9) == serial.render("csv", digits=9)
