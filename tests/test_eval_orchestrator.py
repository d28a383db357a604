"""Experiment registry, result cache, orchestrator, and CLI."""

import json
import os

import pytest

from repro.core.results import StageBreakdown
from repro.errors import ConfigError
from repro.eval import cache as result_cache
from repro.eval.orchestrator import Orchestrator, PointRequest, derive_seed
from repro.eval.registry import (
    EXPERIMENT_MODULES,
    PAPER_TAG,
    REGISTRY,
    ExperimentRegistry,
    experiment,
    normalize_params,
)
from repro.sim.stats import Stats
from repro.workloads.models import MODEL_ZOO

#: The 12 artifacts the original serial runner produced, in its order.
PAPER_NAMES = [
    "table1_config",
    "table2_workloads",
    "hw_overhead",
    "fig03_adam_slowdown",
    "fig04_tensor_stats",
    "fig05_breakdown",
    "fig16_overall",
    "fig17_breakdown",
    "fig18_hit_rate",
    "fig19_cpu_perf",
    "fig20_mac_granularity",
    "fig21_comm",
]

#: Cheap experiments (sub-second each) used to exercise the scheduler.
CHEAP = ["table1_config", "table2_workloads", "hw_overhead", "fig20_mac_granularity"]


@pytest.fixture
def results_env(tmp_path, monkeypatch):
    """Point all result/cache IO at a fresh directory."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


class TestRegistry:
    def test_all_experiments_registered(self):
        names = REGISTRY.names()
        for name in PAPER_NAMES:
            assert name in names
        assert len(names) == len(set(names))

    def test_paper_tag_matches_legacy_runner(self):
        assert [s.name for s in REGISTRY.select(tags=(PAPER_TAG,))] == PAPER_NAMES

    def test_every_module_contributes(self):
        modules = {spec.module for spec in REGISTRY.specs()}
        assert modules == set(EXPERIMENT_MODULES)

    def test_duplicate_name_rejected(self):
        registry = ExperimentRegistry()

        @experiment("dup", render=None, registry=registry)
        def first() -> str:
            return "a"

        with pytest.raises(ConfigError, match="duplicate"):

            @experiment("dup", render=None, registry=registry)
            def second() -> str:
                return "b"

    def test_bad_cost_class_rejected(self):
        registry = ExperimentRegistry()
        with pytest.raises(ConfigError, match="cost"):

            @experiment("bad-cost", cost="huge", render=None, registry=registry)
            def exp() -> str:
                return ""

    def test_medium_cost_class_accepted(self):
        registry = ExperimentRegistry()

        @experiment("mid-cost", cost="medium", render=None, registry=registry)
        def exp() -> str:
            return ""

        assert registry._specs["mid-cost"].cost == "medium"

    def test_param_schema_introspected(self):
        schema = REGISTRY.get("fig03_adam_slowdown").param_schema()
        assert schema["n_params"] == {
            "required": False,
            "default": 345_000_000,
            "annotation": "int",
        }
        assert "max_threads" in schema

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="no parameter"):
            REGISTRY.get("fig03_adam_slowdown").execute(bogus=1)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            REGISTRY.get("fig99_nope")

    def test_execute_renders_text(self, results_env):
        output = REGISTRY.get("table1_config").execute()
        assert output.name == "table1_config"
        assert "Table 1" in output.text
        assert output.result is None  # text-only experiment

    def test_normalize_params_stable_forms(self):
        norm = normalize_params({"models": MODEL_ZOO[:1], "count": 3, "x": 1.5})
        assert norm["count"] == 3
        model = norm["models"][0]
        assert model["__dataclass__"] == "ModelConfig"
        assert model["name"] == MODEL_ZOO[0].name


class TestCache:
    def test_key_changes_on_params_seed_and_source(self):
        base = result_cache.cache_key("e", {"a": 1}, 0, "d1")
        assert result_cache.cache_key("e", {"a": 1}, 0, "d1") == base
        assert result_cache.cache_key("e", {"a": 2}, 0, "d1") != base
        assert result_cache.cache_key("e", {"a": 1}, 1, "d1") != base
        assert result_cache.cache_key("e", {"a": 1}, 0, "d2") != base
        assert result_cache.cache_key("f", {"a": 1}, 0, "d1") != base

    def test_roundtrip_and_clear(self, tmp_path):
        cache = result_cache.ResultCache(root=str(tmp_path / "c"))
        entry = result_cache.CacheEntry(
            name="e", key="k1", text="body", elapsed_s=0.5, seed=7, params={"a": 1}
        )
        cache.store(entry)
        loaded = cache.load("e", "k1")
        assert loaded == entry
        assert cache.load("e", "other") is None
        assert cache.clear() == 1
        assert cache.load("e", "k1") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = result_cache.ResultCache(root=str(tmp_path))
        path = cache._path("e", "k1")
        with open(path, "w") as f:
            f.write("{not json")
        assert cache.load("e", "k1") is None

    def test_source_digest_is_stable(self):
        assert result_cache.source_digest() == result_cache.source_digest()


class TestOrchestrator:
    def test_serial_run_writes_artifacts_and_manifest(self, results_env):
        report = Orchestrator(jobs=1, use_cache=False, verbose=False).run(only=CHEAP)
        assert report.ok
        assert [r.name for r in report.runs] == CHEAP
        for run in report.runs:
            assert run.status == "executed"
            assert os.path.exists(run.artifact)
        manifest = json.load(open(results_env / "manifest.json"))
        assert manifest["schema"] == 1
        assert manifest["counts"] == {"executed": 4, "cached": 0, "failed": 0}
        assert len(manifest["experiments"]) == 4
        record = manifest["experiments"][0]
        for field in ("name", "status", "elapsed_s", "seed", "cache_key",
                      "params", "tags", "cost", "artifact", "error"):
            assert field in record

    def test_second_invocation_all_cached(self, results_env):
        first = Orchestrator(jobs=1, verbose=False).run(only=CHEAP)
        assert first.counts()["executed"] == 4
        second = Orchestrator(jobs=1, verbose=False).run(only=CHEAP)
        assert second.counts() == {"executed": 0, "cached": 4, "failed": 0}
        assert second.rendered() == first.rendered()
        manifest = json.load(open(results_env / "manifest.json"))
        assert manifest["counters"]["orchestrator.cache.hits"] == 4
        assert "orchestrator.experiments.executed" not in manifest["counters"]

    def test_param_change_misses_cache(self, results_env):
        overrides = {"fig04_tensor_stats": {"models": MODEL_ZOO[:2]}}
        first = Orchestrator(jobs=1, verbose=False).run(
            only=["fig04_tensor_stats"], params=overrides
        )
        assert first.runs[0].status == "executed"
        again = Orchestrator(jobs=1, verbose=False).run(
            only=["fig04_tensor_stats"], params=overrides
        )
        assert again.runs[0].status == "cached"
        changed = Orchestrator(jobs=1, verbose=False).run(
            only=["fig04_tensor_stats"],
            params={"fig04_tensor_stats": {"models": MODEL_ZOO[:3]}},
        )
        assert changed.runs[0].status == "executed"
        assert changed.runs[0].cache_key != first.runs[0].cache_key

    @pytest.mark.slow
    def test_parallel_equals_serial(self, results_env):
        serial = Orchestrator(jobs=1, use_cache=False, verbose=False).run(only=CHEAP)
        parallel = Orchestrator(jobs=2, use_cache=False, verbose=False).run(only=CHEAP)
        assert parallel.jobs == 2
        assert parallel.rendered() == serial.rendered()
        assert parallel.counts()["executed"] == 4

    def test_failure_is_reported_not_raised(self, results_env):
        registry = ExperimentRegistry()
        report = Orchestrator(jobs=1, use_cache=False, verbose=False)
        # A failing experiment must surface as status=failed + ok=False.

        @experiment("boom", render=None, registry=registry)
        def boom() -> str:
            raise RuntimeError("kaput")

        spec = registry._specs["boom"]
        REGISTRY._specs["boom"] = spec
        try:
            result = report.run(only=["boom"])
        finally:
            del REGISTRY._specs["boom"]
        assert not result.ok
        assert result.runs[0].status == "failed"
        assert "kaput" in result.runs[0].error

    def test_cost_class_ordering_slow_medium_fast(self, results_env):
        # Regression for the binary (cost != "slow") sort: pending runs
        # start slow > medium > fast, not with "medium" tied with "fast"
        # at the pool's tail; request order holds within a class, and the
        # report keeps request order whatever the execution order.
        executed = []
        registry = ExperimentRegistry()

        def make(name):
            def run() -> str:
                executed.append(name)
                return name

            return run

        names = [
            ("ord-fast-a", "fast"),
            ("ord-medium", "medium"),
            ("ord-slow-a", "slow"),
            ("ord-fast-b", "fast"),
            ("ord-slow-b", "slow"),
        ]
        for name, cost in names:
            experiment(name, cost=cost, render=None, registry=registry)(make(name))
            REGISTRY._specs[name] = registry._specs[name]
        try:
            report = Orchestrator(jobs=1, use_cache=False, verbose=False).run_points(
                [PointRequest(experiment=name) for name, _ in names], write_manifest=False
            )
        finally:
            for name, _ in names:
                del REGISTRY._specs[name]
        assert report.ok
        assert executed == ["ord-slow-a", "ord-slow-b", "ord-medium", "ord-fast-a", "ord-fast-b"]
        assert [r.name for r in report.runs] == [name for name, _ in names]

    @pytest.mark.parametrize("jobs", [0, -1, -3])
    def test_nonpositive_jobs_rejected(self, jobs):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            Orchestrator(jobs=jobs, verbose=False)

    def test_jobs_none_means_cpu_count(self):
        assert Orchestrator(jobs=None, verbose=False).jobs == (os.cpu_count() or 1)

    def test_unmatched_param_override_rejected(self, results_env):
        with pytest.raises(ConfigError, match="not in this run"):
            Orchestrator(jobs=1, verbose=False).run(
                only=["table1_config"],
                params={"fig4_tensor_stats": {"models": MODEL_ZOO[:2]}},
            )

    def test_summary_in_manifest_and_preserved_by_cache(self, results_env):
        first = Orchestrator(jobs=1, verbose=False).run(only=["fig05_breakdown"])
        summary = first.runs[0].summary
        assert summary["baseline"]["model"] == "GPT2-M"
        assert summary["baseline"]["total_s"] > summary["non_secure"]["total_s"]
        cached = Orchestrator(jobs=1, verbose=False).run(only=["fig05_breakdown"])
        assert cached.runs[0].status == "cached"
        assert cached.runs[0].summary == summary
        manifest = json.load(open(results_env / "manifest.json"))
        assert manifest["experiments"][0]["summary"] == summary

    def test_registry_recovers_after_clear(self):
        REGISTRY.clear()
        try:
            assert "fig16_overall" in REGISTRY.names()
        finally:
            REGISTRY.clear()
            REGISTRY.load_all()

    def test_seed_derivation_stable_and_distinct(self):
        assert derive_seed(0, "a") == derive_seed(0, "a")
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")


class TestManifestSupport:
    def test_stats_as_dict(self):
        stats = Stats("orchestrator")
        stats.add("cache.hits", 2)
        stats.scope("inner").add("x")
        assert stats.as_dict() == {
            "orchestrator.cache.hits": 2.0,
            "orchestrator.inner.x": 1.0,
        }

    def test_stage_breakdown_as_dict(self):
        breakdown = StageBreakdown("GPT2-M", "tensortee", 1.0, 0.5, 0.25, 0.25)
        record = breakdown.as_dict()
        assert record["model"] == "GPT2-M"
        assert record["total_s"] == pytest.approx(2.0)
        assert record["fractions"]["NPU"] == pytest.approx(0.5)
        json.dumps(record)  # must be JSON-safe


class TestCli:
    def test_list_json(self, capsys):
        from repro.cli import main

        assert main(["list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert {item["name"] for item in listing} >= set(PAPER_NAMES)
        fig03 = next(i for i in listing if i["name"] == "fig03_adam_slowdown")
        assert fig03["params"]["n_params"]["default"] == 345_000_000

    def test_run_only_json(self, results_env, capsys):
        from repro.cli import main

        rc = main(["run", "--only", "table1_config,hw_overhead", "--jobs", "1",
                   "--no-cache", "--json"])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["counts"]["executed"] == 2
        assert [e["name"] for e in manifest["experiments"]] == [
            "table1_config", "hw_overhead",
        ]

    def test_unknown_name_exits_2(self, results_env, capsys):
        from repro.cli import main

        assert main(["run", "--only", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize(
        "command", [["run", "--only", "table1_config"], ["sweep", "run", "mac_policy"]]
    )
    def test_nonpositive_jobs_exits_2(self, results_env, capsys, command, jobs):
        from repro.cli import main

        assert main(command + ["--jobs", jobs, "--quiet"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(results_env / "table1_config.txt")
        assert not os.path.exists(results_env / "sweeps")

    def test_clean_removes_artifacts(self, results_env, capsys):
        from repro.cli import main

        main(["run", "--only", "table1_config", "--jobs", "1", "--quiet"])
        assert os.path.exists(results_env / "table1_config.txt")
        assert main(["clean"]) == 0
        assert not os.path.exists(results_env / "table1_config.txt")
        assert not os.path.exists(results_env / "manifest.json")
        assert not os.path.exists(results_env / ".cache")
