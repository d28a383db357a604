"""Fault-tolerant sweep execution: journal, retries, shards, resume, merge.

The crash-injection tests kill a sweep mid-run (a worker raising, and the
driver process hard-exiting via the ``REPRO_JOURNAL_CRASH_AFTER`` fault
knob) and assert the journal recorded the failure and that ``--resume``
and ``--shard``+``merge`` both reproduce the uninterrupted run's
``sweep.json``/``sweep.csv`` modulo timing fields.
"""

import csv
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.eval import journal as journal_mod
from repro.eval import sweep as sweep_mod
from repro.eval.journal import (
    CRASH_EXIT_CODE,
    PointRecord,
    RunJournal,
    read_journal,
)
from repro.eval.orchestrator import Orchestrator, PointRequest
from repro.eval.registry import REGISTRY, ExperimentRegistry, experiment
from repro.eval.sweep import (
    Shard,
    canonical_document,
    merge_shards,
    parse_shard,
    run_sweep,
    shard_points,
    spec_from_dict,
    sweep_status,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A cheap 2x2 matrix over the analytic mac_policy scenario.
MAC_2X2 = {
    "name": "m22",
    "experiment": "mac_policy",
    "axes": [
        {"param": "granule_bytes", "values": [64, 256]},
        {"param": "policy", "values": ["eager", "delayed"]},
    ],
    "metrics": [{"name": "perf", "path": "perf_overhead"}],
}

MAC_2X2_TOML = """
[sweep]
name = "m22"
experiment = "mac_policy"

[[sweep.axes]]
param = "granule_bytes"
values = [64, 256]

[[sweep.axes]]
param = "policy"
values = ["eager", "delayed"]

[[sweep.metrics]]
name = "perf"
path = "perf_overhead"
"""


@pytest.fixture
def results_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture
def temp_experiment():
    """Inject a throwaway experiment into the global registry."""
    injected = []

    def inject(name, func, render=None):
        registry = ExperimentRegistry()
        experiment(name, render=render, registry=registry)(func)
        REGISTRY.load_all()
        REGISTRY._specs[name] = registry._specs[name]
        injected.append(name)
        return REGISTRY._specs[name]

    yield inject
    for name in injected:
        REGISTRY._specs.pop(name, None)


def canonical_csv(path):
    """CSV rows minus the run-volatile status/cached/elapsed columns."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    volatile = {header.index(c) for c in ("status", "cached", "elapsed_s")}
    return [
        [cell for i, cell in enumerate(row) if i not in volatile] for row in rows
    ]


class TestJournalFile:
    def test_roundtrip_and_resume_marker(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal.start(path, {"sweep": "s", "n_points": 2})
        a = PointRecord(label="p/a", experiment="e", key="k1", seed=1,
                        status="executed", params={"x": 1}, elapsed_s=0.5, ts=1.0)
        b = PointRecord(label="p/b", experiment="e", key="k2", seed=2,
                        status="failed", attempt=1, error="boom\n",
                        error_type="RuntimeError", quarantined=True, ts=2.0)
        journal.append(a)
        journal.append(b)
        RunJournal.attach(path)
        view = read_journal(path)
        assert view.header["sweep"] == "s"
        assert view.records == [a, b]
        assert view.resumes == 1
        assert not view.truncated
        assert view.last_by_label() == {"p/a": a, "p/b": b}
        assert view.failed_attempts("p/b", "k2") == 2
        assert view.failed_attempts("p/b", "other-key") == 0

    def test_unknown_kinds_are_skipped(self, tmp_path):
        # Forward compatibility: a line of a kind this reader does not
        # know is skipped instead of failing the whole journal.
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal.start(path, {"sweep": "s"})
        record = PointRecord(label="p", experiment="e", key="k", seed=0,
                             status="executed")
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps({"kind": "lease-audit", "schema": 1, "id": "a1"}) + "\n")
        journal.append(record)
        view = read_journal(path)
        assert view.records == [record]
        assert not view.truncated and view.malformed == 0

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal.start(path, {"sweep": "s"})
        record = PointRecord(label="p", experiment="e", key="k", seed=0,
                             status="executed")
        journal.append(record)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"kind": "point", "label": "torn')  # crash mid-write
        view = read_journal(path)
        assert view.truncated
        assert view.records == [record]

    def test_attach_after_torn_tail_keeps_later_records_visible(self, tmp_path):
        # Regression: resuming over a crash-torn final line must not fuse
        # the partial line with the resume marker — that single garbage
        # line would hide every post-resume record from the reader.
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal.start(path, {"sweep": "s"})
        durable = PointRecord(label="p/ok", experiment="e", key="k", seed=0,
                              status="executed")
        journal.append(durable)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"kind": "point", "label": "torn')  # no newline: torn
        resumed = RunJournal.attach(path)
        after = PointRecord(label="p/after", experiment="e", key="k2", seed=1,
                            status="executed")
        resumed.append(after)
        view = read_journal(path)
        assert not view.truncated  # the torn tail was truncated away
        assert view.resumes == 1
        assert view.records == [durable, after]

    def test_malformed_point_line_is_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal.start(path, {"sweep": "s"})
        good = PointRecord(label="p/good", experiment="e", key="k", seed=0,
                           status="executed")
        journal.append(good)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"kind": "point", "label": "p/no-required-fields"}\n')
        journal.append(
            PointRecord(label="p/late", experiment="e", key="k2", seed=1,
                        status="executed")
        )
        view = read_journal(path)
        assert view.malformed == 1
        assert [r.label for r in view.records] == ["p/good", "p/late"]

    def test_missing_journal_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="no run journal"):
            read_journal(str(tmp_path / "absent.jsonl"))

    def test_start_truncates_previous_run(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal.start(path, {"sweep": "old"})
        journal.append(PointRecord(label="p", experiment="e", key="k", seed=0,
                                   status="executed"))
        RunJournal.start(path, {"sweep": "new"})
        view = read_journal(path)
        assert view.header["sweep"] == "new"
        assert view.records == []


class TestErrorCapture:
    """Regression: failures must carry the full worker-side traceback."""

    def test_pool_failure_keeps_worker_traceback(self, results_env):
        # policy="lazy" passes the str schema check and raises inside the
        # worker process; the recorded error must name the raising frame
        # in repro code, not just the pool join site.
        points = [
            PointRequest(experiment="mac_policy", params={"policy": "lazy"},
                         label="p/lazy"),
            PointRequest(experiment="mac_policy", params={"policy": "eager"},
                         label="p/eager"),
        ]
        journal = RunJournal.start(str(results_env / "j.jsonl"))
        report = Orchestrator(jobs=2, use_cache=False, verbose=False).run_points(
            points, journal=journal
        )
        assert not report.ok
        failed = next(r for r in report.runs if r.name == "p/lazy")
        assert failed.status == "failed"
        assert failed.error_type == "ConfigError"
        assert "unknown policy" in failed.error
        assert "scenarios.py" in failed.error  # the worker-side frame
        record = failed.manifest_record()
        assert record["error_type"] == "ConfigError"
        assert "unknown policy" in record["error"]
        assert record["attempts"] == 1
        # The journal row carries the same traceback.
        view = read_journal(str(results_env / "j.jsonl"))
        journaled = view.last_by_label()["p/lazy"]
        assert journaled.status == "failed"
        assert journaled.quarantined
        assert "unknown policy" in journaled.error
        # The healthy sibling point still completed: no poisoning.
        ok = next(r for r in report.runs if r.name == "p/eager")
        assert ok.status == "executed"

    def test_inline_failure_keeps_traceback(self, results_env, temp_experiment):
        def boom() -> str:
            raise RuntimeError("kaput from the experiment body")

        temp_experiment("boom", boom)
        report = Orchestrator(jobs=1, use_cache=False, verbose=False).run(
            only=["boom"]
        )
        run = report.runs[0]
        assert run.status == "failed"
        assert run.error_type == "RuntimeError"
        assert "kaput from the experiment body" in run.error
        assert "in boom" in run.error  # the raising frame, not just the message


class TestRetries:
    def flaky(self, tmp_path, fail_times):
        marker = tmp_path / "attempts"

        def flaky_run() -> str:
            count = int(marker.read_text()) if marker.exists() else 0
            marker.write_text(str(count + 1))
            if count < fail_times:
                raise RuntimeError(f"flaky failure #{count}")
            return f"ok after {count} failures"

        return flaky_run

    def test_retry_recovers_flaky_point(self, results_env, tmp_path, temp_experiment):
        temp_experiment("flaky", self.flaky(tmp_path, fail_times=1))
        journal = RunJournal.start(str(results_env / "j.jsonl"))
        report = Orchestrator(jobs=1, use_cache=False, verbose=False).run(
            only=["flaky"], journal=journal, retries=2
        )
        assert report.ok
        assert report.runs[0].status == "executed"
        assert report.runs[0].attempts == 2
        view = read_journal(str(results_env / "j.jsonl"))
        assert [r.status for r in view.records] == ["failed", "executed"]
        assert [r.attempt for r in view.records] == [0, 1]
        assert not view.records[0].quarantined
        assert "flaky failure #0" in view.records[0].error

    def test_exhausted_budget_quarantines(self, results_env, tmp_path, temp_experiment):
        temp_experiment("flaky", self.flaky(tmp_path, fail_times=10))
        journal = RunJournal.start(str(results_env / "j.jsonl"))
        report = Orchestrator(jobs=1, use_cache=False, verbose=False).run(
            only=["flaky"], journal=journal, retries=1
        )
        assert not report.ok
        assert report.runs[0].attempts == 2
        view = read_journal(str(results_env / "j.jsonl"))
        assert [r.status for r in view.records] == ["failed", "failed"]
        assert view.records[-1].quarantined

    def test_negative_retries_rejected(self, results_env):
        with pytest.raises(ConfigError, match="retries"):
            Orchestrator(jobs=1, verbose=False).run_points([], retries=-1)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="temp experiments reach pool workers only under fork",
    )
    def test_hard_worker_death_fails_point_without_crashing_run(
        self, results_env, temp_experiment
    ):
        # A worker dying hard (segfault/OOM-kill shape, here os._exit)
        # breaks the process pool; the run must record the failures and
        # still produce its report/journal instead of propagating
        # BrokenProcessPool — even with a retry budget, which must not
        # resubmit into the dead pool.
        def die() -> str:
            os._exit(1)

        def fine() -> str:
            return "survivor"

        temp_experiment("die-hard", die)
        temp_experiment("fine", fine)
        journal = RunJournal.start(str(results_env / "j.jsonl"))
        report = Orchestrator(jobs=2, use_cache=False, verbose=False).run_points(
            [
                PointRequest(experiment="die-hard", label="p/die"),
                PointRequest(experiment="fine", label="p/fine"),
            ],
            journal=journal,
            retries=2,
        )
        assert not report.ok
        died = next(r for r in report.runs if r.name == "p/die")
        assert died.status == "failed"
        assert "BrokenProcessPool" in died.error_type
        # The manifest was written and every point is journaled terminal.
        assert os.path.exists(results_env / "manifest.json")
        view = read_journal(str(results_env / "j.jsonl"))
        assert {r.label for r in view.records} == {"p/die", "p/fine"}


class TestShardPartition:
    def test_parse_shard(self):
        assert parse_shard("2/4") == Shard(index=2, count=4)
        for bad in ("0/4", "5/4", "a/b", "1", "1/0", "-1/2"):
            with pytest.raises(ConfigError):
                parse_shard(bad)

    def test_round_robin_slices(self):
        points = sweep_mod.expand(spec_from_dict(MAC_2X2))
        one = shard_points(points, Shard(1, 2))
        two = shard_points(points, Shard(2, 2))
        assert [p.index for p in one] == [0, 2]
        assert [p.index for p in two] == [1, 3]
        assert shard_points(points, None) == points

    def test_more_shards_than_points_allows_empty(self, results_env):
        points = sweep_mod.expand(spec_from_dict(MAC_2X2))
        assert shard_points(points, Shard(6, 8)) == []


class TestShardMerge:
    def run_reference(self, monkeypatch, tmp_path):
        ref_dir = tmp_path / "reference"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(ref_dir))
        spec = spec_from_dict(MAC_2X2)
        result = run_sweep(spec, jobs=1, verbose=False)
        document = json.load(open(result.json_path))
        rows = canonical_csv(result.csv_path)
        return document, rows

    def test_two_shards_merge_equals_single_run(self, tmp_path, monkeypatch):
        ref_doc, ref_rows = self.run_reference(monkeypatch, tmp_path)
        shard_dir = tmp_path / "sharded"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(shard_dir))
        spec = spec_from_dict(MAC_2X2)
        for k in (1, 2):
            result = run_sweep(spec, jobs=1, verbose=False, shard=Shard(k, 2))
            shard_doc = json.load(open(result.json_path))
            assert shard_doc["shard"] == {"index": k, "count": 2}
            assert len(shard_doc["points"]) == 2
        merged, json_path, csv_path = merge_shards(spec, verbose=False)
        assert json_path == str(shard_dir / "sweeps" / "m22" / "sweep.json")
        written = json.load(open(json_path))
        assert written == merged
        assert canonical_document(written) == canonical_document(ref_doc)
        assert canonical_csv(csv_path) == ref_rows
        assert [s["index"] for s in written["shards"]] == [1, 2]
        assert written["counts"] == {"executed": 4, "cached": 0, "failed": 0}

    def test_merge_refuses_incomplete_coverage(self, results_env):
        spec = spec_from_dict(MAC_2X2)
        run_sweep(spec, jobs=1, verbose=False, shard=Shard(1, 2))
        with pytest.raises(ConfigError, match="expected shards 1..2"):
            merge_shards(spec, verbose=False)

    def test_merge_refuses_crashed_shard(self, results_env):
        spec = spec_from_dict(MAC_2X2)
        run_sweep(spec, jobs=1, verbose=False, shard=Shard(1, 2))
        # Shard 2 "crashed": its directory exists but holds no sweep.json.
        os.makedirs(results_env / "sweeps" / "m22" / "shards" / "2of2")
        with pytest.raises(ConfigError, match="no sweep.json"):
            merge_shards(spec, verbose=False)

    def test_merge_without_shards_is_config_error(self, results_env):
        with pytest.raises(ConfigError, match="no shard runs"):
            merge_shards(spec_from_dict(MAC_2X2), verbose=False)


class TestResume:
    def test_resume_without_journal_is_config_error(self, results_env):
        with pytest.raises(ConfigError, match="no run journal"):
            run_sweep(spec_from_dict(MAC_2X2), jobs=1, verbose=False, resume=True)

    def test_resume_requires_cache(self, results_env):
        with pytest.raises(ConfigError, match="cannot be combined with --no-cache"):
            run_sweep(spec_from_dict(MAC_2X2), jobs=1, verbose=False,
                      resume=True, use_cache=False)

    def test_resume_rejects_different_matrix_shape(self, results_env):
        spec = spec_from_dict(MAC_2X2)
        run_sweep(spec, jobs=1, verbose=False)
        with pytest.raises(ConfigError, match="does not match the journal"):
            run_sweep(spec, jobs=1, verbose=False, resume=True, quick=True)

    @staticmethod
    def _rewrite_header(path, **changes):
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        for key, value in changes.items():
            if value is None:
                header.pop(key, None)
            else:
                header[key] = value
        lines[0] = json.dumps(header, sort_keys=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    def test_new_journal_header_has_no_balance_key(self, results_env):
        result = run_sweep(spec_from_dict(MAC_2X2), jobs=1, verbose=False,
                           shard=Shard(1, 2))
        header = read_journal(os.path.join(result.out_dir, "journal.jsonl")).header
        assert "balance" not in header

    def test_resume_rejects_cost_balanced_journal(self, results_env):
        # A ``"balance": "cost"`` header means the shard slice was cost
        # partitioned, so it is not this run's round-robin slice.
        spec = spec_from_dict(MAC_2X2)
        first = run_sweep(spec, jobs=1, verbose=False, shard=Shard(1, 2))
        self._rewrite_header(os.path.join(first.out_dir, "journal.jsonl"), balance="cost")
        with pytest.raises(ConfigError, match="balance='cost'"):
            run_sweep(spec, jobs=1, verbose=False, shard=Shard(1, 2), resume=True)

    @pytest.mark.parametrize("balance", ["round-robin", None])
    def test_resume_accepts_round_robin_journal(self, results_env, balance):
        spec = spec_from_dict(MAC_2X2)
        first = run_sweep(spec, jobs=1, verbose=False, shard=Shard(1, 2))
        self._rewrite_header(os.path.join(first.out_dir, "journal.jsonl"), balance=balance)
        resumed = run_sweep(spec, jobs=1, verbose=False, shard=Shard(1, 2), resume=True)
        assert resumed.report.counts() == {"executed": 0, "cached": 2, "failed": 0}

    def test_resume_skips_quarantined_points(self, results_env):
        # One point fails at execute time; a default resume must replay the
        # recorded failure instead of re-running it, while completed points
        # come from the cache.
        raw = dict(
            MAC_2X2,
            name="flk",
            axes=[
                {"param": "granule_bytes", "values": [64]},
                {"param": "policy", "values": ["eager", "lazy"]},
            ],
        )
        spec = spec_from_dict(raw)
        first = run_sweep(spec, jobs=1, verbose=False)
        assert first.report.counts() == {"executed": 1, "cached": 0, "failed": 1}
        resumed = run_sweep(spec, jobs=1, verbose=False, resume=True)
        counters = resumed.report.stats.as_dict()
        assert counters["orchestrator.experiments.quarantined"] == 1
        assert "orchestrator.experiments.executed" not in counters
        assert resumed.report.counts() == {"executed": 0, "cached": 1, "failed": 1}
        failed = next(r for r in resumed.report.runs if r.status == "failed")
        assert "unknown policy" in failed.error
        # A bigger retry budget re-schedules the quarantined point.
        retried = run_sweep(spec, jobs=1, verbose=False, resume=True, retries=3)
        counters = retried.report.stats.as_dict()
        assert "orchestrator.experiments.quarantined" not in counters
        assert counters["orchestrator.experiments.failed"] == 1
        failed = next(r for r in retried.report.runs if r.status == "failed")
        assert failed.attempts == 4  # 1 from the first run + 3 retries

    def test_worker_crash_then_resume_matches_uninterrupted(self, tmp_path, monkeypatch):
        """Crash injection: the driver is hard-killed mid-sweep; the journal
        must hold exactly the completed points and --resume must produce
        sweep.json/sweep.csv identical to an uninterrupted run (modulo
        timing fields)."""
        ref_dir = tmp_path / "reference"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(ref_dir))
        spec = spec_from_dict(MAC_2X2)
        reference = run_sweep(spec, jobs=1, verbose=False)
        ref_doc = json.load(open(reference.json_path))
        ref_rows = canonical_csv(reference.csv_path)

        crash_dir = tmp_path / "crashed"
        toml_path = tmp_path / "m22.toml"
        toml_path.write_text(MAC_2X2_TOML, encoding="utf-8")
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(REPO, "src"),
            REPRO_RESULTS_DIR=str(crash_dir),
            REPRO_JOURNAL_CRASH_AFTER="2",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "run", str(toml_path),
             "--jobs", "1", "--quiet"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        out_dir = crash_dir / "sweeps" / "m22"
        assert not (out_dir / "sweep.json").exists()  # killed before writing
        view = read_journal(str(out_dir / "journal.jsonl"))
        assert view.header["n_points"] == 4
        assert len(view.records) == 2  # exactly the durable points
        assert all(r.succeeded for r in view.records)

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(crash_dir))
        status = sweep_status(spec)
        assert (status["done"], status["pending"]) == (2, 2)
        assert not status["complete"]

        resumed = run_sweep(spec, jobs=1, verbose=False, resume=True)
        # Only the two incomplete points executed; the rest replayed.
        assert resumed.report.counts() == {"executed": 2, "cached": 2, "failed": 0}
        res_doc = json.load(open(resumed.json_path))
        assert canonical_document(res_doc) == canonical_document(ref_doc)
        assert canonical_csv(resumed.csv_path) == ref_rows
        assert sweep_status(spec)["complete"]


class TestStatus:
    def test_status_without_journal_is_config_error(self, results_env):
        with pytest.raises(ConfigError, match="no run journal"):
            sweep_status(spec_from_dict(MAC_2X2))

    def test_status_counts_and_stale_detection(self, results_env):
        spec = spec_from_dict(MAC_2X2)
        result = run_sweep(spec, jobs=1, verbose=False)
        status = sweep_status(spec)
        assert status["complete"]
        assert status["done"] == 4
        assert status["journals"][0]["records"] == 4
        # Rewrite one success record under a rotated key: the point is
        # "stale" — its recorded success no longer matches current sources.
        journal_path = results_env / "sweeps" / "m22" / "journal.jsonl"
        lines = journal_path.read_text().splitlines()
        record = json.loads(lines[-1])
        record["key"] = "0" * 20
        lines[-1] = json.dumps(record)
        journal_path.write_text("\n".join(lines) + "\n")
        status = sweep_status(spec)
        assert status["stale"] == 1
        assert status["done"] == 3
        assert not status["complete"]
        assert result.points[-1].point_id in status["stale_points"]

    def test_newest_records_supersede_stale_shard_journals(self, results_env):
        # A sweep first ran sharded, sources changed, then it re-ran
        # unsharded to full success. The leftover shard journal holds
        # successes under rotated (now-bogus) keys with older timestamps;
        # the fresh unsharded records must win — by write time, not by
        # journal directory order.
        spec = spec_from_dict(MAC_2X2)
        result = run_sweep(spec, jobs=1, verbose=False)
        assert sweep_status(spec)["complete"]
        stale_dir = results_env / "sweeps" / "m22" / "shards" / "1of2"
        stale = RunJournal.start(
            str(stale_dir / "journal.jsonl"),
            {"sweep": "m22", "quick": False, "limit": None, "created_at": "1970"},
        )
        for point in result.points[::2]:
            stale.append(
                PointRecord(
                    label=sweep_mod.point_label("m22", point.point_id),
                    experiment="mac_policy",
                    key="stale-key",
                    seed=0,
                    status="executed",
                    ts=0.0,  # long before the fresh run's records
                )
            )
        status = sweep_status(spec)
        assert status["complete"]
        assert (status["done"], status["stale"]) == (4, 0)

    def test_mismatched_matrix_shape_journals_are_ignored(self, results_env):
        # A leftover --quick shard tree next to a fresh full run must not
        # conflate the two matrices: the older, differently-shaped journal
        # is reported but ignored.
        spec = spec_from_dict(MAC_2X2)
        run_sweep(spec, jobs=1, verbose=False, quick=True, shard=Shard(1, 2))
        run_sweep(spec, jobs=1, verbose=False)
        status = sweep_status(spec)
        assert status["complete"]
        assert status["quick"] is False
        flags = {j["path"]: j["ignored"] for j in status["journals"]}
        assert sorted(flags.values()) == [False, True]

    def test_status_aggregates_shard_journals(self, results_env):
        spec = spec_from_dict(MAC_2X2)
        run_sweep(spec, jobs=1, verbose=False, shard=Shard(1, 2))
        status = sweep_status(spec)
        assert status["done"] == 2
        assert status["pending"] == 2
        run_sweep(spec, jobs=1, verbose=False, shard=Shard(2, 2))
        status = sweep_status(spec)
        assert status["complete"]
        assert len(status["journals"]) == 2


class TestCli:
    def write_spec(self, tmp_path):
        path = tmp_path / "m22.toml"
        path.write_text(MAC_2X2_TOML, encoding="utf-8")
        return str(path)

    def test_shard_run_merge_status_flow(self, results_env, tmp_path, capsys):
        from repro.cli import main

        path = self.write_spec(tmp_path)
        assert main(["sweep", "run", path, "--shard", "1/2", "-j", "1", "-q"]) == 0
        assert main(["sweep", "status", path]) == 1  # half pending
        assert main(["sweep", "run", path, "--shard", "2/2", "-j", "1", "-q"]) == 0
        capsys.readouterr()
        assert main(["sweep", "merge", path, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["points"]) == 4
        assert main(["sweep", "status", path, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"]

    def test_bad_shard_exits_2(self, results_env, tmp_path, capsys):
        from repro.cli import main

        path = self.write_spec(tmp_path)
        assert main(["sweep", "run", path, "--shard", "3/2"]) == 2
        assert "shard index" in capsys.readouterr().err

    def test_resume_no_cache_exits_2(self, results_env, tmp_path, capsys):
        from repro.cli import main

        path = self.write_spec(tmp_path)
        assert main(["sweep", "run", path, "--resume", "--no-cache"]) == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_run_retries_flag(self, results_env, capsys):
        from repro.cli import main

        rc = main(["run", "--only", "table1_config", "--jobs", "1", "--no-cache",
                   "--retries", "2", "--json"])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["experiments"][0]["attempts"] == 1

    def test_digest_check_only_subset(self, results_env, capsys):
        from repro.cli import main

        path = os.path.join(REPO, "benchmarks", "artifact_digests.json")
        assert main(["digest", "--check", path,
                     "--only", "table1_config,hw_overhead"]) == 0
        out = capsys.readouterr().out
        assert "table1_config: ok" in out
        assert "fig16_overall" not in out  # the subset really subsets
        assert main(["digest", "--check", path, "--only", "nope"]) == 2
        assert "not in" in capsys.readouterr().err


class TestDigestFile:
    def test_all_sixteen_fixed_artifacts_tracked(self):
        recorded = json.load(
            open(os.path.join(REPO, "benchmarks", "artifact_digests.json"))
        )
        names = set(recorded["experiments"])
        assert len(names) == 16
        paper = {s.name for s in REGISTRY.select(tags=("paper",))}
        ablations = {s.name for s in REGISTRY.select(tags=("ablation",))}
        assert names == paper | ablations


class TestJournalCrashKnob:
    def test_crash_knob_is_inert_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_JOURNAL_CRASH_AFTER", raising=False)
        journal = RunJournal.start(str(tmp_path / "j.jsonl"))
        for i in range(5):
            journal.append(PointRecord(label=f"p{i}", experiment="e", key="k",
                                       seed=0, status="executed"))
        assert len(read_journal(journal.path).records) == 5

    def test_module_constants(self):
        assert journal_mod.JOURNAL_SCHEMA == 1
        assert set(journal_mod.SUCCESS_STATUSES) == {"executed", "cached"}
