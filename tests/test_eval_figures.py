"""Evaluation-harness smoke and shape tests on reduced workload subsets."""

import os

import pytest

from repro.eval import (
    fig03_adam_slowdown,
    fig04_tensor_stats,
    fig16_overall,
    fig20_mac_granularity,
    tables_12,
)
from repro.eval.tables import ascii_table, fmt, pct, save_result
from repro.workloads.models import MODEL_ZOO


SMALL = MODEL_ZOO[:3]


class TestTables:
    def test_fmt_and_pct(self):
        assert fmt(1.2345) == "1.23"
        assert pct(0.123) == "12.3%"

    def test_save_result_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.eval.tables.results_dir", lambda: str(tmp_path)
        )
        path = save_result("unit_test", "hello")
        assert os.path.exists(path)
        with open(path) as f:
            assert f.read() == "hello\n"

    def test_ascii_table_handles_mixed_types(self):
        out = ascii_table(["x", "y"], [(1, "a"), (2.5, None)])
        assert "None" in out


class TestFigureGenerators:
    @pytest.mark.slow
    def test_fig03_rows_cover_thread_range(self):
        result = fig03_adam_slowdown.run(n_params=50_000_000, max_threads=4)
        assert [r.threads for r in result.rows] == [1, 2, 3, 4]
        assert "Figure 3" in fig03_adam_slowdown.render(result)

    def test_fig04_small_subset(self):
        result = fig04_tensor_stats.run(models=SMALL)
        assert len(result.rows) == 3
        assert all(r.mean_tensor_mib > 0 for r in result.rows)

    @pytest.mark.slow
    def test_fig16_small_subset_consistent(self):
        result = fig16_overall.run(models=SMALL)
        for row in result.rows:
            assert row.baseline_s > row.non_secure_s
            assert row.tensortee_s >= row.non_secure_s
        assert "speedup" in fig16_overall.render(result)

    def test_fig20_rows_sorted_by_granularity(self):
        result = fig20_mac_granularity.run()
        granules = [r.granule_bytes for r in result.rows if r.granule_bytes]
        assert granules == sorted(granules)

    def test_table_renderers_nonempty(self):
        assert "3.5 GHz" in tables_12.render_table1()
        assert "GPT2-M" in tables_12.render_table2()
        assert "24.0 KiB" in tables_12.render_hw_overhead()


class TestAblations:
    def test_entmf_disabled_hits_nothing(self):
        from repro.eval.ablations import entmf_disabled

        row = entmf_disabled(iterations=2)
        assert row.hit_in_late == 0.0

    @pytest.mark.parametrize(
        "name, n_rows",
        [
            ("ablation_capacity", 5),
            ("ablation_replacement", 2),
            ("ablation_merge_window", 4),
            ("ablation_entmf", 1),
        ],
    )
    def test_ablation_renders_every_row(self, name, n_rows):
        from repro.eval.registry import REGISTRY

        output = REGISTRY.get(name).execute(iterations=2)
        rows = output.result if isinstance(output.result, list) else [output.result]
        assert len(rows) == n_rows
        assert output.text.startswith("Ablation — ")
        for row in rows:
            assert 0.0 <= row.hit_in_early <= 1.0 and 0.0 <= row.hit_in_late <= 1.0
            assert row.label in output.text

    def test_capacity_rows_labelled(self):
        from repro.eval.ablations import AblationRow, render

        text = render([AblationRow("x", 0.1, 0.9, 10)], "T")
        assert "T" in text and "0.900" in text
