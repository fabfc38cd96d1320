"""Tests for the analysis modules (Tables 9-14, Figures 3-4) and the CLI."""

import numpy as np
import pytest

from repro.analysis import (
    gate_weight_distribution,
    improvement_summary,
    item_frequency_distribution,
    run_ablation_study,
    run_parameter_study,
    run_sasrec_sensitivity,
    runtime_comparison,
)
from repro.analysis.ablation import ABLATION_VARIANTS
from repro.analysis.attention_weights import FREQUENCY_BUCKETS
from repro.cli import build_parser, main
from repro.experiments.overall import clear_cache, run_overall_experiment


@pytest.fixture(scope="module")
def tiny_overall_results():
    """One shared tiny overall run reused by several analysis tests."""
    clear_cache()
    methods = ("Caser", "SASRec", "HGN", "HAMm", "HAMs_m")
    results = {
        "cds": run_overall_experiment("cds", "80-20-CUT", methods=methods,
                                      scale="tiny", epochs=2, seed=0),
    }
    yield results
    clear_cache()


class TestImprovementSummary:
    def test_structure(self, tiny_overall_results):
        summary = improvement_summary(tiny_overall_results,
                                      competitors=("Caser", "HGN", "HAMm"))
        assert set(summary) == {"Recall@5", "Recall@10", "NDCG@5", "NDCG@10"}
        for cells in summary.values():
            assert [cell.competitor for cell in cells] == ["Caser", "HGN", "HAMm"]
            for cell in cells:
                assert "cds" in cell.per_dataset
                assert isinstance(cell.as_cell(), str)

    def test_exclusions_validated(self, tiny_overall_results):
        with pytest.raises(ValueError):
            improvement_summary(tiny_overall_results, exclude_datasets=("cds",))


class TestRuntimeComparison:
    def test_rows_and_speedups(self, tiny_overall_results):
        rows = runtime_comparison(tiny_overall_results,
                                  methods=("Caser", "SASRec", "HGN", "HAMs_m"))
        assert len(rows) == 1
        row = rows[0]
        assert set(row.seconds_per_user) == {"Caser", "SASRec", "HGN", "HAMs_m"}
        assert all(value > 0 for value in row.seconds_per_user.values())
        assert row.speedup_over("Caser") > 0
        assert "speedup" in row.as_row()

    def test_reference_must_be_included(self, tiny_overall_results):
        with pytest.raises(ValueError):
            runtime_comparison(tiny_overall_results, methods=("Caser",), reference="HAMs_m")

    def test_ham_is_faster_than_deep_baselines(self, tiny_overall_results):
        # Qualitative claim of Table 14: pooling-based HAM scores faster than
        # the convolutional and attention baselines.  The authoritative check
        # lives in benchmarks/test_table14_runtime.py; at tiny scale and on a
        # possibly loaded CI machine this unit test only guards against gross
        # regressions (HAM becoming dramatically slower than the deep models).
        row = runtime_comparison(tiny_overall_results)[0]
        assert row.speedup_over("Caser") > 0.3
        assert row.speedup_over("SASRec") > 0.5


class TestAblation:
    def test_three_variants_evaluated(self):
        rows = run_ablation_study("cds", scale="tiny", epochs=2, seed=0)
        assert [row.variant for row in rows] == list(ABLATION_VARIANTS)
        for row in rows:
            assert 0.0 <= row.recall_at_5 <= 1.0
            as_row = row.as_row()
            assert as_row["dataset"] == "cds"
            assert "Recall@10" in as_row


class TestParameterStudy:
    def test_sweep_rows(self):
        sweep = {"n_l": [0, 2], "synergy_order": [1, 2]}
        rows = run_parameter_study("cds", sweep=sweep, scale="tiny", epochs=1, seed=0)
        assert len(rows) == 4
        parameters = {(row.parameter, row.value) for row in rows}
        assert ("n_l", 0) in parameters and ("synergy_order", 2) in parameters
        assert all(0.0 <= row.recall_at_10 <= 1.0 for row in rows)

    def test_n_h_sweep_respects_constraints(self):
        rows = run_parameter_study("cds", sweep={"n_h": [2]}, scale="tiny",
                                   epochs=1, seed=0)
        config = rows[0].config
        assert config["n_l"] <= 2
        assert config["synergy_order"] <= 2

    def test_n_p_is_training_parameter(self):
        rows = run_parameter_study("cds", sweep={"n_p": [2]}, scale="tiny",
                                   epochs=1, seed=0)
        assert rows[0].parameter == "n_p"
        assert "n_p" not in rows[0].config

    def test_base_configuration_is_trained_once(self, monkeypatch):
        from repro.analysis import parameter_study
        from repro.experiments.configs import default_training_config

        default_n_p = default_training_config(dataset="cds", setting="80-20-CUT").n_p
        # Every value below is the cds base, so all three rows are one run.
        sweep = {"n_l": [2], "synergy_order": [2], "n_p": [default_n_p]}
        runs = []
        evaluate = parameter_study._evaluate_configuration

        def counting(*args, **kwargs):
            runs.append(args[1])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(parameter_study, "_evaluate_configuration", counting)
        rows = run_parameter_study("cds", sweep=sweep, scale="tiny", epochs=1, seed=0)
        assert len(runs) == 1
        assert [(row.parameter, row.value) for row in rows] == [
            ("n_l", 2), ("synergy_order", 2), ("n_p", default_n_p)]
        assert len({(row.recall_at_5, row.recall_at_10) for row in rows}) == 1
        # A fresh run of the same configuration measures the same numbers.
        rerun = run_parameter_study("cds", sweep={"synergy_order": [2]}, scale="tiny",
                                    epochs=1, seed=0)
        assert (rerun[0].recall_at_5, rerun[0].recall_at_10) == (
            rows[0].recall_at_5, rows[0].recall_at_10)
        assert len(runs) == 2

    def test_sasrec_sensitivity(self):
        rows = run_sasrec_sensitivity(sweep={"num_heads": [1, 2]}, scale="tiny",
                                      epochs=1, seed=0)
        assert len(rows) == 2
        for row in rows:
            assert row.config["embedding_dim"] % row.value == 0


class TestFrequencyAnalysis:
    def test_distribution_sums_to_hundred(self):
        distributions = item_frequency_distribution(("cds", "ml-1m"), scale="tiny")
        assert len(distributions) == 2
        for distribution in distributions:
            assert distribution.item_percentages.sum() == pytest.approx(100.0)
            assert 0.0 <= distribution.infrequent_mass() <= 100.0
            assert len(distribution.as_rows()) == len(distribution.bin_centres)

    def test_sparse_dataset_has_more_infrequent_items(self):
        cds, ml1m = item_frequency_distribution(("cds", "ml-1m"), scale="small")
        # CDs (sparsest) should have at least as much mass in the infrequent
        # half as the dense ML-1M analogue — the Fig. 3 shape.
        assert cds.infrequent_mass() >= ml1m.infrequent_mass() - 5.0


class TestGateWeightAnalysis:
    def test_distribution_structure(self):
        distribution = gate_weight_distribution("cds", scale="tiny", epochs=2, seed=0)
        assert set(distribution.histograms) == set(FREQUENCY_BUCKETS)
        for histogram in distribution.histograms.values():
            assert histogram.sum() == pytest.approx(100.0, abs=1e-6) or histogram.sum() == 0.0
        rows = distribution.as_rows()
        assert len(rows) == len(FREQUENCY_BUCKETS)

    def test_infrequent_items_concentrate_near_half(self):
        # The paper's Fig. 4 observation: gates of infrequent items barely
        # move from their 0.5 initialization.
        distribution = gate_weight_distribution("cds", scale="tiny", epochs=2, seed=0)
        concentration = distribution.concentration_near_half("top 20% least frequent")
        assert concentration > 0.5


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        assert parser.parse_args(["list"]).command == "list"
        assert parser.parse_args(["run", "table2"]).experiment == "table2"
        args = parser.parse_args(["train", "--dataset", "cds", "--method", "HAMm"])
        assert args.method == "HAMm"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table3" in output and "fig4" in output

    def test_stats_command(self, capsys):
        assert main(["stats", "--scale", "tiny"]) == 0
        assert "CDs" in capsys.readouterr().out

    def test_run_command_table2(self, capsys):
        assert main(["run", "table2", "--scale", "tiny"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_train_command(self, capsys):
        assert main(["train", "--dataset", "cds", "--method", "HAMm",
                     "--setting", "80-3-CUT", "--scale", "tiny", "--epochs", "1"]) == 0
        output = capsys.readouterr().out
        assert "Recall@10" in output
