"""CLI tests: the full offline pipeline driven through the command line."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.cli import main
from repro.io import FeatureDatabase, write_matrix_market
from repro.serve.engine import _SubmissionQueue


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "features.jsonl"
    # Scale 0.05 (~120 matrices) is the smallest collection that trains a
    # reliable model for the demo predictions below.
    code = main([
        "build-db", "--out", str(path),
        "--scale", "0.05", "--size-scale", "0.35",
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def model_dir(db_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_model") / "smat"
    code = main(["train", "--db", str(db_path), "--out", str(out)])
    assert code == 0
    return out


class TestBuildDb:
    def test_database_has_labelled_records(self, db_path) -> None:
        records = list(FeatureDatabase(db_path))
        assert len(records) > 20
        assert all(r.features.best_format is not None for r in records)

    def test_domains_present(self, db_path) -> None:
        domains = {r.domain for r in FeatureDatabase(db_path)}
        assert "graph" in domains and "structural" in domains


class TestTrain:
    def test_artifacts_written(self, model_dir) -> None:
        assert (model_dir / "model.json").exists()
        assert (model_dir / "kernels.json").exists()

    def test_show_rules_prints_groups(self, db_path, tmp_path, capsys):
        out = tmp_path / "m2"
        main(["train", "--db", str(db_path), "--out", str(out),
              "--show-rules"])
        printed = capsys.readouterr().out
        assert "group]" in printed

    def test_empty_db_errors(self, tmp_path) -> None:
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["train", "--db", str(empty),
                     "--out", str(tmp_path / "m")])
        assert code == 1


class TestPredict:
    @pytest.mark.parametrize(
        "demo,expected",
        [("banded", "DIA"), ("powerlaw", "COO")],
    )
    def test_demo_predictions(self, model_dir, demo, expected, capsys):
        code = main(["predict", "--model", str(model_dir), "--demo", demo])
        assert code == 0
        printed = capsys.readouterr().out
        assert f"chosen     : {expected}" in printed

    def test_mtx_prediction(self, model_dir, tmp_path, capsys) -> None:
        from repro.collection import banded

        matrix = banded.banded_matrix(800, 5, seed=9)
        path = tmp_path / "m.mtx"
        write_matrix_market(matrix, path)
        code = main(["predict", "--model", str(model_dir),
                     "--mtx", str(path)])
        assert code == 0
        assert "800x800" in capsys.readouterr().out


class TestEvaluateAndStats:
    def test_evaluate_prints_confusion(self, model_dir, db_path, capsys):
        code = main(["evaluate", "--model", str(model_dir),
                     "--db", str(db_path)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "accuracy:" in printed
        assert "precision" in printed

    def test_stats_distribution(self, db_path, capsys) -> None:
        code = main(["stats", "--db", str(db_path)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "format affinity:" in printed
        assert "CSR" in printed

    def test_stats_empty_db(self, tmp_path) -> None:
        empty = tmp_path / "e.jsonl"
        empty.write_text("")
        assert main(["stats", "--db", str(empty)]) == 1


class TestVersion:
    def test_version_matches_pyproject(self, capsys) -> None:
        import re
        from pathlib import Path

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        printed = capsys.readouterr().out.strip()

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        ).group(1)
        assert printed == f"repro {declared}"

    def test_dunder_version_matches_pyproject(self) -> None:
        import re
        from pathlib import Path

        import repro

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        ).group(1)
        assert repro.__version__ == declared


class TestServeBench:
    def test_small_replay_succeeds(self, capsys) -> None:
        code = main([
            "serve-bench",
            "--matrices", "6", "--requests", "40",
            "--clients", "2", "--workers", "2",
            "--train-scale", "0.04",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "plan cache:" in printed
        assert "hit rate" in printed
        assert "cache_hits" in printed
        assert "40/40 products match" in printed

    def test_rejects_too_few_requests(self, capsys) -> None:
        code = main([
            "serve-bench", "--matrices", "10", "--requests", "5",
        ])
        assert code == 1
        assert "must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        # Conflicts (--online-retrain implies --online).
        (("--structure-churn", "3", "--fan-in", "4"),
         "--structure-churn cannot be combined with --fan-in"),
        (("--structure-churn", "3", "--value-churn", "3"),
         "--structure-churn cannot be combined with --value-churn"),
        (("--structure-churn", "3", "--online"),
         "--structure-churn cannot be combined with --online"),
        (("--fan-in", "4", "--value-churn", "3"),
         "--fan-in cannot be combined with --value-churn"),
        (("--fan-in", "4", "--online"),
         "--fan-in cannot be combined with --online"),
        (("--fan-in", "4", "--online-retrain"),
         "--fan-in cannot be combined with --online"),
        # Dependencies.
        (("--bench-json", "bench.json"),
         "--bench-json needs --fan-in or --structure-churn"),
        (("--bench-json", "bench.json", "--value-churn", "3"),
         "--bench-json needs --fan-in or --structure-churn"),
        # Ranges.
        (("--tune-budget", "0"), "--tune-budget (0.0) must be > 0"),
        (("--fan-in", "0"), "--fan-in (0) must be >= 1"),
        (("--value-churn", "1"),
         "--value-churn (1) must be >= 2 (one base build plus at least "
         "one value update)"),
        (("--structure-churn", "1"),
         "--structure-churn (1) must be >= 2 (at least one delta between "
         "serve rounds)"),
        (("--structure-churn", "3", "--churn-fraction", "0"),
         "--churn-fraction (0.0) must be in (0, 1]"),
        (("--structure-churn", "3", "--churn-fraction", "1.5"),
         "--churn-fraction (1.5) must be in (0, 1]"),
        (("--structure-churn", "3", "--churn-nodes", "15"),
         "--churn-nodes (15) must be >= 16"),
        (("--matrices", "10", "--requests", "5"),
         "--requests (5) must be >= --matrices (10) so every matrix is "
         "requested at least once"),
    ])
    def test_refusal_table(self, capsys, flags, message) -> None:
        # Refused before training, so each case costs milliseconds.
        assert main(["serve-bench", *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags", [
        ("--cluster",), ("--crash-after", "3"),
    ])
    def test_deleted_cluster_flags_are_unknown(self, flags) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-bench", *flags])
        assert excinfo.value.code == 2


def _serve_bench(capsys, *flags: str):
    """Run a small serve-bench; returns (exit code, stdout, stderr)."""
    code = main(["serve-bench", "--train-scale", "0.02", *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestServeBenchModes:
    """Each serve-bench mode and the exit rule that guards it."""

    FAN_IN = ("--fan-in", "4", "--matrices", "2", "--requests", "16")
    CHURN = ("--structure-churn", "3", "--requests", "6",
             "--churn-nodes", "60")

    def test_fan_in_executes_spmm_batches(self, capsys, spmm_verdict) -> None:
        spmm_verdict(True)
        code, out, err = _serve_bench(capsys, *self.FAN_IN)
        assert code == 0, err
        batches = re.search(r"batching\s*: (\d+) SpMM batches", out)
        assert int(batches.group(1)) >= 1

    def test_fan_in_without_a_batch_fails(self, capsys, monkeypatch) -> None:
        # A queue that never coalesces: every request dequeues alone, so
        # no same-fingerprint group forms even though bursts arrive.
        take = _SubmissionQueue.take_batch
        monkeypatch.setattr(
            _SubmissionQueue,
            "take_batch",
            lambda self, max_batch, window: take(self, 1, window),
        )
        code, out, err = _serve_bench(capsys, *self.FAN_IN)
        assert code == 1
        assert "no same-fingerprint group formed" in err
        assert "16/16 products match" in out

    def test_fan_in_spmm_faults_still_pass(self, capsys, spmm_verdict) -> None:
        # Every stacked pass fails and falls back to per-request SpMV:
        # the groups formed and every product is right, so the run passes.
        spmm_verdict(True)
        code, out, err = _serve_bench(
            capsys, *self.FAN_IN, "--faults", "spmm,kind=fatal"
        )
        assert code == 0, err
        assert re.search(r"batching\s*: 0 SpMM batches", out)

    def test_refused_burst_fails_every_request(self, capsys) -> None:
        # A 300-wide burst exceeds the 256-slot queue and is refused at
        # submit: each of its requests failed, none went unanswered.
        code, out, err = _serve_bench(
            capsys, "--fan-in", "300", "--matrices", "1", "--requests", "300"
        )
        assert code == 1
        assert "300 requests failed (BackpressureError" in err
        assert "dropped" not in err
        assert re.search(r"failed\s*: 300 requests, 0 dropped", out)

    def test_structure_churn_migrates_plans(self, capsys) -> None:
        code, out, err = _serve_bench(capsys, *self.CHURN, "--matrices", "1")
        assert code == 0, err
        assert re.search(r"deltas\s*: 2 applied", out)
        assert "6/6 products match" in out

    def test_structure_churn_ignores_matrices(self, capsys) -> None:
        code, _, err = _serve_bench(capsys, *self.CHURN)
        assert code == 0, err

    def test_structure_churn_all_retunes_fails(self, capsys) -> None:
        code, _, err = _serve_bench(
            capsys, *self.CHURN, "--matrices", "1", "--churn-fraction", "1.0"
        )
        assert code == 1
        assert "every delta fell back to a full retune" in err

    def test_value_churn_refreshes_plans(self, capsys) -> None:
        code, out, err = _serve_bench(
            capsys, "--matrices", "2", "--value-churn", "3"
        )
        assert code == 0, err
        assert re.search(r"plans_refreshed\s+4\n", out)

    def test_online_retrain_swaps_the_ruleset(self, capsys) -> None:
        code, out, err = _serve_bench(
            capsys, "--tune-budget", "32", "--online-retrain",
            "--matrices", "10", "--requests", "200",
        )
        assert code == 0, err
        swaps = re.search(r"hot-swap\s*: (\d+) ruleset swaps", out)
        assert int(swaps.group(1)) >= 1


class TestBenchPerf:
    def test_smoke_suite_writes_report(self, tmp_path, capsys) -> None:
        out = tmp_path / "BENCH_perf.json"
        code = main([
            "bench-perf", "--suite", "smoke", "--repeats", "1",
            "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "convert/csr_to_ell" in captured

        import json

        report = json.loads(out.read_text())
        ops = report["ops"]
        for op in ("convert/csr_to_ell", "convert/csr_to_dia", "spmv/csr"):
            assert ops[op]["median_s"] > 0
            assert "speedup_vs_python_loop" in ops[op]

    def test_assert_speedup_gate(self, tmp_path, capsys) -> None:
        out = tmp_path / "BENCH_perf.json"
        code = main([
            "bench-perf", "--suite", "smoke", "--repeats", "1",
            "--out", str(out), "--assert-speedup", "2",
        ])
        assert code == 0
        assert "speedup gate passed" in capsys.readouterr().out

    def test_impossible_gate_fails(self, tmp_path, capsys) -> None:
        out = tmp_path / "BENCH_perf.json"
        code = main([
            "bench-perf", "--suite", "smoke", "--repeats", "1",
            "--out", str(out), "--assert-speedup", "1000000",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
