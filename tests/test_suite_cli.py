import json
import math
import os
import subprocess
import sys

import pytest

from gleason_lab import quantum
from gleason_lab.cli import main as cli_main
from gleason_lab.suite import (
    REGISTRY,
    RunConfig,
    SKIP_DIM_GT2,
    claims_manifest,
    demo_counterexamples,
    emit_report,
    load_shipped_manifest,
    parse_report,
    run_suite,
)


def _small_cfg(**overrides):
    base = dict(algebras=("R", "C", "H"), dims=(2, 3), seeds=(0,), trials=3)
    base.update(overrides)
    return RunConfig(**base)


class TestRunSuite:
    def test_everything_passes_at_small_scale(self):
        report = run_suite(_small_cfg())
        failed = [r for r in report.records if r.passed is False]
        assert failed == []
        assert report.counts["passed"] > 0

    def test_gleason_skips_below_dim_three_with_the_required_marker(self):
        report = run_suite(_small_cfg(dims=(2,), only="gleason.round_trip"))
        assert all(r.passed is None for r in report.records)
        assert all(r.skip_reason == SKIP_DIM_GT2 for r in report.records)

    def test_dim2_record_present_and_passing_at_dim_two(self):
        report = run_suite(_small_cfg(algebras=("C",), dims=(2,), only="gleason.dim2_obstruction"))
        (record,) = report.records
        assert record.passed is True

    def test_antisymmetric_witness_trace_norm_matches_dimension(self):
        from gleason_lab.suite import _antisymmetric_witness
        from gleason_lab.trace import trace_norm

        assert math.isclose(trace_norm(_antisymmetric_witness(2)), 4.0, abs_tol=1e-10)
        report = run_suite(_small_cfg(algebras=("R",), dims=(4,), only="witness.antisymmetric*"))
        (record,) = report.records
        assert record.passed is True

    def test_determinism_is_byte_exact(self):
        cfg = _small_cfg(dims=(3,), trials=2)
        blob1 = emit_report(run_suite(cfg), "json")
        blob2 = emit_report(run_suite(cfg), "json")
        assert blob1 == blob2

    def test_report_round_trip(self):
        report = run_suite(_small_cfg(dims=(3,), trials=2, only="trace.real_cyclicity"))
        assert parse_report(emit_report(report, "json")) == report

    def test_empty_selection_gives_a_valid_report(self):
        report = run_suite(_small_cfg(only="no.such.property"))
        assert report.records == ()
        assert report.all_passed
        parsed = parse_report(emit_report(report, "json"))
        assert parsed.records == ()

    def test_failures_are_recorded_not_raised(self):
        cfg = _small_cfg(dims=(3,), trials=2, only="trace.real_cyclicity",
                         tolerances={"trace.real_cyclicity": -1.0})
        report = run_suite(cfg)
        assert all(r.passed is False for r in report.records)
        assert not report.all_passed

    def test_text_format_has_one_line_per_record(self):
        report = run_suite(_small_cfg(dims=(3,), trials=2, only="trace.real_cyclicity"))
        text = emit_report(report, "text").decode()
        lines = [line for line in text.strip().splitlines() if line]
        assert len(lines) == len(report.records) + 1  # plus the summary line

    def test_invalid_config_is_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(dims=(0,))
        with pytest.raises(ValueError):
            RunConfig(trials=0)
        with pytest.raises(ValueError):
            RunConfig(algebras=("X",))
        with pytest.raises(ValueError, match="no.such.property"):
            RunConfig(tolerances={"no.such.property": 1.0})

    def test_runner_errors_are_recorded_with_their_message(self, monkeypatch):
        def broken(U, T):
            raise RuntimeError("conjugation exploded")

        monkeypatch.setattr(quantum, "conjugate_state", broken)
        report = run_suite(_small_cfg(dims=(3,), trials=1, only="quantum.state_conjugation"))
        assert report.records
        for r in report.records:
            assert r.passed is False
            assert r.error == "RuntimeError: conjugation exploded"


class TestCoverage:
    def test_shipped_manifest_matches_registry(self):
        assert load_shipped_manifest() == claims_manifest()

    def test_full_run_covers_every_claim(self):
        report = run_suite(_small_cfg())
        seen = {(r.name, r.law) for r in report.records}
        declared = {(c["name"], c["law"]) for c in claims_manifest()}
        assert seen == declared

    def test_registry_names_are_unique(self):
        names = [prop.name for prop in REGISTRY]
        assert len(names) == len(set(names))


class TestDemo:
    def test_transcript_contains_the_three_issues_and_dim2(self, tmp_path):
        out = tmp_path / "demo.txt"
        text = demo_counterexamples(str(out))
        assert out.read_text() == text
        assert "basis {1}" in text.lower() or "basis {1}" in text
        assert "j" in text
        assert "real parts" in text
        assert "trace norm =  16.0" in text
        assert "0.05" in text


class TestCli:
    def test_list_mode(self, capsys):
        assert cli_main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for prop in REGISTRY:
            assert prop.name in out

    def test_run_writes_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main([
            "run", "--algebra", "H", "--dim", "3", "--trials", "2",
            "--seed", "5", "--only", "trace.real_cyclicity",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["failed"] == 0
        assert payload["records"][0]["name"] == "trace.real_cyclicity"
        assert payload["records"][0]["seed"] == 5

    def test_exit_code_one_on_failure(self, tmp_path):
        code = cli_main([
            "run", "--algebra", "C", "--dim", "3", "--trials", "1",
            "--only", "trace.real_cyclicity", "--tol", "trace.real_cyclicity=-1",
            "--out", str(tmp_path / "r.json"), "--format", "json",
        ])
        assert code == 1

    def test_misspelled_tolerance_key_exits_non_zero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--tol", "no.such.property=1",
                      "--out", str(tmp_path / "r.json")])
        assert exc.value.code != 0
        assert "no.such.property" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "algebras": ["C"], "dims": [3], "seeds": [9], "trials": 2,
            "only": "trace.real_cyclicity",
        }))
        out = tmp_path / "report.json"
        code = cli_main(["run", "--config", str(cfg_path), "--trials", "1",
                         "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["trials"] == 1  # flag wins
        assert payload["config"]["seeds"] == [9]  # file survives

    def test_seed_env_fallback(self, tmp_path):
        out = tmp_path / "report.json"
        env = dict(os.environ)
        env["GLEASON_LAB_SEED"] = "77"
        proc = subprocess.run(
            [sys.executable, "-m", "gleason_lab.cli", "run", "--algebra", "C",
             "--dim", "3", "--trials", "1", "--only", "trace.real_cyclicity",
             "--format", "json", "--out", str(out)],
            env=env, capture_output=True,
        )
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["seeds"] == [77]

    def test_demo_subcommand_writes_file(self, tmp_path):
        out = tmp_path / "demo.txt"
        assert cli_main(["demo", "--out", str(out)]) == 0
        assert "Counterexample transcript" in out.read_text()
