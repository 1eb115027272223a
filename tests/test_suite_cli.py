import hashlib
import importlib.util
import json
import math
import subprocess
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from gleason_lab import kernels, quantum, suite, trace
from gleason_lab.cli import main as cli_main
from gleason_lab.rng import SplitMix64
from gleason_lab.scalars import Quaternion
from gleason_lab.suite import (
    REGISTRY,
    PropertyDef,
    RunConfig,
    claims_manifest,
    demo_counterexamples,
    emit_report,
    load_shipped_manifest,
    run_suite,
)


ROOT = Path(__file__).resolve().parents[1]


def _strict_loads(text):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def _nan_stack(c, *args):
    """NaN for every matrix of a (..., n, n, 4) stack."""
    return np.full(c.shape[:-3], math.nan)


def _small_cfg(**overrides):
    base = dict(algebras=("R", "C", "H"), dims=(2, 3), seeds=(0,), trials=3)
    base.update(overrides)
    return RunConfig(**base)


class TestRunSuite:
    def test_real_and_complex_runs_build_no_entry_outside_their_algebra(self, monkeypatch):
        # the R and C products read only the algebra's components, so every
        # operand of such a product must keep the others zero; most runners
        # build component stacks with no Matrix, so the spy sits on the
        # product, which every module calls through the kernels module
        product = kernels.quat_matmul
        products, outside = [0], []

        def checked_product(A, B, component_count=4):
            if component_count < 4:
                # matrix products, not calls: a stacked runner makes one call per stack
                products[0] += int(np.prod(np.broadcast_shapes(A.shape[:-3], B.shape[:-3])))
                outside.extend(op.shape for op in (A, B) if op[..., component_count:].any())
            return product(A, B, component_count)

        monkeypatch.setattr(kernels, "quat_matmul", checked_product)
        report = run_suite(_small_cfg(algebras=("R", "C"), dims=(1, 2, 3), trials=2))
        assert report.all_passed and report.counts["passed"] > 0
        assert products[0] > 800
        assert outside == []

    @pytest.mark.parametrize("rows", [10, 3000])  # both sides of linalg._SQ_MODULI_MIN_ENTRIES
    def test_moduli_are_abs_of_each_quaternion_bit_for_bit(self, rows):
        q = SplitMix64(29).gaussian_block(rows * 4).reshape(rows, 4)
        assert suite._moduli(q).tolist() == [abs(Quaternion.from_array(row)) for row in q]

    def test_everything_passes_at_small_scale(self):
        report = run_suite(_small_cfg())
        failed = [r for r in report.records if r.passed is False]
        assert failed == []
        assert report.counts["passed"] > 0

    def test_gleason_skips_below_dim_three_with_the_required_marker(self):
        report = run_suite(_small_cfg(dims=(2,), only="gleason.round_trip"))
        assert all(r.passed is None for r in report.records)
        assert all(r.skip_reason == "dim>2 required" for r in report.records)

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
        blob = emit_report(report, "json")
        assert _strict_loads(blob) == report.to_json()

    def test_empty_selection_gives_a_valid_report(self):
        report = run_suite(_small_cfg(only="no.such.property"))
        assert report.records == ()
        assert report.all_passed
        assert _strict_loads(emit_report(report, "json")) == report.to_json()

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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(algebras=("r",)), "'r'"),
        (dict(algebras=("R", "R")), "duplicate algebras"),
        (dict(dims=(3, 3)), "duplicate dims"),
        (dict(seeds=(0, 1, 0)), "duplicate seeds"),
        (dict(tolerances={"trace.real_cyclicity": math.nan}), "finite: trace.real_cyclicity"),
        (dict(tolerances={"trace.real_cyclicity": math.inf}), "finite: trace.real_cyclicity"),
        (dict(tolerances={"trace.real_cyclicity": -math.inf}), "finite: trace.real_cyclicity"),
    ])
    def test_config_it_cannot_honour_is_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**kwargs)

    def test_config_json_with_unknown_keys_is_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: dim, trial"):
            RunConfig.from_json({"trial": 5, "dim": [4]})

    @pytest.mark.parametrize("obj, message", [
        ([3], "config must be a JSON object, got [3]"),
        ({"algebras": "RCH"}, "config algebras must be a list, got 'RCH'"),
        ({"dims": 3}, "config dims must be a list of integers, got 3"),
        ({"seeds": 0}, "config seeds must be a list of integers, got 0"),
        ({"trials": 2.7}, "config trials must be an integer, got 2.7"),
        ({"trials": True}, "config trials must be an integer, got True"),
        ({"dims": [3.5]}, "config dims must be a list of integers, got [3.5]"),
        ({"dims": [True]}, "config dims must be a list of integers, got [True]"),
        ({"seeds": [0, "1"]}, "config seeds must be a list of integers, got [0, '1']"),
        ({"seeds": [False]}, "config seeds must be a list of integers, got [False]"),
        ({"tolerances": [1e-9]}, "config tolerances must be an object of numbers"),
        ({"tolerances": {"trace.real_cyclicity": None}}, "config tolerances must be an object"),
        ({"only": 3}, "config only must be a string or null, got 3"),
    ], ids=["top-level-list", "algebras-string", "dims-int", "seeds-int", "trials-float",
            "trials-bool", "dim-float", "dim-bool", "seed-string", "seed-bool",
            "tolerances-list", "tolerance-null", "only-int"])
    def test_config_json_of_the_wrong_type_is_rejected(self, obj, message):
        with pytest.raises(ValueError) as exc:
            RunConfig.from_json(obj)
        assert message in str(exc.value)

    @pytest.mark.parametrize("key", ["algebras", "dims", "seeds"])
    def test_an_empty_config_list_is_rejected(self, key):
        # an empty list would run no cell and pass
        with pytest.raises(ValueError, match=f"^{key} must name at least one value"):
            RunConfig.from_json({key: []})
        with pytest.raises(ValueError, match=f"^{key} must name at least one value"):
            RunConfig(**{key: ()})

    def test_config_json_takes_the_field_defaults(self):
        assert RunConfig.from_json({}) == RunConfig()
        cfg = RunConfig(algebras=("C",), dims=(2, 4), seeds=(7,), trials=3,
                        tolerances={"trace.real_cyclicity": 1e-6}, only="trace.*")
        assert RunConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_residual_fails_its_record(self, monkeypatch, value):
        prop = PropertyDef("probe.non_finite", "a runner that returns a non-finite residual",
                           lambda cell: value, algebras=("C",))
        monkeypatch.setattr(suite, "REGISTRY", (prop,))
        report = run_suite(_small_cfg(algebras=("C",), dims=(3,)))
        (record,) = report.records
        assert record.passed is False and record.max_residual is None
        assert record.error == f"non-finite residual: {value}"
        assert _strict_loads(emit_report(report, "json"))["summary"]["failed"] == 1

    def _assert_non_finite_failures(self, name, algebras):
        report = run_suite(_small_cfg(dims=(3,), only=name))
        ran = [r for r in report.records if r.skip_reason is None]
        assert [r.algebra for r in ran] == sorted(algebras)
        for r in ran:
            assert r.passed is False and r.max_residual is None
            assert r.error == "non-finite residual: nan"
        _strict_loads(emit_report(report, "json"))

    # the stacked runners read the stack kernels, of which real_trace and
    # trace_norm are the one-matrix cases
    @pytest.mark.parametrize("name", ["trace.linearity_star", "trace.positivity_monotonicity"])
    def test_nan_real_trace_fails_its_claims(self, monkeypatch, name):
        monkeypatch.setattr(trace, "_real_traces", _nan_stack)
        self._assert_non_finite_failures(name, ("R", "C", "H"))

    @pytest.mark.parametrize("name, algebras", [
        ("trace.norm_inequalities", ("R", "C", "H")),
        ("trace.absolute_sum_bound", ("C", "H")),
    ])
    def test_nan_trace_norm_fails_its_claims(self, monkeypatch, name, algebras):
        monkeypatch.setattr(trace, "_trace_norms", _nan_stack)
        self._assert_non_finite_failures(name, algebras)

    def test_worst_of_terms_starts_from_zero_and_keeps_nan(self):
        from gleason_lab.suite import _worst

        assert _worst([]) == 0.0
        assert math.copysign(1.0, _worst([-1.0, -0.0])) == 1.0
        assert _worst([0.5, 2.0, 1.0]) == 2.0
        assert math.isnan(_worst([1.0, math.nan, 2.0]))
        assert _worst([1.0, math.inf]) == math.inf

    def test_runner_errors_are_recorded_with_their_message(self, monkeypatch):
        def broken(v, b, anti, algebra):
            raise RuntimeError("conjugation exploded")

        # the runner conjugates a cell's states as one stack
        monkeypatch.setattr(quantum, "_transform_states", broken)
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
    def test_transcript_contains_the_three_issues_and_dim2(self, tmp_path, capsysbinary):
        out = tmp_path / "demo.txt"
        assert cli_main(["demo"]) == 0
        stdout = capsysbinary.readouterr().out
        assert cli_main(["demo", "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert out.read_bytes() == stdout
        text = demo_counterexamples()
        assert text.encode() == stdout
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

    def test_record_json_holds_the_fields_in_order(self):
        for record in run_suite(_small_cfg(dims=(2,), trials=2)).records:
            assert list(record.to_json().items()) == list(asdict(record).items())

    def test_report_digests_hash_the_bytes_the_cli_writes(self, capsysbinary):
        spec = importlib.util.spec_from_file_location("report_digests", ROOT / "tools" / "report_digests.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tool.CONFIGS[0] == ()
        cli_main(["run", "--format", "json"])
        assert tool.digest(()) == hashlib.sha256(capsysbinary.readouterr().out).hexdigest()

    def test_report_digests_check_names_each_config_that_differs(self, monkeypatch, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location("report_digests", ROOT / "tools" / "report_digests.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        monkeypatch.setattr(tool, "CONFIGS", (
            ("--only", "trace.linearity_star", "--dim", "2", "--trials", "1"),
            ("--only", "trace.real_cyclicity", "--algebra", "C", "--dim", "2", "--trials", "1"),
        ))
        assert tool.main([]) == 0
        digests = tmp_path / "digests.txt"
        digests.write_text(capsys.readouterr().out)
        first, second = digests.read_text().splitlines()
        assert tool.main(["--check", str(digests)]) == 0
        assert capsys.readouterr().out == f"0 of 2 configs differ from {digests}\n"
        # one digest changed, one config missing from the file
        stale = tmp_path / "stale.txt"
        stale.write_text("0" * 64 + first[64:] + "\n")
        assert tool.main(["--check", str(stale)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{first}  ({stale} holds {'0' * 64})",
            f"{second}  ({stale} holds no digest)",
            f"2 of 2 configs differ from {stale}",
        ]

    def test_bench_pairs_summary_counts_wins_and_the_parent_iqr(self, tmp_path):
        spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        old = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
        new = [x - 0.1 for x in old]
        new[3] = old[3] + 0.01  # the one pair the change loses
        pairs = [({"wall_s": p, "score": p, "rss": 5.0}, {"wall_s": c, "score": c, "rss": 5.0})
                 for p, c in zip(old, new)]
        wall, score, rss = tool.summarize(pairs, {"wall_s": "lower", "score": "higher", "rss": "lower"})
        # inclusive quartiles of the parent: 0.9825, 1.0, 1.0175
        assert wall["parent"] == pytest.approx((0.9825, 1.0, 1.0175))
        assert wall["change"][1] == pytest.approx(0.9)
        assert wall["delta"] == pytest.approx(-0.1)
        assert (wall["won"], wall["pairs"], wall["beyond_iqr"], wall["gain"]) == (9, 10, True, True)
        # the same numbers where higher is better: one win, and the shift is a loss
        assert (score["won"], score["beyond_iqr"], score["gain"]) == (1, True, False)
        # ties win nothing, and no shift is beyond an IQR of zero
        assert (rss["won"], rss["beyond_iqr"], rss["gain"], rss["delta"]) == (0, False, False, 0.0)
        # eight wins of ten is no gain, however large the shift
        pairs[5] = ({"wall_s": 1.03, "score": 0, "rss": 5.0}, {"wall_s": 1.2, "score": 0, "rss": 5.0})
        assert tool.summarize(pairs, {"wall_s": "lower"})[0]["won"] == 8
        assert not tool.summarize(pairs, {"wall_s": "lower"})[0]["gain"]
        assert tool.quartiles([2.5]) == (2.5, 2.5, 2.5)
        lines = tool.format_rows([wall, rss])
        assert len(lines) == 3 and lines[1].startswith("wall_s") and " 9/10 " in lines[1]
        # --out writes the commits, the pairs with their check counts, the rows
        # and the environment; the pairs read back give the rows again
        better = {"wall_s": "lower", "score": "higher", "rss": "lower"}
        rows = tool.summarize(pairs, better)
        environment = {"parent": {"numpy": "2.0"}, "change": {"numpy": "2.0"}}
        commits = {"parent": {"commit": "a" * 40, "dirty": False}, "change": {"commit": "b" * 40, "dirty": True}}
        checks = [{"parent": {"attempted": 30, "failed": 0, "correct": True},
                   "change": {"attempted": 30, "failed": i % 2, "correct": i != 3}} for i in range(10)]
        tool.write_record(tmp_path / "bench.json", "round_trip", 20.0, list(range(1, 11)), pairs, checks, rows,
                          environment, commits)
        record = _strict_loads((tmp_path / "bench.json").read_text())
        assert (record["workload"], record["seconds"], record["environment"]) == ("round_trip", 20.0, environment)
        assert record["commits"] == commits
        assert [pair["checks"] for pair in record["pairs"]] == checks
        assert [pair["seed"] for pair in record["pairs"]] == list(range(1, 11))
        read = [(pair["parent"], pair["change"]) for pair in record["pairs"]]
        assert read == pairs
        assert record["summary"] == json.loads(json.dumps(tool.summarize(read, better)))

    def test_bench_pairs_runs_under_a_fresh_cache_and_counts_bytecode_as_dirty(self, monkeypatch, tmp_path):
        spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        calls, caches = [], []

        def fake_run(cmd, cwd, check, env=None, capture_output=False, text=False):
            calls.append(cmd)
            if cmd[0] == "git":
                out = {"rev-parse": "f" * 40 + "\n", "status": status}[cmd[1]]
            elif cmd[1] == "-c":  # the prefill: numpy and the standard library, from outside the checkout
                cache = Path(env["PYTHONPYCACHEPREFIX"])
                assert cache.is_dir() and not any(cache.iterdir())
                assert Path(cwd) == cache and "PYTHONDONTWRITEBYTECODE" not in env
                assert cmd[2].startswith("import numpy, ") and "gleason_lab" not in cmd[2]
                (cache / "numpy.pyc").write_bytes(b"")  # what the prefill would leave there
                out = ""
            else:
                cache = Path(env["PYTHONPYCACHEPREFIX"])
                assert [p.name for p in cache.iterdir()] == ["numpy.pyc"] and Path(cwd) == tmp_path
                assert env["PYTHONDONTWRITEBYTECODE"] == "1"
                caches.append(cache)
                (cache / "stale.pyc").write_bytes(b"")  # what the run would leave there
                out = '{"environment": {"numpy": "2.0"}}\n{"metrics": {}}\n'
            return subprocess.CompletedProcess(cmd, 0, stdout=out)

        monkeypatch.setattr(tool.subprocess, "run", fake_run)
        for seed in (1, 2):
            assert tool.run(tmp_path, "suite", seed, 1.0) == ({"numpy": "2.0"}, {"metrics": {}})
        # one new prefix per run, prefilled before it and removed when the run ends
        assert len(set(caches)) == 2 and not any(cache.exists() for cache in caches)
        for status, dirty in [
            ("", False),
            ("!! perfbench/out/\n", False),
            ("!! .pytest_cache/\n!! build/\n", False),
            ("!! src/gleason_lab/__pycache__/\n", True),
            ("!! perfbench/out/\n!! tools/stale.pyc\n", True),
            (" M src/gleason_lab/rng.py\n", True),
            ("?? notes.txt\n", True),
        ]:
            assert tool.commit_of(tmp_path) == {"commit": "f" * 40, "dirty": dirty}, status
        assert calls[-1] == ["git", "rev-parse", "HEAD"]
        assert calls[-2] == ["git", "status", "--porcelain", "--ignored"]

    def test_run_writes_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main([
            "run", "--algebra", "H", "--dim", "3", "--trials", "2",
            "--seed", "5", "--only", "trace.real_cyclicity",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = _strict_loads(out.read_text())
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

    @pytest.mark.parametrize("config, argv, message", [
        ({"trial": 5, "dim": [4]}, [], "unknown config keys: dim, trial"),
        ({"algebras": ["r"]}, [], "unknown algebra 'r'"),
        (None, ["--dim", "3", "3"], "duplicate dims"),
        (None, ["--tol", "trace.real_cyclicity=nan"], "finite: trace.real_cyclicity"),
        (None, ["--tol", "trace.real_cyclicity=inf"], "finite: trace.real_cyclicity"),
    ], ids=["unknown-key", "lowercase-algebra", "duplicate-dim", "nan-tolerance", "inf-tolerance"])
    def test_config_it_cannot_honour_exits_non_zero(self, tmp_path, capsys, config, argv, message):
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            argv = ["--config", str(cfg_path), *argv]
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", *argv, "--out", str(tmp_path / "r.json")])
        assert exc.value.code != 0
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("config, message", [
        ([3], "config must be a JSON object"),
        ({"dims": 3}, "config dims must be a list of integers"),
        ({"trials": 2.7}, "config trials must be an integer"),
        ({"dims": [3.5]}, "config dims must be a list of integers"),
    ], ids=["top-level-list", "dims-int", "trials-float", "dim-float"])
    def test_config_file_of_the_wrong_type_exits_non_zero(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2  # parser.error, not a traceback
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key", ["algebras", "dims", "seeds"])
    def test_config_file_with_an_empty_list_exits_with_usage(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: []}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2  # parser.error, not a traceback
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"{key} must name at least one value" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_an_only_pattern_that_matches_no_property_exits_with_usage(self, tmp_path, capsys, source):
        # trace.rel_cyclicity misspells trace.real_cyclicity; run_suite alone
        # still gives the empty report (test_empty_selection_gives_a_valid_report)
        if source == "flag":
            argv = ["--only", "trace.rel_cyclicity"]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"only": "trace.rel_cyclicity"}))
            argv = ["--config", str(cfg_path)]
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", *argv, "--format", "json", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "'trace.rel_cyclicity' matches no registered property" in err
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

    def test_tolerance_without_a_value_exits_with_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--tol", "foo", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2  # parser.error, not a traceback
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "--tol expects name=value, got 'foo'" in err
        assert not (tmp_path / "r.json").exists()

    def test_missing_config_file_exits_with_usage(self, tmp_path, capsys):
        missing = tmp_path / "no-such-config.json"
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(missing), "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"No such file or directory: '{missing}'" in err
        assert not (tmp_path / "r.json").exists()

    def test_demo_subcommand_writes_file(self, tmp_path):
        out = tmp_path / "demo.txt"
        assert cli_main(["demo", "--out", str(out)]) == 0
        assert "Counterexample transcript" in out.read_text()
