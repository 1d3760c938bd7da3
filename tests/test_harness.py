import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from umarfid.cli import build_parser, main
from umarfid.harness import (
    EXPERIMENTS,
    SummaryStats,
    TrialConfig,
    render,
    report_record,
    run_trials,
    summarize,
)


ROOT = Path(__file__).resolve().parent.parent


def run(experiment, trials, **kwargs):
    return run_trials(TrialConfig(experiment=experiment, trials=trials, **kwargs))


class TestRunTrials:
    def test_unknown_experiment_lists_choices(self):
        with pytest.raises(ValueError, match="desync-mitm"):
            run_trials(TrialConfig(experiment="nope"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(experiment="session", trials=0)
        with pytest.raises(ValueError):
            TrialConfig(experiment="session", word_len=10)

    def test_every_experiment_runs(self):
        for name in EXPERIMENTS:
            word_len = 16 if name == "desync-bitflip" else 128
            reports, stats = run(name, trials=3, word_len=word_len)
            assert stats.trials == 3
            assert len(reports) == 3

    def test_every_experiment_succeeds_at_16_bits(self):
        # every word operation takes the run's width; one that fell back to
        # the 128-bit default would break the algebra at L=16
        for name in EXPERIMENTS:
            _, stats = run(name, trials=100, word_len=16)
            assert stats.successes == 100, name

    def test_identical_config_identical_records(self):
        first, _ = run("full-disclosure", trials=10, seed=9)
        second, _ = run("full-disclosure", trials=10, seed=9)
        assert [report_record(r, i, 128) for i, r in enumerate(first)] == [
            report_record(r, i, 128) for i, r in enumerate(second)
        ]

    def test_different_seeds_differ(self):
        first, _ = run("full-disclosure", trials=5, seed=1)
        second, _ = run("full-disclosure", trials=5, seed=2)
        assert [r.recovered_key for r in first] != [r.recovered_key for r in second]

    def test_parallel_equals_serial(self):
        config = TrialConfig(experiment="clone", trials=16, seed=4)
        serial, serial_stats = run_trials(config, workers=1)
        parallel, parallel_stats = run_trials(config, workers=2)
        assert [report_record(r, i, 128) for i, r in enumerate(serial)] == [
            report_record(r, i, 128) for i, r in enumerate(parallel)
        ]
        assert serial_stats.successes == parallel_stats.successes

    def test_game_experiment_carries_advantage(self):
        _, stats = run("untraceability", trials=30)
        assert stats.advantage == 0.5

    def test_bitflip_experiment_tracks_attempts(self):
        _, stats = run("desync-bitflip", trials=5, word_len=16)
        assert stats.attempts_mean is not None
        assert stats.attempts_max >= stats.attempts_median


class TestSummarize:
    def test_perfect_run(self):
        reports, stats = run("full-disclosure", trials=10)
        assert stats.successes == 10
        assert stats.success_rate == 1.0
        assert 0.69 < stats.wilson_low < 0.73
        assert stats.wilson_high == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize("x", [])

    def test_zero_success_run(self):
        # an impossible round cap fails every trial, honestly
        _, stats = run(
            "desync-bitflip", trials=10, word_len=16, c1_round_cap=0
        )
        assert stats.successes == 0
        assert stats.success_rate == 0.0
        assert stats.wilson_low == 0.0

    def test_interval_contains_rate(self):
        reports, stats = run("session", trials=7)
        assert stats.wilson_low <= stats.success_rate <= stats.wilson_high


class TestRender:
    def _sample(self):
        return run("clone", trials=4, seed=3)

    def test_text_has_summary_block(self):
        reports, stats = self._sample()
        text = render(reports, stats, 128, "text")
        lines = text.strip().split("\n")
        assert len([l for l in lines if l.startswith("trial=")]) == 4
        assert "# summary" in lines
        assert any(l.startswith("success_rate=") for l in lines)

    def test_json_lines_parse(self):
        reports, stats = self._sample()
        lines = render(reports, stats, 128, "json-lines").strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert [r["trial"] for r in records[:-1]] == [0, 1, 2, 3]
        assert "summary" in records[-1]
        assert records[-1]["summary"]["successes"] == 4

    def test_csv_header_fixed(self):
        reports, stats = self._sample()
        rows = list(csv.reader(io.StringIO(render(reports, stats, 128, "csv"))))
        assert rows[0] == [
            "trial", "attack", "success", "recovered_key", "recovered_nonce",
            "cloned_idt", "cloned_key", "c1_rounds", "c2_trials", "a_mask",
            "b_mask", "hw_matched", "synchronized", "followups", "detail",
        ]
        assert len(rows) == 5  # header + 4 trials

    def test_game_records_format(self):
        reports, stats = run("untraceability", trials=3)
        lines = render(reports, stats, 128, "json-lines").strip().split("\n")
        first = json.loads(lines[0])
        assert list(first) == ["trial", "b", "d", "success", "executes", "sends"]

    def test_unknown_format(self):
        reports, stats = self._sample()
        with pytest.raises(ValueError):
            render(reports, stats, 128, "yaml")


class TestCli:
    def test_session_run_exits_zero(self, capsys):
        assert main(["session", "--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "# summary" in out

    def test_game_with_ablation_flags(self, capsys):
        code = main(["game", "--trials", "20", "--sends", "0", "--format", "json-lines"])
        out = capsys.readouterr().out
        summary = json.loads(out.strip().split("\n")[-1])["summary"]
        assert summary["advantage"] < 0.3
        assert code in (0, 1)  # coin-flip wins allowed either way

    def test_attack_subcommand(self, capsys):
        assert main(["attack", "full-disclosure", "--trials", "10"]) == 0

    def test_failing_run_exits_one(self, capsys):
        # a one-round cap fails every bit-flip trial whose single mask
        # round admits no B-mask (about half of them), honestly
        code = main([
            "attack", "desync-bitflip", "--bits", "16",
            "--trials", "3", "--c1-cap", "1",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "no accepting mask within 1 rounds" in out

    def test_verify_identities(self, capsys):
        assert main(["verify-identities", "--trials", "50"]) == 0

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        code = main([
            "attack", "clone", "--trials", "4",
            "--format", "csv", "--out", str(path),
        ])
        assert code == 0
        rows = list(csv.reader(path.open()))
        assert rows[0][0] == "trial"
        assert len(rows) == 5
        assert "records written" in capsys.readouterr().out

    def test_workers_flag(self, capsys):
        assert main(["attack", "clone", "--trials", "8", "--workers", "2"]) == 0

    def test_usage_error_on_bad_bits(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["session", "--bits", "10"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["session", "--trials", "0"], "--trials"),
            (["session", "--workers", "0"], "--workers"),
            (["session", "--workers", "-3"], "--workers"),
            (["attack", "desync-bitflip", "--c1-cap", "0"], "--c1-cap"),
            (["attack", "desync-bitflip", "--c1-cap", "-1"], "--c1-cap"),
            (["attack", "desync-mitm", "--followups", "-1"], "--followups"),
            (["game", "--executes", "-1"], "--executes"),
            (["game", "--sends", "-1"], "--sends"),
        ],
    )
    def test_usage_error_names_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert f"argument {flag}: must be >=" in message

    def test_non_integer_flag_keeps_argparse_message(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["session", "--trials", "many"])
        assert err.value.code == 2
        assert "argument --trials: invalid int value: 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["game", "--executes", "0", "--sends", "0", "--strategy", "random-guess"],
            ["attack", "desync-mitm", "--followups", "0"],
        ],
    )
    def test_zero_budgets_and_followups_accepted(self, capsys, argv):
        assert main([*argv, "--trials", "2"]) in (0, 1)

    def test_budget_too_small_for_strategy_is_a_usage_error(self, capsys):
        # the distinguisher needs two executes; one is a usage error, not
        # a failed trial, and no traceback escapes
        with pytest.raises(SystemExit) as err:
            main(["game", "--executes", "1", "--trials", "2"])
        assert err.value.code == 2
        assert "error: execute budget 1 exhausted" in capsys.readouterr().err

    def test_unknown_attack_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["attack", "teleport"])

    def test_parser_reuse_behaves_like_a_fresh_process(self, capsys):
        # the parser is built once per process; a run must leave nothing
        # behind that a later main() call in the same process could see
        assert build_parser() is build_parser()
        assert main(["game", "--trials", "3", "--sends", "0", "--seed", "4"]) in (0, 1)
        capsys.readouterr()
        argv = ["game", "--trials", "6", "--seed", "4", "--format", "json-lines"]
        assert main(argv) == 0
        reused = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "umarfid.cli", *argv],
            capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert fresh.returncode == 0

        def without_duration(text):
            records = [json.loads(line) for line in text.splitlines()]
            del records[-1]["summary"]["duration_s"]
            return records

        assert without_duration(reused) == without_duration(fresh.stdout)
        assert len(without_duration(reused)) == 7
        with pytest.raises(SystemExit) as err:
            main(["attack", "clone", "--trials", "0"])
        assert err.value.code == 2
        assert "argument --trials: must be >= 1, got 0" in capsys.readouterr().err
        assert main(["attack", "clone", "--trials", "2"]) == 0

    def test_reproducible_output(self, capsys):
        main(["attack", "desync-mitm", "--trials", "5", "--format", "json-lines"])
        first = capsys.readouterr().out
        main(["attack", "desync-mitm", "--trials", "5", "--format", "json-lines"])
        second = capsys.readouterr().out

        def strip_duration(text):
            return [l for l in text.split("\n") if "duration" not in l]

        assert strip_duration(first) == strip_duration(second)
