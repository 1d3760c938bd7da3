import collections
import concurrent.futures
import contextlib
import copy
import csv
import functools
import io
import json
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umarfid import attacks, harness, word
from umarfid.attacks import AttackReport, attack_desync_bitflip
from umarfid.cli import build_parser, config_from_args, main
from umarfid.harness import (
    EXPERIMENTS,
    RANGE_CAP,
    FORMATS,
    SummaryStats,
    TrialConfig,
    TrialResult,
    render,
    render_records,
    run_trials,
    summarize,
    summary_record,
    summary_text,
    trial_ranges,
)
from umarfid.protocol import MSG_C, Bench
from umarfid.word import derive_seed


ROOT = Path(__file__).resolve().parent.parent


def run(experiment, trials, **kwargs):
    return run_trials(TrialConfig(experiment=experiment, trials=trials, **kwargs))


@pytest.fixture
def no_clone_run(monkeypatch):
    """Fails the test if a clone trial runs or a process pool is built."""

    def no_trial(config, trial):
        pytest.fail("a trial ran")

    def no_pool(max_workers):
        pytest.fail("a pool was built")

    monkeypatch.setitem(EXPERIMENTS, "clone", EXPERIMENTS["clone"]._replace(run=no_trial))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)


class TestRunTrials:
    def test_unknown_experiment_lists_choices(self):
        with pytest.raises(ValueError, match="desync-mitm"):
            run_trials(TrialConfig(experiment="nope"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_format_refused_before_any_trial(self, no_clone_run, workers):
        # checked before the first range (or the pool) starts, not when
        # the first record of a long run is rendered
        written = []
        for write in (written.append, None):
            with pytest.raises(ValueError) as err:
                run_trials(TrialConfig("clone", trials=2000), workers, write, "xml")
            assert str(err.value) == "unknown format 'xml'; choose text, json-lines or csv"
        assert written == []

    @pytest.mark.parametrize("workers, message", [
        (0, "workers must be >= 1, got 0"),
        (-1, "workers must be >= 1, got -1"),
        (1.0, "workers must be an int, got 1.0"),
    ])
    def test_worker_count_below_one_refused_before_any_trial(self, no_clone_run, workers,
                                                             message):
        # 0 once divided by zero while splitting the trials, and -1 ran no
        # trial and summed up five that never ran
        written = []
        for write in (written.append, None):
            with pytest.raises(ValueError) as err:
                run_trials(TrialConfig("clone", trials=5), workers, write)
            assert str(err.value) == message
        assert written == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(experiment="session", trials=0)
        with pytest.raises(ValueError):
            TrialConfig(experiment="session", word_len=10)
        # checked when the config is built, not inside the first game
        with pytest.raises(ValueError, match="unknown strategy 'nope'.*random-guess"):
            TrialConfig(experiment="untraceability", strategy="nope")

    def test_an_identities_trial_fails_on_either_identity(self, monkeypatch):
        # harness.rot enters only the pseudonym identity; the key identity still holds
        monkeypatch.setattr(harness, "rot", lambda x, n, width: word.rot(x, n, width) ^ 1)
        result = EXPERIMENTS["identities"].run(TrialConfig("identities"), 0)
        assert (result.success, result.detail) == (False, "key=True pseudonym=False")

    def test_duration_is_the_wall_time_of_the_run(self):
        started = time.perf_counter()
        _, stats = run("identities", 50)
        assert 0 <= stats.duration_s <= time.perf_counter() - started

    @pytest.mark.parametrize(
        "field, low",
        [("trials", 1), ("followups", 0), ("execute_budget", 0), ("send_budget", 0)],
    )
    def test_counts_below_their_floor_rejected(self, field, low):
        # followups=-1 would run no follow-up and still claim the desync
        # cannot be undone
        for bad in (low - 1, -5):
            with pytest.raises(ValueError, match=f"^{field} must be >= {low}, got {bad}$"):
                TrialConfig(experiment="desync-mitm", **{field: bad})
        assert getattr(TrialConfig(experiment="desync-mitm", **{field: low}), field) == low

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
        assert first == second

    def test_different_seeds_differ(self):
        first, _ = run("full-disclosure", trials=5, seed=1)
        second, _ = run("full-disclosure", trials=5, seed=2)
        assert [r.recovered_key for r in first] != [r.recovered_key for r in second]

    def test_parallel_equals_serial(self):
        config = TrialConfig(experiment="clone", trials=16, seed=4)
        serial, serial_stats = run_trials(config, workers=1)
        parallel, parallel_stats = run_trials(config, workers=2)
        assert serial == parallel
        assert serial_stats.successes == parallel_stats.successes

    def test_game_experiment_carries_advantage(self):
        _, stats = run("untraceability", trials=30)
        assert stats.advantage == 0.5

    def test_bitflip_experiment_tracks_attempts(self):
        _, stats = run("desync-bitflip", trials=5, word_len=16)
        assert stats.attempts_mean is not None
        assert stats.attempts_max >= stats.attempts_median

    @settings(max_examples=50, deadline=None)
    @given(width=st.sampled_from(range(4, 33, 4)), seed=st.integers())
    def test_every_width_and_seed_runs_every_experiment(self, width, seed):
        # a protocol coincidence at a small width may fail a trial, but it
        # never ends the run
        for name in EXPERIMENTS:
            reports, stats = run(name, trials=20, word_len=width, seed=seed)
            assert stats.trials == len(reports) == 20, name


# experiment -> CLI words that run it
CLI_WORDS = {
    "session": ["session"],
    "untraceability": ["game"],
    "full-disclosure": ["attack", "full-disclosure"],
    "clone": ["attack", "clone"],
    "desync-mitm": ["attack", "desync-mitm"],
    "desync-bitflip": ["attack", "desync-bitflip"],
    "identities": ["verify-identities"],
}

# spans at least 3 ranges with 2 workers, and is a multiple of no range size
SPANNING_TRIALS = 50
# the same for one process, whose ranges hold RANGE_CAP trials each
SERIAL_SPANNING_TRIALS = 2 * RANGE_CAP + 1


def strip_duration(text):
    """Output without the summary's wall-clock duration_s (text or json-lines)."""
    lines = text.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith("duration_s=")]
    return "".join(
        line.split(', "duration_s": ')[0] + "}}\n" if '"summary"' in line else line
        for line in kept
    )


def built(config_type, values, path: str, valid):
    """A config_type instance holding values, built along one path."""
    if path == "keyword":
        return config_type(**dict(zip(config_type._fields, values)))
    if path == "positional":
        return config_type(*values)
    if path == "_replace":
        return valid._replace(**dict(zip(config_type._fields, values)))
    if path == "_make":
        return config_type._make(values)
    # an unchecked tuple of the type, as unpickling or copying meets it
    unchecked = tuple.__new__(config_type, values)
    if path == "pickle":
        return pickle.loads(pickle.dumps(unchecked))
    return copy.deepcopy(unchecked)


def values_with(config, field: str, value) -> tuple:
    """The values of config with one field changed, as a plain tuple."""
    return tuple(value if name == field else old
                 for name, old in zip(config._fields, config))


PATHS = ["keyword", "positional", "_replace", "_make", "pickle", "deepcopy"]
WIDTH_ERRORS = [
    ("word_len", 10, "word_len must be divisible by 4, got 10"),
    ("word_len", 0, "word_len must be >= 4, got 0"),
    # a float width once passed the check and died mid-run in a TypeError
    ("word_len", 128.0, "word_len must be an int, got 128.0"),
    ("word_len", True, "word_len must be an int, got True"),
]
# the seed and the game budgets, which every experiment's TrialConfig checks
SHARED_ERRORS = [
    # a float or bool seed once ran the records of int(seed) without a word
    ("seed", 1.5, "seed must be an int, got 1.5"),
    ("seed", True, "seed must be an int, got True"),
    ("seed", "1", "seed must be an int, got '1'"),
    ("execute_budget", -1, "execute_budget must be >= 0, got -1"),
    ("send_budget", -1, "send_budget must be >= 0, got -1"),
    ("execute_budget", 2.0, "execute_budget must be an int, got 2.0"),
    ("send_budget", False, "send_budget must be an int, got False"),
]


class TestConfigConstruction:
    """Every way of building a config checks it, with the same messages."""

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("field, bad, message", WIDTH_ERRORS + SHARED_ERRORS + [
        ("trials", 0, "trials must be >= 1, got 0"),
        ("followups", -1, "followups must be >= 0, got -1"),
        # a float count once built a config that failed later, in trial_ranges
        ("trials", 2.5, "trials must be an int, got 2.5"),
        ("trials", True, "trials must be an int, got True"),
        ("followups", "3", "followups must be an int, got '3'"),
        ("followups", None, "followups must be an int, got None"),
        ("experiment", "nope", f"unknown experiment 'nope'; choose from {sorted(EXPERIMENTS)}"),
        ("strategy", "nope", f"unknown strategy 'nope'; choose from {sorted(harness.STRATEGIES)}"),
    ])
    def test_trial_config_refused(self, path, field, bad, message):
        valid = TrialConfig("clone", trials=7)
        with pytest.raises(ValueError) as err:
            built(TrialConfig, values_with(valid, field, bad), path, valid)
        assert str(err.value) == message

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("field, bad, message", WIDTH_ERRORS + SHARED_ERRORS)
    def test_game_config_refused(self, path, field, bad, message):
        valid = TrialConfig("untraceability", seed=3)
        with pytest.raises(ValueError) as err:
            built(TrialConfig, values_with(valid, field, bad), path, valid)
        assert str(err.value) == message

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("valid", [
        TrialConfig("untraceability", word_len=8, trials=3, strategy="random-guess"),
        TrialConfig("untraceability", word_len=16, execute_budget=0, send_budget=0, seed=5),
        TrialConfig("clone", seed=-7),
        TrialConfig("untraceability", seed=-(2**70)),
    ], ids=["TrialConfig", "game", "TrialConfig-negative-seed", "game-negative-seed"])
    def test_valid_config_survives_every_path(self, path, valid):
        config = built(type(valid), tuple(valid), path, valid)
        assert type(config) is type(valid)
        assert config == valid == tuple(valid)


class TestTrialRanges:
    @pytest.mark.parametrize(
        "trials, workers",
        [(1, 1), (1, 4), (3, 2), (50, 1), (50, 2), (20000, 2), (10**6, 1), (4001, 3)],
    )
    def test_ranges_cover_every_trial_in_order(self, trials, workers):
        ranges = list(trial_ranges(trials, workers))
        assert [t for r in ranges for t in r] == list(range(trials))
        assert all(1 <= len(r) <= RANGE_CAP for r in ranges)

    def test_spanning_count_crosses_range_edges(self):
        for workers, trials in ((1, SERIAL_SPANNING_TRIALS), (2, SPANNING_TRIALS)):
            ranges = list(trial_ranges(trials, workers))
            assert len(ranges) >= 3
            assert trials % len(ranges[0]) != 0

    def test_one_process_runs_ranges_of_the_cap(self):
        # only workers need smaller ranges, to balance their load
        assert list(trial_ranges(10, 1)) == [range(10)]
        cap = RANGE_CAP
        assert list(trial_ranges(cap + 1, 1)) == [range(cap), range(cap, cap + 1)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ranges_are_made_as_they_are_taken(self, workers):
        # a list of every range once took about 150 B a range before trial 0:
        # 1.45 MiB at 10**7 trials, 140 GiB at 10**12, which is tried only
        # once 10**7 has passed
        for trials in (10**7, 10**12):
            tracemalloc.start()
            try:
                ranges = iter(trial_ranges(trials, workers))
                first, second = next(ranges), next(ranges)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20, trials
            assert (first.start, second.start, second.stop) == (0, len(first), 2 * len(first))


class _CountingExecutor:
    """Stands in for ProcessPoolExecutor: runs a range when it is submitted
    and counts the ranges submitted so far."""

    def __init__(self, max_workers):
        self.submitted = 0
        _CountingExecutor.last = self

    def submit(self, fn, *args):
        self.submitted += 1
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


class _RecordingPool(concurrent.futures.ProcessPoolExecutor):
    """A real process pool that records the worker count of each one built."""

    built = []

    def __init__(self, max_workers):
        _RecordingPool.built.append(max_workers)
        super().__init__(max_workers=max_workers)


@pytest.mark.parametrize("trials, workers, pools", [
    (3, 4, [3]),  # three one-trial ranges need three workers, not four
    (1, 4, []),  # one range runs in process
    (1, 2, []),
    (9, 2, [2]),
])
def test_pool_has_at_most_a_worker_per_range(monkeypatch, trials, workers, pools):
    monkeypatch.setattr(_RecordingPool, "built", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    config = TrialConfig("clone", trials=trials)
    reports, stats = run_trials(config, workers)
    assert _RecordingPool.built == pools
    assert (reports, stats.successes) == (run_trials(config)[0], trials)


class TestInFlightWindow:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_submissions_stay_within_the_window(self, monkeypatch, workers):
        # each write takes one range; at that moment no more than
        # IN_FLIGHT ranges per worker are submitted and not yet written
        # run_trials imports the pool from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingExecutor)
        config = TrialConfig(experiment="clone", trials=SPANNING_TRIALS, seed=5)
        parts, ahead = [], []

        def write(text):
            ahead.append(_CountingExecutor.last.submitted - len(parts))
            parts.append(text)

        run_trials(config, workers, write, "json-lines")
        window = harness.IN_FLIGHT * workers
        ranges = list(trial_ranges(SPANNING_TRIALS, workers))
        assert len(ranges) > window
        assert _CountingExecutor.last.submitted == len(ranges)
        assert max(ahead) == window
        assert ahead == [min(window, len(ranges) - i) for i in range(len(ranges))]
        serial = []
        run_trials(config, 1, serial.append, "json-lines")
        assert "".join(parts) == "".join(serial)


class TestStreaming:
    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_streamed_summary_equals_summarize(self, experiment, workers):
        config = TrialConfig(experiment=experiment, trials=SPANNING_TRIALS, seed=3)
        parts = []
        streamed_reports, streamed = run_trials(config, workers, parts.append, "json-lines")
        reports, _ = run_trials(config)
        assert streamed_reports == []
        assert len(parts) == len(list(trial_ranges(SPANNING_TRIALS, workers)))
        expected = summarize(experiment, reports)
        assert streamed._replace(duration_s=0.0) == expected
        if experiment == "untraceability":
            assert streamed.advantage == 0.5
        if experiment == "desync-bitflip":
            assert streamed.attempts_median is not None
            assert streamed.attempts_max == max(r.c2_trials for r in reports)

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_cli_bytes_equal_render_across_range_edges(self, experiment):
        for trials in (1, 3, SPANNING_TRIALS):
            config = TrialConfig(experiment=experiment, trials=trials)
            reports, stats = run_trials(config)
            for fmt in ("text", "json-lines", "csv"):
                want = strip_duration(render(reports, stats, 128, fmt))
                for workers in (1, 2):
                    argv = [*CLI_WORDS[experiment], "--trials", str(trials),
                            "--format", fmt, "--workers", str(workers)]
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(sink):
                        assert main(argv) == 0
                    assert strip_duration(sink.getvalue()) == want, (argv, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_serial_run_crosses_range_edges(self, capsys, fmt):
        config = TrialConfig("identities", trials=SERIAL_SPANNING_TRIALS, seed=3)
        parts = []
        _, streamed = run_trials(config, 1, parts.append, fmt)
        reports, stats = run_trials(config)
        assert len(parts) == 3
        assert streamed._replace(duration_s=0.0) == summarize("identities", reports)
        assert "".join(parts) == render_records("identities", reports, 0, 128, fmt)
        assert main(["verify-identities", "--trials", str(SERIAL_SPANNING_TRIALS),
                     "--seed", "3", "--format", fmt]) == 0
        want = strip_duration(render(reports, stats, 128, fmt))
        assert strip_duration(capsys.readouterr().out) == want

    def test_csv_header_written_once(self, capsys):
        assert main(["attack", "clone", "--trials", str(SPANNING_TRIALS),
                     "--format", "csv", "--workers", "2"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [row[0] for row in rows] == ["trial", *map(str, range(SPANNING_TRIALS))]

    def test_pseudonym_collisions_at_eight_bits_end_no_run(self, capsys):
        # seed 0 at L=8 first draws two tags with one pseudonym at trial
        # 71, and more collisions follow; each is handled in its game
        code = main(["game", "--bits", "8", "--trials", "2000", "--format", "json-lines"])
        *records, summary = capsys.readouterr().out.splitlines()
        summary = json.loads(summary)["summary"]
        assert [json.loads(record)["trial"] for record in records] == list(range(2000))
        assert summary["trials"] == 2000
        assert code == (0 if summary["successes"] == 2000 else 1)
        assert main(["game", "--bits", "8", "--trials", "71", "--format", "json-lines"]) == 0
        assert capsys.readouterr().out.splitlines()[:-1] == records[:71]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    def test_abort_leaves_the_ranges_before_the_failing_one(self, tmp_path, broken_row,
                                                           workers, fmt):
        # trial 1080 lies past the first range of one process or of two
        trials, failing_trial = 1100, 1080
        broken_row(failing_trial)
        failing = next(r for r in trial_ranges(trials, workers) if failing_trial in r)
        assert failing.start > 0
        path = tmp_path / "records"
        # a trial's exception is a bug: it leaves main as it is, not as exit 2
        with pytest.raises(ValueError, match=f"^bug in trial {failing_trial}$"):
            main(["attack", "broken", "--trials", str(trials), "--format", fmt,
                  "--workers", str(workers), "--out", str(path)])
        # every record before the failing range, in trial order, and no summary
        before = [noop_trial(None, trial) for trial in range(failing.start)]
        assert path.read_bytes() == render_records("broken", before, 0, 128, fmt).encode()


class TestSummarize:
    def test_perfect_run(self):
        reports, stats = run("full-disclosure", trials=10)
        assert stats.successes == 10
        assert stats.success_rate == 1.0
        assert 0.69 < stats.wilson95_low < 0.73
        assert stats.wilson95_high == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize("x", [])

    def test_zero_success_run(self, monkeypatch):
        # one mask round fails about half of the bit-flip trials, honestly;
        # the summary of ten such failures
        monkeypatch.setattr(attacks, "C1_ROUND_CAP", 1)
        reports = [attack_desync_bitflip(Bench(16, derive_seed(0, "desync-bitflip", trial)))
                   for trial in range(40)]
        failed = [r for r in reports if not r.success][:10]
        assert len(failed) == 10
        stats = summarize("desync-bitflip", failed)
        assert stats.successes == 0
        assert stats.success_rate == 0.0
        assert stats.wilson95_low == 0.0

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40))
    def test_attempt_statistics_match_the_statistics_module(self, counts):
        # the median of an odd count is the middle int itself, which the
        # records print without a decimal point
        reports = [AttackReport("desync-bitflip", True, c2_trials=c) for c in counts]
        stats = summarize("desync-bitflip", reports)
        assert stats.attempts_mean == statistics.fmean(counts)
        median = statistics.median(counts)
        assert stats.attempts_median == median
        assert type(stats.attempts_median) is type(median)
        assert stats.attempts_max == max(counts)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_summary_keys_are_the_fields_that_are_not_none(self, experiment):
        _, stats = run(experiment, trials=20, word_len=16)
        record = summary_record(stats)
        assert list(record) == [k for k, v in stats._asdict().items() if v is not None]
        assert summary_text(stats, "json-lines") == json.dumps({"summary": record}) + "\n"

    def test_interval_contains_rate(self):
        reports, stats = run("session", trials=7)
        assert stats.wilson95_low <= stats.success_rate <= stats.wilson95_high


def binomial_interval(trials: int, p: Fraction, level=Fraction(999, 1000)) -> tuple[int, int]:
    """Central interval of Binomial(trials, p), exact: counts below it, and
    counts above it, each have probability at most (1 - level) / 2."""
    tail = (1 - level) / 2
    cdf, total, pmf = [], 0, (1 - p) ** trials
    while total < 1 - tail:  # cdf[k] = P(count <= k)
        total += pmf
        cdf.append(total)
        pmf *= Fraction(trials - len(cdf) + 1, len(cdf)) * p / (1 - p)
    return next(k for k, c in enumerate(cdf) if c > tail), len(cdf) - 1


@pytest.mark.parametrize("width, trials", [(4, 1000), (8, 3000), (12, 3000)])
def test_session_fails_exactly_at_the_fixed_point(width, trials):
    # ROADMAP item 1: a session trial fails exactly when its blocked third
    # session updated the tag onto the pseudonym it had (IDT' = IDT). The
    # reader then knows that pseudonym under the old key, so the recovery
    # never falls back. N -> rot(N, N) permutes the words, so that has
    # probability 2^-L per trial.
    reports, _ = run("session", trials=trials, word_len=width)
    failed = {trial for trial, report in enumerate(reports) if not report.success}
    fixed_points = set()
    for trial in range(trials):
        bench = Bench(width, derive_seed(0, "session", trial))
        bench.run_honest()
        bench.run_honest()
        bench.run_honest({MSG_C: None})
        if bench.tag.current.idt == bench.tag.previous.idt:
            fixed_points.add(trial)
    assert failed == fixed_points
    low, high = binomial_interval(trials, Fraction(1, 2**width))
    assert low <= len(failed) <= high, (len(failed), low, high)


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

    def test_unknown_summary_format(self):
        _, stats = self._sample()
        assert summary_text(stats, "csv") == ""
        with pytest.raises(ValueError) as err:
            summary_text(stats, "xml")
        assert str(err.value) == "unknown format 'xml'; choose text, json-lines or csv"


def noop_trial(config, trial):
    return TrialResult(label="noop", success=trial % 2 == 0, detail=f"trial {trial}")


def broken_trial(at, config, trial):
    """noop_trial, except that trial `at` raises: a stand-in for a bug. A
    ValueError, which main once reported as a usage error."""
    if trial == at:
        raise ValueError(f"bug in trial {trial}")
    return noop_trial(config, trial)


@pytest.fixture
def broken_row(monkeypatch):
    """Adds the experiment "broken" (`attack broken`) whose trial `at`
    raises; the test calls the fixture with `at`."""

    def add(at):
        row = harness.Experiment(("attack", "broken"), "unused",
                                 functools.partial(broken_trial, at),
                                 EXPERIMENTS["session"].report, 5)
        monkeypatch.setitem(EXPERIMENTS, "broken", row)
        build_parser.cache_clear()

    yield add
    build_parser.cache_clear()


class TestExperimentTable:
    """An experiment is one table row: the CLI, the trials, the summary
    and the records all take it from there."""

    @pytest.fixture
    def noop(self, monkeypatch):
        row = harness.Experiment(
            ("attack", "noop"), "unused", noop_trial, EXPERIMENTS["session"].report, 5)
        monkeypatch.setitem(EXPERIMENTS, "noop", row)
        build_parser.cache_clear()
        yield
        build_parser.cache_clear()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_an_added_row_runs_from_the_cli(self, noop, capsys, workers):
        outputs = {}
        for fmt in FORMATS:
            argv = ["attack", "noop", "--trials", "3", "--format", fmt, "--workers", workers]
            assert main(argv) == 1  # trial 1 fails
            outputs[fmt] = capsys.readouterr().out
        records = [
            "trial=0 label=noop success=True detail=trial 0",
            "trial=1 label=noop success=False detail=trial 1",
            "trial=2 label=noop success=True detail=trial 2",
        ]
        text = outputs["text"].splitlines()
        assert text[:5] == [*records, "# summary", "experiment=noop"]
        assert text[5:7] == ["trials=3", "successes=2"]
        assert not any(line.startswith(("advantage=", "attempts_")) for line in text)
        lines = [json.loads(line) for line in outputs["json-lines"].splitlines()]
        assert lines[:3] == [
            {"trial": t, "label": "noop", "success": t != 1, "detail": f"trial {t}"}
            for t in range(3)
        ]
        assert lines[3]["summary"]["experiment"] == "noop"
        assert outputs["csv"] == (
            "trial,label,success,detail\r\n0,noop,True,trial 0\r\n"
            "1,noop,False,trial 1\r\n2,noop,True,trial 2\r\n"
        )

    def test_an_added_row_runs_from_the_library(self, noop, capsys):
        reports, stats = run_trials(TrialConfig("noop", trials=3))
        assert reports == [noop_trial(None, t) for t in range(3)]
        assert (stats.experiment, stats.trials, stats.successes) == ("noop", 3, 2)
        assert stats.advantage is stats.attempts_mean is None
        assert summarize("noop", reports) == stats._replace(duration_s=0.0)
        assert render_records("noop", reports, 1, 128, "csv").startswith("1,noop,True")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "noop", "--help"])
        assert "{full-disclosure,clone,desync-mitm,desync-bitflip,noop}" in (
            capsys.readouterr().out)
        assert build_parser().parse_args(["attack", "noop"]).trials == 200

    def test_rows_of_one_command_agree(self):
        # build_parser reads a command's help and default trial count from its
        # first row, so a later row's own values would be silently ignored
        commands = collections.defaultdict(list)
        for experiment in EXPERIMENTS.values():
            commands[experiment.words[0]].append((experiment.help, experiment.trials))
        assert len(commands["attack"]) == 4  # rows that share a command were found
        differ = {command: rows for command, rows in commands.items() if len(set(rows)) > 1}
        assert not differ, f"rows of one command disagree: {differ}"


def unwritable(code):
    """A text file that no write reaches: /dev/full, whose writes exit 74, or
    for 141 a pipe whose reader has closed."""
    if code == 74:
        return open("/dev/full", "w")
    read, write = os.pipe()
    os.close(read)
    return open(write, "w")


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
        # at 4 bits seed-0 trial 3 is desynchronized, but its first
        # follow-up authenticates by a small-width coincidence, honestly
        code = main(["attack", "desync-bitflip", "--bits", "4", "--trials", "4"])
        assert code == 1
        out = capsys.readouterr().out
        assert "trial=3 attack=desync-bitflip success=False" in out
        assert "followups=mutual-success;" in out

    def test_verify_identities(self, capsys):
        assert main(["verify-identities", "--trials", "50"]) == 0

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        code = main([
            "attack", "clone", "--trials", "4",
            "--format", "csv", "--out", str(path),
        ])
        assert code == 0
        with path.open(newline="") as records:
            rows = list(csv.reader(records))
        assert rows[0][0] == "trial"
        assert len(rows) == 5
        assert "records written" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_longer_out_file_holds_exactly_the_run(self, tmp_path, capsys, fmt):
        # --out is opened without truncating it; the old bytes past the
        # run's own are cut off when the run ends
        argv = ["attack", "clone", "--trials", "4", "--format", fmt]
        path = tmp_path / "records"
        path.write_bytes(b"earlier run\n" * 10_000)
        assert main([*argv, "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert strip_duration(path.read_bytes().decode()) == strip_duration(capsys.readouterr().out)

    @pytest.mark.parametrize("trials, failing_trial", [
        (2000, 71),  # inside the first range
        (1100, 1080),  # in the second range
    ], ids=["first-range", "second-range"])
    def test_longer_out_file_holds_exactly_what_an_abort_wrote(
            self, tmp_path, broken_row, trials, failing_trial):
        # a trial that raises aborts the run mid-way; the file keeps only
        # the ranges written before it
        broken_row(failing_trial)
        failing = next(r for r in trial_ranges(trials, 1) if failing_trial in r)
        path = tmp_path / "records"
        path.write_bytes(b"earlier run\n" * 10_000)
        with pytest.raises(ValueError, match=f"^bug in trial {failing_trial}$"):
            main(["attack", "broken", "--trials", str(trials), "--out", str(path)])
        before = [noop_trial(None, trial) for trial in range(failing.start)]
        written = render_records("broken", before, 0, 128, "text")
        assert path.read_bytes() == written.encode()
        assert (failing.start == 0) == (written == "")

    def test_out_to_a_device_or_a_pipe(self, capsys):
        # neither can be truncated, and neither holds old bytes to cut off
        argv = ["attack", "clone", "--trials", "2", "--format", "csv"]
        assert main([*argv, "--out", os.devnull]) == 0
        assert "records written to" in capsys.readouterr().out
        read, write = os.pipe()
        with open(read, newline="") as pipe:
            try:
                assert main([*argv, "--out", f"/dev/fd/{write}"]) == 0
            finally:
                os.close(write)
            piped = pipe.read()
        capsys.readouterr()
        assert main(argv) == 0
        assert piped == capsys.readouterr().out

    @pytest.mark.parametrize("where", ["a directory", "a missing directory"])
    def test_out_that_cannot_be_opened_exits_two(self, tmp_path, capsys, broken_row, where):
        # a trial of "broken" raises, so a run that reached trial 0 would not exit 2
        broken_row(0)
        path = tmp_path if where == "a directory" else tmp_path / "missing" / "records"
        with pytest.raises(SystemExit) as err:
            main(["attack", "broken", "--out", str(path)])
        assert err.value.code == 2
        out, message = capsys.readouterr()
        assert out == ""
        assert message.startswith("error: argument --out: ")
        assert str(path) in message
        assert not any(tmp_path.iterdir())  # no file, no directory made

    def test_workers_flag(self, capsys):
        assert main(["attack", "clone", "--trials", "8", "--workers", "2"]) == 0

    def test_usage_error_on_bad_bits(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["session", "--bits", "10"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["session", "--bits", "10"],
            ["session", "--trials", "0"],
            ["attack", "clone", "--workers", "0"],
            ["game", "--strategy", "nope"],
        ],
    )
    def test_usage_error_leaves_existing_out_file_untouched(self, tmp_path, capsys, argv):
        path = tmp_path / "records.txt"
        path.write_bytes(b"earlier run\r\nkept\n")
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(path)])
        assert err.value.code == 2
        assert path.read_bytes() == b"earlier run\r\nkept\n"

    @pytest.mark.parametrize("attack, flag", [
        ("full-disclosure", "--followups"),
        ("clone", "--followups"),
    ])
    def test_flag_the_attack_does_not_read_is_refused(self, tmp_path, capsys, attack, flag):
        # the attack subcommand offers every attack's flags; one that the
        # chosen attack would ignore is a usage error, and --out stays as it was
        path = tmp_path / "records.txt"
        path.write_bytes(b"earlier run\r\nkept\n")
        with pytest.raises(SystemExit) as err:
            main(["attack", attack, flag, "5", "--trials", "3", "--out", str(path)])
        assert err.value.code == 2
        assert capsys.readouterr().err == f"error: argument {flag}: not read by {attack}\n"
        assert path.read_bytes() == b"earlier run\r\nkept\n"

    @pytest.mark.parametrize("command", [
        ["session"], ["game"], ["attack", "desync-bitflip"], ["verify-identities"]])
    def test_no_subcommand_offers_a_round_cap(self, tmp_path, capsys, command):
        # the bit-flip round cap is the constant attacks.C1_ROUND_CAP
        path = tmp_path / "records.txt"
        path.write_bytes(b"earlier run\r\nkept\n")
        with pytest.raises(SystemExit) as err:
            main([*command, "--c1-cap", "5", "--out", str(path)])
        assert err.value.code == 2
        assert "unrecognized arguments: --c1-cap 5" in capsys.readouterr().err
        assert path.read_bytes() == b"earlier run\r\nkept\n"

    @pytest.mark.parametrize("argv, config", [
        (["attack", "desync-bitflip"], TrialConfig("desync-bitflip", trials=200)),
        (["attack", "desync-mitm", "--followups", "0", "--bits", "16"],
         TrialConfig("desync-mitm", word_len=16, trials=200, followups=0)),
        (["game", "--sends", "0", "--seed", "-4", "--strategy", "random-guess"],
         TrialConfig("untraceability", trials=1000, seed=-4, send_budget=0,
                     strategy="random-guess")),
    ])
    def test_a_flag_not_given_takes_the_config_default(self, argv, config):
        assert config_from_args(build_parser().parse_args(argv)) == config

    @pytest.mark.parametrize(
        "argv, flag, reason",
        [
            (["session", "--trials", "0"], "--trials", "must be >= 1, got 0"),
            (["session", "--workers", "0"], "--workers", "must be >= 1, got 0"),
            (["session", "--workers", "-3"], "--workers", "must be >= 1, got -3"),
            (["attack", "desync-mitm", "--followups", "-1"], "--followups", "must be >= 0, got -1"),
            (["game", "--executes", "-1"], "--executes", "must be >= 0, got -1"),
            (["game", "--sends", "-1"], "--sends", "must be >= 0, got -1"),
            (["session", "--bits", "10"], "--bits", "must be divisible by 4, got 10"),
            (["session", "--bits", "2"], "--bits", "must be >= 4, got 2"),
        ],
    )
    def test_usage_error_names_the_flag(self, capsys, argv, flag, reason):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: {reason}\n")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_reader_that_closes_early_ends_the_run_quietly(self, workers):
        # as `umarfid verify-identities --trials 20000 | head -1` does: the
        # records (about 1 MB) fill the pipe long before the run ends
        run = subprocess.Popen(
            [sys.executable, "-m", "umarfid.cli", "verify-identities",
             "--trials", "20000", "--workers", workers],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert run.stdout.readline() == b"trial=0 label=identities success=True detail=\n"
        run.stdout.close()
        with run.stderr:
            stderr = run.stderr.read()
        assert (run.wait(timeout=120), stderr) == (141, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("target", ["--out", "stdout"])
    @pytest.mark.parametrize("trials", ["10", "3000"])  # fails at the close; mid-run
    def test_an_output_that_cannot_be_written_exits_74(self, target, trials):
        # a full disk is one line and EX_IOERR, not a traceback and the 1 of a failed trial
        argv = [sys.executable, "-m", "umarfid.cli", "verify-identities", "--trials", trials]
        with open("/dev/full", "w") as full:
            run = subprocess.run(
                argv + ["--out", "/dev/full"] if target == "--out" else argv,
                stdout=subprocess.PIPE if target == "--out" else full,
                stderr=subprocess.PIPE, cwd=ROOT, timeout=120,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            )
        name = "/dev/full" if target == "--out" else "stdout"
        assert (run.returncode, run.stdout, run.stderr) == (
            74, b"" if target == "--out" else None,
            f"error: cannot write {name}: [Errno 28] No space left on device\n".encode())

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("stdout", ["capsys", "StringIO"])
    def test_a_closed_out_pipe_exits_141_and_leaves_stdout_alone(self, request, stdout):
        # stdout here is no file: the run must not touch it, nor fd 1
        if stdout == "capsys":
            request.getfixturevalue("capsys")
        with unwritable(141) as pipe:
            fds, fd1 = os.listdir("/proc/self/fd"), os.fstat(1)
            with contextlib.redirect_stdout(io.StringIO()) if stdout == "StringIO" else (
                    contextlib.nullcontext()):
                code = main(["verify-identities", "--trials", "10",
                             "--out", f"/dev/fd/{pipe.fileno()}"])
            assert (code, os.listdir("/proc/self/fd"), os.fstat(1)) == (141, fds, fd1)

    def test_a_closed_out_pipe_leaves_the_callers_stdout_working(self, tmp_path):
        # stdout on a file: what the caller prints after main returns reaches it
        script = (
            "import os\n"
            "from umarfid.cli import main\n"
            "read, write = os.pipe()\n"
            "os.close(read)\n"
            "code = main(['verify-identities', '--trials', '10', '--out', f'/dev/fd/{write}'])\n"
            "print('main returned', code)\n"
        )
        path = tmp_path / "stdout"
        with path.open("w") as out:
            run = subprocess.run(
                [sys.executable, "-c", script], stdout=out, stderr=subprocess.PIPE,
                cwd=ROOT, timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert (run.returncode, run.stderr) == (0, b"")
        assert path.read_text() == "main returned 141\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("code", [74, 141])
    def test_a_failed_stdout_leaves_no_fd_open(self, capsys, code):
        # the failed stream is pointed at devnull, and devnull's own fd is closed
        with unwritable(code) as stdout:
            fds = os.listdir("/proc/self/fd")
            with contextlib.redirect_stdout(stdout):
                assert main(["verify-identities", "--trials", "10"]) == code
            assert os.listdir("/proc/self/fd") == fds
            assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
        assert capsys.readouterr() == ("", "error: cannot write stdout: [Errno 28] "
                                           "No space left on device\n" if code == 74 else "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("code", [74, 141])
    def test_a_failed_buffered_stdout_is_not_flushed_again_at_exit(self, code):
        # with stdout buffered, what the failed flush left behind would fail
        # the exit's flush too: "Exception ignored" on stderr and exit 120
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        with unwritable(code) as stdout:
            run = subprocess.run(
                [sys.executable, "-m", "umarfid.cli", "verify-identities", "--trials", "10"],
                stdout=stdout, stderr=subprocess.PIPE, cwd=ROOT, timeout=120, env=env)
        message = b"error: cannot write stdout: [Errno 28] No space left on device\n"
        assert (run.returncode, run.stderr) == (code, message if code == 74 else b"")

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

    @pytest.mark.parametrize("executes", ["0", "1"])
    def test_too_few_executes_for_the_strategy_is_an_ablation(self, capsys, executes):
        # the distinguisher needs two executes; with fewer it asks for the
        # challenge at once and guesses 1, as --sends 0 is an ablation too
        code = main(["game", "--executes", executes, "--trials", "50", "--format", "json-lines"])
        *records, summary = map(json.loads, capsys.readouterr().out.splitlines())
        assert [record["trial"] for record in records] == list(range(50))
        for record in records:
            assert (record["d"], record["executes"], record["sends"]) == (1, 0, 0)
            assert record["success"] == (record["b"] == 1)
        assert code == (0 if summary["summary"]["successes"] == 50 else 1)

    def test_four_bit_game_runs_to_the_end(self, capsys):
        # at L=4 pseudonyms collide often, on registration and on update
        code = main(["game", "--bits", "4", "--format", "json-lines"])
        *records, summary = map(json.loads, capsys.readouterr().out.splitlines())
        assert len(records) == summary["summary"]["trials"] == 1000
        assert code == (0 if summary["summary"]["successes"] == 1000 else 1)

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


class _TwoDrawGenerator:
    """A generator that offers only getrandbits and randrange, each passed
    to a real random.Random: the two draws any stream must provide."""

    __slots__ = ("getrandbits", "randrange")
    built = 0

    def __init__(self, seed):
        real = random.Random(seed)
        self.getrandbits, self.randrange = real.getrandbits, real.randrange
        type(self).built += 1


@pytest.mark.parametrize("experiment, strategy", [
    *((name, "distinguish") for name in EXPERIMENTS), ("untraceability", "random-guess")])
def test_streams_need_only_getrandbits_and_randrange(monkeypatch, experiment, strategy):
    # a stream that replaces random.Random must offer these two draws and
    # no other: any further generator method src calls fails here
    config = TrialConfig(experiment, word_len=16, trials=20, strategy=strategy)
    reports, _ = run_trials(config)
    monkeypatch.setattr(word, "random", types.SimpleNamespace(Random=_TwoDrawGenerator))
    monkeypatch.setattr(_TwoDrawGenerator, "built", 0)
    assert run_trials(config)[0] == reports
    assert _TwoDrawGenerator.built >= 20
