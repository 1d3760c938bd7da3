"""Records rendered straight from reports equal the dict-per-record oracle.

``harness.render_records`` builds each line from a report's values and a
line template per report type and format; ``oracle_render`` builds a
dict per record and runs ``json.dumps``, ``k=v`` or a csv row on it. The
two must agree byte for byte on every experiment, width and format, on
hand-built reports with every optional field empty, and on free text
that needs escaping or quoting.
"""

import json

import pytest

import oracle_render as oracle
from umarfid.adversary import GameOutcome
from umarfid.attacks import AttackReport
from umarfid.harness import (
    EXPERIMENTS,
    FORMATS,
    TrialConfig,
    TrialResult,
    render_records,
)


def experiment_reports(experiment: str, width: int, trials: int = 60) -> list:
    """Reports of the first trials of one experiment at one width."""
    config = TrialConfig(experiment, word_len=width, trials=trials)
    return [EXPERIMENTS[experiment].run(config, trial) for trial in range(trials)]


def assert_renders_like_oracle(experiment: str, reports, width: int) -> None:
    for fmt in FORMATS:
        for first_trial in (0, 1000):  # csv writes its header before trial 0 only
            got = render_records(experiment, reports, first_trial, width, fmt)
            want = oracle.render_records(reports, first_trial, width, fmt)
            # compared as lists of lines: a failure names the first line that
            # differs, without a character diff of the whole output
            assert got.splitlines(True) == want.splitlines(True), (fmt, first_trial)


@pytest.mark.parametrize("width", [4, 8, 16, 128])
@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_every_experiment_renders_like_the_oracle(experiment, width):
    reports = experiment_reports(experiment, width)
    assert len(reports) >= 40
    assert_renders_like_oracle(experiment, reports, width)


def test_small_widths_cover_failed_trials():
    # failing 4-bit sessions carry detail text with spaces and commas
    failed = [r for r in experiment_reports("session", 4) if not r.success]
    assert any(", " in r.detail for r in failed)


def full_words(width: int) -> AttackReport:
    """A report whose every word and count is set, words at both ends of the range."""
    top = (1 << width) - 1
    return AttackReport(
        attack="clone", success=True, recovered_key=top, recovered_nonce=1,
        cloned_idt=top >> 1, cloned_key=0, c1_rounds=7, c2_trials=1234,
        a_mask=3, b_mask=top ^ 5, hw_matched=True, synchronized=True,
        followups=("reader-rejected", "tag-rejected"), detail="",
    )


# name -> (an experiment with that report type, the report)
EMPTY_REPORTS = {
    "attack, every optional field None": ("clone", AttackReport(attack="x", success=False)),
    "attack, every field False or 0": ("desync-bitflip", AttackReport(
        attack="", success=False, recovered_key=0, recovered_nonce=0,
        cloned_idt=0, cloned_key=0, c1_rounds=0, c2_trials=0, a_mask=0, b_mask=0,
        hw_matched=False, synchronized=False, followups=(), detail="",
    )),
    "game, every field False or 0": ("untraceability", GameOutcome(0, 0, False, 0, 0)),
    "result, empty text": ("session", TrialResult(label="", success=False)),
}


@pytest.mark.parametrize("width", [4, 8, 12, 16, 20, 128])
@pytest.mark.parametrize("name", list(EMPTY_REPORTS))
def test_empty_and_zero_fields_render_like_the_oracle(name, width):
    experiment, report = EMPTY_REPORTS[name]
    assert_renders_like_oracle(experiment, [report] * 3, width)


@pytest.mark.parametrize("width", [4, 12, 16, 20, 128])
def test_words_render_like_the_oracle(width):
    # 12 and 20 bits are an odd number of nibbles
    reports = [full_words(width), full_words(width)._replace(success=False)]
    assert_renders_like_oracle("clone", reports, width)


AWKWARD_TEXT = [
    '"', "\\", "\n", "\t", "café", "☃ \U0001f600", ",", ";", "a, b; c",
    'say "hi"\\n', "\x00\x1f\x7f", "None", "null", "True", "%s %d %%", "{}", " ", "",
]


@pytest.mark.parametrize("text", AWKWARD_TEXT, ids=repr)
def test_free_text_escaped_and_quoted_like_the_oracle(text):
    attack = full_words(16)._replace(
        attack=text, detail=text, followups=(text, "ok", text)
    )
    result = TrialResult(label=text, success=False, detail=text)
    for experiment, reports in (("clone", [attack]), ("session", [result]),
                                ("identities", [result._replace(success=True), result])):
        assert_renders_like_oracle(experiment, reports, 16)
    assert json.loads(render_records("clone", [attack], 0, 16, "json-lines"))["detail"] == text


@pytest.mark.parametrize("width", [4, 12, 128])
def test_bitflip_and_game_reports_render_like_the_oracle(width):
    # 12 bits, an odd number of nibbles, with reports of a real run
    reports = experiment_reports("desync-bitflip", width, 10) + [full_words(width)]
    assert_renders_like_oracle("desync-bitflip", reports, width)
    assert_renders_like_oracle("untraceability", experiment_reports("untraceability", 16, 10), 16)


def test_no_reports_render_nothing():
    for fmt in FORMATS:
        assert render_records("clone", [], 0, 128, fmt) == ""


def test_mixed_report_types_refused():
    _, game = EMPTY_REPORTS["game, every field False or 0"]
    with pytest.raises(TypeError, match="^untraceability records need GameOutcome reports$"):
        render_records("untraceability", [game, TrialResult("x", True)], 0, 128, "csv")


def test_unknown_report_type_refused():
    with pytest.raises(TypeError, match="^clone records need AttackReport reports$"):
        render_records("clone", [(1, 2)], 0, 128, "json-lines")
    with pytest.raises(TypeError, match="^session records need TrialResult reports$"):
        render_records("session", [GameOutcome(0, 0, False, 0, 0)], 0, 128, "text")
