"""Record rendering as a dict per record plus json.dumps, kept as an oracle.

These are the record builders and the line writer the harness once used
for every record: each report becomes a flat dict in a fixed key order,
and a line is ``json.dumps`` of it, its ``k=v`` pairs or a csv row of its
values. The harness now renders straight from the reports; this module
checks it byte for byte. It does not import the package: it reads report
attributes only, and tells report types apart by the fields they carry.
"""

from __future__ import annotations

import csv
import json
import types


def attack_record(report, trial: int, width: int) -> dict:
    """Flat serializable record for one attack trial, fixed field order
    (the CSV header); words serialize as width // 4 lowercase hex digits.
    """

    spec = f"0{width // 4}x"  # to_hex's format, built once per record

    def hx(w: int | None):
        return None if w is None else format(w, spec)

    return {
        "trial": trial,
        "attack": report.attack,
        "success": report.success,
        "recovered_key": hx(report.recovered_key),
        "recovered_nonce": hx(report.recovered_nonce),
        "cloned_idt": hx(report.cloned_idt),
        "cloned_key": hx(report.cloned_key),
        "c1_rounds": report.c1_rounds,
        "c2_trials": report.c2_trials,
        "a_mask": hx(report.a_mask),
        "b_mask": hx(report.b_mask),
        "hw_matched": report.hw_matched,
        "synchronized": report.synchronized,
        "followups": (
            None
            if report.followups is None
            else ";".join(report.followups)
        ),
        "detail": report.detail,
    }


def outcome_record(outcome, trial: int) -> dict:
    """Flat serializable record for one game, fixed field order."""
    return {
        "trial": trial,
        "b": outcome.b,
        "d": outcome.d,
        "success": outcome.success,
        "executes": outcome.executes,
        "sends": outcome.sends,
    }


def report_record(report, trial: int, width: int) -> dict:
    """Flat record for any report; words become width // 4 hex digits."""
    if hasattr(report, "sends"):  # a game outcome
        return outcome_record(report, trial)
    if hasattr(report, "attack"):  # an attack report
        return attack_record(report, trial, width)
    if hasattr(report, "label"):  # a scenario trial result
        return {"trial": trial, **report._asdict()}
    raise TypeError(f"unknown report type {type(report).__name__}")


_csv_row = csv.writer(types.SimpleNamespace(write=str)).writerow


def record_line(record: dict, fmt: str) -> str:
    """One record as one line of text, json-lines or csv output."""
    if fmt == "text":
        return " ".join(f"{k}={'' if v is None else v}" for k, v in record.items()) + "\n"
    if fmt == "json-lines":
        return json.dumps(record) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    return _csv_row(record.values())


def render_records(reports, first_trial: int, width: int, fmt: str) -> str:
    """Records of consecutive trials from first_trial; csv output gets its
    header (the record's keys) before trial 0."""
    records = [report_record(r, i, width) for i, r in enumerate(reports, first_trial)]
    header = _csv_row(records[0]) if fmt == "csv" and first_trial == 0 else ""
    return header + "".join(record_line(rec, fmt) for rec in records)
