"""Pinned output digests: the records a CLI run produces must not drift.

Each case runs ``umarfid.cli.main`` in process, with json-lines output
unless the command names a ``--format``, and pins (exit code, SHA-256 of
the output with the summary's wall-clock ``duration_s`` removed). Any
change to a record, a summary field or an exit code shows up as a
mismatch. To print the digests of the current tree, run
``PYTHONPATH=src python3 tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json

import pytest

from umarfid import cli

# command (default seed 0, default width 128 unless --bits) -> (exit code, digest)
GOLDEN = {
    "attack full-disclosure --trials 200": (
        0,
        "7c61d3ab90a96d24f9f592cd5cc485ed5589d856527218c3f9a78b72ddf6947a",
    ),
    "attack clone --trials 200": (
        0,
        "3c60c38243c1879a7484dc4398d9163500f5afb52b369a6294639aa78f60fe0a",
    ),
    "attack desync-mitm --trials 200": (
        0,
        "373429a3a1c1968c22c7104e8b320d591e33166bd85ddc457b8108e8ff5e4f0a",
    ),
    "attack desync-bitflip --trials 200": (
        0,
        "b15acd90f9890c5de937b0a00af3e6a2ca4308ed6b0e9c89a2d13feebc6e22a0",
    ),
    "attack desync-bitflip --bits 16 --trials 200": (
        0,
        "c909ef6776f24dad47078c682daecdb15eceb622db2b6176f19d3c48f011ae2d",
    ),
    "session --trials 200": (
        0,
        "74ddcab9d338b710e617fd099eb02b6f2be84f1bee6ab2fb867d868d1298d537",
    ),
    "verify-identities --trials 200": (
        0,
        "729100575ff9e830a982c5b9be5f9a0714b5732175f95f004846ba241b9e2b25",
    ),
    "game --trials 200": (
        0,
        "bbcef44c1e4e6bef4e5d3917bc7b7be8604b659f03ac444d5c6f29821f458099",
    ),
    "game --sends 0 --trials 200": (
        1,
        "c9b3075a147d3018a5b7aad6fd72361b13d045614b203e5810027514994e1ba7",
    ),
    "game --strategy random-guess --trials 200": (
        1,
        "183ac4a32ccaf49d81f52499c289eaf637ee0126712e7c38458838842ec98dfe",
    ),
    # small widths, where rotation by weight mod L wraps; 12 of the 200
    # 4-bit session trials fail (the small-width faults of ROADMAP item 1)
    "session --bits 4 --trials 200": (
        1,
        "c7208598d04488945b88a1cbc6ae795ae1d0b48f9f2a5cc6c2937ce67ef98048",
    ),
    "attack full-disclosure --bits 4 --trials 200": (
        0,
        "6900946ce6b97b504a41244e624ffebd911bf2aa4b2f232e83817e0699e03171",
    ),
    "attack clone --bits 8 --trials 200": (
        0,
        "e35950a98c417ef5ce9df34391e6495f1f0b84919e6c6f339366a831c166c079",
    ),
    "attack desync-mitm --bits 8 --trials 200": (
        0,
        "1fde6c95a122e13fb79c8a2f9f3647be3a2fb19e5a945a91c4f8bf5440c50be0",
    ),
    # game records carry no words, so this equals the 128-bit digest
    "game --bits 16 --trials 200": (
        0,
        "bbcef44c1e4e6bef4e5d3917bc7b7be8604b659f03ac444d5c6f29821f458099",
    ),
    # workers must not change a byte: same digest as the serial run
    "attack clone --trials 200 --workers 2": (
        0,
        "3c60c38243c1879a7484dc4398d9163500f5afb52b369a6294639aa78f60fe0a",
    ),
    # the other two formats, byte for byte
    "attack desync-bitflip --bits 16 --trials 200 --format csv": (
        0,
        "ab5003b5ec6b43ddaf25da0346688f12496f835a45863daeccb902e173d3fae1",
    ),
    "game --trials 200 --format text": (
        0,
        "a5ed6a7a318f5845ed5bf1634eccb2b8710dbc5c70a45093e07012547ac9d50d",
    ),
    # many trial ranges over two workers: same digest as the serial run
    "attack clone --trials 3000 --workers 2 --format csv": (
        0,
        "7852306b7f8388d3c7302969fb8c72feaced691bbf37b2e01912aeef08c616bf",
    ),
    # text for every report type, csv for games and scenario checks; the
    # 4-bit session failures carry detail text with spaces and commas
    "attack desync-mitm --bits 8 --trials 200 --format text": (
        0,
        "ed28be4df4c2b2c4deee8dafa0b7ac263ebb02fe9f67d9ea0845819ec5242f9a",
    ),
    "session --bits 4 --trials 200 --format text": (
        1,
        "0e2ed901a6798f67d4004954eac73d5e54552d324d3944d93d96d963f53fc396",
    ),
    "attack desync-bitflip --bits 16 --trials 200 --format text": (
        0,
        "79bba7badd9722285e99ff5f5e2177b56a2b0f5f74a5624a6e9406c2bbe75be7",
    ),
    "game --trials 200 --format csv": (
        0,
        "0d911b367e3545bff332dc7ab292b6a7618feb814b12c9d032501e0b2395fdea",
    ),
    "verify-identities --trials 200 --format csv": (
        0,
        "d831d42fb99a3a490a548263857b236dd8c3a2f90f9584ab7adb89ae99b77013",
    ),
    # failed desync records: at 4 bits 40 mitm trials fail (29 still
    # synchronized, 11 resynced by a follow-up) and 14 bit-flip trials (2, 12)
    "attack desync-mitm --bits 4 --trials 1000": (
        1,
        "e4f8670def1959a4897399747559a060245039a16356a693c6773c3bab46bc1b",
    ),
    "attack desync-bitflip --bits 4 --trials 1000": (
        1,
        "595d20b3584923952caab27b91fbddeb09778e9b8147ef5186e4f3c1730c5051",
    ),
}


def run_digest(command: str) -> tuple[int, str]:
    argv = command.split()
    if "--format" not in argv:
        argv += ["--format", "json-lines"]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    h = hashlib.sha256()
    if "json-lines" in argv:
        for line in sink.getvalue().splitlines():
            record = json.loads(line)
            if "summary" in record:
                del record["summary"]["duration_s"]
            h.update(json.dumps(record).encode() + b"\n")
    else:  # text or csv: the exact bytes, minus the text summary's duration_s line
        for line in sink.getvalue().splitlines(keepends=True):
            if not line.startswith("duration_s="):
                h.update(line.encode())
    return code, h.hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN))
def test_output_digest(command):
    assert run_digest(command) == GOLDEN[command]


if __name__ == "__main__":
    for command in GOLDEN:
        print(f"    {command!r}: {run_digest(command)!r},")
