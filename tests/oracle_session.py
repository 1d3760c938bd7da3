"""Closure-based honest session, kept as an oracle for the lean session loop.

Every transmission goes through a `transmit` closure that builds an
Event, appends it to the transcript and returns the delivered payload,
exactly as the loop in umarfid.protocol did before it recorded only the
channel rules. OracleChannel and OracleTranscript are the channel and
transcript that loop used; the session drives the package's own
ReaderState and TagState. Lines are written here, with this module's own
direction table and hex, so README's line format is checked against a
writer independent of the package.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from umarfid.protocol import MSG_A, MSG_B, MSG_C, MSG_IDT, Outcome

DIRECTION = {MSG_IDT: "tag->reader", MSG_A: "reader->tag",
             MSG_B: "reader->tag", MSG_C: "tag->reader"}


class Event(NamedTuple):
    """One radio transmission as an eavesdropper sees it."""

    session: int
    label: str  # IDT, A, B or C
    payload: int  # what the sender emitted
    disposition: str = "delivered"  # or "blocked" or "replaced"
    replacement: int | None = None  # delivered payload when replaced

    def line(self, width: int) -> str:
        digits = width // 4
        out = (f"session={self.session} direction={DIRECTION[self.label]} "
               f"message={self.label} word={self.payload:0{digits}x} "
               f"disposition={self.disposition}")
        if self.replacement is not None:
            out += f" replacement={self.replacement:0{digits}x}"
        return out


class OracleChannel:
    """Interception rules keyed by (session index, message label)."""

    _BLOCK = "block"
    _FLIP = "flip"

    def __init__(self):
        self._rules: dict[tuple[int, str], tuple[str, int | None]] = {}

    def block(self, session: int, label: str) -> None:
        self._rules[(session, label)] = (self._BLOCK, None)

    def flip(self, session: int, label: str, mask: int) -> None:
        self._rules[(session, label)] = (self._FLIP, mask)

    def apply(self, session: int, label: str, payload: int) -> Event:
        rule = self._rules.get((session, label))
        if rule is None:
            return Event(session, label, payload)
        action, word = rule
        if action == self._BLOCK:
            return Event(session, label, payload, "blocked")
        return Event(session, label, payload, "replaced", payload ^ word)


@dataclass
class OracleTranscript:
    """Everything observable on the radio during one session."""

    session: int
    presented_idts: list[int] = field(default_factory=list)
    a: int | None = None
    b: int | None = None
    c: int | None = None
    outcome: Outcome = Outcome.BLOCKED
    events: list[Event] = field(default_factory=list)

    def lines(self, width: int) -> list[str]:
        out = [event.line(width) for event in self.events]
        out.append(f"session={self.session} outcome={self.outcome}")
        return out


def run_honest_session(reader, tag, rng, channel=None, session=0) -> OracleTranscript:
    t = OracleTranscript(session=session)

    def transmit(label: str, payload: int) -> int | None:
        if channel is None:
            event = Event(session, label, payload)
        else:
            event = channel.apply(session, label, payload)
        t.events.append(event)
        return event.payload if event.disposition == "delivered" else event.replacement

    # Identification: current pseudonym, then one retry with the previous.
    for use_previous in (False, True):
        idt = tag.previous.idt if use_previous else tag.current.idt
        t.presented_idts.append(idt)
        received = transmit(MSG_IDT, idt)
        if received is None:
            t.outcome = Outcome.BLOCKED
            return t
        challenge = reader.begin(received, rng)
        if challenge is not None:
            break
    else:
        t.outcome = Outcome.IDENTIFICATION_FAILED
        return t

    t.a, t.b = challenge
    a_recv = transmit(MSG_A, t.a)
    b_recv = transmit(MSG_B, t.b)
    if a_recv is None or b_recv is None:
        t.outcome = Outcome.BLOCKED
        return t

    c = tag.respond(use_previous, a_recv, b_recv)
    if c is None:
        t.outcome = Outcome.TAG_REJECTED_READER
        return t
    t.c = c

    c_recv = transmit(MSG_C, c)
    if c_recv is None:
        t.outcome = Outcome.BLOCKED
        return t

    if reader.complete(c_recv):
        t.outcome = Outcome.MUTUAL_SUCCESS
    else:
        t.outcome = Outcome.READER_REJECTED_TAG
    return t
