"""Tag, reader and back-end database state machines for UMA-RFID.

One authentication session between a synchronized tag and reader:

    tag    -> reader : IDT            (pseudonym, anonymous identification)
    reader -> tag    : A, B           (challenge built from key K and nonce N)
    tag    -> reader : C              (response, sent only if B verifies)

with messages

    A = K xor N
    B = rot(K, K) xor rot(N, N)
    C = (K or rot(N, N)) xor (rot(K, K) and N)

After a successful exchange both sides replace {IDT, K} with

    IDT' = K xor rot(N, N)
    K'   = rot(K, K) xor N

Words are plain ints in [0, 2**L). The width L is fixed per simulation:
fresh_system gives it to the reader and every tag, and the functions
below take it as their last argument.

The tag keeps the pair it just used as "previous" so that a reader which
missed the final C can still identify it next session; the database keeps
a single pair per tag. The tag commits its update the moment it sends C,
the reader only after verifying C, which is the asymmetry every
desynchronization attack in this suite exploits.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .word import DEFAULT_WORD_LEN, WordStream, check_count, check_width, derive_seed, rot, to_hex

MSG_IDT = "IDT"
MSG_A = "A"
MSG_B = "B"
MSG_C = "C"

TAG_TO_READER = "tag->reader"
READER_TO_TAG = "reader->tag"


def compute_a(key: int, nonce: int) -> int:
    """First challenge half: key xor nonce."""
    return key ^ nonce


def compute_b(key: int, nonce: int, width: int = DEFAULT_WORD_LEN) -> int:
    """Second challenge half: rot(K, K) xor rot(N, N). Proves knowledge of K."""
    return rot(key, key, width) ^ rot(nonce, nonce, width)


def compute_c(key: int, nonce: int, width: int = DEFAULT_WORD_LEN) -> int:
    """Tag response: (K or rot(N, N)) xor (rot(K, K) and N)."""
    return (key | rot(nonce, nonce, width)) ^ (rot(key, key, width) & nonce)


class PairState(NamedTuple):
    """A {pseudonym, secret key} pair shared between tag and reader."""

    idt: int
    key: int

    def words(self) -> tuple[int, int]:
        return (self.idt, self.key)


def next_pair(used: PairState, nonce: int, width: int = DEFAULT_WORD_LEN) -> PairState:
    """Updated pair after a session that used `used` with nonce N."""
    key = used.key
    return PairState(
        idt=key ^ rot(nonce, nonce, width),
        key=rot(key, key, width) ^ nonce,
    )


def _session_words(key: int, nonce: int, width: int, received_b: int | None = None):
    """(B, C, updated pair) from one rot(K, K) and one rot(N, N).

    compute_b, compute_c and next_pair fused for reader and tag, with both
    rotations written out as in word.rot. Given the B a tag received,
    returns None on a mismatch before building C.
    """
    mask = (1 << width) - 1
    n = key.bit_count() % width
    rk = ((key << n) | (key >> (width - n))) & mask
    n = nonce.bit_count() % width
    rn = ((nonce << n) | (nonce >> (width - n))) & mask
    b = rk ^ rn
    if received_b is not None and received_b != b:
        return None
    return b, (key | rn) ^ (rk & nonce), PairState(key ^ rn, rk ^ nonce)


class _Record:
    """Value equality and a field-by-field repr over the names in _fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class TagState(_Record):
    """Tag memory: static ID plus current and previous {IDT, K} pairs.

    Exactly 5 words of storage, each `width` bits. The static ID is
    never transmitted.
    """

    __slots__ = _fields = ("id", "current", "previous", "width")

    def __init__(self, id: int, current: PairState, previous: PairState, width: int):
        self.id, self.current, self.previous, self.width = id, current, previous, width

    @classmethod
    def fresh(cls, id: int, pair: PairState, width: int) -> "TagState":
        # A tag that has never updated has nothing older to remember.
        return cls(id=id, current=pair, previous=pair, width=width)

    def words(self) -> tuple[int, ...]:
        return (self.id,) + self.current.words() + self.previous.words()

    def present(self, use_previous: bool = False) -> int:
        """Pseudonym broadcast during identification. No state change."""
        return self.previous.idt if use_previous else self.current.idt

    def pair(self, use_previous: bool) -> PairState:
        return self.previous if use_previous else self.current

    def respond(self, use_previous: bool, a: int, b: int) -> int | None:
        """Verify the reader's challenge and answer with C, or stay silent.

        Recovers N' = a xor K from the selected pair, recomputes B and
        compares with the received b. On a match the tag sends C and
        immediately commits its update: the used pair becomes previous,
        next_pair(used, N') becomes current. On a mismatch it returns
        None and keeps its state bit-identical.
        """
        # pair() inlined: one call fewer on the reject path
        used = self.previous if use_previous else self.current
        words = _session_words(used.key, a ^ used.key, self.width, b)
        if words is None:
            return None
        _, c, self.current = words
        self.previous = used
        return c

    def respond_sweep(
        self, use_previous: bool, a: int, b: int, index_of
    ) -> tuple[int, int] | None:
        """Answer a prober's whole sweep of B-masks with one evaluation.

        The prober sends (a, b xor mask) for every mask in its own fixed
        order and stops at the first answer. With a and the selected
        pair fixed the tag accepts exactly one B, so at most one mask can
        be answered: expected_B xor b. index_of(mask) is the prober's
        position for that mask, or None when its order does not contain
        it. On a hit the tag commits through respond with the accepted B,
        exactly as the literal probe at that position would, and returns
        (index, C). On a miss it returns None and keeps its state
        bit-identical. The expected B itself is never returned.
        """
        used = self.pair(use_previous)
        expected = compute_b(used.key, a ^ used.key, self.width)
        index = index_of(expected ^ b)
        if index is None:
            return None
        return index, self.respond(use_previous, a, expected)


class DatabaseEntry(_Record):
    """Back-end record for one tag: {IDT, K, ID}, exactly 3 words."""

    __slots__ = _fields = ("idt", "key", "id")

    def __init__(self, idt: int, key: int, id: int):
        self.idt, self.key, self.id = idt, key, id

    def words(self) -> tuple[int, int, int]:
        return (self.idt, self.key, self.id)


class _Pending(NamedTuple):
    """In-flight reader session: entry, nonce, expected C, updated pair."""

    entry: DatabaseEntry
    nonce: int
    expected_c: int
    updated: PairState


class ReaderState:
    """Reader plus back-end database of `width`-bit words, keyed by pseudonym."""

    def __init__(self, width: int):
        self.width = width
        self.entries: dict[int, DatabaseEntry] = {}
        self.pending: _Pending | None = None

    def register(self, entry: DatabaseEntry) -> None:
        if entry.idt in self.entries:
            raise ValueError(f"pseudonym collision on registration: {to_hex(entry.idt, self.width)}")
        self.entries[entry.idt] = entry

    def knows(self, idt: int) -> bool:
        """Read-only lookup, used by identification and the Test query."""
        return idt in self.entries

    def begin(self, idt: int, rng: WordStream) -> tuple[int, int] | None:
        """Look up the pseudonym and issue a challenge, or None if unknown.

        On a hit, draws a fresh nonce, remembers the expected C and
        returns (A, B). An unknown pseudonym is a normal protocol signal
        (the tag will retry with its previous one), not a fault.
        """
        if self.pending is not None:
            raise RuntimeError("reader already has a session in flight")
        entry = self.entries.get(idt)
        if entry is None:
            return None
        nonce = rng.next_word()
        b, c, updated = _session_words(entry.key, nonce, self.width)
        self.pending = _Pending(entry, nonce, c, updated)
        return entry.key ^ nonce, b

    def complete(self, c: int) -> bool:
        """Check the tag's response; update the database entry on success.

        An update onto another tag's pseudonym is declined like a wrong C:
        False, both entries kept. No session in flight is a harness bug.
        """
        if self.pending is None:
            raise RuntimeError("reader_complete called with no pending session")
        pending, self.pending = self.pending, None
        if c != pending.expected_c:
            return False
        entry, updated = pending.entry, pending.updated
        if updated.idt != entry.idt:
            if updated.idt in self.entries:
                return False
            del self.entries[entry.idt]
            self.entries[updated.idt] = entry
        entry.idt = updated.idt
        entry.key = updated.key
        return True

    def abandon(self) -> None:
        """Drop the in-flight session without updating (C never arrived)."""
        self.pending = None


class Outcome(str, Enum):
    MUTUAL_SUCCESS = "mutual-success"
    READER_REJECTED_TAG = "reader-rejected-tag"
    TAG_REJECTED_READER = "tag-rejected-reader"
    IDENTIFICATION_FAILED = "identification-failed"
    BLOCKED = "blocked"

    def __str__(self) -> str:  # plain value in reports
        return self.value


DELIVERED = "delivered"
BLOCKED = "blocked"
REPLACED = "replaced"

_DIRECTION = {MSG_IDT: TAG_TO_READER, MSG_A: READER_TO_TAG,
              MSG_B: READER_TO_TAG, MSG_C: TAG_TO_READER}


class ChannelEvent(NamedTuple):
    """One radio transmission as an eavesdropper sees it."""

    session: int
    direction: str  # TAG_TO_READER or READER_TO_TAG
    label: str  # IDT, A, B or C
    payload: int  # what the sender emitted
    disposition: str = DELIVERED
    replacement: int | None = None  # delivered payload when replaced

    def delivered_payload(self) -> int | None:
        if self.disposition == BLOCKED:
            return None
        if self.disposition == REPLACED:
            return self.replacement
        return self.payload

    def line(self, width: int) -> str:
        """Fixed-order structured-text record for transcript dumps."""
        out = (
            f"session={self.session} direction={self.direction} "
            f"message={self.label} word={to_hex(self.payload, width)} "
            f"disposition={self.disposition}"
        )
        if self.replacement is not None:
            out += f" replacement={to_hex(self.replacement, width)}"
        return out


class Channel:
    """Interception rules an active adversary has placed on the radio.

    A rule targets (session index, message label) and blocks the
    transmission, substitutes a fixed payload, or XORs a mask into the
    in-flight payload (bit flipping). Rules apply to every matching
    transmission of that session.
    """

    def __init__(self):
        # session -> label -> (disposition, word, whether word is a mask)
        self._rules: dict[int, dict[str, tuple[str, int | None, bool]]] = {}

    def block(self, session: int, label: str) -> None:
        self._rules.setdefault(session, {})[label] = (BLOCKED, None, False)

    def replace(self, session: int, label: str, payload: int) -> None:
        self._rules.setdefault(session, {})[label] = (REPLACED, payload, False)

    def flip(self, session: int, label: str, mask: int) -> None:
        """Alter the message in flight by XORing a mask into it."""
        self._rules.setdefault(session, {})[label] = (REPLACED, mask, True)

    def intercept(self, t: "SessionTranscript", label: str, payload: int) -> int | None:
        """Apply session t's rule for label to one transmission: record the
        event in t.acted, return what arrives (None when blocked)."""
        disposition, word, flip = self._rules[t.session][label]
        event = ChannelEvent(t.session, _DIRECTION[label], label, payload, disposition,
                             payload ^ word if flip else word)
        t.acted += (event,)
        return event.delivered_payload()


class SessionTranscript(_Record):
    """Everything observable on the radio during one session: the words
    sent, and in `acted` the event of each transmission a channel rule
    acted on. `events` rebuilds every transmission on first read."""

    _fields = ("session", "presented_idts", "a", "b", "c", "outcome", "acted")

    def __init__(self, session: int, presented_idts: list[int] | None = None,
                 a: int | None = None, b: int | None = None, c: int | None = None,
                 outcome: Outcome = Outcome.BLOCKED, acted: tuple[ChannelEvent, ...] = ()):
        self.session, self.a, self.b, self.c = session, a, b, c
        self.outcome, self.acted = outcome, acted
        self.presented_idts = [] if presented_idts is None else presented_idts

    @cached_property
    def events(self) -> list[ChannelEvent]:
        """One event per transmission, in the order they were sent."""
        sent = [(MSG_IDT, idt) for idt in self.presented_idts]
        if self.a is not None:
            sent += [(MSG_A, self.a), (MSG_B, self.b)]
        if self.c is not None:
            sent.append((MSG_C, self.c))
        # a rule acts on every transmission of its label, and the same
        # payload meets the same rule, so (label, payload) finds the event
        acted = {(e.label, e.payload): e for e in self.acted}
        return [
            acted.get(sent_word)
            or ChannelEvent(self.session, _DIRECTION[sent_word[0]], *sent_word)
            for sent_word in sent
        ]

    def transmissions(self) -> int:
        """Channel sends, with {A, B} grouped as a single transmission."""
        return len(self.presented_idts) + (self.a is not None) + (self.c is not None)

    def lines(self, width: int) -> list[str]:
        out = [event.line(width) for event in self.events]
        out.append(f"session={self.session} outcome={self.outcome}")
        return out


def run_honest_session(
    reader: ReaderState,
    tag: TagState,
    rng: WordStream,
    channel: Channel | None = None,
    session: int = 0,
) -> SessionTranscript:
    """Drive one full protocol session between genuine endpoints.

    Identification presents the current pseudonym first; if the reader
    does not recognize it, the tag retries exactly once with its
    previous pseudonym. Both pseudonyms unknown is the observable
    desynchronization state. The optional channel may block or replace
    any message; the transcript rebuilds every transmission on demand.
    """
    t = SessionTranscript(session)
    # The one per-session look at the channel: a transmission without a rule
    # costs nothing more. A rule's early return leaves the outcome BLOCKED.
    rules = channel._rules.get(session) if channel is not None else None

    # Identification: current pseudonym, then one retry with the previous.
    for use_previous in (False, True):
        idt = tag.previous.idt if use_previous else tag.current.idt
        t.presented_idts.append(idt)
        if rules and MSG_IDT in rules:
            idt = channel.intercept(t, MSG_IDT, idt)
            if idt is None:
                return t
        challenge = reader.begin(idt, rng)
        if challenge is not None:
            break
    else:
        t.outcome = Outcome.IDENTIFICATION_FAILED
        return t

    t.a, t.b = a, b = challenge
    if rules:
        if MSG_A in rules:
            a = channel.intercept(t, MSG_A, a)
        if MSG_B in rules:
            b = channel.intercept(t, MSG_B, b)
        if a is None or b is None:
            reader.abandon()
            return t

    c = tag.respond(use_previous, a, b)
    if c is None:
        reader.abandon()
        t.outcome = Outcome.TAG_REJECTED_READER
        return t
    t.c = c

    if rules and MSG_C in rules:
        c = channel.intercept(t, MSG_C, c)
        if c is None:
            reader.abandon()
            return t

    t.outcome = Outcome.MUTUAL_SUCCESS if reader.complete(c) else Outcome.READER_REJECTED_TAG
    return t


def synchronized(reader: ReaderState, tag: TagState) -> bool:
    """Ground truth: can this tag still authenticate against this reader?

    True when the database entry under one of the tag's pseudonyms
    carries the matching key and identity.
    """
    for pair in (tag.current, tag.previous):
        entry = reader.entries.get(pair.idt)
        if entry is not None and entry.key == pair.key and entry.id == tag.id:
            return True
    return False


def fresh_system(
    init: WordStream, word_len: int, n_tags: int = 1
) -> tuple[ReaderState, list[TagState]]:
    """Reader plus n freshly initialized, registered tags.

    Each tag gets an independently drawn ID, pseudonym and key; the
    reader and every tag work on word_len-bit words. A pseudonym already
    registered is redrawn from init before the key is drawn.
    """
    reader = ReaderState(word_len)
    tags = []
    for _ in range(n_tags):
        id, idt = init.next_word(), init.next_word()
        while idt in reader.entries:
            idt = init.next_word()
        pair = PairState(idt=idt, key=init.next_word())
        reader.register(DatabaseEntry(idt=idt, key=pair.key, id=id))
        tags.append(TagState.fresh(id=id, pair=pair, width=word_len))
    return reader, tags


class Bench:
    """Lab for one trial: a reader, n_tags registered tags, seeded streams.

    Every trial builds its own bench from a derived seed, so trials are
    independent and reproducible in any execution order. The "init"
    stream draws the tags, "nonce" the reader's nonces and "adv" the
    attacker's words.
    """

    def __init__(self, word_len: int, seed: int, n_tags: int = 1):
        check_width(word_len)
        check_count("seed", seed, -math.inf)  # any int, negative included
        self.word_len = word_len
        self._seed = seed
        init = WordStream(word_len, derive_seed(seed, "init"))
        self.reader, self.tags = fresh_system(init, word_len, n_tags)
        self.tag = self.tags[0]
        self.nonce_rng = WordStream(word_len, derive_seed(seed, "nonce"))
        self.session = 0

    @cached_property
    def adv_rng(self) -> WordStream:
        """The attacker's own stream, seeded on first use."""
        return WordStream(self.word_len, derive_seed(self._seed, "adv"))

    def run_honest(self, channel=None, tag=None) -> SessionTranscript:
        """The next session, of tag (the bench's first tag by default)."""
        t = run_honest_session(self.reader, self.tag if tag is None else tag,
                               self.nonce_rng, channel, self.session)
        self.session += 1
        return t

    def followup_outcomes(self, count: int) -> tuple[str, ...]:
        """Outcomes of `count` honest recovery attempts after an attack."""
        return tuple(str(self.run_honest().outcome) for _ in range(count))

    def synchronized(self) -> bool:
        return synchronized(self.reader, self.tag)
