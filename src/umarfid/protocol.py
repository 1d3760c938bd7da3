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
desynchronization attack in this suite exploits. A reader has at most one
open session; one whose C never arrives is dropped by its next challenge.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import NamedTuple

from .word import DEFAULT_WORD_LEN, check_count, check_width, rot, stream, to_hex

MSG_IDT = "IDT"
MSG_A = "A"
MSG_B = "B"
MSG_C = "C"


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


def next_pair(used: PairState, nonce: int, width: int = DEFAULT_WORD_LEN) -> PairState:
    """Updated pair after a session that used `used` with nonce N."""
    key = used.key
    return PairState(
        idt=key ^ rot(nonce, nonce, width),
        key=rot(key, key, width) ^ nonce,
    )


def _session_words(key: int, nonce: int, width: int) -> tuple[int, int, int, int]:
    """(B, C, IDT', K') from one rot(K, K) and one rot(N, N).

    compute_b, compute_c and next_pair fused for reader and tag, with both
    rotations written out as in word.rot.
    """
    mask = (1 << width) - 1
    n = key.bit_count() % width
    rk = ((key << n) | (key >> (width - n))) & mask
    n = nonce.bit_count() % width
    rn = ((nonce << n) | (nonce >> (width - n))) & mask
    return rk ^ rn, (key | rn) ^ (rk & nonce), key ^ rn, rk ^ nonce


class TagState:
    """Tag memory: static ID plus current and previous {IDT, K} pairs.

    Exactly 5 words of storage, each `width` bits. The static ID is
    never transmitted.
    """

    __slots__ = ("id", "current", "previous", "width")

    def __init__(self, id: int, current: PairState, previous: PairState, width: int):
        self.id, self.current, self.previous, self.width = id, current, previous, width

    @classmethod
    def fresh(cls, id: int, pair: PairState, width: int) -> "TagState":
        # A tag that has never updated has nothing older to remember.
        return cls(id=id, current=pair, previous=pair, width=width)

    def respond(self, use_previous: bool, a: int, b: int) -> int | None:
        """Verify the reader's challenge and answer with C, or stay silent.

        Recovers N' = a xor K from the selected pair and computes B, C, IDT'
        and K' in one _session_words call. If B is the received b, the tag sends
        C and commits at once: the used pair becomes previous, PairState(IDT',
        K') current. Else it returns None, state unchanged and no pair built.
        """
        used = self.previous if use_previous else self.current
        expected, c, idt, key = _session_words(used.key, a ^ used.key, self.width)
        if b != expected:
            return None
        self.current, self.previous = PairState(idt, key), used
        return c

    def respond_sweep(self, a: int, b: int, index_of) -> tuple[int, int, int] | None:
        """Answer a prober's sweep of B-masks on the previous pair in one evaluation.

        The prober sends (a, b xor mask) for every mask in its own fixed
        order and stops at the first answer. With a and the previous
        pair fixed the tag accepts exactly one B, so at most one mask can
        be answered: expected_B xor b. index_of(mask) is the prober's
        position for that mask, or None when its order does not contain
        it. On a hit the tag commits through respond with the accepted B,
        exactly as the literal probe at that position would, and returns
        (index, mask, C); the prober knows the mask at its own index, so
        that reveals nothing new. On a miss it returns None and keeps its
        state bit-identical.
        """
        key = self.previous.key
        expected = compute_b(key, a ^ key, self.width)
        index = index_of(expected ^ b)
        if index is None:
            return None
        return index, expected ^ b, self.respond(True, a, expected)


class DatabaseEntry:
    """Back-end record for one tag: {IDT, K, ID}, exactly 3 words."""

    __slots__ = ("idt", "key", "id")

    def __init__(self, idt: int, key: int, id: int):
        self.idt, self.key, self.id = idt, key, id


class ReaderState:
    """Reader plus back-end database of `width`-bit words, keyed by pseudonym."""

    def __init__(self, width: int):
        self.width = width
        self.entries: dict[int, DatabaseEntry] = {}
        self.pending: tuple[DatabaseEntry, int, int, int] | None = None  # entry, C, IDT', K'

    def register(self, entry: DatabaseEntry) -> None:
        if entry.idt in self.entries:
            raise ValueError(f"pseudonym collision on registration: {to_hex(entry.idt, self.width)}")
        self.entries[entry.idt] = entry

    def begin(self, idt: int, rng: random.Random) -> tuple[int, int] | None:
        """Look up the pseudonym and issue a challenge, or None if unknown.

        On a hit, draws a fresh nonce, keeps (entry, C, IDT', K') open until
        C verifies and returns (A, B), dropping an open session whose C never
        came, as a timed-out reader would. A miss keeps it: the tag will retry.
        """
        entry = self.entries.get(idt)
        if entry is None:
            return None
        nonce = rng.getrandbits(self.width)
        b, c, new_idt, new_key = _session_words(entry.key, nonce, self.width)
        self.pending = entry, c, new_idt, new_key
        return entry.key ^ nonce, b

    def complete(self, c: int) -> bool:
        """Check the tag's response; update the database entry on success.

        Closes the one open session; one whose C never comes is dropped by
        the next begin. An update onto another tag's pseudonym is declined
        like a wrong C: False, both entries kept. No open session is a bug.
        """
        if self.pending is None:
            raise RuntimeError("reader_complete called with no pending session")
        (entry, expected_c, idt, key), self.pending = self.pending, None
        if c != expected_c:
            return False
        if idt != entry.idt:
            if idt in self.entries:
                return False
            del self.entries[entry.idt]
            self.entries[idt] = entry
        entry.idt, entry.key = idt, key
        return True


class Outcome:
    """How a session ended: the strings its records print."""

    MUTUAL_SUCCESS = "mutual-success"
    READER_REJECTED_TAG = "reader-rejected-tag"
    TAG_REJECTED_READER = "tag-rejected-reader"
    IDENTIFICATION_FAILED = "identification-failed"
    BLOCKED = "blocked"


_DIRECTION = {MSG_IDT: "tag->reader", MSG_A: "reader->tag",
              MSG_B: "reader->tag", MSG_C: "tag->reader"}


def check_rule(label: str, mask: int | None, width: int) -> None:
    """An interception rule blocks (None) or XORs a width-bit int, no bool, into IDT, A, B or C."""
    if label not in _DIRECTION or mask is not None and (
            isinstance(mask, bool) or not isinstance(mask, int) or not 0 <= mask < 1 << width):
        raise ValueError(f"rule {label!r}: {mask!r} at width {width}; need IDT, A, B or C and "
                         f"None or a mask in [0, 2**{width})")


def _arrives(mask: int | None, payload: int) -> int | None:
    """What a transmission under a rule's mask delivers: None when blocked."""
    return None if mask is None else payload ^ mask


class SessionTranscript:
    """Everything observable on the radio during one session: the words
    sent, a copy of the interception rules placed on the session (label ->
    mask, None for a block; `rules` is None when it had none) and its
    outcome. `lines` prints every transmission from the words and the rules."""

    __slots__ = ("session", "presented_idts", "a", "b", "c", "outcome", "rules")

    def __init__(self, session: int, rules: dict | None):
        self.session, self.rules = session, rules
        self.presented_idts: list[int] = []
        self.a = self.b = self.c = None
        self.outcome = Outcome.BLOCKED

    def transmissions(self) -> int:
        """Channel sends, with {A, B} grouped as a single transmission."""
        return len(self.presented_idts) + (self.a is not None) + (self.c is not None)

    def lines(self, width: int) -> list[str]:
        """One line per transmission, in the order sent, then the outcome line."""
        sent = [(MSG_IDT, idt) for idt in self.presented_idts]
        if self.a is not None:
            sent += [(MSG_A, self.a), (MSG_B, self.b)]
        if self.c is not None:
            sent.append((MSG_C, self.c))
        rules = self.rules or {}
        out = []
        for label, word in sent:
            line = (f"session={self.session} direction={_DIRECTION[label]} "
                    f"message={label} word={to_hex(word, width)} disposition=")
            if label not in rules:
                line += "delivered"
            elif rules[label] is None:
                line += "blocked"
            else:
                line += f"replaced replacement={to_hex(word ^ rules[label], width)}"
            out.append(line)
        out.append(f"session={self.session} outcome={self.outcome}")
        return out


def run_honest_session(
    reader: ReaderState,
    tag: TagState,
    rng: random.Random,
    rules: dict[str, int | None] | None = None,
    session: int = 0,
) -> SessionTranscript:
    """Drive one full protocol session between genuine endpoints.

    Identification presents the current pseudonym first; if the reader
    does not recognize it, the tag retries exactly once with its
    previous pseudonym. Both pseudonyms unknown is the observable
    desynchronization state. `rules` are an active adversary's
    interceptions on this session, label -> mask: None blocks every
    transmission of that label, an int is XORed into it (a replacement
    even when it is 0). The transcript prints every transmission on demand.
    """
    # Rules are checked once; a transmission without one costs nothing more. The
    # transcript copies the rules (None for none), so a rule placed later, even into
    # an empty dict, cannot rewrite it. A rule's early return leaves the outcome BLOCKED.
    for label, mask in rules.items() if rules else ():
        check_rule(label, mask, tag.width)
    t = SessionTranscript(session, dict(rules) if rules else None)

    # Identification: current pseudonym, then one retry with the previous.
    for use_previous in (False, True):
        idt = tag.previous.idt if use_previous else tag.current.idt
        t.presented_idts.append(idt)
        if rules and MSG_IDT in rules:
            idt = _arrives(rules[MSG_IDT], idt)
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
            a = _arrives(rules[MSG_A], a)
        if MSG_B in rules:
            b = _arrives(rules[MSG_B], b)
        if a is None or b is None:
            return t

    c = tag.respond(use_previous, a, b)
    if c is None:
        t.outcome = Outcome.TAG_REJECTED_READER
        return t
    t.c = c

    if rules and MSG_C in rules:
        c = _arrives(rules[MSG_C], c)
        if c is None:
            return t

    t.outcome = Outcome.MUTUAL_SUCCESS if reader.complete(c) else Outcome.READER_REJECTED_TAG
    return t


def synchronized(reader: ReaderState, tag: TagState) -> bool:
    """Ground truth: does the database hold one of the tag's pairs?

    True when the entry under the tag's current or previous pseudonym
    carries that pair's key and the tag's ID. That does not mean the next
    session succeeds: a session falls back to the previous pseudonym only
    when the reader does not know the current one. So the tag is stuck,
    while this is True through its previous pair, when the reader knows
    its current pseudonym under another key: after an update onto the
    same pseudonym (IDT' = IDT) whose C was blocked, and after the reader
    declined an update onto another tag's pseudonym. With two or more
    tags, that decline ends a synchronized tag's session
    reader-rejected-tag when its IDT' is another tag's registered
    pseudonym, at about (n_tags - 1) / 2^L per session.
    """
    for pair in (tag.current, tag.previous):
        entry = reader.entries.get(pair.idt)
        if entry is not None and entry.key == pair.key and entry.id == tag.id:
            return True
    return False


def fresh_system(
    init: random.Random, word_len: int, n_tags: int = 1
) -> tuple[ReaderState, list[TagState]]:
    """Reader plus n freshly initialized, registered tags.

    Each tag gets an independently drawn ID, pseudonym and key; the
    reader and every tag work on word_len-bit words. A pseudonym already
    registered is redrawn from init before the key is drawn, so n_tags
    must lie in [1, 2**word_len]; it is checked before the first draw.
    """
    check_count("n_tags", n_tags, 1)
    if n_tags > 1 << word_len:
        raise ValueError(f"n_tags must be <= 2**{word_len}, got {n_tags}")
    reader = ReaderState(word_len)
    tags = []
    for _ in range(n_tags):
        id, idt = init.getrandbits(word_len), init.getrandbits(word_len)
        while idt in reader.entries:
            idt = init.getrandbits(word_len)
        pair = PairState(idt=idt, key=init.getrandbits(word_len))
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
        self.reader, self.tags = fresh_system(stream(seed, "init"), word_len, n_tags)
        self.tag = self.tags[0]
        self.nonce_rng = stream(seed, "nonce")
        self.session = 0

    @cached_property
    def adv_rng(self) -> random.Random:
        """The attacker's own stream, seeded on first use."""
        return stream(self._seed, "adv")

    def run_honest(self, rules=None, tag=None) -> SessionTranscript:
        """The next session, of tag (the bench's first tag by default),
        under the interception rules {label: mask} of run_honest_session."""
        t = run_honest_session(self.reader, self.tag if tag is None else tag,
                               self.nonce_rng, rules, self.session)
        self.session += 1
        return t

    def synchronized(self) -> bool:
        return synchronized(self.reader, self.tag)
