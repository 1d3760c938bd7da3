import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle_bits as oracle
import oracle_session
from umarfid.adversary import GameEnvironment
from umarfid.harness import TrialConfig
from umarfid.protocol import (
    MSG_A,
    MSG_B,
    MSG_C,
    MSG_IDT,
    Bench,
    Channel,
    ChannelEvent,
    DatabaseEntry,
    Outcome,
    PairState,
    ReaderState,
    SessionTranscript,
    TagState,
    compute_a,
    compute_b,
    compute_c,
    fresh_system,
    next_pair,
    run_honest_session,
    synchronized,
)
from umarfid.word import WordStream, derive_seed, rot, to_hex


def make_system(word_len=128, seed=0, n_tags=1):
    init = WordStream(word_len, seed)
    reader, tags = fresh_system(init, word_len, n_tags)
    return reader, tags, WordStream(word_len, seed + 1)


words16 = st.integers(0, 2**16 - 1)


class TestMessages:
    # worked instance, frozen from the per-bit oracle: K=0xc5, N=0x36
    K, N = 0xC5, 0x36

    def test_worked_example(self):
        assert compute_a(self.K, self.N) == 0xF3
        assert compute_b(self.K, self.N, 8) == 0x3F
        assert compute_c(self.K, self.N, 8) == 0xF3
        updated = next_pair(PairState(idt=0, key=self.K), self.N, 8)
        assert updated == PairState(idt=0xA6, key=0x6A)

    def test_a_identities(self):
        n = 0x5D
        assert compute_a(0, n) == n
        assert compute_a(n, 0) == n

    def test_b_identities(self):
        assert compute_b(0, 0, 8) == 0
        k = 0x3C
        assert compute_b(k, k, 8) == 0  # equal arguments cancel

    def test_c_identities(self):
        assert compute_c(0, 0, 8) == 0
        assert compute_c(0xFF, 0, 8) == 0xFF

    @given(k=words16, n=words16)
    def test_against_oracle(self, k, n):
        kk = oracle.rot_bits(k, k, 16)
        nn = oracle.rot_bits(n, n, 16)
        assert compute_a(k, n) == oracle.xor_bits(k, n, 16)
        assert compute_b(k, n, 16) == oracle.xor_bits(kk, nn, 16)
        expected_c = oracle.xor_bits(
            oracle.or_bits(k, nn, 16),
            oracle.and_bits(kk, n, 16),
            16,
        )
        assert compute_c(k, n, 16) == expected_c

    def test_next_pair_all_zero_fixpoint(self):
        assert next_pair(PairState(idt=0x55, key=0), 0, 8) == PairState(idt=0, key=0)

    @given(k=words16, n=words16, idt=words16)
    def test_next_pair_identity(self, k, n, idt):
        updated = next_pair(PairState(idt=idt, key=k), n, 16)
        expected = n ^ rot(n, n, 16) ^ k ^ rot(k, k, 16)
        assert updated.idt ^ updated.key == expected


class TestTag:
    def fresh_tag(self):
        pair = PairState(idt=0x11, key=0xC5)
        return TagState.fresh(id=0xEE, pair=pair, width=8)

    def test_present(self):
        tag = self.fresh_tag()
        assert tag.present() == 0x11
        assert tag.present(use_previous=True) == 0x11  # never updated

    def test_respond_accepts_genuine_challenge(self):
        tag = self.fresh_tag()
        n = 0x36
        c = tag.respond(False, compute_a(0xC5, n), compute_b(0xC5, n, 8))
        assert c == 0xF3
        assert tag.previous == PairState(idt=0x11, key=0xC5)
        assert tag.current == PairState(idt=0xA6, key=0x6A)

    def test_respond_rejects_corrupted_challenge(self):
        tag = self.fresh_tag()
        n = 0x36
        a = compute_a(0xC5, n)
        b = compute_b(0xC5, n, 8) ^ 0x01
        before = (tag.current, tag.previous)
        assert tag.respond(False, a, b) is None
        assert (tag.current, tag.previous) == before

    def test_respond_with_previous_pair_discards_current(self):
        tag = self.fresh_tag()
        n1 = 0x36
        tag.respond(False, compute_a(0xC5, n1), compute_b(0xC5, n1, 8))
        orphan = tag.current
        # a session keyed to the previous pair replaces current outright
        n2 = 0x99
        key = tag.previous.key
        c = tag.respond(True, compute_a(key, n2), compute_b(key, n2, 8))
        assert c is not None
        assert tag.previous == PairState(idt=0x11, key=0xC5)
        assert tag.current == next_pair(PairState(idt=0x11, key=0xC5), n2, 8)
        assert tag.current != orphan

    def test_corruption_rejected_over_random_flips(self):
        rng = WordStream(16, 7)
        rejected = 0
        trials = 300
        for _ in range(trials):
            pair = PairState(idt=rng.next_word(), key=rng.next_word())
            tag = TagState.fresh(id=rng.next_word(), pair=pair, width=16)
            n = rng.next_word()
            a = compute_a(pair.key, n)
            b = compute_b(pair.key, n, 16)
            flip = 1 << rng.next_below(16)
            if tag.respond(False, a, b ^ flip) is None:
                rejected += 1
        assert rejected == trials


class TestStateSizes:
    def test_tag_holds_five_words(self):
        _, tags, _ = make_system()
        assert len(tags[0].words()) == 5

    def test_database_entry_holds_three_words(self):
        entry = DatabaseEntry(idt=1, key=2, id=3)
        assert len(entry.words()) == 3


class TestRecords:
    def test_pairs_and_events_are_immutable(self):
        pair = PairState(1, 2)
        event = ChannelEvent(0, "tag->reader", MSG_IDT, 5)
        with pytest.raises(AttributeError):
            pair.key = 3
        with pytest.raises(AttributeError):
            event.payload = 6
        assert pair.words() == (1, 2)
        assert event.disposition == "delivered" and event.replacement is None
        assert event.delivered_payload() == 5


class TestReader:
    def test_unknown_pseudonym(self):
        reader, _, rng = make_system()
        assert reader.begin(0, rng) is None
        assert reader.pending is None

    def test_begin_issues_consistent_challenge(self):
        reader, tags, rng = make_system()
        idt = tags[0].present()
        a, b = reader.begin(idt, rng)
        key = reader.pending.entry.key
        assert a ^ key == reader.pending.nonce
        assert compute_b(key, reader.pending.nonce) == b

    def test_begin_twice_without_completion(self):
        reader, tags, rng = make_system()
        reader.begin(tags[0].present(), rng)
        with pytest.raises(RuntimeError):
            reader.begin(tags[0].present(), rng)

    def test_complete_without_pending_is_fatal(self):
        reader, _, _ = make_system()
        with pytest.raises(RuntimeError):
            reader.complete(0)

    def test_complete_updates_entry_and_rekeys_lookup(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        old_idt = tag.present()
        a, b = reader.begin(old_idt, rng)
        c = tag.respond(False, a, b)
        assert reader.complete(c) is True
        assert not reader.knows(old_idt)
        assert reader.knows(tag.current.idt)

    def test_complete_rejects_corrupted_response(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        idt = tag.present()
        a, b = reader.begin(idt, rng)
        c = tag.respond(False, a, b)
        assert reader.complete(c ^ 1) is False
        assert reader.knows(idt)  # entry untouched
        assert reader.pending is None

    def test_blocked_response_leaves_entry(self):
        reader, tags, rng = make_system()
        idt = tags[0].present()
        reader.begin(idt, rng)
        reader.abandon()
        assert reader.pending is None
        assert reader.knows(idt)

    def test_registration_collision_rejected(self):
        reader = ReaderState(8)
        entry = DatabaseEntry(idt=1, key=2, id=3)
        reader.register(entry)
        with pytest.raises(ValueError, match="registration: 01$"):
            reader.register(DatabaseEntry(idt=1, key=9, id=4))

    def test_fresh_system_redraws_a_registered_pseudonym(self):
        # the second tag's first pseudonym draw repeats the first tag's
        init = _Words(0x11, 0xAA, 0x22, 0x33, 0xAA, 0xBB, 0x44)
        reader, tags = fresh_system(init, 8, n_tags=2)
        assert [tag.words() for tag in tags] == [
            (0x11, 0xAA, 0x22, 0xAA, 0x22), (0x33, 0xBB, 0x44, 0xBB, 0x44)]
        assert {idt: entry.words() for idt, entry in reader.entries.items()} == {
            0xAA: (0xAA, 0x22, 0x11), 0xBB: (0xBB, 0x44, 0x33)}

    def test_determinism(self):
        first = make_system(seed=5)
        second = make_system(seed=5)
        idt = first[1][0].present()
        assert first[0].begin(idt, first[2]) == second[0].begin(idt, second[2])


class TestHonestSession:
    def test_mutual_success(self):
        reader, tags, rng = make_system()
        t = run_honest_session(reader, tags[0], rng)
        assert t.outcome is Outcome.MUTUAL_SUCCESS
        assert synchronized(reader, tags[0])
        entry = reader.entries[tags[0].current.idt]
        assert entry.key == tags[0].current.key

    def test_present_after_session_is_the_updated_pseudonym(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        pair_used = tag.current
        t = run_honest_session(reader, tag, rng)
        nonce = t.a ^ pair_used.key
        assert tag.present() == next_pair(pair_used, nonce).idt
        assert tag.present(use_previous=True) == pair_used.idt

    def test_b_xor_next_pseudonym_is_a_key_constant(self):
        # Transcript identity on every successful session: B xor the next
        # pseudonym equals rot(K, K) xor K for the pair the session used.
        # Every fifth session's C is blocked, so the next one identifies
        # through the fallback and uses the previous pair.
        reader, tags, rng = make_system(seed=11)
        tag = tags[0]
        successes = 0
        for session in range(1250):
            channel = Channel()
            if session % 5 == 4:
                channel.block(session, MSG_C)
            pairs = (tag.current, tag.previous)
            t = run_honest_session(reader, tag, rng, channel=channel, session=session)
            if t.outcome is not Outcome.MUTUAL_SUCCESS:
                assert t.outcome is Outcome.BLOCKED
                continue
            key = pairs[len(t.presented_idts) - 1].key
            assert t.b ^ tag.current.idt == rot(key, key, 128) ^ key
            successes += 1
        assert successes == 1000

    def test_transcript_shape(self):
        reader, tags, rng = make_system()
        t = run_honest_session(reader, tags[0], rng, session=9)
        assert t.session == 9
        assert len(t.presented_idts) == 1
        assert t.transmissions() == 3  # IDT, {A, B}, C
        assert [e.label for e in t.events] == [MSG_IDT, MSG_A, MSG_B, MSG_C]
        assert all(e.disposition == "delivered" for e in t.events)
        assert [e.direction for e in t.events] == [
            "tag->reader", "reader->tag", "reader->tag", "tag->reader",
        ]

    def test_transcript_lines_format(self):
        reader, tags, rng = make_system()
        t = run_honest_session(reader, tags[0], rng)
        lines = t.lines(128)
        assert lines[0] == (
            f"session=0 direction=tag->reader message=IDT "
            f"word={to_hex(t.presented_idts[0], 128)} disposition=delivered"
        )
        assert lines[-1] == "session=0 outcome=mutual-success"

    def test_pseudonym_difference_identity(self):
        # B xor next pseudonym is a constant of the key alone
        reader, tags, rng = make_system()
        for _ in range(50):
            key = tags[0].current.key
            t = run_honest_session(reader, tags[0], rng)
            assert t.outcome is Outcome.MUTUAL_SUCCESS
            assert t.b ^ tags[0].current.idt == rot(key, key, 128) ^ key

    def test_unregistered_tag_fails_identification(self):
        reader, _, rng = make_system()
        ones = 2**128 - 1
        stray = TagState.fresh(id=0, pair=PairState(idt=ones, key=ones), width=128)
        t = run_honest_session(reader, stray, rng)
        assert t.outcome is Outcome.IDENTIFICATION_FAILED
        assert len(t.presented_idts) == 2
        assert t.a is None and t.b is None and t.c is None

    def test_blocked_c_then_fallback_recovery(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        channel = Channel()
        channel.block(1, MSG_C)
        run_honest_session(reader, tag, rng, session=0)

        blocked = run_honest_session(reader, tag, rng, channel=channel, session=1)
        assert blocked.outcome is Outcome.BLOCKED
        assert blocked.events[-1].disposition == "blocked"
        assert blocked.events[-1].payload == blocked.c  # still broadcast
        # tag moved ahead, reader kept the stale pair
        assert not reader.knows(tag.current.idt)
        assert reader.knows(tag.previous.idt)

        recovery = run_honest_session(reader, tag, rng, session=2)
        assert recovery.outcome is Outcome.MUTUAL_SUCCESS
        assert len(recovery.presented_idts) == 2
        assert recovery.presented_idts[1] == recovery.events[1].payload
        assert synchronized(reader, tag)
        assert reader.knows(tag.current.idt)

    def test_blocked_idt_changes_nothing(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        snapshot = (tag.current, tag.previous)
        entry_idt = tag.current.idt
        channel = Channel()
        channel.block(0, MSG_IDT)
        t = run_honest_session(reader, tag, rng, channel=channel)
        assert t.outcome is Outcome.BLOCKED
        assert (tag.current, tag.previous) == snapshot
        assert reader.knows(entry_idt)
        assert reader.pending is None

    @pytest.mark.parametrize("label", [MSG_A, MSG_B])
    def test_blocked_challenge_half_aborts(self, label):
        reader, tags, rng = make_system()
        tag = tags[0]
        snapshot = (tag.current, tag.previous)
        channel = Channel()
        channel.block(0, label)
        t = run_honest_session(reader, tag, rng, channel=channel)
        assert t.outcome is Outcome.BLOCKED
        assert (tag.current, tag.previous) == snapshot
        assert reader.pending is None

    def test_flipped_b_rejected_by_tag(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        snapshot = (tag.current, tag.previous)
        channel = Channel()
        channel.flip(0, MSG_B, 1 << 17)
        t = run_honest_session(reader, tag, rng, channel=channel)
        assert t.outcome is Outcome.TAG_REJECTED_READER
        assert (tag.current, tag.previous) == snapshot
        assert reader.knows(tag.current.idt)  # reader entry untouched

    def test_flipped_c_rejected_by_reader(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        old_idt = tag.current.idt
        channel = Channel()
        channel.flip(0, MSG_C, 1 << 99)
        t = run_honest_session(reader, tag, rng, channel=channel)
        assert t.outcome is Outcome.READER_REJECTED_TAG
        # tag updated on send, reader refused: recoverable one-step skew
        assert reader.knows(old_idt)
        assert tag.previous.idt == old_idt
        follow = run_honest_session(reader, tag, rng, session=1)
        assert follow.outcome is Outcome.MUTUAL_SUCCESS

    def test_replaced_event_records_both_payloads(self):
        reader, tags, rng = make_system()
        channel = Channel()
        substitute = 2**128 - 1
        channel.replace(0, MSG_B, substitute)
        t = run_honest_session(reader, tags[0], rng, channel=channel)
        event = next(e for e in t.events if e.label == MSG_B)
        assert event.disposition == "replaced"
        assert event.payload == t.b
        assert event.replacement == substitute
        assert event.line(128).endswith(f"replacement={'f' * 32}")

    def test_sync_invariant_over_many_sessions(self):
        reader, tags, rng = make_system(seed=3)
        for i in range(200):
            t = run_honest_session(reader, tags[0], rng, session=i)
            assert t.outcome is Outcome.MUTUAL_SUCCESS
            assert synchronized(reader, tags[0])

    def test_update_onto_another_tags_pseudonym_is_declined(self):
        width, nonce = 16, 0x1234
        reader, (tag,) = fresh_system(WordStream(width, 3), width)
        updated = next_pair(tag.current, nonce, width)
        reader.register(DatabaseEntry(idt=updated.idt, key=0x5555, id=0x7777))
        entries = {idt: entry.words() for idt, entry in reader.entries.items()}
        t = run_honest_session(reader, tag, _FixedNonce(nonce))
        assert t.outcome is Outcome.READER_REJECTED_TAG
        assert {idt: entry.words() for idt, entry in reader.entries.items()} == entries
        assert tag.current == updated  # the tag committed when it sent C

    def test_two_tags_share_one_reader(self):
        reader, tags, rng = make_system(n_tags=2)
        for tag in tags:
            t = run_honest_session(reader, tag, rng)
            assert t.outcome is Outcome.MUTUAL_SUCCESS
        assert synchronized(reader, tags[0])
        assert synchronized(reader, tags[1])

    def test_bit_reproducible_given_seed(self):
        def transcript_lines(seed):
            reader, tags, rng = make_system(seed=seed)
            out = []
            for i in range(5):
                out.extend(run_honest_session(reader, tags[0], rng, session=i).lines(128))
            return out

        assert transcript_lines(11) == transcript_lines(11)
        assert transcript_lines(11) != transcript_lines(12)


class TestBench:
    @pytest.mark.parametrize("seed", [1.5, True, "1", None])
    def test_seed_that_is_not_an_int_refused(self, seed):
        # a float or bool seed once built the bench of int(seed) without a word
        for build in (lambda: Bench(128, seed),
                      lambda: GameEnvironment(TrialConfig("untraceability"), seed)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == f"seed must be an int, got {seed!r}"

    def test_tags_come_from_the_init_stream_in_order(self):
        bench = Bench(16, 7, n_tags=2)
        reader, tags = fresh_system(WordStream(16, derive_seed(7, "init")), 16, 2)
        assert bench.tags == tags and bench.tag is bench.tags[0]
        assert bench.reader.entries == reader.entries

    def test_run_honest_runs_the_chosen_tag_and_counts_sessions(self):
        bench = Bench(16, 7, n_tags=2)
        nonces = WordStream(16, derive_seed(7, "nonce"))
        second = bench.tags[1].current
        t = bench.run_honest(tag=bench.tags[1])
        assert (t.session, t.outcome, bench.session) == (0, Outcome.MUTUAL_SUCCESS, 1)
        assert t.a == second.key ^ nonces.next_word()
        assert bench.run_honest().presented_idts == [bench.tags[0].previous.idt]


class _FixedNonce:
    """Stands in for the reader's nonce stream: always draws the same word."""

    def __init__(self, nonce):
        self.nonce = nonce

    def next_word(self):
        return self.nonce


class _Words:
    """Stands in for a word stream: draws the given words in order."""

    def __init__(self, *words):
        self.next_word = iter(words).__next__


class TestFusedAgainstReference:
    """The reader and tag derive B, C and the next pair from one rotation
    pair each; compute_a/b/c and next_pair stay the reference formulas."""

    @staticmethod
    def cases(width, count=1000):
        ones = (1 << width) - 1
        rng = WordStream(width, derive_seed(width, "fused"))
        # weight 0 and weight L rotate by 0 mod L: the identity
        edges = [(key, nonce) for key in (0, ones) for nonce in (0, ones)]
        edges += [(0, rng.next_word()), (ones, rng.next_word())]
        edges += [(rng.next_word(), 0), (rng.next_word(), ones)]
        for key, nonce in edges + [(rng.next_word(), rng.next_word()) for _ in range(count)]:
            yield PairState(rng.next_word(), key), nonce, rng

    @pytest.mark.parametrize("width", [4, 8, 16, 128])
    def test_reader_matches_reference(self, width):
        for pair, nonce, _ in self.cases(width):
            key = pair.key
            reader = ReaderState(width)
            reader.register(DatabaseEntry(idt=pair.idt, key=key, id=1))
            challenge = reader.begin(pair.idt, _FixedNonce(nonce))
            assert challenge == (compute_a(key, nonce), compute_b(key, nonce, width))
            assert reader.pending.expected_c == compute_c(key, nonce, width)
            assert reader.complete(compute_c(key, nonce, width))
            (entry,) = reader.entries.values()
            assert PairState(entry.idt, entry.key) == next_pair(pair, nonce, width)
            assert list(reader.entries) == [entry.idt]

    @pytest.mark.parametrize("width", [4, 8, 16, 128])
    def test_tag_matches_reference(self, width):
        for pair, nonce, rng in self.cases(width):
            key = pair.key
            a, b = compute_a(key, nonce), compute_b(key, nonce, width)

            tag = TagState.fresh(id=1, pair=pair, width=width)
            wrong = b ^ (rng.next_below((1 << width) - 1) + 1)
            before = tag.words()
            assert tag.respond(False, a, wrong) is None
            assert tag.words() == before

            assert tag.respond(False, a, b) == compute_c(key, nonce, width)
            assert tag.current == next_pair(pair, nonce, width)
            assert tag.previous == pair

            # after the update, a wrong B through either pair leaves the
            # tag untouched
            before = tag.words()
            for use_previous in (False, True):
                used_key = tag.pair(use_previous).key
                b2 = compute_b(used_key, nonce, width)
                delta = rng.next_below((1 << width) - 1) + 1
                assert tag.respond(use_previous, used_key ^ nonce, b2 ^ delta) is None
                assert tag.words() == before


class TestSessionAgainstClosureOracle:
    """The session loop that rebuilds its events on demand against the
    closure-based loop that built one ChannelEvent per transmission.

    Each case runs four sessions on two identical systems, one through
    each loop, with rules drawn at random: none, no channel at all, or
    block, replace and flip on IDT, A, B and C (sometimes two at once).
    Blocked and altered C leave the tag one step ahead, so later sessions
    fall back to the previous pair; a replaced IDT or an unregistered
    tag fails identification.
    """

    ACTIONS = ("block", "replace", "flip")
    LABELS = (MSG_IDT, MSG_A, MSG_B, MSG_C)

    @staticmethod
    def system(width, seed):
        reader, tags = fresh_system(WordStream(width, seed), width, n_tags=2)
        stray = WordStream(width, seed + 2)
        pair = PairState(idt=stray.next_word(), key=stray.next_word())
        tags.append(TagState.fresh(id=stray.next_word(), pair=pair, width=width))
        return reader, tags, WordStream(width, seed + 1)

    def draw_rules(self, draw, width):
        """None (no channel), or the (action, label, word) rules of one session."""
        kind = draw.randrange(8)
        if kind == 0:
            return None
        if kind == 1:
            return []  # a channel with no rule for this session
        count = 1 if kind < 7 else 2
        return [
            (draw.choice(self.ACTIONS), draw.choice(self.LABELS), draw.getrandbits(width))
            for _ in range(count)
        ]

    @staticmethod
    def state(reader, tags):
        return (
            [(tag.current, tag.previous) for tag in tags],
            {idt: entry.words() for idt, entry in reader.entries.items()},
            reader.pending,
        )

    @staticmethod
    def run(session_fn, system, tag_index, channel, session):
        reader, tags, rng = system
        return session_fn(reader, tags[tag_index], rng, channel=channel, session=session)

    @pytest.mark.parametrize("width", [4, 8, 16, 128])
    def test_transcripts_and_state_identical(self, width):
        seen_outcomes, seen_rules, fallbacks, cases = set(), set(), 0, 0
        for case in range(1100):
            draw = random.Random(derive_seed(width, "session-oracle", case))
            seed = draw.getrandbits(32)
            new, old = self.system(width, seed), self.system(width, seed)
            cases += 1
            for session in range(4):
                rules = self.draw_rules(draw, width)
                tag_index = draw.choice((0, 0, 0, 0, 1, 2))
                channels = [None, None]
                if rules is not None:
                    channels = [Channel(), oracle_session.OracleChannel()]
                    for channel in channels:
                        channel.block(session + 1, MSG_IDT)  # another session's rule
                        for action, label, word in rules:
                            if action == "block":
                                channel.block(session, label)
                            else:
                                getattr(channel, action)(session, label, word)
                    seen_rules.update((action, label) for action, label, _ in rules)
                got = self.run(run_honest_session, new, tag_index, channels[0], session)
                want = self.run(
                    oracle_session.run_honest_session, old, tag_index, channels[1], session
                )
                assert self.state(new[0], new[1]) == self.state(old[0], old[1])
                assert got.presented_idts == want.presented_idts
                assert (got.a, got.b, got.c) == (want.a, want.b, want.c)
                assert got.outcome is want.outcome
                assert got.transmissions() == len(want.presented_idts) + (
                    want.a is not None) + (want.c is not None)
                assert got.lines(width) == want.lines(width)
                assert got.events == want.events
                seen_outcomes.add(got.outcome)
                fallbacks += (
                    len(got.presented_idts) == 2 and got.outcome is Outcome.MUTUAL_SUCCESS)
        assert cases >= 1000
        assert seen_outcomes == set(Outcome)
        assert seen_rules == {(a, label) for a in self.ACTIONS for label in self.LABELS}
        assert fallbacks > 0
