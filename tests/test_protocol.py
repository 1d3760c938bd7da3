import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle_bits as oracle
import oracle_session
import umarfid
from state_words import stored_words
from umarfid.adversary import GameEnvironment
from umarfid.harness import TrialConfig
from umarfid.protocol import (
    MSG_A,
    MSG_B,
    MSG_C,
    MSG_IDT,
    Bench,
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
from umarfid.word import derive_seed, rot, stream, to_hex


def make_system(word_len=128, seed=0, n_tags=1):
    reader, tags = fresh_system(random.Random(seed), word_len, n_tags)
    return reader, tags, random.Random(seed + 1)


def sent(t, width=128):
    """Each transmission line of a transcript, parsed into its fields."""
    return [dict(f.split("=", 1) for f in line.split()) for line in t.lines(width)[:-1]]


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

    def test_fresh_tag_has_one_pair(self):
        tag = self.fresh_tag()
        assert tag.current.idt == 0x11
        assert tag.previous.idt == 0x11  # never updated

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
        rng = random.Random(7)
        rejected = 0
        trials = 300
        for _ in range(trials):
            pair = PairState(idt=rng.getrandbits(16), key=rng.getrandbits(16))
            tag = TagState.fresh(id=rng.getrandbits(16), pair=pair, width=16)
            n = rng.getrandbits(16)
            a = compute_a(pair.key, n)
            b = compute_b(pair.key, n, 16)
            flip = 1 << rng.randrange(16)
            if tag.respond(False, a, b ^ flip) is None:
                rejected += 1
        assert rejected == trials


class TestStateSizes:
    def test_tag_holds_five_words(self):
        _, tags, _ = make_system()
        assert len(stored_words(tags[0])) == 5

    def test_database_entry_holds_three_words(self):
        entry = DatabaseEntry(idt=1, key=2, id=3)
        assert len(stored_words(entry)) == 3


class TestRecords:
    def test_pairs_are_immutable(self):
        pair = PairState(1, 2)
        with pytest.raises(AttributeError):
            pair.key = 3
        assert tuple(pair) == (1, 2)

    def test_outcomes_are_the_strings_records_print(self):
        outcomes = {value for name, value in vars(umarfid.Outcome).items() if name.isupper()}
        assert outcomes == {"mutual-success", "reader-rejected-tag", "tag-rejected-reader",
                            "identification-failed", "blocked"}
        assert all(type(outcome) is str for outcome in outcomes)
        assert umarfid.Outcome.MUTUAL_SUCCESS == "mutual-success"


class TestReader:
    def test_unknown_pseudonym(self):
        reader, _, rng = make_system()
        assert reader.begin(0, rng) is None
        assert reader.pending is None

    def test_begin_issues_consistent_challenge(self):
        reader, tags, rng = make_system()
        idt = tags[0].current.idt
        a, b = reader.begin(idt, rng)
        key = reader.pending.entry.key
        assert compute_b(key, a ^ key) == b
        assert reader.pending.expected_c == compute_c(key, a ^ key)

    def test_begin_twice_without_completion(self):
        # the first challenge is never answered; the next session needs no cleanup
        reader, tags, rng = make_system()
        tag = tags[0]
        entry = reader.entries[tag.current.idt]
        before = stored_words(entry)
        reader.begin(tag.current.idt, rng)
        assert stored_words(entry) == before
        t = run_honest_session(reader, tag, rng, session=1)
        assert t.outcome == Outcome.MUTUAL_SUCCESS
        assert synchronized(reader, tag)

    def test_a_second_begin_replaces_the_first(self):
        # the reader has one open session: the newer challenge drops the older
        for answered, accepted in ((0, False), (1, True)):
            reader, tags, rng = make_system()
            idt = tags[0].current.idt
            key = reader.entries[idt].key
            challenges = [reader.begin(idt, rng), reader.begin(idt, rng)]
            assert challenges[0] != challenges[1]
            a = challenges[answered][0]
            assert reader.complete(compute_c(key, a ^ key, 128)) is accepted
            assert reader.pending is None

    def test_complete_without_pending_is_fatal(self):
        reader, _, _ = make_system()
        with pytest.raises(RuntimeError):
            reader.complete(0)

    def test_complete_updates_entry_and_rekeys_lookup(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        old_idt = tag.current.idt
        a, b = reader.begin(old_idt, rng)
        c = tag.respond(False, a, b)
        assert reader.complete(c) is True
        assert old_idt not in reader.entries
        assert tag.current.idt in reader.entries

    def test_complete_rejects_corrupted_response(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        idt = tag.current.idt
        a, b = reader.begin(idt, rng)
        c = tag.respond(False, a, b)
        assert reader.complete(c ^ 1) is False
        assert idt in reader.entries  # entry untouched
        assert reader.pending is None

    def test_blocked_response_leaves_entry(self):
        # the tag answers and updates, its C never reaches the reader
        reader, tags, rng = make_system()
        tag = tags[0]
        idt = tag.current.idt
        before = stored_words(reader.entries[idt])
        a, b = reader.begin(idt, rng)
        assert tag.respond(False, a, b) is not None
        assert stored_words(reader.entries[idt]) == before
        ahead = tag.current.idt
        t = run_honest_session(reader, tag, rng, session=1)
        assert t.outcome == Outcome.MUTUAL_SUCCESS
        assert t.presented_idts == [ahead, idt]  # recovered through the previous pair

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
        assert [stored_words(tag) for tag in tags] == [
            (0x11, 0xAA, 0x22, 0xAA, 0x22), (0x33, 0xBB, 0x44, 0xBB, 0x44)]
        assert {idt: stored_words(entry) for idt, entry in reader.entries.items()} == {
            0xAA: (0xAA, 0x22, 0x11), 0xBB: (0xBB, 0x44, 0x33)}

    @pytest.mark.parametrize("n_tags, message", [
        (0, "n_tags must be >= 1, got 0"),
        (-1, "n_tags must be >= 1, got -1"),
        (True, "n_tags must be an int, got True"),
        (17, r"n_tags must be <= 2\*\*4, got 17"),
    ])
    def test_fresh_system_refuses_a_tag_count_it_cannot_register(self, n_tags, message):
        # only 2**4 pseudonyms exist at L=4, so a 17th tag would redraw
        # forever; this stream runs dry (StopIteration) after 48 draws
        init = _Words(*range(16), *range(16), *range(16))
        with pytest.raises(ValueError, match=f"^{message}$"):
            fresh_system(init, 4, n_tags)
        with pytest.raises(ValueError, match="^n_tags must be >= 1, got 0$"):
            Bench(4, 0, n_tags=0)

    def test_every_pseudonym_of_a_width_can_be_registered(self):
        reader, tags = fresh_system(stream(0, "init"), 4, n_tags=16)
        assert sorted(reader.entries) == sorted(tag.current.idt for tag in tags) == list(range(16))
        assert len(Bench(4, 0, n_tags=16).reader.entries) == 16

    def test_determinism(self):
        first = make_system(seed=5)
        second = make_system(seed=5)
        idt = first[1][0].current.idt
        assert first[0].begin(idt, first[2]) == second[0].begin(idt, second[2])


class TestHonestSession:
    def test_mutual_success(self):
        reader, tags, rng = make_system()
        t = run_honest_session(reader, tags[0], rng)
        assert t.outcome == Outcome.MUTUAL_SUCCESS
        assert synchronized(reader, tags[0])
        entry = reader.entries[tags[0].current.idt]
        assert entry.key == tags[0].current.key

    def test_present_after_session_is_the_updated_pseudonym(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        pair_used = tag.current
        t = run_honest_session(reader, tag, rng)
        nonce = t.a ^ pair_used.key
        assert tag.current.idt == next_pair(pair_used, nonce).idt
        assert tag.previous.idt == pair_used.idt

    def test_b_xor_next_pseudonym_is_a_key_constant(self):
        # Transcript identity on every successful session: B xor the next
        # pseudonym equals rot(K, K) xor K for the pair the session used.
        # Every fifth session's C is blocked, so the next one identifies
        # through the fallback and uses the previous pair.
        reader, tags, rng = make_system(seed=11)
        tag = tags[0]
        successes = 0
        for session in range(1250):
            rules = {MSG_C: None} if session % 5 == 4 else None
            pairs = (tag.current, tag.previous)
            t = run_honest_session(reader, tag, rng, rules, session=session)
            if t.outcome != Outcome.MUTUAL_SUCCESS:
                assert t.outcome == Outcome.BLOCKED
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
        assert [f["message"] for f in sent(t)] == [MSG_IDT, MSG_A, MSG_B, MSG_C]
        assert all(f["disposition"] == "delivered" for f in sent(t))
        assert [f["direction"] for f in sent(t)] == [
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
            assert t.outcome == Outcome.MUTUAL_SUCCESS
            assert t.b ^ tags[0].current.idt == rot(key, key, 128) ^ key

    def test_unregistered_tag_fails_identification(self):
        reader, _, rng = make_system()
        ones = 2**128 - 1
        stray = TagState.fresh(id=0, pair=PairState(idt=ones, key=ones), width=128)
        t = run_honest_session(reader, stray, rng)
        assert t.outcome == Outcome.IDENTIFICATION_FAILED
        assert len(t.presented_idts) == 2
        assert t.a is None and t.b is None and t.c is None

    def test_blocked_c_then_fallback_recovery(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        run_honest_session(reader, tag, rng, session=0)

        blocked = run_honest_session(reader, tag, rng, {MSG_C: None}, session=1)
        assert blocked.outcome == Outcome.BLOCKED
        assert sent(blocked)[-1]["disposition"] == "blocked"
        assert sent(blocked)[-1]["word"] == to_hex(blocked.c, 128)  # still broadcast
        # tag moved ahead, reader kept the stale pair
        assert tag.current.idt not in reader.entries
        assert tag.previous.idt in reader.entries

        recovery = run_honest_session(reader, tag, rng, session=2)
        assert recovery.outcome == Outcome.MUTUAL_SUCCESS
        assert len(recovery.presented_idts) == 2
        assert sent(recovery)[1]["word"] == to_hex(recovery.presented_idts[1], 128)
        assert synchronized(reader, tag)
        assert tag.current.idt in reader.entries

    def test_blocked_idt_changes_nothing(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        snapshot = (tag.current, tag.previous)
        entry_idt = tag.current.idt
        t = run_honest_session(reader, tag, rng, {MSG_IDT: None})
        assert t.outcome == Outcome.BLOCKED
        assert (tag.current, tag.previous) == snapshot
        assert entry_idt in reader.entries
        assert reader.pending is None

    @pytest.mark.parametrize("label", [MSG_A, MSG_B])
    def test_blocked_challenge_half_aborts(self, label):
        reader, tags, rng = make_system()
        tag = tags[0]
        snapshot = (tag.current, tag.previous)
        before = stored_words(reader.entries[tag.current.idt])
        t = run_honest_session(reader, tag, rng, {label: None})
        assert t.outcome == Outcome.BLOCKED
        assert (tag.current, tag.previous) == snapshot
        assert stored_words(reader.entries[tag.current.idt]) == before
        t = run_honest_session(reader, tag, rng, session=1)
        assert t.outcome == Outcome.MUTUAL_SUCCESS
        assert synchronized(reader, tag)

    def test_flipped_b_rejected_by_tag(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        snapshot = (tag.current, tag.previous)
        t = run_honest_session(reader, tag, rng, {MSG_B: 1 << 17})
        assert t.outcome == Outcome.TAG_REJECTED_READER
        assert (tag.current, tag.previous) == snapshot
        assert tag.current.idt in reader.entries  # reader entry untouched

    def test_flipped_c_rejected_by_reader(self):
        reader, tags, rng = make_system()
        tag = tags[0]
        old_idt = tag.current.idt
        t = run_honest_session(reader, tag, rng, {MSG_C: 1 << 99})
        assert t.outcome == Outcome.READER_REJECTED_TAG
        # tag updated on send, reader refused: recoverable one-step skew
        assert old_idt in reader.entries
        assert tag.previous.idt == old_idt
        follow = run_honest_session(reader, tag, rng, session=1)
        assert follow.outcome == Outcome.MUTUAL_SUCCESS

    def test_replaced_event_records_both_payloads(self):
        reader, tags, rng = make_system()
        t = run_honest_session(reader, tags[0], rng, {MSG_B: 1 << 127})
        b = next(f for f in sent(t) if f["message"] == MSG_B)
        assert b["disposition"] == "replaced"
        assert b["word"] == to_hex(t.b, 128)
        flipped = t.b ^ 1 << 127
        assert b["replacement"] == to_hex(flipped, 128)

    def test_zero_flip_mask_is_a_replacement_not_a_block(self):
        reader, tags, rng = make_system()
        t = run_honest_session(reader, tags[0], rng, {MSG_B: 0})
        assert t.outcome == Outcome.MUTUAL_SUCCESS
        word = to_hex(t.b, 128)
        assert t.lines(128)[2].endswith(
            f"message=B word={word} disposition=replaced replacement={word}")

    @pytest.mark.parametrize("rule_during_run", [True, False])
    def test_rule_placed_after_the_run_leaves_the_transcript(self, rule_during_run):
        # lines are built when asked for, so neither transcript is printed
        # before the later rules are placed into the very dict the run was
        # given, an empty one when it had no rule
        def session():
            reader, tags, rng = make_system()
            rules = {MSG_B: 1 << 5} if rule_during_run else {}
            return run_honest_session(reader, tags[0], rng, rules), rules

        later, rules = session()
        rules[MSG_B] = None
        rules[MSG_IDT] = 1
        unchanged, _ = session()
        assert later.lines(128) == unchanged.lines(128)
        # a flipped B is rejected by the tag, so no C follows it
        expected = ["delivered", "delivered", "replaced"] if rule_during_run else ["delivered"] * 4
        assert [f["disposition"] for f in sent(later)] == expected

    @pytest.mark.parametrize("width, rules, named", [
        (4, {MSG_C: 16}, "'C': 16 at width 4"),  # a 5-bit C at L=4
        (8, {MSG_C: -1}, "'C': -1 at width 8"),
        (8, {"c": None}, "'c': None at width 8"),  # a typo would block nothing
    ])
    def test_a_rule_outside_its_domain_is_refused_on_entry(self, width, rules, named):
        reader, tags, rng = make_system(word_len=width)
        before = stored_words(tags[0]), rng.getstate()
        with pytest.raises(ValueError, match=f"^rule {named}; need IDT, A, B or C and None "
                           fr"or a mask in \[0, 2\*\*{width}\)$"):
            run_honest_session(reader, tags[0], rng, rules)
        assert (stored_words(tags[0]), rng.getstate()) == before

    def test_sync_invariant_over_many_sessions(self):
        reader, tags, rng = make_system(seed=3)
        for i in range(200):
            t = run_honest_session(reader, tags[0], rng, session=i)
            assert t.outcome == Outcome.MUTUAL_SUCCESS
            assert synchronized(reader, tags[0])

    def test_update_onto_another_tags_pseudonym_is_declined(self):
        width, nonce = 16, 0x1234
        reader, (tag,) = fresh_system(random.Random(3), width)
        updated = next_pair(tag.current, nonce, width)
        reader.register(DatabaseEntry(idt=updated.idt, key=0x5555, id=0x7777))
        entries = {idt: stored_words(entry) for idt, entry in reader.entries.items()}
        t = run_honest_session(reader, tag, _FixedNonce(nonce))
        assert t.outcome == Outcome.READER_REJECTED_TAG
        assert {idt: stored_words(entry) for idt, entry in reader.entries.items()} == entries
        assert tag.current == updated  # the tag committed when it sent C
        # Stuck: the reader knows the tag's current pseudonym under the other
        # entry's key, so the tag never falls back to the pair the reader holds.
        assert_stuck(reader, tag, random.Random(4))

    def test_fixed_point_update_with_blocked_c_is_stuck(self):
        # IDT' = K xor rot(N, N) equals IDT for exactly one nonce, since
        # N -> rot(N, N) is a permutation of the words
        width = 16
        reader, (tag,) = fresh_system(random.Random(3), width)
        used = tag.current
        fixed = [n for n in range(1 << width) if rot(n, n, width) == used.key ^ used.idt]
        assert len(fixed) == 1
        t = run_honest_session(reader, tag, _FixedNonce(fixed[0]), {MSG_C: None})
        assert t.outcome == Outcome.BLOCKED and t.c is not None
        assert tag.current == next_pair(used, fixed[0], width)
        assert tag.current.idt == tag.previous.idt == used.idt
        entry = reader.entries[used.idt]
        assert (entry.idt, entry.key) == used  # the reader kept the used pair
        # the reader answers the current pseudonym with the key the tag left behind
        assert_stuck(reader, tag, random.Random(4))

    def test_two_tags_share_one_reader(self):
        reader, tags, rng = make_system(n_tags=2)
        for tag in tags:
            t = run_honest_session(reader, tag, rng)
            assert t.outcome == Outcome.MUTUAL_SUCCESS
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
        reader, tags = fresh_system(stream(7, "init"), 16, 2)
        assert list(map(stored_words, bench.tags)) == list(map(stored_words, tags))
        assert bench.tag is bench.tags[0]
        assert {idt: stored_words(e) for idt, e in bench.reader.entries.items()} == {
            idt: stored_words(e) for idt, e in reader.entries.items()}

    def test_run_honest_runs_the_chosen_tag_and_counts_sessions(self):
        bench = Bench(16, 7, n_tags=2)
        nonces = stream(7, "nonce")
        second = bench.tags[1].current
        t = bench.run_honest(tag=bench.tags[1])
        assert (t.session, t.outcome, bench.session) == (0, Outcome.MUTUAL_SUCCESS, 1)
        assert t.a == second.key ^ nonces.getrandbits(16)
        assert bench.run_honest().presented_idts == [bench.tags[0].previous.idt]


def assert_stuck(reader, tag, rng):
    """Sessions 1 to 3: the tag rejects the reader after one pseudonym,
    while synchronized holds through the tag's previous pair."""
    for session in (1, 2, 3):
        assert synchronized(reader, tag)
        t = run_honest_session(reader, tag, rng, session=session)
        assert t.outcome == Outcome.TAG_REJECTED_READER
        assert len(t.presented_idts) == 1
    assert synchronized(reader, tag)


class _FixedNonce:
    """Stands in for the reader's nonce stream: always draws the same word."""

    def __init__(self, nonce):
        self.nonce = nonce

    def getrandbits(self, width):
        return self.nonce


class _Words:
    """Stands in for a word stream: draws the given words in order."""

    def __init__(self, *words):
        self.words = iter(words)

    def getrandbits(self, width):
        return next(self.words)


class TestFusedAgainstReference:
    """The reader and tag derive B, C and the next pair from one rotation
    pair each; compute_a/b/c and next_pair stay the reference formulas."""

    @staticmethod
    def cases(width, count=1000):
        ones = (1 << width) - 1
        rng = stream(width, "fused")
        # weight 0 and weight L rotate by 0 mod L: the identity
        edges = [(key, nonce) for key in (0, ones) for nonce in (0, ones)]
        edges += [(0, rng.getrandbits(width)), (ones, rng.getrandbits(width))]
        edges += [(rng.getrandbits(width), 0), (rng.getrandbits(width), ones)]
        for key, nonce in edges + [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(count)]:
            yield PairState(rng.getrandbits(width), key), nonce, rng

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
            wrong = b ^ (rng.randrange((1 << width) - 1) + 1)
            before = stored_words(tag)
            assert tag.respond(False, a, wrong) is None
            assert stored_words(tag) == before

            assert tag.respond(False, a, b) == compute_c(key, nonce, width)
            assert tag.current == next_pair(pair, nonce, width)
            assert tag.previous == pair

            # after the update, a wrong B through either pair leaves the
            # tag untouched
            before = stored_words(tag)
            for use_previous in (False, True):
                used_key = (tag.previous if use_previous else tag.current).key
                b2 = compute_b(used_key, nonce, width)
                delta = rng.randrange((1 << width) - 1) + 1
                assert tag.respond(use_previous, used_key ^ nonce, b2 ^ delta) is None
                assert stored_words(tag) == before


class TestSessionAgainstClosureOracle:
    """The session loop that prints its lines from its words and rules against
    the closure-based loop that built one event per transmission.

    Each case runs four sessions on two identical systems, one through
    each loop, with rules drawn at random: none at all, an empty set, or
    block and flip on IDT, A, B and C (sometimes two at once). The package
    gets the session's {label: mask} dict; the oracle gets an OracleChannel
    that also holds a rule for the next session, which must not act.
    Blocked and altered C leave the tag one step ahead, so later sessions
    fall back to the previous pair; a flipped IDT or an unregistered
    tag fails identification.
    """

    ACTIONS = ("block", "flip")
    LABELS = (MSG_IDT, MSG_A, MSG_B, MSG_C)

    @staticmethod
    def system(width, seed):
        reader, tags = fresh_system(random.Random(seed), width, n_tags=2)
        stray = random.Random(seed + 2)
        pair = PairState(idt=stray.getrandbits(width), key=stray.getrandbits(width))
        tags.append(TagState.fresh(id=stray.getrandbits(width), pair=pair, width=width))
        return reader, tags, random.Random(seed + 1)

    def draw_rules(self, draw, width):
        """None (no rules, no channel), or the (action, label, word) rules of one session."""
        kind = draw.randrange(8)
        if kind == 0:
            return None
        if kind == 1:
            return []  # an empty dict; a channel with no rule for this session
        count = 1 if kind < 7 else 2
        return [
            (draw.choice(self.ACTIONS), draw.choice(self.LABELS), draw.getrandbits(width))
            for _ in range(count)
        ]

    @staticmethod
    def state(reader, tags):
        return (
            [(tag.current, tag.previous) for tag in tags],
            {idt: stored_words(entry) for idt, entry in reader.entries.items()},
            reader.pending and (stored_words(reader.pending.entry), *reader.pending[1:]),
        )

    @staticmethod
    def run(session_fn, system, tag_index, rules, session):
        reader, tags, rng = system
        return session_fn(reader, tags[tag_index], rng, rules, session=session)

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
                masks = channel = None
                if rules is not None:
                    masks, channel = {}, oracle_session.OracleChannel()
                    channel.block(session + 1, MSG_IDT)  # another session's rule
                    for action, label, word in rules:
                        masks[label] = None if action == "block" else word
                        if action == "block":
                            channel.block(session, label)
                        else:
                            channel.flip(session, label, word)
                    seen_rules.update((action, label) for action, label, _ in rules)
                got = self.run(run_honest_session, new, tag_index, masks, session)
                want = self.run(
                    oracle_session.run_honest_session, old, tag_index, channel, session
                )
                assert self.state(new[0], new[1]) == self.state(old[0], old[1])
                assert got.presented_idts == want.presented_idts
                assert (got.a, got.b, got.c) == (want.a, want.b, want.c)
                assert got.outcome == want.outcome
                assert got.transmissions() == len(want.presented_idts) + (
                    want.a is not None) + (want.c is not None)
                assert got.lines(width) == want.lines(width)
                seen_outcomes.add(got.outcome)
                fallbacks += (
                    len(got.presented_idts) == 2 and got.outcome == Outcome.MUTUAL_SUCCESS)
        assert cases >= 1000
        assert seen_outcomes == {
            Outcome.MUTUAL_SUCCESS, Outcome.READER_REJECTED_TAG, Outcome.TAG_REJECTED_READER,
            Outcome.IDENTIFICATION_FAILED, Outcome.BLOCKED}
        assert seen_rules == {(a, label) for a in self.ACTIONS for label in self.LABELS}
        assert fallbacks > 0
