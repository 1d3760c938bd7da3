"""Executable attacks against the UMA-RFID protocol.

Five procedures, each returning a report the harness verifies against
the simulator's hidden state (a report never self-certifies):

  * distinguish_strategy  - traceability: two eavesdrops plus one blocked
    C give a fingerprint that recognizes the victim tag in the challenge.
  * attack_full_disclosure - the current key is the XOR of three public
    words from two consecutive sessions.
  * attack_clone - extends disclosure to the full next pair and writes
    it into a blank tag that then authenticates as the original.
  * attack_desync_mitm - impersonates each party to the other within one
    session, feeding them different nonces; their updates diverge and
    never re-meet.
  * attack_desync_bitflip - replays an old challenge XORed with weight-2
    masks against the tag's previous pair until one sticks; the tag
    updates, the reader does not, and the old-pair fallback is burned.

Everything an attacker computes here comes from public transcripts;
blocks marked "ground truth" are harness-side verification reading
simulator state the attacker could not see.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .adversary import GameEnvironment
from .protocol import MSG_C, Bench, Outcome, PairState, TagState, compute_b, compute_c, next_pair
from .word import WordStream, rot


def recover_key(a_n: int, b_n: int, idt_next: int) -> int:
    """Current secret key from three public words of sessions n and n+1.

    A_n xor B_n xor IDT_{n+1} telescopes to rot(K_n, K_n) xor N_n, which
    is exactly the updated key. Pure formula; exact, not probabilistic.
    """
    return a_n ^ b_n ^ idt_next


class AttackReport(NamedTuple):
    """Outcome of one attack trial, verified against ground truth."""

    attack: str
    success: bool
    recovered_key: int | None = None
    recovered_nonce: int | None = None
    cloned_pair: PairState | None = None
    c1_rounds: int | None = None  # mask redraw rounds (bit-flip attack)
    c2_trials: int | None = None  # literal probes across all rounds
    a_mask: int | None = None  # accepted weight-2 mask applied to A
    b_mask: int | None = None  # accepted weight-2 mask applied to B
    hw_matched: bool | None = None  # masked nonce kept its hamming weight
    synchronized: bool | None = None  # post-attack tag/reader sync state
    followup_outcomes: tuple[str, ...] | None = None
    detail: str = ""


def distinguish_strategy(env: GameEnvironment) -> int:
    """Traceability game strategy: budgets (execute=2, send=1).

    Learning: eavesdrop two consecutive sessions of tag 0, blocking the
    final C of the second so the reader keeps the stale pair and tag 0
    must fall back to it later. B and the next pseudonym share the same
    rot(N, N) term, so their XOR is a nonce-free fingerprint of tag 0:
    rot(K, K) xor K. Challenge: if any revealed pseudonym reproduces
    that fingerprint against the stored B, the challenge tag is tag 0.

    With no send budget the block is skipped and the predicted pseudonym
    is consumed before the challenge; fewer than two executes leave no
    fingerprint. Either way the strategy degrades to a constant guess.
    """
    if env.config.execute_budget < 2:
        env.test()
        return 1
    first = env.execute(0)
    if env.config.send_budget > 0:
        env.send(env.next_session, MSG_C)
    second = env.execute(0)
    fingerprint = first.b ^ second.presented_idts[0]
    for pseudonym in env.test():
        if first.b ^ pseudonym == fingerprint:
            return 0
    return 1


def attack_full_disclosure(bench: Bench) -> AttackReport:
    """Recover the tag's live secret key from two eavesdropped sessions."""
    first = bench.run_honest()
    # Ground truth: the key the next session will use, straight from tag memory.
    true_key = bench.tag.current.key
    second = bench.run_honest()
    if first.outcome is not Outcome.MUTUAL_SUCCESS or second.outcome is not Outcome.MUTUAL_SUCCESS:
        return AttackReport(attack="full-disclosure", success=False, detail="observation failed")
    recovered = recover_key(first.a, first.b, second.presented_idts[0])
    return AttackReport(
        attack="full-disclosure",
        success=recovered == true_key,
        recovered_key=recovered,
    )


def attack_clone(bench: Bench) -> AttackReport:
    """Build a working duplicate tag from two eavesdropped sessions.

    Recovers the key, then the second session's nonce from A, confirms
    both against the public B, computes the post-session pair and writes
    it into a blank tag. The bench then authenticates the clone against
    the genuine reader.
    """
    first = bench.run_honest()
    second = bench.run_honest()
    if first.outcome is not Outcome.MUTUAL_SUCCESS or second.outcome is not Outcome.MUTUAL_SUCCESS:
        return AttackReport(attack="clone", success=False, detail="observation failed")

    session_idt = second.presented_idts[0]
    key = recover_key(first.a, first.b, session_idt)
    nonce = key ^ second.a
    if compute_b(key, nonce, bench.word_len) != second.b:
        return AttackReport(
            attack="clone",
            success=False,
            recovered_key=key,
            recovered_nonce=nonce,
            detail="challenge cross-check failed, observation corrupted",
        )
    cloned = next_pair(PairState(idt=session_idt, key=key), nonce, bench.word_len)

    # Ground truth: the clone must hold exactly what the real tag holds now.
    pair_matches = cloned == bench.tag.current

    verification = bench.run_honest(tag=TagState.fresh(id=0, pair=cloned, width=bench.word_len))
    return AttackReport(
        attack="clone",
        success=pair_matches and verification.outcome is Outcome.MUTUAL_SUCCESS,
        recovered_key=key,
        recovered_nonce=nonce,
        cloned_pair=cloned,
    )


def attack_desync_mitm(bench: Bench, followups: int = 3) -> AttackReport:
    """Desynchronize tag and reader by splitting one session in two.

    After one eavesdropped session the attacker knows the live key. In
    the next session it intercepts the reader's challenge, answers the
    reader itself with a correctly forged C, and challenges the tag with
    a different nonce of its own. Both parties accept and update, but
    under different nonces, leaving no shared pair. The old-pair
    fallback cannot recover because the tag's previous pair is the one
    the reader just replaced. Success is the claim itself: no shared
    pair remains and no follow-up session authenticates.
    """
    first = bench.run_honest()
    if first.outcome is not Outcome.MUTUAL_SUCCESS:
        return AttackReport(attack="desync-mitm", success=False, detail="observation failed")

    # Session under attack: tag broadcasts its pseudonym, reader answers,
    # attacker owns the radio in between.
    idt = bench.tag.present()
    key = recover_key(first.a, first.b, idt)
    challenge = bench.reader.begin(idt, bench.nonce_rng)
    if challenge is None:
        return AttackReport(attack="desync-mitm", success=False, detail="reader lookup miss")
    a_genuine, b_genuine = challenge

    width = bench.word_len
    genuine_nonce = key ^ a_genuine
    if compute_b(key, genuine_nonce, width) != b_genuine:
        bench.reader.abandon()
        return AttackReport(
            attack="desync-mitm",
            success=False,
            recovered_key=key,
            detail="challenge cross-check failed, observation corrupted",
        )

    # Attacker-chosen nonce for the tag; must differ from the genuine one.
    fake_nonce = bench.adv_rng.next_word()
    while fake_nonce == genuine_nonce:
        fake_nonce = bench.adv_rng.next_word()

    c_from_tag = bench.tag.respond(
        False, key ^ fake_nonce, compute_b(key, fake_nonce, width)
    )
    tag_accepted = c_from_tag is not None  # tag updates under fake_nonce
    reader_accepted = bench.reader.complete(compute_c(key, genuine_nonce, width))
    bench.session += 1

    # Ground truth: no pair shared anymore, and recovery stays impossible.
    still_synchronized = bench.synchronized()
    outcomes = bench.followup_outcomes(followups)
    return AttackReport(
        attack="desync-mitm",
        success=(
            tag_accepted
            and reader_accepted
            and not still_synchronized
            and str(Outcome.MUTUAL_SUCCESS) not in outcomes
        ),
        recovered_key=key,
        recovered_nonce=genuine_nonce,
        synchronized=still_synchronized,
        followup_outcomes=outcomes,
    )


def weight2_words(width: int) -> Iterator[int]:
    """Every width-bit word with exactly two set bits.

    Fixed enumeration order, lexicographic by (lower set bit, upper set
    bit), so attempt counts are reproducible. C(width, 2) words total.
    """
    for lo in range(width):
        for hi in range(lo + 1, width):
            yield (1 << lo) | (1 << hi)


def weight2_count(width: int) -> int:
    """Size of the per-round mask search space: C(width, 2)."""
    return width * (width - 1) // 2


def weight2_index(mask: int, width: int) -> int | None:
    """Position of mask in weight2_words(width), or None if not weight 2.

    Closed form of the (lo, hi) order: the rows for lower bits below lo
    hold lo*(2*width - lo - 1)/2 masks, then hi - lo - 1 more precede it.
    """
    if mask.bit_count() != 2:
        return None
    lo = (mask & -mask).bit_length() - 1
    hi = mask.bit_length() - 1
    return lo * (2 * width - lo - 1) // 2 + (hi - lo - 1)


def weight2_mask(index: int, width: int) -> int:
    """Inverse of weight2_index: the mask at position index."""
    lo = 0
    while index >= width - 1 - lo:
        index -= width - 1 - lo
        lo += 1
    return (1 << lo) | (1 << (lo + 1 + index))


def random_weight2(rng: WordStream, width: int) -> int:
    """Uniform word of hamming weight exactly 2."""
    lo = rng.next_below(width)
    hi = rng.next_below(width)
    while hi == lo:
        hi = rng.next_below(width)
    return (1 << lo) | (1 << hi)


def required_b_mask(nonce: int, a_mask: int, width: int) -> int:
    """Analysis side: the unique B-mask the tag would accept.

    Masking A by a_mask shifts the nonce the tag recovers to
    N xor a_mask; the B equality then demands exactly
    rot(N, N) xor rot(N xor a_mask, N xor a_mask) as the B-mask.
    """
    altered = nonce ^ a_mask
    return rot(nonce, nonce, width) ^ rot(altered, altered, width)


def bitflip_round_admits(nonce: int, a_mask: int, width: int) -> bool:
    """Analysis side: does any weight-2 B-mask exist for this round?

    True exactly when the required mask has weight 2: always when mask_a
    flips one set and one clear nonce bit (probability exactly 1/2), else
    by a coincidence of rotations, common at small widths. Over all
    (N, mask_a) pairs: 11/12 at L=4, 19/32 at L=8, 525/1024 at L=12.
    """
    return required_b_mask(nonce, a_mask, width).bit_count() == 2


def attack_desync_bitflip(
    bench: Bench, c1_round_cap: int = 64, followups: int = 3
) -> AttackReport:
    """Desynchronize with weight-2 replay masks, no key knowledge needed.

    Captures one full honest session, then poses as a reader. Feigning
    non-recognition of the tag's fresh pseudonym forces it onto the pair
    the captured session used. Each round the attacker replays
    A xor mask_a with B xor mask_b for every weight-2 mask_b in fixed
    order; when the tag answers, it has updated off its previous pair
    while the reader kept its state, and no shared pair remains. A round
    whose mask_a changes the nonce's weight (half of them) admits a mask_b
    only by a coincidence that is rare at large widths, so about 2 rounds
    are expected there, capped as a safety net (bitflip_round_admits).

    The tag evaluates each round's sweep once (TagState.respond_sweep),
    which tells the attacker only which probe of its order would have
    been answered. c2_trials still counts the probes the literal sweep
    sends: up to and including the answered one, or all C(L, 2) of a
    round without an answer.
    """
    key_before = bench.tag.current.key  # ground truth snapshot
    captured = bench.run_honest()
    if captured.outcome is not Outcome.MUTUAL_SUCCESS:
        return AttackReport(attack="desync-bitflip", success=False, detail="observation failed")
    nonce_truth = captured.a ^ key_before  # ground truth, attacker never sees it

    width = bench.word_len
    space = weight2_count(width)
    tag = bench.tag
    c1_rounds = 0
    c2_trials = 0
    accepted: tuple[int, int] | None = None

    def index_of(mask: int) -> int | None:
        return weight2_index(mask, width)

    while accepted is None and c1_rounds < c1_round_cap:
        c1_rounds += 1
        a_mask = random_weight2(bench.adv_rng, width)
        # Rogue-reader dance: refuse the current pseudonym so the tag
        # falls back to the pair the captured session used.
        tag.present()
        replayed = tag.present(use_previous=True)
        if replayed != captured.presented_idts[0]:
            return AttackReport(
                attack="desync-bitflip",
                success=False,
                c1_rounds=c1_rounds,
                c2_trials=c2_trials + 1,  # the probe that found out
                detail="tag no longer holds the captured pair",
            )
        state_before = (tag.current, tag.previous)
        hit = tag.respond_sweep(True, captured.a ^ a_mask, captured.b, index_of)
        if hit is None:
            # A rejected sweep must be side-effect free or the next
            # round would search against a different pair.
            if (tag.current, tag.previous) != state_before:
                raise RuntimeError("tag state changed on a rejected probe")
            c2_trials += space
            continue
        index, _ = hit
        c2_trials += index + 1
        accepted = (a_mask, weight2_mask(index, width))

    if accepted is None:
        return AttackReport(
            attack="desync-bitflip",
            success=False,
            c1_rounds=c1_rounds,
            c2_trials=c2_trials,
            detail=f"no accepting mask within {c1_round_cap} rounds",
        )

    a_mask, b_mask = accepted
    # Ground truth: weight condition of the accepted round and post-state.
    hw_matched = (nonce_truth ^ a_mask).bit_count() == nonce_truth.bit_count()
    still_synchronized = bench.synchronized()
    outcomes = bench.followup_outcomes(followups)
    return AttackReport(
        attack="desync-bitflip",
        success=not still_synchronized and str(Outcome.MUTUAL_SUCCESS) not in outcomes,
        c1_rounds=c1_rounds,
        c2_trials=c2_trials,
        a_mask=a_mask,
        b_mask=b_mask,
        hw_matched=hw_matched,
        synchronized=still_synchronized,
        followup_outcomes=outcomes,
    )


# an AttackReport's record keys in order with their kinds (words as hex); every format renders from it
ATTACK_FIELDS = {
    "trial": int, "attack": str, "success": bool, "recovered_key": str, "recovered_nonce": str,
    "cloned_idt": str, "cloned_key": str, "c1_rounds": int, "c2_trials": int, "a_mask": str,
    "b_mask": str, "hw_matched": bool, "synchronized": bool, "followups": str, "detail": str,
}


def attack_columns(reports, trials, width: int) -> list:
    """Record values of reports for trials, a column per ATTACK_FIELDS key;
    a word becomes width // 4 hex digits (to_hex's), None stays None."""
    (attack, success, key, nonce, pair, c1_rounds, c2_trials, a_mask, b_mask,
     hw_matched, synchronized, followups, detail) = zip(*reports)
    size, odd = (width + 7) // 8, width % 8 // 4  # bytes, and a nibble to drop

    def hx(words):
        return [None if w is None else w.to_bytes(size, "big").hex()[odd:] for w in words]

    return [
        trials, attack, success, hx(key), hx(nonce),
        hx([p and p.idt for p in pair]), hx([p and p.key for p in pair]),
        c1_rounds, c2_trials, hx(a_mask), hx(b_mask), hw_matched, synchronized,
        [None if f is None else ";".join(f) for f in followups], detail,
    ]
