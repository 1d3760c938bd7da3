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

import functools
import random
from typing import NamedTuple

from .adversary import GameEnvironment
from .protocol import MSG_C, Bench, Outcome, PairState, TagState, compute_b, compute_c, next_pair

FOLLOWUPS = 3  # honest recovery attempts verified after a desync


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
    cloned_idt: int | None = None  # the pair written into the clone
    cloned_key: int | None = None
    c1_rounds: int | None = None  # mask redraw rounds (bit-flip attack)
    c2_trials: int | None = None  # literal probes across all rounds
    a_mask: int | None = None  # accepted weight-2 mask applied to A
    b_mask: int | None = None  # accepted weight-2 mask applied to B
    hw_matched: bool | None = None  # masked nonce kept its hamming weight
    synchronized: bool | None = None  # post-attack tag/reader sync state
    followups: tuple[str, ...] | None = None  # outcomes of the follow-up sessions
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
        env.send(env.session, MSG_C)
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
    if first.outcome != Outcome.MUTUAL_SUCCESS or second.outcome != Outcome.MUTUAL_SUCCESS:
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
    if first.outcome != Outcome.MUTUAL_SUCCESS or second.outcome != Outcome.MUTUAL_SUCCESS:
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
        success=pair_matches and verification.outcome == Outcome.MUTUAL_SUCCESS,
        recovered_key=key,
        recovered_nonce=nonce,
        cloned_idt=cloned.idt,
        cloned_key=cloned.key,
    )


def _desync_report(bench: Bench, followups: int, attack: str, accepted: bool, **fields):
    """Ground truth after a desync attack, whose success is the claim itself: its
    exchange was `accepted`, no pair is shared and no follow-up authenticates."""
    synchronized = bench.synchronized()
    outcomes = tuple(bench.run_honest().outcome for _ in range(followups))
    return AttackReport(
        attack=attack,
        success=accepted and not synchronized and Outcome.MUTUAL_SUCCESS not in outcomes,
        synchronized=synchronized,
        followups=outcomes,
        **fields,
    )


def attack_desync_mitm(bench: Bench, followups: int = FOLLOWUPS) -> AttackReport:
    """Desynchronize tag and reader by splitting one session in two.

    After one eavesdropped session the attacker knows the live key. In
    the next session it intercepts the reader's challenge, answers the
    reader itself with a correctly forged C, and challenges the tag with
    a different nonce of its own. Both parties accept and update, but
    under different nonces, leaving no shared pair. The old-pair
    fallback cannot recover because the tag's previous pair is the one
    the reader just replaced.
    """
    first = bench.run_honest()
    if first.outcome != Outcome.MUTUAL_SUCCESS:
        return AttackReport(attack="desync-mitm", success=False, detail="observation failed")

    # Session under attack: tag broadcasts its pseudonym, reader answers,
    # attacker owns the radio in between.
    idt = bench.tag.current.idt
    key = recover_key(first.a, first.b, idt)
    challenge = bench.reader.begin(idt, bench.nonce_rng)
    if challenge is None:
        return AttackReport(attack="desync-mitm", success=False, detail="reader lookup miss")
    a_genuine, b_genuine = challenge

    width = bench.word_len
    genuine_nonce = key ^ a_genuine
    if compute_b(key, genuine_nonce, width) != b_genuine:
        return AttackReport(
            attack="desync-mitm",
            success=False,
            recovered_key=key,
            detail="challenge cross-check failed, observation corrupted",
        )

    # Attacker-chosen nonce for the tag; must differ from the genuine one.
    fake_nonce = bench.adv_rng.getrandbits(width)
    while fake_nonce == genuine_nonce:
        fake_nonce = bench.adv_rng.getrandbits(width)

    c_from_tag = bench.tag.respond(
        False, key ^ fake_nonce, compute_b(key, fake_nonce, width)
    )
    tag_accepted = c_from_tag is not None  # tag updates under fake_nonce
    reader_accepted = bench.reader.complete(compute_c(key, genuine_nonce, width))
    bench.session += 1
    return _desync_report(
        bench,
        followups,
        "desync-mitm",
        tag_accepted and reader_accepted,
        recovered_key=key,
        recovered_nonce=genuine_nonce,
    )


def weight2_count(width: int) -> int:
    """Size of the per-round mask search space: C(width, 2)."""
    return width * (width - 1) // 2


def weight2_index(mask: int, width: int) -> int | None:
    """Position of mask among the width-bit words of weight 2, ordered by
    (lower set bit, upper set bit), or None if mask is not weight 2.

    Rows for lower bits below lo hold lo*(2*width - lo - 1)/2 masks,
    then hi - lo - 1 more precede it.
    """
    if mask.bit_count() != 2:
        return None
    lo = (mask & -mask).bit_length() - 1
    hi = mask.bit_length() - 1
    return lo * (2 * width - lo - 1) // 2 + (hi - lo - 1)


def random_weight2(rng: random.Random, width: int) -> int:
    """Uniform word of hamming weight exactly 2."""
    lo = rng.randrange(width)
    hi = rng.randrange(width)
    while hi == lo:
        hi = rng.randrange(width)
    return (1 << lo) | (1 << hi)


C1_ROUND_CAP = 64  # mask rounds; reached with chance < 1e-17 at L = 4, 8, 128, < 3e-11 at 12


def attack_desync_bitflip(bench: Bench, followups: int = FOLLOWUPS) -> AttackReport:
    """Desynchronize with weight-2 replay masks, no key knowledge needed.

    Captures one full honest session, then poses as a reader. Feigning
    non-recognition of the tag's fresh pseudonym forces it onto the pair
    the captured session used. Each round the attacker replays
    A xor mask_a with B xor mask_b for every weight-2 mask_b in fixed
    order; when the tag answers, it has updated off its previous pair
    while the reader kept its state, and no shared pair remains. A round
    whose mask_a changes the nonce's weight (half of them) admits a mask_b
    only by a coincidence of rotations, rare at large widths. Rounds stop
    at C1_ROUND_CAP, a module constant. Expected: 11/10 rounds and 41/10
    probes at L=4, 1.7168 and 34.584 at L=8, 1.978418 and 98.07981 at
    L=12 (the cap is reached with chance < 3e-11 there), 2.000254 and
    12194.57 at L=128 (exact models in tests/oracle_bitflip.py).

    The tag evaluates each round's sweep once (TagState.respond_sweep),
    which tells the attacker only which probe of its order would have
    been answered, and so that probe's mask. c2_trials still counts the
    probes the literal sweep sends: up to and including the answered
    one, or all C(L, 2) of a round without an answer.
    """
    captured = bench.run_honest()
    if captured.outcome != Outcome.MUTUAL_SUCCESS:
        return AttackReport(attack="desync-bitflip", success=False, detail="observation failed")

    # Rogue-reader dance: refuse the current pseudonym so the tag falls back to
    # its previous pair, the one the capture authenticated under its last
    # pseudonym. A rejected sweep keeps that pair for every round.
    tag = bench.tag
    nonce_truth = captured.a ^ tag.previous.key  # ground truth, attacker never sees it

    width = bench.word_len
    space = weight2_count(width)
    index_of = functools.partial(weight2_index, width=width)
    c1_rounds = 0
    c2_trials = 0
    b_mask: int | None = None  # the answered B-mask, once a round has one

    while b_mask is None and c1_rounds < C1_ROUND_CAP:
        c1_rounds += 1
        a_mask = random_weight2(bench.adv_rng, width)
        state_before = (tag.current, tag.previous)
        hit = tag.respond_sweep(captured.a ^ a_mask, captured.b, index_of)
        if hit is None:
            # A rejected sweep must be side-effect free or the next
            # round would search against a different pair.
            if (tag.current, tag.previous) != state_before:
                raise RuntimeError("tag state changed on a rejected probe")
            c2_trials += space
            continue
        index, b_mask, _ = hit
        c2_trials += index + 1

    if b_mask is None:
        return AttackReport(
            attack="desync-bitflip",
            success=False,
            c1_rounds=c1_rounds,
            c2_trials=c2_trials,
            detail=f"no accepting mask within {C1_ROUND_CAP} rounds",
        )

    # Ground truth: the weight condition of the accepted round.
    hw_matched = (nonce_truth ^ a_mask).bit_count() == nonce_truth.bit_count()
    return _desync_report(
        bench,
        followups,
        "desync-bitflip",
        True,
        c1_rounds=c1_rounds,
        c2_trials=c2_trials,
        a_mask=a_mask,
        b_mask=b_mask,
        hw_matched=hw_matched,
    )
