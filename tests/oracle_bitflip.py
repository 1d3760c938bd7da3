"""The bit-flip attack's oracles: the literal probe loop and its exact cost.

literal_desync_bitflip makes one TagState.respond call per weight-2
B-mask, in the fixed (lo, hi) order, exactly as a rogue reader would
send them over the air. Slow on purpose: about 8128 probes per mask
round at L=128. It uses only the single-probe tag interface, never
TagState.respond_sweep or the closed form mask index, so it checks the
sweep rather than sharing its code.

required_b_mask and bitflip_round_admits are the analysis side of one
round, and bitflip_cost enumerates them over every (N, A-mask) pair into
the exact distribution of a trial's c1_rounds and c2_trials.
bitflip_weight_cost gives the same moments for large widths from a sum
over the nonce's weight, with a bound on what that sum leaves out.
"""

import functools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple

from umarfid.attacks import AttackReport, random_weight2
from umarfid.protocol import Outcome
from umarfid.word import rot


def weight2_words(width: int) -> Iterator[int]:
    """Every width-bit word with exactly two set bits.

    Fixed enumeration order, lexicographic by (lower set bit, upper set
    bit), so attempt counts are reproducible. C(width, 2) words total.
    """
    for lo in range(width):
        for hi in range(lo + 1, width):
            yield (1 << lo) | (1 << hi)


def required_b_mask(nonce: int, a_mask: int, width: int) -> int:
    """The unique B-mask the tag would accept.

    Masking A by a_mask shifts the nonce the tag recovers to
    N xor a_mask; the B equality then demands exactly
    rot(N, N) xor rot(N xor a_mask, N xor a_mask) as the B-mask.
    """
    altered = nonce ^ a_mask
    return rot(nonce, nonce, width) ^ rot(altered, altered, width)


def bitflip_round_admits(nonce: int, a_mask: int, width: int) -> bool:
    """Does any weight-2 B-mask exist for this round?

    True exactly when the required mask has weight 2: always when mask_a
    flips one set and one clear nonce bit (probability exactly 1/2), else
    by a coincidence of rotations, common at small widths. Over all
    (N, mask_a) pairs: 11/12 at L=4, 19/32 at L=8, 525/1024 at L=12. As
    N is fixed for a trial, a trial expects E_N[1/p(N)] rounds, not the
    inverse of these: 11/10 at L=4, 1.7168 at L=8, 2.000254 at L=128
    (bitflip_cost, bitflip_weight_cost).
    """
    return required_b_mask(nonce, a_mask, width).bit_count() == 2


class BitflipCost(NamedTuple):
    """Exact moments of one desync-bitflip trial's counts, and admission rates."""

    admission: Fraction  # share of all (N, A-mask) rounds that admit a B-mask
    min_admission: Fraction  # the smallest admission probability of any one N
    c1_mean: Fraction
    c1_var: Fraction
    c2_mean: Fraction
    c2_var: Fraction


@functools.cache  # 0.4 s at L=12, asked for by three tests
def bitflip_cost(width: int) -> BitflipCost:
    """Enumerate every (N, A-mask) pair at this width into exact moments.

    The captured nonce N is uniform and fixed for the whole trial; each
    round draws a uniform A-mask. With N fixed, a round admits with
    probability p(N), and an admitting round is answered at probe y, the
    1-based position of its required B-mask. So c1_rounds K is geometric
    with p(N), and c2_trials is S(K - 1) + Y for S = C(L, 2) probes per
    unanswered round, with Y drawn from the admitting rounds' y
    independently of K. The moments average those of each N; the round
    cap is ignored, so every p(N) must be positive.
    """
    position = {mask: y for y, mask in enumerate(weight2_words(width), 1)}
    space = len(position)
    admitted = 0
    min_p = Fraction(1)
    k1 = k2 = c1 = c2 = Fraction(0)  # sums over N of E[K], E[K^2], E[c2], E[c2^2]
    for nonce in range(1 << width):
        ys = [position[m] for a_mask in position
              if (m := required_b_mask(nonce, a_mask, width)) in position]
        admitted += len(ys)
        p = Fraction(len(ys), space)
        min_p = min(min_p, p)
        mean_k, mean_k2 = 1 / p, (2 - p) / p**2
        mean_y, mean_y2 = Fraction(sum(ys), len(ys)), Fraction(sum(y * y for y in ys), len(ys))
        k1 += mean_k
        k2 += mean_k2
        c1 += space * (mean_k - 1) + mean_y
        c2 += (space**2 * (mean_k2 - 2 * mean_k + 1)
               + 2 * space * (mean_k - 1) * mean_y + mean_y2)
    n = 1 << width
    return BitflipCost(
        Fraction(admitted, n * space), min_p,
        k1 / n, k2 / n - (k1 / n) ** 2, c1 / n, c2 / n - (c1 / n) ** 2,
    )


def bitflip_weight_cost(width: int, cap: int = 64) -> tuple[BitflipCost, float]:
    """Exact moments of the weight-class model, and the share it ignores.

    For widths too large to enumerate; R_k(x) is x rotated left by k bits.
    An A-mask that flips one set and one clear bit of N keeps its weight
    w, so the required B-mask is R_w(a_mask), always of weight 2. Such
    masks are a share p(w) = w(L - w)/C(L, 2) of all. Over the nonces of
    weight w such a mask is, by symmetry, a uniform pair of bits, and a
    fixed rotation keeps it one, so the answered probe y is uniform on
    1..C(L, 2). So the moments are those of bitflip_cost, summed over
    w ~ Binomial(L, 1/2) for 0 < w < L.

    An A-mask that moves the weight by 2 leaves a B-mask of the weight of
    N xor R_2(N) xor R_2(a_mask), which is 2 only when N xor R_2(N) has
    weight at most 4. The model ignores these rotation coincidences: at
    most 4(1 + C(L, 2) + C(L, 4)) nonces, w = 0 and w = L among them, as
    N -> N xor R_2(N) is linear with a kernel of 4 words. It also ignores
    the round cap, reached with chance sum_w P(w)(1 - p(w))^cap. The
    second value is the sum of the two shares. A trial averages at most
    max(cap, L/2) rounds, in truth and in the model, so the means are off
    by at most that share times max(cap, L/2) rounds, and times C(L, 2)
    probes.
    """
    space = width * (width - 1) // 2
    ignored = Fraction(4 * (1 + space + math.comb(width, 4)), 2**width)
    mean_y = Fraction(space + 1, 2)
    mean_y2 = Fraction((space + 1) * (2 * space + 1), 6)
    admission = k1 = k2 = c1 = c2 = Fraction(0)
    for w in range(1, width):
        share = Fraction(math.comb(width, w), 2**width)
        p = Fraction(w * (width - w), space)
        mean_k, mean_k2 = 1 / p, (2 - p) / p**2
        admission += share * p
        ignored += share * (1 - p) ** cap
        k1 += share * mean_k
        k2 += share * mean_k2
        c1 += share * (space * (mean_k - 1) + mean_y)
        c2 += share * (space**2 * (mean_k2 - 2 * mean_k + 1)
                       + 2 * space * (mean_k - 1) * mean_y + mean_y2)
    # p(w) is smallest at w = 1 and w = L - 1
    cost = BitflipCost(admission, Fraction(width - 1, space), k1, k2 - k1**2, c1, c2 - c1**2)
    return cost, float(ignored)


def literal_desync_bitflip(bench, c1_round_cap=64, followups=3) -> AttackReport:
    captured = bench.run_honest()
    if captured.outcome != Outcome.MUTUAL_SUCCESS:
        return AttackReport(attack="desync-bitflip", success=False, detail="observation failed")
    tag = bench.tag
    nonce_truth = captured.a ^ tag.previous.key  # the pair the capture used

    width = bench.word_len
    c1_rounds = 0
    c2_trials = 0
    accepted = None

    while accepted is None and c1_rounds < c1_round_cap:
        c1_rounds += 1
        a_mask = random_weight2(bench.adv_rng, width)
        forged_a = captured.a ^ a_mask
        for b_mask in weight2_words(width):
            c2_trials += 1
            # the rogue reader refuses the current pseudonym; the tag falls back
            state_before = (tag.current, tag.previous)
            c = tag.respond(True, forged_a, captured.b ^ b_mask)
            if c is None:
                if (tag.current, tag.previous) != state_before:
                    raise RuntimeError("tag state changed on a rejected probe")
                continue
            accepted = (a_mask, b_mask)
            break

    if accepted is None:
        return AttackReport(
            attack="desync-bitflip",
            success=False,
            c1_rounds=c1_rounds,
            c2_trials=c2_trials,
            detail=f"no accepting mask within {c1_round_cap} rounds",
        )

    a_mask, b_mask = accepted
    hw_matched = (nonce_truth ^ a_mask).bit_count() == nonce_truth.bit_count()
    still_synchronized = bench.synchronized()
    outcomes = tuple(bench.run_honest().outcome for _ in range(followups))
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
