"""Monte Carlo estimates of equilibrium-existence probabilities.

Random games get iid uniform(0,1) payoffs; trial t of a run seeded
with seed draws them from np.random.default_rng((seed, t)), so results
never depend on execution order.  Both estimators compute those
per-trial streams for many trials at once in numpy (the SeedSequence
hash and the PCG64 generator reimplemented in fixed-width integer
arithmetic).  The pure-equilibrium estimator checks a batch for pure
equilibria with array operations.  The lexicographic estimator decides
2x2 trials in numpy through a certified filter: the top game's signs
are exact integer arithmetic, and float comparisons are trusted only
where they match the exact path's; every other trial, and every trial
of another shape, runs the exact decision on the same draws.
Closed-form existence probabilities are available for pure equilibria
of random scalar games, and the lexicographic decision procedure is
expected to agree with the pure top-coordinate probability while never
certifying a non-pure equilibrium on continuously sampled payoffs; any
such hit is treated as a bug, not a discovery.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from . import errors
from ._numeric import DEFAULT_TOL, csv_cell
from .game_core import BimatrixGame, new_bimatrix, new_vector_game, projection
from .rlex_solve import EQUILIBRIA, INDETERMINATE, decide_rlex_equilibria
from .solve_real import pure_equilibria

MC_CSV_HEADER = ("m,n,dim,zero_sum,trials,seed,hits,estimate,ci95,"
                 "reference,nonpure_found,indeterminate")


@dataclass(frozen=True)
class TrialSummary:
    trials: int
    hits: int
    estimate: float
    ci95_halfwidth: float
    reference: Optional[float]


def _summarize(hits: int, trials: int, reference: Optional[float]) -> TrialSummary:
    est = hits / trials
    ci = 1.96 * math.sqrt(est * (1 - est) / trials)
    return TrialSummary(trials, hits, est, ci, reference)


def formula_pure_zero_sum(m: int, n: int) -> Fraction:
    """Probability that a random m x n zero-sum game has a pure
    equilibrium: m! n! / (m+n-1)!."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    return Fraction(math.factorial(m) * math.factorial(n),
                    math.factorial(m + n - 1))


def formula_pure_bimatrix(m: int, n: int) -> Fraction:
    """Probability that a random m x n bimatrix game has a pure
    equilibrium (independent payoffs for the two players)."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    total = Fraction(0)
    for k in range(min(m, n) + 1):
        term = Fraction(math.factorial(k) * math.comb(m, k) * math.comb(n, k),
                        (m * n) ** k)
        total += term if k % 2 == 0 else -term
    return 1 - total


def random_bimatrix(m: int, n: int, zero_sum: bool,
                    rng: np.random.Generator) -> BimatrixGame:
    """Scalar game with iid uniform(0,1) entries; the column player's
    matrix is the exact negation under zero_sum, independent otherwise."""
    A = [[float(v) for v in row] for row in rng.random((m, n))]
    if zero_sum:
        return new_bimatrix(A, zero_sum=True)
    B = [[float(v) for v in row] for row in rng.random((m, n))]
    return new_bimatrix(A, B)


# Constants of numpy's SeedSequence (bit_generator.pyx) and PCG64
# (pcg64.h), from which _trial_uniforms reproduces
# default_rng((seed, t)).random bit for bit.  All its arithmetic runs on
# uint64 arrays: SeedSequence's 32-bit words are kept masked to 32 bits,
# and a 128-bit PCG64 state is a (hi, lo) pair.
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

# Draws computed per batch of trials: bounds the batch's memory (a few
# arrays of this many uint64 each) and changes speed only, never results.
_BATCH_DRAWS = 1 << 14


def _hashmix(value: np.ndarray, hc: int, mult: int):
    """One SeedSequence hash step on 32-bit words; also returns the
    advanced hash constant."""
    value = value ^ hc
    hc = hc * mult & _M32
    value = value * hc & _M32
    return value ^ (value >> 16), hc


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _M32
    return r ^ (r >> 16)


def _seed_pool(words) -> list:
    """SeedSequence.mix_entropy: the 4-word pool of each trial from its
    entropy words (arrays with one entry per trial)."""
    hc = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word = words[i] if i < len(words) else np.zeros_like(words[0])
        v, hc = _hashmix(word, hc, _MULT_A)
        pool.append(v)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, hc = _hashmix(pool[src], hc, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            h, hc = _hashmix(w, hc, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    return pool


def _split(cs):
    """128-bit integers as a (hi, lo) pair of uint64 arrays."""
    return (np.array([c >> 64 for c in cs], dtype=np.uint64),
            np.array([c & _M64 for c in cs], dtype=np.uint64))


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    t = a1 * b0 + (a0 * b0 >> 32)
    w = (t & _M32) + a0 * b1
    return a1 * b1 + (t >> 32) + (w >> 32)


def _mul128(a_hi, a_lo, c_hi, c_lo):
    """(a * c) mod 2**128 on (hi, lo) pairs."""
    return _mulhi64(a_lo, c_lo) + a_lo * c_hi + a_hi * c_lo, a_lo * c_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a + b) mod 2**128 on (hi, lo) pairs."""
    lo = a_lo + b_lo
    carry = ((a_lo >> 1) + (b_lo >> 1) + (a_lo & b_lo & 1)) >> 63
    return a_hi + b_hi + carry, lo


def _jump_constants(k: int):
    """PCG64 seeded with X = initstate + inc is in state M X + inc, and
    each draw first steps the state by s -> M s + inc, so draw j
    (1-based) outputs from M**(j+1) X + (1 + M + ... + M**j) inc.
    Returns both coefficient rows for j = 1..k as (hi, lo) pairs."""
    mod = 1 << 128
    power, total = _PCG_MULT, 1
    powers, totals = [], []
    for _ in range(k):
        total = (total + power) % mod
        power = power * _PCG_MULT % mod
        powers.append(power)
        totals.append(total)
    return _split(powers), _split(totals)


def _trial_uniforms(seed, start: int, stop: int, k: int,
                    jump=None) -> np.ndarray:
    """Row t - start holds np.random.default_rng((seed, t)).random(k),
    for t in range(start, stop).

    Non-negative integer seeds and trial indices below 2**32 (one
    entropy word each) take the batched path; any other input goes
    through default_rng itself, which also raises its own errors."""
    if (not isinstance(seed, (int, np.integer)) or seed < 0
            or stop > 1 << 32):
        return np.array([np.random.default_rng((seed, t)).random(k)
                         for t in range(start, stop)])
    (p_hi, p_lo), (d_hi, d_lo) = jump or _jump_constants(k)
    t = np.arange(start, stop, dtype=np.uint64)
    # SeedSequence((seed, t)): the seed's little-endian 32-bit words,
    # then t's single word
    words, s = [], int(seed)
    while True:
        words.append(np.full_like(t, s & _M32))
        s >>= 32
        if not s:
            break
    words.append(t)
    pool = _seed_pool(words)
    # generate_state(4, np.uint64): 8 hashed pool words, paired
    # little-endian into initstate (hi, lo) and initseq (hi, lo)
    hc, state = _INIT_B, []
    for i in range(8):
        v, hc = _hashmix(pool[i % _POOL_SIZE], hc, _MULT_B)
        state.append(v)
    s_hi, s_lo, q_hi, q_lo = (state[i] | state[i + 1] << 32
                              for i in range(0, 8, 2))
    inc_hi = q_hi << 1 | q_lo >> 63
    inc_lo = q_lo << 1 | 1
    x_hi, x_lo = _add128(s_hi, s_lo, inc_hi, inc_lo)
    # the state after each draw: trials down, draws across
    hi, lo = _add128(*_mul128(x_hi[:, None], x_lo[:, None], p_hi, p_lo),
                     *_mul128(inc_hi[:, None], inc_lo[:, None], d_hi, d_lo))
    # XSL-RR output, then its top 53 bits as a double in [0, 1)
    v = hi ^ lo
    rot = hi >> 58
    v = v >> rot | v << (64 - rot & 63)
    return (v >> 11).astype(np.float64) * 2.0 ** -53


def _trial_batches(seed, trials: int, k: int):
    """The draws of trials 0..trials-1, k per trial, as _trial_uniforms
    arrays of at most _BATCH_DRAWS draws (at least one trial) each."""
    jump = _jump_constants(k)
    per_batch = max(1, _BATCH_DRAWS // k)
    for start in range(0, trials, per_batch):
        yield _trial_uniforms(seed, start, min(trials, start + per_batch), k,
                              jump)


def _game_shape(m, n) -> Tuple[int, int]:
    m, n = operator.index(m), operator.index(n)
    if m < 1 or n < 1:
        raise errors.DimensionMismatch("matrix must be non-empty")
    return m, n


def _pure_reference(m: int, n: int, zero_sum: bool) -> float:
    return float(formula_pure_zero_sum(m, n) if zero_sum
                 else formula_pure_bimatrix(m, n))


def _count_pure_hits(U: np.ndarray, m: int, n: int, zero_sum: bool) -> int:
    """Games holding a pure equilibrium among the rows of U: A is the
    first m*n draws in row-major order, B the next m*n or -A.  A cell
    counts when A is maximal in its column and B maximal in its row, with
    the >= semantics of pure_equilibria."""
    A = U[:, :m * n].reshape(-1, m, n)
    B = -A if zero_sum else U[:, m * n:].reshape(-1, m, n)
    eq = (A == A.max(axis=1, keepdims=True)) & (B == B.max(axis=2, keepdims=True))
    return int(eq.any(axis=(1, 2)).sum())


def estimate_pure_probability(m: int, n: int, zero_sum: bool, trials: int,
                              seed: int) -> TrialSummary:
    """Fraction of random games holding at least one pure equilibrium,
    with the matching closed form attached as reference.

    Trial t plays random_bimatrix(m, n, zero_sum,
    np.random.default_rng((seed, t))) and counts a hit when
    pure_equilibria finds a cell; the streams are computed a batch of
    trials at a time, which gives the same draws and the same count."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    m, n = _game_shape(m, n)
    k = m * n if zero_sum else 2 * m * n
    hits = sum(_count_pure_hits(U, m, n, zero_sum)
               for U in _trial_batches(seed, trials, k))
    return _summarize(hits, trials, _pure_reference(m, n, zero_sum))


# How far from cmp's tolerance a difference of the mixed-profile RLEX
# check must lie for the 2x2 filter to trust its sign.  The filter's
# float weights are within 2 ulps of the exact path's float(Fraction)
# weights, and every payoff lies in (-1, 1), so its differences are
# within about 2**-48 of the exact path's.
_RLEX_MARGIN = 2.0 ** -40


def _rlex_greater(D: np.ndarray) -> np.ndarray:
    """rlex_compare(d, u) is GREATER, for differences D = d - u along the
    last axis: the highest coordinate with |D| > DEFAULT_TOL decides, as
    in cmp."""
    greater = np.zeros(D.shape[:-1], dtype=bool)
    for c in range(D.shape[-1]):    # a higher coordinate overrides
        off = np.abs(D[..., c]) > DEFAULT_TOL
        greater = np.where(off, D[..., c] > 0, greater)
    return greater


def _rlex_2x2_filter(U: np.ndarray, dim: int, zero_sum: bool):
    """Decide 2x2 trials from their draws (rows of U, laid out as in
    estimate_rlex_probability) in numpy.

    Returns (certified, decided): decided holds one _decide_rlex_rows row
    per trial and is valid where certified is true.  The top game's
    signs are exact: every draw is a multiple of 2**-53, so the top
    coordinates scale to exact int64.  A row is certified when its top
    game has no tie and no singular indifference system, and no
    difference of the mixed profile's RLEX check lies within
    _RLEX_MARGIN of cmp's tolerance.  Its top game is then
    non-degenerate, so the exact path is never Indeterminate on it, and
    its equilibria are the strict pure cells plus the mixed profile when
    all four weights are positive.  The pure cells' RLEX checks compare
    drawn floats only, which numpy reproduces bit for bit.
    """
    A = U[:, :4 * dim].reshape(-1, 2, 2, dim)
    B = -A if zero_sum else U[:, 4 * dim:].reshape(-1, 2, 2, dim)
    a = (A[..., -1] * 2.0 ** 53).astype(np.int64)
    b = (B[..., -1] * 2.0 ** 53).astype(np.int64)
    # Cramer's rule on the indifference systems: y = ny / dA, x = nx / dB;
    # a zero numerator is a tie in a column of a or in a row of b
    ny = np.stack([a[:, 1, 1] - a[:, 0, 1], a[:, 0, 0] - a[:, 1, 0]], axis=1)
    nx = np.stack([b[:, 1, 1] - b[:, 1, 0], b[:, 0, 0] - b[:, 0, 1]], axis=1)
    dA, dB = ny.sum(axis=1), nx.sum(axis=1)
    certified = ((ny != 0).all(axis=1) & (nx != 0).all(axis=1)
                 & (dA != 0) & (dB != 0))
    cell = (a == a.max(axis=1, keepdims=True)) & (b == b.max(axis=2, keepdims=True))
    # some row i' beats cell (i, j) for player 1, some column j' for player 2
    beaten1 = _rlex_greater(A[:, :, None] - A[:, None]).any(axis=1)
    beaten2 = _rlex_greater(B[:, :, :, None] - B[:, :, None]).any(axis=2)
    pure_ok = cell & ~beaten1 & ~beaten2
    mixed = (certified & ((ny > 0) == (dA > 0)[:, None]).all(axis=1)
             & ((nx > 0) == (dB > 0)[:, None]).all(axis=1))
    mixed_ok = np.zeros_like(mixed)
    y = ny[mixed] / dA[mixed, None]
    x = nx[mixed] / dB[mixed, None]
    Am, Bm = A[mixed], B[mixed]
    # in the exact path's order: each pure payoff (w0 * v0) + w1 * v1,
    # then the player's own mix over the pure payoffs
    p = y[:, 0, None, None] * Am[:, :, 0] + y[:, 1, None, None] * Am[:, :, 1]
    q = x[:, 0, None, None] * Bm[:, 0] + x[:, 1, None, None] * Bm[:, 1]
    u1 = x[:, 0, None] * p[:, 0] + x[:, 1, None] * p[:, 1]
    u2 = y[:, 0, None] * q[:, 0] + y[:, 1, None] * q[:, 1]
    D = np.concatenate([p - u1[:, None], q - u2[:, None]], axis=1)
    certified[mixed] = ~(np.abs(np.abs(D) - DEFAULT_TOL)
                         <= _RLEX_MARGIN).any(axis=(1, 2))
    mixed_ok[mixed] = ~_rlex_greater(D).any(axis=1)
    decided = np.stack([np.zeros_like(mixed), pure_ok.any(axis=(1, 2)) | mixed_ok,
                        mixed_ok, cell.any(axis=(1, 2))], axis=1)
    return certified, decided


def _rlex_trial(row: np.ndarray, m: int, n: int, dim: int,
                zero_sum: bool) -> tuple:
    """The exact decision of one trial from its draws, as one
    _decide_rlex_rows row."""
    draws = row.reshape(-1, m, n, dim).tolist()
    A = draws[0]
    B = [[[-e for e in cell] for cell in r] for r in A] if zero_sum else draws[1]
    G = new_vector_game(A, B, dim)
    decision = decide_rlex_equilibria(G)
    if decision.status == INDETERMINATE:
        return True, False, False, False
    return (False, decision.status == EQUILIBRIA,
            any(not rep.pure for rep in decision.equilibria),
            bool(pure_equilibria(projection(G, dim - 1))))


def _decide_rlex_rows(U: np.ndarray, m: int, n: int, dim: int,
                      zero_sum: bool) -> np.ndarray:
    """One row per trial of U: (Indeterminate, RLEX equilibrium found,
    non-pure equilibrium verified, pure equilibrium of the top game).
    2x2 trials go through the filter; the rest run the exact decision."""
    out = np.zeros((len(U), 4), dtype=bool)
    exact = np.ones(len(U), dtype=bool)
    if m == n == 2:
        certified, decided = _rlex_2x2_filter(U, dim, zero_sum)
        out[certified] = decided[certified]
        exact = ~certified
    for r in np.flatnonzero(exact):
        out[r] = _rlex_trial(U[r], m, n, dim, zero_sum)
    return out


def estimate_rlex_probability(m: int, n: int, dim: int, zero_sum: bool,
                              trials: int, seed: int
                              ) -> Tuple[TrialSummary, TrialSummary, int, int]:
    """Existence frequency of lexicographic equilibria in random vector
    games, next to the frequency of pure equilibria in the top
    coordinate alone.

    Trial t draws A as rng.random((m, n, dim)) and B as a second such
    draw, or -A when zero_sum, from rng = np.random.default_rng((seed, t)),
    and runs decide_rlex_equilibria and pure_equilibria on the top
    projection.  Returns (rlex summary, pure-top summary, number of
    trials where a verified equilibrium was non-pure, number of
    Indeterminate trials).  Indeterminate trials count toward neither
    estimate; more than 0.1% of them aborts the run since that signals
    broken degeneracy detection rather than unlucky sampling.
    """
    dim = operator.index(dim)
    if dim < 2:
        raise ValueError("need dim >= 2")
    if trials < 1:
        raise ValueError("need trials >= 1")
    m, n = _game_shape(m, n)
    k = m * n * dim if zero_sum else 2 * m * n * dim
    counts = sum(_decide_rlex_rows(U, m, n, dim, zero_sum).sum(axis=0)
                 for U in _trial_batches(seed, trials, k))
    indeterminate, rlex_hits, nonpure_found, pure_top_hits = map(int, counts)
    if indeterminate * 1000 > trials:
        raise errors.ExcessiveDegeneracy(
            f"{indeterminate} of {trials} trials were Indeterminate"
        )
    effective = trials - indeterminate
    ref = _pure_reference(m, n, zero_sum)
    return (_summarize(rlex_hits, effective, ref),
            _summarize(pure_top_hits, effective, ref),
            nonpure_found, indeterminate)


def mc_csv(m: int, n: int, dim: Optional[int], zero_sum: bool, seed: int,
           summary: TrialSummary, nonpure_found: Optional[int] = None,
           indeterminate: Optional[int] = None) -> str:
    """One-row CSV summary in the fixed column order; inapplicable
    columns stay empty."""
    row = [m, n, dim, zero_sum, summary.trials, seed, summary.hits,
           summary.estimate, summary.ci95_halfwidth, summary.reference,
           nonpure_found, indeterminate]
    return MC_CSV_HEADER + "\n" + ",".join(map(csv_cell, row)) + "\n"
