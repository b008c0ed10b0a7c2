"""Equilibrium computation for scalar bimatrix games.

Pure-equilibrium detection, dominant strategies, exact support
enumeration (integer payoffs, fraction-free elimination, Fractions only
for the equilibria found), fictitious play, and epsilon checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, repeat
from operator import ge
from typing import List, Optional, Sequence, Tuple

from . import errors
from ._numeric import (all_exact, is_exact, reject_non_finite,
                       scale_to_integers)
from .game_core import (BimatrixGame, MixedProfile, pure_payoffs, shape,
                        some_deviation_beats)


@dataclass(frozen=True)
class EquilibriumReport:
    """One equilibrium found by a solver.

    Attributes:
        profile: the mixed strategy pair.
        supports: (I, J), the indices carrying positive mass.
        payoffs: (player 1 payoff, player 2 payoff) at the profile.
        pure: whether both supports are singletons.
    """

    profile: MixedProfile
    supports: Tuple[tuple, tuple]
    payoffs: tuple
    pure: bool


@dataclass(frozen=True)
class SolveOutcome:
    """Equilibria plus a degeneracy flag.

    When degenerate_flag is False the list is the complete equilibrium
    set.  When True the game has singular support systems or excess
    best responses somewhere and the list may be a strict subset.
    """

    equilibria: Tuple[EquilibriumReport, ...]
    degenerate_flag: bool


@dataclass(frozen=True)
class FPRecord:
    """One recorded fictitious-play iterate (1-based round counter)."""

    round: int
    x: tuple
    y: tuple
    payoff1: float


def _best_responses(G: BimatrixGame) -> tuple:
    """Pure best-response tables (R, C): R[i][j] says row i is a best
    response to column j (A[i][j] is maximal in column j of A), C[i][j]
    says column j is a best response to row i (B[i][j] is maximal in row
    i of B).  Floats compare exactly, as binary rationals."""
    top = list(map(max, zip(*G.A)))
    R = [list(map(ge, row, top)) for row in G.A]
    C = [list(map(ge, row, repeat(max(row)))) for row in G.B]
    return R, C


def pure_equilibria(G: BimatrixGame) -> List[Tuple[int, int]]:
    """Cells (i, j) with A[i][j] maximal in column j and B[i][j] maximal
    in row i, in row-major order."""
    R, C = _best_responses(G)
    return [(i, j) for i, (r, c) in enumerate(zip(R, C))
            for j, (a, b) in enumerate(zip(r, c)) if a and b]


def dominant_solution(G: BimatrixGame) -> Optional[Tuple[int, int]]:
    """Profile of weakly dominant strategies for both players, if both
    exist.  Lowest indices win ties."""
    R, C = _best_responses(G)
    row = next((i for i, r in enumerate(R) if all(r)), None)
    col = next((j for j, c in enumerate(zip(*C)) if all(c)), None)
    if row is None or col is None:
        return None
    return (row, col)


def best_response_set(G: BimatrixGame, player: int, opponent_mix: Sequence) -> set:
    """Pure strategies of `player` maximizing payoff against the given
    opponent mix.  Decided in exact rational arithmetic; pure_payoffs
    checks the player and the mix length."""
    # scale only the matrix in use; a positive factor keeps the argmax
    F = (replace(G, A=scale_to_integers(G.A)[0]) if player == 1
         else replace(G, B=scale_to_integers(G.B)[0]))
    scores = pure_payoffs(F, player, [Fraction(v) for v in opponent_mix])
    top = max(scores)
    return {i for i, s in enumerate(scores) if s == top}


def _bareiss(M: list) -> Optional[tuple]:
    """Fraction-free Gauss-Jordan (Bareiss 1968) on an n x (n+1)
    augmented integer matrix, in place: every division is exact and the
    last pivot is +-det.  Returns (D, [D * x_i]) with D = |det| > 0, or
    None when singular."""
    n = len(M)
    prev = 1
    for c in range(n):
        p = c
        while not M[p][c]:
            p += 1
            if p == n:
                return None
        M[c], M[p] = M[p], M[c]
        top = M[c]
        piv = top[c]
        for r in range(n):
            if r != c:
                f = M[r][c]
                M[r] = [(piv * a - f * b) // prev for a, b in zip(M[r], top)]
        prev = piv
    s = 1 if prev > 0 else -1
    return s * prev, [s * row[n] for row in M]


def _indifference(M: list, rows: tuple, cols: tuple) -> Optional[tuple]:
    """Weights over `cols` that make the `rows` of integer matrix M
    score the same v, as (D, [D * weight]) with D > 0, or None when
    singular.  The (k+1) x (k+2) system in weights and v is cut down by
    hand first, which keeps D = |det|: the first row is subtracted from
    the others (removing v), and the last weight is 1 minus the rest."""
    r0, last = M[rows[0]], cols[-1]
    aug = []
    for i in rows[1:]:
        ri = M[i]
        dl = ri[last] - r0[last]
        aug.append([ri[j] - r0[j] - dl for j in cols[:-1]] + [-dl])
    sol = _bareiss(aug)
    if sol is None:
        return None
    D, w = sol
    w.append(D - sum(w))
    return D, w


def _score(row: list, cols: tuple, w: list) -> int:
    return sum(row[j] * x for j, x in zip(cols, w))


def _passes(M: list, rows: tuple, cols: tuple, w: list) -> bool:
    """No negative weight, and no row outside `rows` scores above the
    rows in it."""
    if min(w) < 0:
        return False
    v = _score(M[rows[0]], cols, w)
    return all(_score(M[i], cols, w) <= v
               for i in range(len(M)) if i not in rows)


def _mix(n: int, cols: tuple, D: int, w: list) -> tuple:
    at = dict(zip(cols, w))
    return tuple(Fraction(at.get(j, 0), D) for j in range(n))


def support_enumeration(G: BimatrixGame) -> SolveOutcome:
    """Enumerate all support pairs (I, J) with |I| = |J| and solve the
    two indifference systems exactly.

    A and B are scaled once to integers (floats are binary rationals)
    and every system is solved fraction-free (Bareiss).  A candidate
    survives when every weight is >= 0 and no pure strategy outside the
    support does strictly better (ties allowed).  The y side is solved
    first; if it fails, the x side is solved only while the degeneracy
    flag is unset, to see if it is singular.  Singular systems set the
    flag.  So does a surviving equilibrium where some mixed strategy
    admits more opposing pure best responses than its support size.
    """
    n1, n2 = shape(G)
    A, sa = scale_to_integers(G.A)
    B, sb = scale_to_integers(G.B)
    Bt = [list(col) for col in zip(*B)]
    degenerate = False
    seen = {}
    for k in range(1, min(n1, n2) + 1):
        for I in combinations(range(n1), k):
            for J in combinations(range(n2), k):
                ry = _indifference(A, I, J)
                if ry is None:
                    degenerate = True
                    continue
                if not _passes(A, I, J, ry[1]):
                    if not degenerate and _indifference(Bt, J, I) is None:
                        degenerate = True
                    continue
                rx = _indifference(Bt, J, I)
                if rx is None:
                    degenerate = True
                    continue
                if not _passes(Bt, J, I, rx[1]):
                    continue
                (dy, wy), (dx, wx) = ry, rx
                # more pure best responses than the opposing support size
                for M, cols, w in ((A, J, wy), (Bt, I, wx)):
                    u = [_score(row, cols, w) for row in M]
                    if u.count(max(u)) > sum(1 for x in w if x > 0):
                        degenerate = True
                seen[(_mix(n1, I, dx, wx), _mix(n2, J, dy, wy))] = (
                    Fraction(_score(A[I[0]], J, wy), dy * sa),
                    Fraction(_score(Bt[J[0]], I, wx), dx * sb))
    reports = []
    for (x, y), payoffs in seen.items():
        supports = tuple(tuple(i for i, w in enumerate(v) if w > 0)
                         for v in (x, y))
        reports.append(EquilibriumReport(
            profile=MixedProfile(x, y),
            supports=supports,
            payoffs=payoffs,
            pure=all(len(s) == 1 for s in supports),
        ))
    reports.sort(key=lambda r: (len(r.supports[0]), r.supports[0],
                                r.supports[1], r.profile.x, r.profile.y))
    return SolveOutcome(tuple(reports), degenerate)


def zero_sum_value(G: BimatrixGame) -> Fraction:
    """Player 1's payoff at any equilibrium of a zero-sum game."""
    if not G.zero_sum:
        raise errors.NotZeroSum("game is not flagged zero-sum")
    outcome = support_enumeration(G)
    if not outcome.equilibria:
        raise errors.NoEquilibriumFound("support enumeration found nothing")
    return outcome.equilibria[0].payoffs[0]


def _argmax_lowest(v) -> int:
    best, bi = v[0], 0
    for i in range(1, len(v)):
        if v[i] > best:
            best, bi = v[i], i
    return bi


def fictitious_play(G: BimatrixGame, rounds: int, seed: int | None = None,
                    record_every: int = 1) -> List[FPRecord]:
    """Iterate simultaneous fictitious play and record averaged iterates.

    Each round both players best-respond to the opponent's empirical
    average so far, lowest index on ties.  Round 1 plays index 0 for
    both unless a seed asks for random initial pure strategies.  Exact
    integer bookkeeping keeps the averages drift-free for exact payoff
    matrices; float matrices accumulate scores in floats.

    Args:
        G: the game.
        rounds: total rounds, >= 1.
        seed: optional seed for the two initial pure choices.
        record_every: keep every record_every-th iterate (the final one
            always).  1 keeps the full trace.

    Returns:
        List of FPRecord with float strategy averages.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    if record_every < 1:
        raise ValueError("record_every must be positive")
    n1, n2 = shape(G)
    if all_exact([v for M in (G.A, G.B) for row in M for v in row]):
        ints, scale = scale_to_integers([*G.A, *G.B])
        A, B = ints[:n1], ints[n1:]
    else:
        A, B = ([[float(v) for v in row] for row in M] for M in (G.A, G.B))
        scale = 1.0
    if seed is None:
        s, t = 0, 0
    else:
        import numpy as np
        rng = np.random.default_rng(seed)
        s = int(rng.integers(n1))
        t = int(rng.integers(n2))
    cx = [0] * n1
    cy = [0] * n2
    cx[s] += 1
    cy[t] += 1
    r1 = [A[i][t] for i in range(n1)]      # row scores vs summed opponent play
    r2 = [B[s][j] for j in range(n2)]
    records: List[FPRecord] = []

    def snapshot(k: int):
        # cx.A.cy, with r1 = A.cy already at hand
        u = sum(cx[i] * r1[i] for i in range(n1) if cx[i])
        records.append(FPRecord(
            round=k,
            x=tuple(c / k for c in cx),
            y=tuple(c / k for c in cy),
            payoff1=float(u) / (k * k * scale),
        ))

    if record_every == 1 or rounds == 1:
        snapshot(1)
    for k in range(2, rounds + 1):
        s = _argmax_lowest(r1)
        t = _argmax_lowest(r2)
        cx[s] += 1
        cy[t] += 1
        Bs = B[s]
        for j in range(n2):
            r2[j] += Bs[j]
        for i in range(n1):
            r1[i] += A[i][t]
        if k % record_every == 0 or k == rounds:
            snapshot(k)
    return records


def is_epsilon_equilibrium(G: BimatrixGame, p: MixedProfile, eps) -> bool:
    """True when no pure deviation gains either player more than eps.

    Pure deviations suffice because payoffs are affine in each player's
    own strategy.  A NaN or infinite eps raises ValueError.
    """
    reject_non_finite((eps,))

    def gains(d, u) -> bool:
        return d > u + (Fraction(eps) if is_exact(u) else eps)
    return not some_deviation_beats(G, p, gains)
