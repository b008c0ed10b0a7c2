"""Equilibrium computation for scalar bimatrix games.

Pure-equilibrium detection, dominant strategies, exact support
enumeration over rational arithmetic, fictitious play, and epsilon
equilibrium checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import List, Optional, Sequence, Tuple

from . import errors
from ._numeric import all_exact, is_exact
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


def _frac_matrix(M) -> list:
    return [[Fraction(v) for v in row] for row in M]


def _solve_square(aug: list) -> Optional[list]:
    """Gauss-Jordan on an n x (n+1) augmented rational matrix.

    Returns the solution vector, or None when the matrix is singular.
    """
    n = len(aug)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        aug[col] = [v / pval for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def pure_equilibria(G: BimatrixGame) -> List[Tuple[int, int]]:
    """Cells (i, j) with A[i][j] maximal in column j and B[i][j] maximal
    in row i, in row-major order."""
    n1, n2 = shape(G)
    A, B = G.A, G.B
    out = []
    for i in range(n1):
        for j in range(n2):
            if all(A[i][j] >= A[r][j] for r in range(n1)) and \
               all(B[i][j] >= B[i][c] for c in range(n2)):
                out.append((i, j))
    return out


def dominant_solution(G: BimatrixGame) -> Optional[Tuple[int, int]]:
    """Profile of weakly dominant strategies for both players, if both
    exist.  Lowest indices win ties."""
    n1, n2 = shape(G)
    A, B = G.A, G.B
    row = next(
        (i for i in range(n1)
         if all(A[i][j] >= A[r][j] for r in range(n1) for j in range(n2))),
        None,
    )
    col = next(
        (j for j in range(n2)
         if all(B[i][j] >= B[i][c] for c in range(n2) for i in range(n1))),
        None,
    )
    if row is None or col is None:
        return None
    return (row, col)


def best_response_set(G: BimatrixGame, player: int, opponent_mix: Sequence) -> set:
    """Pure strategies of `player` maximizing payoff against the given
    opponent mix.  Decided in exact rational arithmetic; pure_payoffs
    checks the player and the mix length."""
    # convert only the matrix in use: a Fraction per cell is the main cost
    F = (replace(G, A=_frac_matrix(G.A)) if player == 1
         else replace(G, B=_frac_matrix(G.B)))
    scores = pure_payoffs(F, player, [Fraction(v) for v in opponent_mix])
    top = max(scores)
    return {i for i, s in enumerate(scores) if s == top}


def _indifference_solution(M: list, rows: tuple, cols: tuple):
    """Solve for a mix over `cols` making all `rows` of M indifferent.

    Unknowns are the col weights plus the common payoff v.  Returns
    (weights over cols, v), or None when singular.
    """
    k = len(rows)
    aug = []
    for i in rows:
        aug.append([M[i][j] for j in cols] + [Fraction(-1), Fraction(0)])
    aug.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
    sol = _solve_square(aug)
    if sol is None:
        return None
    return sol[:k], sol[k]


def support_enumeration(G: BimatrixGame) -> SolveOutcome:
    """Enumerate all support pairs (I, J) with |I| = |J| and solve the
    two indifference systems exactly.

    A candidate survives when every solved weight is >= 0 and no pure
    strategy outside the support does strictly better (ties allowed).
    Singular systems set the degeneracy flag and contribute nothing.
    The flag is also set when, at a surviving equilibrium, some mixed
    strategy admits more opposing pure best responses than its own
    support size.
    """
    n1, n2 = shape(G)
    A = _frac_matrix(G.A)
    B = _frac_matrix(G.B)
    F = BimatrixGame(A, B)      # the Fraction game, for pure_payoffs
    Bt = [[B[i][j] for i in range(n1)] for j in range(n2)]
    degenerate = False
    seen = {}
    for k in range(1, min(n1, n2) + 1):
        for I in combinations(range(n1), k):
            for J in combinations(range(n2), k):
                ry = _indifference_solution(A, I, J)
                rx = _indifference_solution(Bt, J, I)
                if ry is None or rx is None:
                    degenerate = True
                    continue
                yw, v1 = ry
                xw, v2 = rx
                if any(w < 0 for w in yw) or any(w < 0 for w in xw):
                    continue
                y = [Fraction(0)] * n2
                for j, w in zip(J, yw):
                    y[j] = w
                x = [Fraction(0)] * n1
                for i, w in zip(I, xw):
                    x[i] = w
                # outside best-response filters, non-strict
                if any(sum(A[i][j] * y[j] for j in range(n2)) > v1
                       for i in range(n1) if i not in I):
                    continue
                if any(sum(B[i][j] * x[i] for i in range(n1)) > v2
                       for j in range(n2) if j not in J):
                    continue
                seen[(tuple(x), tuple(y))] = (v1, v2)
    reports = []
    for (x, y), (v1, v2) in seen.items():
        supp_x = tuple(i for i, w in enumerate(x) if w > 0)
        supp_y = tuple(j for j, w in enumerate(y) if w > 0)
        # more pure best responses than the opposing support size
        u1 = pure_payoffs(F, 1, y)
        u2 = pure_payoffs(F, 2, x)
        if u1.count(max(u1)) > len(supp_y) or u2.count(max(u2)) > len(supp_x):
            degenerate = True
        reports.append(EquilibriumReport(
            profile=MixedProfile(x, y),
            supports=(supp_x, supp_y),
            payoffs=(v1, v2),
            pure=(len(supp_x) == 1 and len(supp_y) == 1),
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
    flat = [v for row in G.A for v in row] + [v for row in G.B for v in row]
    if all_exact(flat):
        den = lcm(*(Fraction(v).denominator for v in flat))
        A = [[int(Fraction(v) * den) for v in row] for row in G.A]
        B = [[int(Fraction(v) * den) for v in row] for row in G.B]
        scale = den
    else:
        A = [[float(v) for v in row] for row in G.A]
        B = [[float(v) for v in row] for row in G.B]
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
    own strategy.
    """
    def gains(d, u) -> bool:
        return d > u + (Fraction(eps) if is_exact(u) else eps)
    return not some_deviation_beats(G, p, gains)
