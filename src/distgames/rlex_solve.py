"""Equilibria of reflected-lexicographically-ordered vector games.

Verification works directly from the definition, with one load-bearing
reduction: checking pure deviations suffices, because a convex
combination of payoff vectors each RLEX-below w stays RLEX-below w
(induct on the highest coordinate where something differs).  The
existence decision pulls candidates from the top-coordinate scalar game
and verifies each one; degenerate top games make the answer
Indeterminate because candidate enumeration is then incomplete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from . import errors
from .dist import OrderResult, rlex_compare
from .game_core import (
    DistributionBimatrixGame,
    MixedProfile,
    VectorBimatrixGame,
    mixed_payoff,
    new_profile,
    projection,
    some_deviation_beats,
    subgame,
    to_probability_vector_game,
)
from .solve_real import (
    EquilibriumReport,
    is_epsilon_equilibrium,
    support_enumeration,
)

NO_EQUILIBRIUM = "NoEquilibrium"
EQUILIBRIA = "Equilibria"
INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class RlexDecision:
    """Outcome of the existence decision.

    status is "NoEquilibrium", "Equilibria" or "Indeterminate";
    equilibria carries the verified profiles with their vector payoffs;
    candidates_checked records every candidate with its verification
    verdict; degenerate mirrors the top-game degeneracy flag, and is the
    only way to reach Indeterminate.
    """

    status: str
    equilibria: Tuple[EquilibriumReport, ...]
    candidates_checked: Tuple[tuple, ...]
    degenerate: bool


def verify_rlex_equilibrium(G: VectorBimatrixGame, p: MixedProfile) -> bool:
    """True iff no pure deviation is RLEX-above the profile payoff for
    either player."""
    return not some_deviation_beats(
        G, p, lambda d, u: rlex_compare(d, u) is OrderResult.GREATER)


def decide_rlex_equilibria(G: VectorBimatrixGame) -> RlexDecision:
    """Decide equilibrium existence through the top-coordinate game.

    Candidates are the equilibria the scalar solver finds for the top
    projection; each is verified against the full vector game.  With a
    non-degenerate top game the candidate list is complete, so an empty
    verified set means NoEquilibrium.  A degenerate top game returns
    Indeterminate with whatever partial results were obtained.
    """
    top = projection(G, G.dim - 1)
    outcome = support_enumeration(top)
    checked = []
    verified_reports = []
    for rep in outcome.equilibria:
        ok = verify_rlex_equilibrium(G, rep.profile)
        checked.append((rep.profile, ok))
        if ok:
            verified_reports.append(EquilibriumReport(
                profile=rep.profile,
                supports=rep.supports,
                payoffs=(mixed_payoff(G, rep.profile, 1),
                         mixed_payoff(G, rep.profile, 2)),
                pure=rep.pure,
            ))
    if outcome.degenerate_flag:
        status = INDETERMINATE
    elif verified_reports:
        status = EQUILIBRIA
    else:
        status = NO_EQUILIBRIUM
    return RlexDecision(
        status=status,
        equilibria=tuple(verified_reports),
        candidates_checked=tuple(checked),
        degenerate=outcome.degenerate_flag,
    )


def check_all_coordinates_condition(G: VectorBimatrixGame,
                                    p: MixedProfile) -> bool:
    """Sufficient condition: p is a Nash equilibrium of every coordinate
    projection."""
    return all(
        is_epsilon_equilibrium(projection(G, i), p, 0)
        for i in range(G.dim)
    )


def check_subgame_condition(G: VectorBimatrixGame, p: MixedProfile) -> bool:
    """Necessary condition below the top coordinate.

    Requires p to be an equilibrium of the top projection (raises
    otherwise).  For every lower coordinate, the profile restricted to
    its supports must be an equilibrium of the correspondingly
    restricted scalar game.
    """
    top = projection(G, G.dim - 1)
    if not is_epsilon_equilibrium(top, p, 0):
        raise errors.NotTopCoordinateEquilibrium(
            "profile is not an equilibrium of the top-coordinate game"
        )
    T1, T2 = (tuple(i for i, w in enumerate(v) if w > 0) for v in (p.x, p.y))
    t = new_profile(*(tuple(w for w in v if w > 0) for v in (p.x, p.y)))
    for i in range(G.dim - 1):
        restricted = subgame(projection(G, i), T1, T2)
        if not is_epsilon_equilibrium(restricted, t, 0):
            return False
    return True


def decide_tail_equilibria(G: DistributionBimatrixGame) -> RlexDecision:
    """Tail-order equilibrium decision for a distribution game, through
    the mass-vector isomorphism."""
    return decide_rlex_equilibria(to_probability_vector_game(G))
