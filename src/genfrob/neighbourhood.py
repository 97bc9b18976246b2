"""Lattice graph induced by Markov moves: balls and graph distance."""
from __future__ import annotations

import math
from collections import namedtuple

from .ideal import MarkovBasis, signed_moves
from .lattice import InputError, LatticeBasis, _Validated, vadd, vsub

# Most points one move ball may hold. On CPython 3.11 a point costs about
# 185-215 bytes (its tuple, its dict entry, its slots in the frontier and
# the sorted points), by peak RSS and tracemalloc on (3, 5, 8) at 320,801
# points, (5, 7, 11, 13) at 125,377 and (2, 3, 5, 7, 11, 13) at 22,363:
# so a ball stays under about 220 MB. On (3, 5, 8) the ball has about 2k^2
# points, so the budget is passed near k = 707.
MAX_BALL_POINTS = 1_000_000


class MoveSet(_Validated, namedtuple("MoveSet", "basis moves")):
    """Markov move vectors closed under negation."""

    __slots__ = ()

    def __new__(cls, basis: LatticeBasis, moves: frozenset):
        if not moves:
            raise InputError("empty move set")
        return super().__new__(cls, basis, moves)


class Ball:
    """All lattice points within a given move distance of the origin."""

    def __init__(self, radius: int, distance: dict):
        self.radius = radius
        self.distance = distance
        self.points = tuple(sorted(distance))

    def __contains__(self, p) -> bool:
        return p in self.distance

    def __len__(self) -> int:
        return len(self.points)


def moves(mb: MarkovBasis) -> MoveSet:
    """Symmetrised difference vectors of the Markov binomials."""
    return MoveSet(mb.basis, signed_moves(mb.vectors))


def ball(ms: MoveSet, k: int) -> Ball:
    """Breadth-first ball of radius k around the origin.

    Raises InputError once it holds more than MAX_BALL_POINTS points,
    checked after each frontier point's moves, so it overshoots by at
    most the number of moves.
    """
    if k < 0:
        raise InputError("radius must be nonnegative")
    origin = (0,) * ms.basis.n
    dist = {origin: 0}
    frontier = [origin]
    for depth in range(1, k + 1):
        frontier = _step(ms, dist, frontier, depth, k)
    return Ball(k, dist)


def _step(ms: MoveSet, dist: dict, frontier: list, depth: int, radius: int) -> list:
    """One breadth-first step towards a ball of the given radius: the
    points one move from the frontier that ``dist`` lacks, entered in it
    at this depth and returned in the order they are reached.

    The one step of ``ball`` and of the lcm oracle's ball grown across k
    (``modules._grown_ball``). Raises InputError once ``dist`` holds
    more than MAX_BALL_POINTS points, checked after each frontier point.
    """
    nxt = []
    for p in frontier:
        for mv in ms.moves:
            q = vadd(p, mv)
            if q not in dist:
                dist[q] = depth
                nxt.append(q)
        if len(dist) > MAX_BALL_POINTS:
            raise InputError(
                f"the move ball of radius {radius} passes the budget of {MAX_BALL_POINTS} "
                f"points at distance {depth}"
            )
    # Unsorted: distances, the sorted points and the depth named above do not depend on order.
    return nxt


def distance(ms: MoveSet, u, v, *, cap: int):
    """Move-graph distance between two lattice points, or inf beyond cap.

    Translation invariant, so computed as a bidirectional search from
    the origin to v - u, each side bounded by half the cap. Raises
    InputError once one side holds more than MAX_BALL_POINTS points,
    checked after each frontier point's moves as in ``ball``.
    """
    for p in (u, v):
        if not ms.basis.contains(p):
            raise InputError(f"point {p} is not in the sublattice")
    if cap < 0:
        raise InputError("cap must be nonnegative")
    target = vsub(v, u)
    origin = (0,) * ms.basis.n
    if target == origin:
        return 0
    side_a = {origin: 0}
    side_b = {target: 0}
    frontier_a = [origin]
    frontier_b = [target]
    depth_a = depth_b = 0
    while frontier_a and frontier_b and depth_a + depth_b < cap:
        if len(frontier_a) <= len(frontier_b):
            side, frontier, other = side_a, frontier_a, side_b
            depth_a += 1
            depth = depth_a
        else:
            side, frontier, other = side_b, frontier_b, side_a
            depth_b += 1
            depth = depth_b
        nxt = []
        for p in frontier:
            for mv in ms.moves:
                q = vadd(p, mv)
                if q in side:
                    continue
                if q in other:
                    return depth + other[q]
                side[q] = depth
                nxt.append(q)
            if len(side) > MAX_BALL_POINTS:
                raise InputError(
                    f"the move search from {u} to {v} passes the budget of "
                    f"{MAX_BALL_POINTS} points on one side at distance {depth}"
                )
        # Unsorted: any meeting found while one side expands depth d is at the
        # distance, since a shorter path would have met at an earlier depth.
        if side is side_a:
            frontier_a = nxt
        else:
            frontier_b = nxt
    return math.inf
