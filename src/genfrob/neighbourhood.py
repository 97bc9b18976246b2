"""Lattice graph induced by Markov moves: balls and graph distance.

One breadth-first search serves the move graph: a ``Ball`` grown in
place, whose one step is ``_step``. ``ball`` is such a ball at the
origin, the lcm oracle keeps one per basis grown across k
(``modules._grown_ball``), and ``distance`` grows two towards each other.
"""
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
    """The lattice points within a move distance of a centre, grown in place.

    ``distance`` maps each point to its move distance from the centre, in
    the order the points were reached, the centre first, and ``ends[d]`` of
    them lie within distance d: the ball of a smaller radius is a prefix.
    ``grow`` steps breadth first through ``_step`` by the move set ``ms``;
    with no move set the ball is one given whole, which cannot grow.
    """

    def __init__(self, radius: int, distance: dict, ms: MoveSet | None = None):
        self.radius = radius
        self.distance = distance
        self.moves = ms
        self.ends = [sum(d <= r for d in distance.values()) for r in range(radius + 1)]
        self._frontier = [p for p, d in distance.items() if d == radius]

    @property
    def points(self) -> tuple:
        """The points, sorted."""
        return tuple(sorted(self.distance))

    def __contains__(self, p) -> bool:
        return p in self.distance

    def __len__(self) -> int:
        return len(self.distance)

    def grow(self, radius: int) -> None:
        """Grow the ball to the radius, if it is smaller.

        Raises InputError as ``_step`` does, and leaves the ball part grown.
        """
        while self.radius < radius:
            self._frontier = _step(
                self.moves, self.distance, self._frontier, self.radius + 1, radius
            )
            self.ends.append(len(self.distance))
            self.radius += 1


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
    bl = Ball(0, {(0,) * ms.basis.n: 0}, ms)
    bl.grow(k)
    return bl


def _step(ms: MoveSet, dist: dict, frontier: list, depth: int, radius: int) -> list:
    """One breadth-first step towards a ball of the given radius: the
    points one move from the frontier that ``dist`` lacks, entered in it
    at this depth and returned in the order they are reached.

    The one code that expands a move frontier, for ``Ball.grow``. Raises
    InputError once ``dist`` holds more than MAX_BALL_POINTS points,
    checked after each frontier point.
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

    Translation invariant, so computed as two balls, one at the origin
    and one at v - u: while their radii sum below the cap, the one with
    the smaller frontier (the origin's on a tie) grows by one step. No
    earlier step met the other ball, so the first step that reaches it
    gives the distance. Raises InputError once one ball holds more than
    MAX_BALL_POINTS points, checked after each frontier point's moves as
    in ``ball``.
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
    sides = (Ball(0, {origin: 0}, ms), Ball(0, {target: 0}, ms))
    while sides[0].radius + sides[1].radius < cap:
        near, far = sorted(sides, key=lambda bl: len(bl._frontier))
        try:
            near.grow(near.radius + 1)
        except InputError:
            raise InputError(
                f"the move search from {u} to {v} passes the budget of "
                f"{MAX_BALL_POINTS} points on one side at distance {near.radius + 1}"
            ) from None
        met = [far.distance[q] for q in near._frontier if q in far.distance]
        if met:
            return near.radius + min(met)
    return math.inf
