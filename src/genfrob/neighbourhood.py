"""Lattice graph induced by Markov moves: balls and graph distance."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .ideal import MarkovBasis, signed_moves
from .lattice import InputError, LatticeBasis, vadd, vsub


@dataclass(frozen=True)
class MoveSet:
    """Markov move vectors closed under negation."""

    basis: LatticeBasis
    moves: frozenset

    def __post_init__(self):
        if not self.moves:
            raise InputError("empty move set")


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
    """Breadth-first ball of radius k around the origin."""
    if k < 0:
        raise InputError("radius must be nonnegative")
    origin = (0,) * ms.basis.n
    dist = {origin: 0}
    frontier = [origin]
    for depth in range(1, k + 1):
        nxt = []
        for p in frontier:
            for mv in ms.moves:
                q = vadd(p, mv)
                if q not in dist:
                    dist[q] = depth
                    nxt.append(q)
        frontier = sorted(nxt)
    return Ball(k, dist)


def distance(ms: MoveSet, u, v, *, cap: int):
    """Move-graph distance between two lattice points, or inf beyond cap.

    Translation invariant, so computed as a bidirectional search from
    the origin to v - u, each side bounded by half the cap.
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
        if side is side_a:
            frontier_a = sorted(nxt)
        else:
            frontier_b = sorted(nxt)
    return math.inf
