import math
import random

import pytest

from genfrob import (
    InputError,
    MoveSet,
    WeightVector,
    ball,
    distance,
    dominated_points,
    fiber_graph,
    kernel_basis,
    lattice_ideal,
    member,
    moves,
)
from genfrob import neighbourhood
from genfrob.cli import main
from genfrob.lattice import class_label, vadd, vsub

KNOWN_N2 = {
    (0, 0, 0), (1, 2, -1), (4, -3, 0), (-1, -2, 1), (-4, 3, 0),
    (8, -6, 0), (3, -5, 1), (5, -1, -1), (-2, -4, 2), (2, 4, -2),
    (-5, 1, 1), (-3, 5, -1), (-8, 6, 0),
}


def test_moves_3_4_11():
    mb = lattice_ideal(kernel_basis(WeightVector((3, 4, 11))))
    ms = moves(mb)
    assert ms.moves == {(1, 2, -1), (-1, -2, 1), (4, -3, 0), (-4, 3, 0)}


def test_moves_3_5_8():
    mb = lattice_ideal(kernel_basis(WeightVector((3, 5, 8))))
    ms = moves(mb)
    assert ms.moves == {(1, 1, -1), (-1, -1, 1), (5, -3, 0), (-5, 3, 0)}


def test_empty_move_set_rejected():
    B = kernel_basis(WeightVector((3, 5, 8)))
    with pytest.raises(InputError):
        MoveSet(B, frozenset())


def test_ball_radius_zero():
    mb = lattice_ideal(kernel_basis(WeightVector((3, 4, 11))))
    bl = ball(moves(mb), 0)
    assert bl.points == ((0, 0, 0),)


def test_ball_radius_one_3_4_11():
    mb = lattice_ideal(kernel_basis(WeightVector((3, 4, 11))))
    bl = ball(moves(mb), 1)
    assert set(bl.points) == {
        (0, 0, 0), (1, 2, -1), (-1, -2, 1), (4, -3, 0), (-4, 3, 0)
    }


def test_ball_radius_two_matches_known_set():
    mb = lattice_ideal(kernel_basis(WeightVector((3, 4, 11))))
    bl = ball(moves(mb), 2)
    assert set(bl.points) == KNOWN_N2
    assert len(bl) == 13


def test_ball_nesting_and_growth_bound():
    mb = lattice_ideal(kernel_basis(WeightVector((3, 5, 8))))
    ms = moves(mb)
    prev = ball(ms, 0)
    for k in range(1, 5):
        cur = ball(ms, k)
        assert set(prev.points) <= set(cur.points)
        assert len(cur) <= len(prev) * len(ms.moves) + len(prev)
        prev = cur


def test_distance_examples():
    mb = lattice_ideal(kernel_basis(WeightVector((3, 4, 11))))
    ms = moves(mb)
    for m in ms.moves:
        assert distance(ms, (0, 0, 0), m, cap=4) == 1
    assert distance(ms, (0, 0, 0), (8, -6, 0), cap=6) == 2


def test_distance_translation_invariance():
    rng = random.Random(41)
    B = kernel_basis(WeightVector((3, 4, 11)))
    ms = moves(lattice_ideal(B))
    v1, v2 = B.vectors
    for _ in range(25):
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        l = tuple(s * x + t * y for x, y in zip(v1, v2))
        u = (1, 2, -1)
        v = (8, -6, 0)
        lu = tuple(x + y for x, y in zip(u, l))
        lv = tuple(x + y for x, y in zip(v, l))
        assert distance(ms, lu, lv, cap=8) == distance(ms, u, v, cap=8)


def test_distance_rejects_points_outside_lattice():
    mb = lattice_ideal(kernel_basis(WeightVector((3, 4, 11))))
    ms = moves(mb)
    with pytest.raises(InputError):
        distance(ms, (1, 0, 0), (0, 0, 0), cap=4)


def test_ball_rejects_negative_radius():
    mb = lattice_ideal(kernel_basis(WeightVector((3, 5, 8))))
    with pytest.raises(InputError):
        ball(moves(mb), -1)


def test_ball_over_the_point_budget_raises(monkeypatch):
    # On (3,5,8) the radius-r ball has 2r^2 + 2r + 1 points.
    ms = moves(lattice_ideal(kernel_basis(WeightVector((3, 5, 8)))))
    assert len(ball(ms, 4)) == 41
    monkeypatch.setattr(neighbourhood, "MAX_BALL_POINTS", 41)
    assert len(ball(ms, 4)) == 41
    message = "^the move ball of radius 5 passes the budget of 41 points at distance 5$"
    with pytest.raises(InputError, match=message):
        ball(ms, 5)
    # The budget is checked after each frontier point, not only after each
    # level: radius 4 takes (1 + 4 + 8 + 12) * 4 = 100 move steps, and
    # radius 5 stops after one more point's 4 moves, not its 16 points'.
    steps = 0

    def counted(p, q):
        nonlocal steps
        steps += 1
        return vadd(p, q)

    monkeypatch.setattr(neighbourhood, "vadd", counted)
    with pytest.raises(InputError):
        ball(ms, 5)
    assert steps == 100 + len(ms.moves)


def test_ball_over_the_point_budget_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(neighbourhood, "MAX_BALL_POINTS", 1000)
    assert main(["ball", "-a", "3,5,8", "-k", "100000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the move ball of radius 100000 passes the budget of 1000 points "
                   "at distance 22\n")


def test_distance_rejects_negative_cap():
    mb = lattice_ideal(kernel_basis(WeightVector((3, 5, 8))))
    ms = moves(mb)
    with pytest.raises(InputError):
        distance(ms, (0, 0, 0), (1, 1, -1), cap=-1)


def test_distance_inf_beyond_cap():
    mb = lattice_ideal(kernel_basis(WeightVector((3, 4, 11))))
    ms = moves(mb)
    far = tuple(5 * x for x in (8, -6, 0))
    assert distance(ms, (0, 0, 0), far, cap=2) == math.inf


def test_ball_distances_agree_with_distance():
    mb = lattice_ideal(kernel_basis(WeightVector((3, 5, 8))))
    ms = moves(mb)
    bl = ball(ms, 3)
    for p in bl.points:
        assert distance(ms, (0, 0, 0), p, cap=6) == bl.distance[p]


def test_path_inside_dominated_set():
    # For v in the lattice at distance k from 0, some path of length >= k
    # stays inside the points dominated by the positive part of v.
    rng = random.Random(77)
    B = kernel_basis(WeightVector((3, 4, 11)))
    mb = lattice_ideal(B)
    ms = moves(mb)
    v1, v2 = B.vectors
    samples = [(8, -6, 0), (5, -1, -1), (3, -5, 1)]
    while len(samples) < 12:
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        v = tuple(s * x + t * y for x, y in zip(v1, v2))
        if any(v):
            samples.append(v)
    for v in samples:
        assert member(B, v)
        k = distance(ms, (0, 0, 0), v, cap=8)
        vplus = tuple(x if x > 0 else 0 for x in v)
        vminus = tuple(-x if x < 0 else 0 for x in v)
        fg = fiber_graph(mb, class_label(B, vplus))
        # BFS path from v+ to v- inside the fiber graph
        adj = {p: set() for p in fg.vertices}
        for x, y in fg.edges:
            adj[x].add(y)
            adj[y].add(x)
        prev = {vplus: None}
        queue = [vplus]
        while queue:
            cur = queue.pop(0)
            for nxt in adj[cur]:
                if nxt not in prev:
                    prev[nxt] = cur
                    queue.append(nxt)
        assert vminus in prev
        path = []
        cur = vminus
        while cur is not None:
            path.append(cur)
            cur = prev[cur]
        lattice_path = [vsub(vplus, p) for p in path]
        dom = dominated_points(B, vplus)
        assert len(lattice_path) - 1 >= k
        assert all(p in dom for p in lattice_path)
        assert lattice_path[-1] == (0, 0, 0) or lattice_path[0] == (0, 0, 0)
