"""The CLI's JSON writer against its oracle, `json.dumps(obj, indent=2)`."""
import json
import random

import pytest

from genfrob.cli import _json_dump

STRINGS = ["", "plain", 'say "hi"', "back\\slash", "tab\tnew\nline\x01\x1f", "é中😀", "[1,2]"]


def oracle(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def random_scalar(rng):
    return rng.choice([
        rng.randint(-9, 9),
        rng.randint(-10**30, 10**30),
        2**63,
        -2**64 - 1,
        True,
        False,
        None,
        rng.choice(STRINGS),
        rng.choice([0.5, -0.0, 1e300, 3.0]),
    ])


def int_tree(rng, depth):
    """A list tree with every int at `depth` and no empty list."""
    if depth == 0:
        return rng.randint(-1000, 1000)
    return [int_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))]


def random_tree(rng, depth):
    shape = rng.random()
    if depth == 0 or shape < 0.2:
        return random_scalar(rng)
    if shape < 0.35:
        return {rng.choice(STRINGS): random_tree(rng, depth - 1) for _ in range(rng.randint(0, 3))}
    if shape < 0.5:
        return [random_tree(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    tree = int_tree(rng, rng.randint(1, 4))
    if rng.random() < 0.4:
        # spoil the even depth, or slip in an empty list or a non-int
        tree.insert(rng.randrange(len(tree) + 1), rng.choice(
            [[], [[]], 7, [[7]], [[[7]]], True, None, "s", (1, 2), [1.5], {"k": [1]}]))
    return tuple(tree) if rng.random() < 0.2 else tree


def test_random_trees_match_json_dumps():
    rng = random.Random(20170316)
    for _ in range(2500):
        tree = random_tree(rng, rng.randint(0, 5))
        assert _json_dump(tree) == oracle(tree), tree


@pytest.mark.parametrize("tree", [
    [], {}, [[]], [[[]]], [{}], {"a": [], "b": {}},
    [[1], [[2]]], [[1, 2], []], [1, [2]], [[1], 2], [[[1]], [2]], [[1], [2, [3]]],
    [[[1, 2], [3]], [[4]]], [[-1, -22], [-333]], [-1, [-2]],
    (1, (2, 3)), [(1, 2), [3, 4]], ((1,),),
    [1, True, 2], [[1, None], [2, 3]], [False], [None], [True, [1]],
    [2**63, -2**63 - 1, 10**40], [[2**64], [-(10**30)]],
    ['say "hi"', "back\\slash", "\x00\x1f\x7f", "é中😀"],
    {'q"uote': 1, "back\\": [1], "ctl\n": None, "é": "中"},
    {"poset": {"labels": [[0, 1], [3, 0]], "hasse": [[[0, 1], [3, 0]]]}, "k": None},
    0, -5, 2**70, True, None, "text", 1.5,
])
def test_edge_trees_match_json_dumps(tree):
    assert _json_dump(tree) == oracle(tree)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", [1, {2}], [[1], [b"x"]], {"k": frozenset()}])
def test_unserialisable_values_raise_type_error(value):
    with pytest.raises(TypeError):
        oracle(value)
    with pytest.raises(TypeError):
        _json_dump(value)


def test_non_string_keys_raise_type_error():
    # json.dumps would write {1: 2} as {"1": 2}; payload keys are all str
    with pytest.raises(TypeError):
        _json_dump({1: 2})
