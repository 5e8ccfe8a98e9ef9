import json
import random
from pathlib import Path

import pytest

ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)

from polywang.compiler import compile_pieces
from polywang.wang import WangTile, WangTileSet, solve_torus

# The worked three-tile example set (explicit color order).
THREE_TILE_PATH = Path(__file__).resolve().parent.parent / "data" / "three_tile_set.json"
THREE_TILE_JSON = json.loads(THREE_TILE_PATH.read_text())


def example_three_tile_set() -> WangTileSet:
    return WangTileSet.from_json(THREE_TILE_JSON)


@pytest.fixture(scope="session")
def three_tile_set():
    return example_three_tile_set()


@pytest.fixture(scope="session")
def three_tile_pieces(three_tile_set):
    return compile_pieces(three_tile_set)


@pytest.fixture(scope="session")
def three_tile_torus(three_tile_set):
    tiling = solve_torus(three_tile_set, 3, 1, "first")
    assert tiling is not None
    return tiling


def random_tileset(rng: random.Random, n: int, m: int) -> WangTileSet:
    """A random Wang set over m colors, using every color at least once."""
    labels = [f"c{i}" for i in range(m)]
    edges = [rng.randrange(m) for _ in range(4 * n)]
    for i in range(m):  # guarantee all m colors appear
        edges[i % len(edges)] = i
    rng.shuffle(edges)
    tiles = tuple(WangTile(*edges[4 * i:4 * i + 4]) for i in range(n))
    return WangTileSet(tiles, tuple(labels))
