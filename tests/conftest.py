import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from polyprime import parse_grid
from polyprime.grid import random_polyomino


@pytest.fixture
def cell():
    return parse_grid("#")


@pytest.fixture
def domino():
    return parse_grid("##")


@pytest.fixture
def tromino_l():
    return parse_grid("#.\n##")


@pytest.fixture
def square2():
    return parse_grid("##\n##")


@pytest.fixture
def rect23():
    return parse_grid("###\n###")


@pytest.fixture
def annulus():
    return parse_grid("###\n#.#\n###")


@pytest.fixture
def three_six_cycles():
    # 19 cells around one three-cell hole; the interval graph has three
    # chordless 6-cycles, so it is not weakly chordal
    return parse_grid(".####\n#.##.\n#..##\n####.\n.###.\n##...")


@pytest.fixture(scope="session")
def random_large_shapes():
    """2,000 seeded random shapes of 10-200 cells, drawn once per session."""
    rng = random.Random(30)
    return [random_polyomino(rng.randint(10, 200), rng) for _ in range(2000)]
