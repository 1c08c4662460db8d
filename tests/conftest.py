"""Shared fixtures: two hand-built grids small enough to verify on paper."""
import pytest

from gridtopo import Grid, LearnedTree, TreeEdge

# Root t hangs off a single hidden hub h; three terminals at depths 1, 2, 3.
# x == r on every line, so both metrics agree and hand numbers carry over.
STAR_EDGES = [
    ("t", "h", 0.5, 0.5),
    ("h", "a", 1.0, 1.0),
    ("h", "b", 2.0, 2.0),
    ("h", "c", 3.0, 3.0),
]

# The star plus a detached line d - e that the root cannot reach.
SPLIT_EDGES = STAR_EDGES + [("d", "e", 0.4, 0.4)]

# Six terminals: two cherries (a, b) and (c, d) on their own junctions, plus
# e and f sitting directly on the central junction j0.
CHERRY_EDGES = [
    ("t", "j0", 0.30, 0.45),
    ("j0", "j1", 0.20, 0.15),
    ("j0", "j2", 0.40, 0.30),
    ("j0", "e", 0.35, 0.25),
    ("j0", "f", 0.15, 0.10),
    ("j1", "a", 0.10, 0.20),
    ("j1", "b", 0.25, 0.35),
    ("j2", "c", 0.50, 0.40),
    ("j2", "d", 0.45, 0.55),
]


@pytest.fixture
def star_grid() -> Grid:
    kinds = {"t": "root", "h": "hidden", "a": "observed", "b": "observed", "c": "observed"}
    return Grid.create(kinds, STAR_EDGES)


@pytest.fixture
def cherry_grid() -> Grid:
    kinds = {"t": "root", "j0": "hidden", "j1": "hidden", "j2": "hidden"}
    for leaf in "abcdef":
        kinds[leaf] = "observed"
    return Grid.create(kinds, CHERRY_EDGES)


@pytest.fixture
def split_grid() -> Grid:
    kinds = {"t": "root", "h": "hidden"}
    kinds.update({leaf: "observed" for leaf in "abcde"})
    return Grid.create(kinds, SPLIT_EDGES)


@pytest.fixture
def split_tree() -> LearnedTree:
    """A learned tree over a..e whose line d - e never meets junction j."""
    edges = tuple(TreeEdge(u, v, 1.0) for u, v in (("j", "a"), ("j", "b"), ("j", "c"), ("d", "e")))
    return LearnedTree(("a", "b", "c", "d", "e", "j"), edges, frozenset({"j"}))
