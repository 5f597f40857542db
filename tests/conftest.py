from __future__ import annotations

import random
from pathlib import Path

import pytest

from oracles import random_graph

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden" / "connected_n1-7.txt"


def corpus_path(order: int) -> Path:
    return DATA_DIR / f"connected_n{order}.g6"


@pytest.fixture(scope="session")
def random_small_graphs():
    """Deterministic sample of small graphs at mixed densities, disconnected included."""
    rng = random.Random(20240901)
    graphs = []
    for _ in range(220):
        n = rng.randint(1, 7)
        p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.9))
        graphs.append(random_graph(rng, n, p))
    return graphs


def pin_python_walk(monkeypatch) -> None:
    """Make the counting calls run without the native walk, as when no compiler is found.

    They then count graphs of up to 25 vertices by brute force and larger
    ones with the plain walk of ``iter_mv_sets``.
    """
    import visipoly._native as native

    monkeypatch.setattr(native, "load", lambda: None)


def native_counters(g, theta: bool):
    """The native walk's counters on g, or None when no C compiler is found."""
    import visipoly._native as native

    walk = native.load()
    if walk is None:
        return None
    counters: dict = {}
    walk(g.adj, theta, counters)
    return counters
