"""Bounded state under churn: insert N rows, retract them all, and every
container the engine holds is back to the size a fresh engine has.

An engine that keeps an empty per-key object (a group, a set) for every
key it ever saw passes every result differential and still grows
without bound on a long-running stream whose keys turn over.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pai_map import PAIMap
from repro.core.rpai import RPAITree
from repro.engine.registry import build_engine
from repro.storage.stream import Event
from repro.trees.treemap import TreeMap
from repro.workloads import TPCHConfig, generate_tpch

from tests.conftest import random_bid_stream, two_sided

_SIZED = (dict, set, list, tuple, RPAITree, TreeMap, PAIMap)


def container_sizes(obj, path: str = "engine", out: dict | None = None) -> dict[str, int]:
    """``{attribute path: len}`` of every container reachable from
    ``obj`` through attributes, dict values and sequence items.  Trees
    and maps count as one container (their node pools — free lists —
    are not state and are not walked)."""
    out = {} if out is None else out
    if isinstance(obj, _SIZED):
        out[path] = len(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            container_sizes(value, f"{path}[{key!r}]", out)
    elif isinstance(obj, (list, tuple)):
        for index, value in enumerate(obj):
            container_sizes(value, f"{path}[{index}]", out)
    elif not isinstance(obj, (RPAITree, TreeMap, PAIMap, set)):
        names = list(getattr(obj, "__dict__", ()))
        for cls in type(obj).__mro__:
            names.extend(getattr(cls, "__slots__", ()))
        for name in names:
            if hasattr(obj, name) and not isinstance(getattr(obj, name), (int, float, str)):
                container_sizes(getattr(obj, name), f"{path}.{name}", out)
    return out


def churn(query: str, seed: int) -> list[Event]:
    """Insert-only rows for the query's relations, then a retraction of
    every one of them in shuffled order."""
    if query in ("Q17", "Q18"):
        inserts = list(generate_tpch(TPCHConfig(scale_factor=0.01, seed=seed)))
    else:
        inserts = two_sided(random_bid_stream(400, seed=seed, delete_probability=0.0))
    retractions = [event.inverted() for event in inserts]
    random.Random(seed).shuffle(retractions)
    return inserts + retractions


@pytest.mark.parametrize("query", ["Q17", "Q18", "PSP", "NQ1", "NQ2"])
@pytest.mark.parametrize("shape", ["event", "batch"])
def test_retracting_everything_returns_every_container_to_fresh(query, shape):
    events = churn(query, seed=13)
    engine = build_engine(query, "rpai")
    half = len(events) // 2
    if shape == "event":
        for event in events[:half]:
            engine.on_event(event)
        loaded = container_sizes(engine)
        for event in events[half:]:
            engine.on_event(event)
    else:
        for start in range(0, half, 64):
            engine.on_batch(events[start : min(start + 64, half)])
        loaded = container_sizes(engine)
        for start in range(half, len(events), 64):
            engine.on_batch(events[start : start + 64])
    fresh = container_sizes(build_engine(query, "rpai"))
    assert sum(loaded.values()) > sum(fresh.values()), "the load must have grown state"
    assert container_sizes(engine) == fresh
    assert not engine.result()
