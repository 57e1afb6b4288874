"""The central correctness experiment: every incremental engine must
produce *exactly* the naive interpreter's result after *every* event of
a random insert/delete stream.

Workloads use integer prices/volumes, so results are exact and the
comparison is equality: floats appear only through fixed scale factors
and Q17's ``/ 7.0``, which every engine applies to the same exact sum
as written.
"""

import pytest

from repro.engine.naive import NaiveEngine
from repro.engine.registry import available_strategies, build_engine
from repro.storage.stream import Event, Stream
from repro.workloads import (
    OrderBookConfig,
    TPCHConfig,
    generate_bids_only,
    generate_order_book,
    generate_tpch,
    get_query,
)

from tests.conftest import random_bid_stream


def _eq_stream(count: int, seed: int) -> Stream:
    import random

    rng = random.Random(seed)
    events, live = [], []
    while len(events) < count:
        if live and rng.random() < 0.3:
            events.append(Event("R", live.pop(rng.randrange(len(live))), -1))
        else:
            row = {"A": rng.randint(1, 5), "B": rng.randint(1, 3)}
            live.append(row)
            events.append(Event("R", row, +1))
    return Stream(events)


# (query, stream factory, events) — sizes bounded by the naive oracle's
# per-update cost (NQ1/NQ2's oracle is cubic in the trace).
CASES = {
    "EQ": lambda: _eq_stream(160, seed=5),
    "VWAP": lambda: random_bid_stream(150, seed=7),
    "SQ1": lambda: random_bid_stream(120, seed=8),
    "SQ2": lambda: random_bid_stream(120, seed=9, price_levels=12, volume_max=5),
    "MST": lambda: generate_order_book(
        OrderBookConfig(events=110, price_levels=20, volume_max=9, seed=10, delete_ratio=0.25)
    ),
    "PSP": lambda: generate_order_book(
        OrderBookConfig(events=120, price_levels=20, volume_max=9, seed=11, delete_ratio=0.25)
    ),
    "NQ1": lambda: random_bid_stream(90, seed=12, price_levels=15, volume_max=6),
    "NQ2": lambda: random_bid_stream(42, seed=13, price_levels=10, volume_max=5),
    "Q17": lambda: generate_tpch(TPCHConfig(scale_factor=0.003, seed=14)),
    "Q18": lambda: generate_tpch(TPCHConfig(scale_factor=0.002, seed=15)),
}


def assert_results_equal(name: str, index: int, expected, actual) -> None:
    assert actual == expected, (
        f"{name} diverged at event {index}: naive={expected} got={actual}"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_rpai_engine_matches_naive(name):
    stream = CASES[name]()
    qd = get_query(name)
    naive = NaiveEngine(qd.ast, qd.schema_map())
    engine = build_engine(name, "rpai")
    for index, event in enumerate(stream):
        assert_results_equal(name, index, naive.on_event(event), engine.on_event(event))


@pytest.mark.parametrize("name", sorted(CASES))
def test_dbtoaster_engine_matches_naive(name):
    stream = CASES[name]()
    qd = get_query(name)
    naive = NaiveEngine(qd.ast, qd.schema_map())
    engine = build_engine(name, "dbtoaster")
    for index, event in enumerate(stream):
        assert_results_equal(name, index, naive.on_event(event), engine.on_event(event))


@pytest.mark.parametrize("name", sorted(CASES))
def test_rpai_and_dbtoaster_agree_on_larger_streams(name):
    """Without the slow oracle we can afford bigger streams: the two
    incremental engines must still agree event-by-event."""
    if name == "NQ2":
        stream = random_bid_stream(150, seed=23, price_levels=15, volume_max=6)
    elif name in ("Q17", "Q18"):
        stream = generate_tpch(TPCHConfig(scale_factor=0.02, seed=24))
    elif name in ("MST", "PSP"):
        stream = generate_order_book(
            OrderBookConfig(events=400, price_levels=40, volume_max=20, seed=25, delete_ratio=0.2)
        )
    elif name == "EQ":
        stream = _eq_stream(500, seed=26)
    else:
        stream = random_bid_stream(400, seed=27, price_levels=40, volume_max=20)
    rpai = build_engine(name, "rpai")
    dbt = build_engine(name, "dbtoaster")
    for index, event in enumerate(stream):
        a = dbt.on_event(event)
        b = rpai.on_event(event)
        assert_results_equal(name, index, a, b)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_strategy_available(name):
    assert available_strategies(name) == ("recompute", "dbtoaster", "rpai")


def test_unknown_query_rejected():
    with pytest.raises(KeyError):
        build_engine("NOPE", "rpai")


def test_unknown_strategy_rejected():
    with pytest.raises(KeyError):
        build_engine("VWAP", "quantum")


@pytest.mark.parametrize("name", ["VWAP", "MST", "NQ1"])
def test_delete_everything_returns_to_zero(name):
    """Insert a stream, then retract every row: all engines must end at
    the empty-database result."""
    if name == "MST":
        base = generate_order_book(
            OrderBookConfig(events=60, price_levels=12, volume_max=6, seed=31, delete_ratio=0.0)
        )
    else:
        base = random_bid_stream(60, seed=31, delete_probability=0.0)
    inserts = list(base)
    full = Stream(inserts + [e.inverted() for e in reversed(inserts)])
    engine = build_engine(name, "rpai")
    final = engine.process(full)
    assert final == 0
