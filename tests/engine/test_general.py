"""Tests for the Section 4.2 general algorithm: the aggregate-index
engine's free-map side."""

import random

import pytest

from repro.engine.naive import NaiveEngine
from repro.errors import UnsupportedQueryError
from repro.query.parser import parse_query
from repro.storage import schema as schemas
from repro.storage.stream import Event
from repro.workloads.queries import QUERIES

from tests.conftest import bid_events, free_map_engine, random_bid_stream
from tests.engine.test_trigger_shapes import SHAPES, chunked, drive, identical


class TestSupportedShapes:
    @pytest.mark.parametrize("name", ["VWAP", "SQ1", "SQ2", "EQ"])
    def test_matches_naive(self, name):
        qd = QUERIES[name]
        ga = free_map_engine(qd.ast)
        naive = NaiveEngine(qd.ast, qd.schema_map())
        if name == "EQ":
            import random

            rng = random.Random(1)
            live = []
            for index in range(150):
                if live and rng.random() < 0.3:
                    event = Event("R", live.pop(rng.randrange(len(live))), -1)
                else:
                    row = {"A": rng.randint(1, 5), "B": rng.randint(1, 3)}
                    live.append(row)
                    event = Event("R", row, +1)
                assert naive.on_event(event) == ga.on_event(event), index
        else:
            for index, event in enumerate(random_bid_stream(140, seed=sum(map(ord, name)))):
                assert naive.on_event(event) == ga.on_event(event), index

    def test_sq2_produces_nonzero_results(self):
        """Guard against a vacuous differential test: with low prices
        and volumes the asymmetric predicate does fire."""
        qd = QUERIES["SQ2"]
        ga = free_map_engine(qd.ast)
        results = [
            ga.on_event(e)
            for e in random_bid_stream(
                200, seed=2, price_levels=60, volume_max=4, delete_probability=0.1
            )
        ]
        assert any(r != 0 for r in results)

    def test_count_result_aggregate(self):
        q = parse_query(
            "SELECT COUNT(*) FROM bids b WHERE "
            "0.5 * (SELECT SUM(b1.volume) FROM bids b1) < "
            "(SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)"
        )
        ga = free_map_engine(q)
        naive = NaiveEngine(q, {"bids": schemas.BIDS})
        for event in random_bid_stream(100, seed=41):
            assert naive.on_event(event) == ga.on_event(event)

    def test_avg_inner_aggregate(self):
        q = parse_query(
            "SELECT SUM(b.price) FROM bids b WHERE "
            "(SELECT AVG(b1.volume) FROM bids b1) < "
            "(SELECT AVG(b2.volume) FROM bids b2 WHERE b2.price <= b.price)"
        )
        ga = free_map_engine(q)
        naive = NaiveEngine(q, {"bids": schemas.BIDS})
        for event in random_bid_stream(100, seed=43):
            assert naive.on_event(event) == ga.on_event(event)

    def test_equality_correlation(self):
        q = parse_query(
            "SELECT SUM(b.price) FROM bids b WHERE "
            "0.25 * (SELECT SUM(b1.volume) FROM bids b1) < "
            "(SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price = b.price)"
        )
        ga = free_map_engine(q)
        naive = NaiveEngine(q, {"bids": schemas.BIDS})
        for event in random_bid_stream(120, seed=44, price_levels=6):
            assert naive.on_event(event) == ga.on_event(event)


class TestRejections:
    def test_multi_relation_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            free_map_engine(QUERIES["MST"].ast)

    def test_group_by_rejected(self):
        q = parse_query("SELECT SUM(b.price) FROM bids b GROUP BY b.broker_id")
        with pytest.raises(UnsupportedQueryError):
            free_map_engine(q)

    def test_min_result_rejected(self):
        q = parse_query(
            "SELECT MIN(b.price) FROM bids b WHERE "
            "1 < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)"
        )
        with pytest.raises(UnsupportedQueryError):
            free_map_engine(q)

    def test_disjunctive_predicate_rejected(self):
        q = parse_query(
            "SELECT SUM(b.price) FROM bids b WHERE b.price > 1 OR b.price < 0"
        )
        with pytest.raises(UnsupportedQueryError):
            free_map_engine(q)

    def test_correlation_with_foreign_alias_rejected(self):
        q = parse_query(
            "SELECT SUM(l.quantity) FROM lineitem l WHERE "
            "l.quantity < (SELECT AVG(l2.quantity) FROM lineitem l2 "
            "WHERE l2.partkey = l.partkey AND l2.orderkey <= l.orderkey "
            "AND l2.quantity >= l.quantity)"
        )
        # multiple predicates in the subquery -> not a single comparison
        with pytest.raises(UnsupportedQueryError):
            free_map_engine(q)


class TestStateBookkeeping:
    def test_group_key_prunes_on_empty(self):
        qd = QUERIES["VWAP"]
        ga = free_map_engine(qd.ast)
        events = list(bid_events([(10, 5), (20, 5)]))
        for event in events:
            ga.on_event(event)
        (side,) = ga.sides
        assert len(side.res_sum) == 2
        for event in events:
            ga.on_event(event.inverted())
        assert len(side.res_sum) == 0
        assert ga.result() == 0


def test_traceback_shows_the_generated_recompute_line():
    """The emitted module is registered with ``linecache``: a
    representative row missing a column fails inside ``result`` and the
    traceback quotes the unrolled conjunct."""
    import traceback

    ga = free_map_engine(QUERIES["SQ1"].ast)
    for event in bid_events([(10, 5), (20, 5)]):
        ga.on_event(event)
    ga.sides[0].res_repr[10] = {}
    with pytest.raises(KeyError):
        try:
            ga.result()
        except KeyError:
            trace = traceback.format_exc()
            raise
    assert 'File "<codegen:' in trace and "in result" in trace
    assert "if not ((0.75 * (1.0 * _fs0_0[_orow['price']]))" in trace


# θ × inner aggregate × constant scale, against the naive interpreter in
# all three call shapes, with insertions, deletions and a pickle round
# trip mid-stream.  MIN/MAX range over the correlation attribute itself
# (the only correlated extreme the engine takes).
_INNER = {
    "SUM": ("SUM(b2.volume)", "0.1 * (SELECT SUM(b1.volume) FROM bids b1)", "<"),
    "COUNT": ("COUNT(*)", "1", "<="),
    "AVG": ("AVG(b2.volume)", "0.2 * (SELECT AVG(b1.volume) FROM bids b1)", "<"),
    "MIN": ("MIN(b2.price)", "0.05 * b.price", "<="),
    "MAX": ("MAX(b2.price)", "0.05 * b.price", "<="),
}
#: scale -> (the subquery's select, the predicate's other side).  A
#: seventh is no power of two, so ``x / 7.0`` is not ``x * (1 / 7.0)``;
#: the other side takes it too, or the predicate would never flip.
_SCALES = {
    "unscaled": ("{}", "{}"),
    "half": ("0.5 * {}", "{}"),
    "quarter": ("{} / 4", "{}"),
    "seventh": ("{} / 7.0", "{} / 7.0"),
}


def _assert_matches_naive_in_every_shape(query, seed=5, count=60, events=None, relations=None):
    rng = random.Random(seed)
    if events is None:
        events = list(
            random_bid_stream(
                count, seed=seed, price_levels=10, volume_max=6, delete_probability=0.3
            )
        )
    chunks = chunked(rng, events)
    expected, _ = drive(NaiveEngine(query, relations or {"bids": schemas.BIDS}), chunks, "batch")
    traces = {
        shape: drive(
            free_map_engine(query), chunks, shape, restore_at=len(chunks) // 2
        )[0]
        for shape in SHAPES
    }
    assert traces["event"] == expected
    # the result aggregate under a scale of 1.0: a float, as naive's int is not
    assert all(type(value) is float for value in traces["event"])
    assert identical(traces["batch"], traces["event"])
    assert identical(traces["frame"], traces["batch"])
    return expected


def _r_stream(count: int, seed: int) -> list[Event]:
    """EQ's relation in two groups: half the total is often one group's."""
    rng = random.Random(seed)
    events, live = [], []
    while len(events) < count:
        if live and rng.random() < 0.3:
            events.append(Event("R", live.pop(rng.randrange(len(live))), -1))
        else:
            row = {"A": rng.randint(1, 2), "B": rng.randint(1, 3)}
            live.append(row)
            events.append(Event("R", row, +1))
    return events


@pytest.mark.parametrize("name", ["SQ1", "SQ2", "VWAP", "EQ"])
def test_registry_queries_in_every_shape(name):
    """SQ1 and SQ2, and VWAP and EQ forced onto the free-map side."""
    qd = QUERIES[name]
    if name == "EQ":
        events = _r_stream(150, 1)
    elif name == "SQ2":  # low prices against the volumes: the predicate fires
        events = list(random_bid_stream(200, seed=2, price_levels=60, volume_max=4))
    else:
        events = list(random_bid_stream(140, seed=sum(map(ord, name)), delete_probability=0.3))
    trace = _assert_matches_naive_in_every_shape(qd.ast, events=events, relations=qd.schema_map())
    assert len(set(trace)) > 1, "vacuous: the predicate never flips"


def test_count_result_in_every_shape():
    query = parse_query(
        "SELECT COUNT(*) FROM bids b WHERE "
        "0.5 * (SELECT SUM(b1.volume) FROM bids b1) < "
        "(SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)"
    )
    assert len(set(_assert_matches_naive_in_every_shape(query, seed=41, count=100))) > 2


@pytest.mark.parametrize("scale", _SCALES)
@pytest.mark.parametrize("func", _INNER)
@pytest.mark.parametrize("theta", ["<", "<=", "=", "<>", ">=", ">"])
def test_theta_by_inner_aggregate_by_scale(theta, func, scale):
    call, fixed, op = _INNER[func]
    call_scale, fixed_scale = _SCALES[scale]
    query = parse_query(
        f"SELECT SUM(b.volume) FROM bids b WHERE {fixed_scale.format(fixed)} {op} "
        f"(SELECT {call_scale.format(call)} FROM bids b2 "
        f"WHERE b2.price {theta} b.price)"
    )
    trace = _assert_matches_naive_in_every_shape(query)
    assert len(set(trace)) > 2, "vacuous: the predicate never flips"


@pytest.mark.parametrize(
    "select,inner",
    [
        ("SUM(b.price)", "SUM(b2.volume) / 2"),
        ("SUM(b.price)", "2 * (0.25 * SUM(b2.volume))"),
        ("SUM(b.price) / 4", "SUM(b2.volume)"),
        ("SUM(b.price * b.volume) / 7.0", "SUM(b2.volume)"),
        ("COUNT(*) / 2", "0.5 * SUM(b2.volume)"),
    ],
)
def test_constant_scaled_aggregates(select, inner):
    """Every ``c *`` / ``* c`` / ``/ c`` nesting ``peel_constant_scale``
    strips is accepted on the subquery side as on the result side."""
    query = parse_query(
        f"SELECT {select} FROM bids b WHERE "
        "0.25 * (SELECT SUM(b1.volume) FROM bids b1) < "
        f"(SELECT {inner} FROM bids b2 WHERE b2.price <= b.price)"
    )
    trace = _assert_matches_naive_in_every_shape(query, seed=9)
    assert len(set(trace)) > 2


def test_no_group_columns_in_every_shape():
    """No predicate reads an outer column: every row is one group, keyed
    by no column."""
    query = parse_query(
        "SELECT SUM(b.price) FROM bids b WHERE 10 < (SELECT SUM(b1.volume) FROM bids b1)"
    )
    assert len(set(_assert_matches_naive_in_every_shape(query, seed=7, count=80))) > 2
