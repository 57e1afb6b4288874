"""Correlated MIN/MAX under deletions (extension beyond §4.2.5).

The paper limits correlated MIN/MAX to insertion-only streams.  When
the aggregate's argument *is* the correlation attribute, the ordered
bound map already stores the live value multiset, so a range extreme is
a boundary lookup and deletions are exact.  These tests pin that
behaviour against the naive interpreter for every θ.
"""

import pytest

from repro.engine.naive import NaiveEngine
from repro.errors import UnsupportedQueryError
from repro.query.parser import parse_query
from repro.storage import schema as schemas

from tests.conftest import free_map_engine, random_bid_stream


def _query(func: str, theta: str):
    return parse_query(
        f"""
        SELECT SUM(b.volume) FROM bids b
        WHERE b.price <= (SELECT {func}(b2.price) FROM bids b2
                          WHERE b2.price {theta} b.price)
        """
    )


@pytest.mark.parametrize("func", ["MIN", "MAX"])
@pytest.mark.parametrize("theta", ["<", "<=", "<>", ">", ">="])
def test_matches_naive_with_deletions(func, theta):
    query = _query(func, theta)
    ga = free_map_engine(query)
    naive = NaiveEngine(query, {"bids": schemas.BIDS})
    stream = random_bid_stream(
        130, seed=sum(map(ord, func + theta)), delete_probability=0.35
    )
    for index, event in enumerate(stream):
        assert naive.on_event(event) == ga.on_event(event), (func, theta, index)


def test_equality_theta():
    query = _query("MAX", "=")
    ga = free_map_engine(query)
    naive = NaiveEngine(query, {"bids": schemas.BIDS})
    for index, event in enumerate(random_bid_stream(100, seed=77)):
        assert naive.on_event(event) == ga.on_event(event), index


def test_min_over_other_column_rejected():
    """MIN over a column that is not the correlation attribute cannot
    be answered from the bound map — still rejected, as in the paper."""
    query = parse_query(
        """
        SELECT SUM(b.volume) FROM bids b
        WHERE b.price <= (SELECT MIN(b2.volume) FROM bids b2
                          WHERE b2.price <= b.price)
        """
    )
    with pytest.raises(UnsupportedQueryError):
        free_map_engine(query)


def test_delete_current_extreme_recovers():
    """Delete the exact tuple holding the current range maximum."""
    from repro.storage.stream import Event

    from tests.conftest import make_bid

    query = _query("MAX", "<=")
    ga = free_map_engine(query)
    naive = NaiveEngine(query, {"bids": schemas.BIDS})
    rows = [make_bid(10, 1, bid_id=1), make_bid(20, 2, bid_id=2), make_bid(30, 3, bid_id=3)]
    for row in rows:
        event = Event("bids", row, +1)
        assert naive.on_event(event) == ga.on_event(event)
    drop = Event("bids", rows[2], -1)  # remove the global max
    assert naive.on_event(drop) == ga.on_event(drop)
