"""Planner tests: the Section 4.3.1 identification matrix (Table 1)."""

import pytest

from repro.errors import UnsupportedQueryError
from repro.query.ast import ColumnRef
from repro.query.parser import parse_query
from repro.query.planner import Strategy, asymptotic_cost, classify
from repro.workloads.queries import QUERIES

EXPECTED = {
    "EQ": Strategy.PAI_EQUALITY,
    "VWAP": Strategy.RPAI_INEQUALITY,
    "MST": Strategy.RPAI_CONJUNCTIVE,
    "PSP": Strategy.RPAI_CONJUNCTIVE,
    "SQ1": Strategy.GENERAL,
    "SQ2": Strategy.GENERAL,
    "NQ1": Strategy.GENERAL_NESTED,
    "NQ2": Strategy.GENERAL_NESTED,
    "Q17": Strategy.RPAI_GROUPED,
    "Q18": Strategy.UNCORRELATED,
}


class TestBenchmarkClassification:
    @pytest.mark.parametrize("name,strategy", sorted(EXPECTED.items()))
    def test_strategy(self, name, strategy):
        plan = classify(QUERIES[name].ast)
        assert plan.strategy is strategy, plan.reason

    def test_costs_reported(self):
        for name in EXPECTED:
            plan = classify(QUERIES[name].ast)
            assert asymptotic_cost(plan).startswith("O(")

    def test_describe_mentions_strategy(self):
        plan = classify(QUERIES["VWAP"].ast)
        assert "rpai-inequality" in plan.describe()


#: The paper's Table 1, our system's per-update column (EXPERIMENTS.md
#: "Table 1"); EQ is Example 2.1's O(1) PAI map.
TABLE_1 = {
    "EQ": "O(1)",
    "VWAP": "O(log n)",
    "MST": "O(log n)",
    "PSP": "O(log n)",
    "SQ1": "O(n)",
    "SQ2": "O(n)",
    "NQ1": "O(log n)",
    "NQ2": "O(n log n)",
    "Q17": "O(log n)",
    "Q18": "O(1)",
}


@pytest.mark.parametrize("name", sorted(TABLE_1))
def test_cost_is_the_papers_table_1_column(name):
    assert asymptotic_cost(classify(QUERIES[name].ast)) == TABLE_1[name]


class TestVWAPPlanDetails:
    def test_index_spec(self):
        plan = classify(QUERIES["VWAP"].ast)
        (spec,) = plan.index_specs
        assert spec.relation == "bids"
        assert spec.outer_alias == "b"
        assert spec.inner_func == "SUM"
        assert spec.inner_op == "<="
        assert spec.inner_col.column == "price"
        assert spec.outer_col.column == "price"
        assert spec.outer_op == "<"  # 0.75*total < rhs


class TestMSTPlanDetails:
    def test_two_specs_one_per_relation(self):
        plan = classify(QUERIES["MST"].ast)
        aliases = sorted(s.outer_alias for s in plan.index_specs)
        assert aliases == ["a", "b"]
        for spec in plan.index_specs:
            assert spec.inner_op == ">"
            assert spec.outer_op == ">"


class TestShapeRejections:
    def test_subquery_with_arithmetic_wrapper_falls_to_general(self):
        # The correlated side is scaled: keys would need rescaling.
        q = parse_query(
            "SELECT SUM(b.price * b.volume) FROM bids b "
            "WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1) < "
            "2 * (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)"
        )
        assert classify(q).strategy is Strategy.GENERAL

    def test_min_aggregate_forces_general(self):
        q = parse_query(
            "SELECT SUM(b.price) FROM bids b "
            "WHERE 1 < (SELECT MIN(b2.volume) FROM bids b2 "
            "WHERE b2.price <= b.price)"
        )
        assert classify(q).strategy is Strategy.GENERAL

    def test_asymmetric_inner_predicate_forces_general(self):
        assert classify(QUERIES["SQ2"].ast).strategy is Strategy.GENERAL

    def test_both_sides_correlated_forces_general(self):
        assert classify(QUERIES["SQ1"].ast).strategy is Strategy.GENERAL

    def test_multi_level_nesting_detected(self):
        assert classify(QUERIES["NQ1"].ast).strategy is Strategy.GENERAL_NESTED

    def test_non_aggregate_select_rejected(self):
        q = parse_query("SELECT r.A FROM R r WHERE r.A > 1")
        with pytest.raises(UnsupportedQueryError):
            classify(q)

    def test_inner_group_by_falls_to_general(self):
        q = parse_query(
            "SELECT SUM(b.price) FROM bids b "
            "WHERE 1 < (SELECT SUM(b2.volume) FROM bids b2 "
            "WHERE b2.price <= b.price GROUP BY b2.broker_id)"
        )
        assert classify(q).strategy is Strategy.GENERAL


class TestPSPPlanDetails:
    def test_each_side_is_keyed_by_its_volume_column(self):
        plan = classify(QUERIES["PSP"].ast)
        for spec, alias in zip(plan.index_specs, ("b", "a")):
            assert spec.key_col == ColumnRef(alias, "volume")
            assert spec.outer_op == "<"  # 0.0001 * total < volume
            assert spec.inner_func is None
            assert "0.0001 *" in str(spec.fixed_expr)

    def test_a_constant_filter_is_not_a_threshold(self):
        plan = classify(parse_query("SELECT SUM(r.A) FROM R r WHERE r.A > 1"))
        assert plan.strategy is Strategy.UNCORRELATED


class TestGroupedThresholdShape:
    def test_q17_spec(self):
        plan = classify(QUERIES["Q17"].ast)
        (spec,) = plan.index_specs
        assert spec.relation == "lineitem"
        assert spec.inner_func == "AVG"
        assert spec.inner_op == "="
        assert spec.inner_col.column == "partkey"
        assert spec.key_col == ColumnRef("l", "quantity")
        assert spec.outer_op == ">"  # 0.2 * avg > l.quantity
        assert len(spec.filters) == 3  # the join and the two part filters

    def test_describe_keeps_the_whole_probe(self):
        described = classify(QUERIES["Q17"].ast).describe()
        assert "probe (0.2 * AVG(l2.quantity)) > l.quantity" in described

    def test_two_correlated_conjuncts_reject_grouped_shape(self):
        q = parse_query(
            "SELECT SUM(l.price) FROM L l "
            "WHERE l.q < (SELECT AVG(l2.q) FROM L l2 WHERE l2.k = l.k) "
            "AND l.p < (SELECT AVG(l3.p) FROM L l3 WHERE l3.k = l.k)"
        )
        plan = classify(q)
        assert plan.strategy is not Strategy.RPAI_GROUPED


class TestMembershipShape:
    """TPC-H Q18's ``IN (… GROUP BY … HAVING …)`` semijoin stays
    ``UNCORRELATED`` / O(1) and carries the spec its engine builds from."""

    def test_q18_spec(self):
        plan = classify(QUERIES["Q18"].ast)
        assert plan.strategy is Strategy.UNCORRELATED
        assert asymptotic_cost(plan) == "O(1)"
        (spec,) = plan.index_specs
        assert (spec.relation, spec.outer_alias, spec.inner_op) == ("lineitem", "l", "IN")
        assert spec.outer_col == ColumnRef("o", "orderkey")
        assert spec.inner_col == ColumnRef("l2", "orderkey")
        assert (spec.inner_func, spec.inner_arg) == ("SUM", ColumnRef("l2", "quantity"))
        assert (spec.outer_op, spec.fixed_expr.value) == (">", 300)

    def test_describe_prints_key_having_and_the_two_joins(self):
        described = classify(QUERIES["Q18"].ast).describe()
        assert (
            "membership of o.orderkey in lineitem GROUP BY l2.orderkey "
            "HAVING SUM(l2.quantity) > 300, summed on l"
        ) in described
        assert "joined where o.orderkey = l.orderkey AND c.custkey = o.custkey" in described

    def test_a_flipped_having_and_join_give_the_same_spec(self):
        flipped = parse_query(
            "SELECT c.custkey, SUM(l.quantity) FROM customer c, orders o, lineitem l "
            "WHERE o.orderkey IN (SELECT l2.orderkey FROM lineitem l2 "
            "GROUP BY l2.orderkey HAVING 300 < SUM(l2.quantity)) "
            "AND o.custkey = c.custkey AND l.orderkey = o.orderkey GROUP BY c.custkey"
        )
        assert classify(flipped).index_specs == classify(QUERIES["Q18"].ast).index_specs

    def test_a_having_other_than_sum_gives_no_spec(self):
        """The side keeps a ``HAVING`` sum; COUNT/AVG build nothing."""
        counted = parse_query(
            QUERIES["Q18"].sql.replace("HAVING SUM(l2.quantity) > 300", "HAVING COUNT(*) > 3")
        )
        assert "COUNT(*)" in str(counted)
        plan = classify(counted)
        assert plan.strategy is Strategy.UNCORRELATED and plan.index_specs == ()
