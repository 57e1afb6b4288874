"""Shared machinery for the specialized per-query RPAI engines.

:class:`ShiftedSide` packages the Figure 2c trigger for one relation:
an ordered bound map (attribute -> inner-aggregate contributions) plus
one aggregate index keyed by the correlated subquery's value, with one
*column* per "required sum" of Algorithm 4's ``for reqSum in
requiredSums(Q, Ri)`` loop.  The required sums of one relation are
indexed by the same keys and move by the same shifts, so they share a
tree: MST carries two columns per side (Σ price and count), a
COUNT-only conjunctive query one.

The attribute ordering is normalized so the subquery value is always an
*inclusive or strict prefix sum* in stored-key order ('>' / '>='
correlations store negated keys).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.rpai import RPAITree
from repro.errors import EngineStateError, UnsupportedQueryError
from repro.trees.treemap import TreeMap

__all__ = ["ShiftedSide", "probe_index"]


def probe_index(index, op: str, probe: float, zero: Any = 0) -> Any:
    """Sum of ``index`` values over keys ``k`` satisfying ``probe op k``
    (per column, as a tuple, on a multi-column index — ``zero`` is then
    the all-zeros row an ``=`` probe returns for an absent key)."""
    if op == "=":
        return index.get(probe, zero)
    if op == "<":
        return index.suffix_sum(probe, inclusive=False)
    if op == "<=":
        return index.suffix_sum(probe, inclusive=True)
    if op == ">":
        return index.get_sum(probe, inclusive=False)
    if op == ">=":
        return index.get_sum(probe, inclusive=True)
    raise UnsupportedQueryError(f"unsupported probe operator {op!r}")


class ShiftedSide:
    """One relation's aggregate index under an inequality correlation.

    Args:
        inner_op: θ of the correlated predicate ``x.attr θ outer.attr``
            (one of ``<  <=  >  >=``).
        columns: how many required sums the index carries (each
            ``apply`` call passes one result delta per column).
    """

    def __init__(self, inner_op: str, columns: int = 1) -> None:
        if inner_op in {">", ">="}:
            self.key_sign = -1
            inner_op = "<" if inner_op == ">" else "<="
        elif inner_op in {"<", "<="}:
            self.key_sign = 1
        else:
            raise UnsupportedQueryError(
                f"ShiftedSide requires an inequality correlation, got {inner_op!r}"
            )
        self.inclusive = inner_op == "<="
        self.bound_map = TreeMap(prune_zeros=True)
        self.index = RPAITree(columns=columns, prune_zeros=True)
        self.total_weight: float = 0  # running Σ of inner contributions

    def __setstate__(self, state: dict) -> None:
        if "index" not in state:
            # Written before the required sums became columns of one
            # index (one tree per sum under ``indexes``): refuse, so the
            # snapshot loader rebuilds from the log instead.
            raise EngineStateError(
                "ShiftedSide state predates the multi-column index layout"
            )
        self.__dict__.update(state)

    def apply(self, attr: float, weight: float, res_deltas: Sequence[float]) -> None:
        """Process one tuple: ``attr`` is the correlation attribute,
        ``weight`` the signed inner-aggregate contribution (± volume),
        ``res_deltas`` the signed result contributions, one per column.

        This is Figure 2c with k required sums: one bound-map walk, one
        range shift and one point update, whatever k is.
        """
        key = self.key_sign * attr
        old_at_key, prefix_excl = self.bound_map.fetch_add(key, weight)
        if self.inclusive:
            self.index.shift_keys(prefix_excl, weight, inclusive=False)
            group_new = prefix_excl + old_at_key + weight
        else:
            self.index.shift_keys(prefix_excl, weight, inclusive=old_at_key == 0)
            group_new = prefix_excl
        if any(res_deltas):
            self.index.add(group_new, *res_deltas)
        self.total_weight += weight

    def qualifying(self, op: str, probe: float) -> tuple:
        """Per-column sums over groups whose subquery value ``k``
        satisfies ``probe op k``."""
        columns = self.index.columns
        if columns == 1:
            return (probe_index(self.index, op, probe),)
        return probe_index(self.index, op, probe, (0,) * columns)
