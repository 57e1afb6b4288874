"""DBToaster-style baseline for TPC-H Q17.

**Q17** uses the *domain extraction* optimization of [Nikolic et al.,
SIGMOD 2016] as the paper describes in Section 5.2.2: a multi-level
index ``partkey -> quantity -> Σ extendedprice`` so that the
re-evaluation loop runs over the *distinct quantity values of one
part key* rather than over all its lineitems.  On uniform TPC-H data
(quantity ∈ 1..50) that loop is effectively constant; on skewed data
the number of distinct quantities per hot part grows with the trace and
the loop degrades toward O(n) — the Q17 vs Q17* experiment.

**Q18**'s nested aggregate is uncorrelated, so DBToaster fully
incrementalizes it in O(1), same as our engine (the parity column of
Figure 7): the registry builds its baseline from Q18's plan, the
aggregate-index engine under the name ``dbtoaster``.
"""

from __future__ import annotations

from repro.engine.base import IncrementalEngine, Result
from repro.storage.stream import Event
from repro.workloads.tpch import Q17_BRAND, Q17_CONTAINER

__all__ = ["Q17DbtEngine"]


class Q17DbtEngine(IncrementalEngine):
    """Q17 with DBToaster's domain-extraction multi-level index.

    Per lineitem update, the affected part's contribution is
    re-evaluated by looping over its distinct quantity values —
    O(distinct quantities of that partkey).
    """

    name = "dbtoaster"

    def __init__(self, brand: str = Q17_BRAND, container: str = Q17_CONTAINER) -> None:
        self.brand = brand
        self.container = container
        # partkey -> quantity -> Σ extendedprice (the extracted domain)
        self._prices: dict[int, dict[int, float]] = {}
        self._quantity_sum: dict[int, float] = {}
        self._count: dict[int, int] = {}
        # partkey -> live part rows passing the filters (a bag: each
        # one joins every lineitem of the part)
        self._qualifying: dict[int, int] = {}
        # partkey -> contribution currently reflected in the total
        self._contribution: dict[int, float] = {}
        self._total: float = 0

    def _reevaluate(self, partkey: int) -> None:
        """Domain-extraction loop: iterate the part's distinct
        quantities, re-evaluating the predicate per quantity value."""
        old = self._contribution.pop(partkey, 0)
        self._total -= old
        rows = self._qualifying.get(partkey, 0)
        if not rows:
            return
        count = self._count.get(partkey, 0)
        if count == 0:
            return
        threshold = 0.2 * (self._quantity_sum[partkey] / count)
        contribution = 0.0
        for quantity, price_sum in self._prices.get(partkey, {}).items():
            if quantity < threshold:
                contribution += price_sum
        if contribution:
            contribution *= rows
            self._contribution[partkey] = contribution
            self._total += contribution

    def apply(self, event: Event) -> None:
        row, x = event.row, event.weight
        if event.relation == "part":
            if row["brand"] == self.brand and row["container"] == self.container:
                partkey = row["partkey"]
                rows = self._qualifying.pop(partkey, 0) + x
                if rows:
                    self._qualifying[partkey] = rows
                self._reevaluate(partkey)
        elif event.relation == "lineitem":
            partkey = row["partkey"]
            domain = self._prices.setdefault(partkey, {})
            quantity = row["quantity"]
            value = domain.get(quantity, 0) + x * row["extendedprice"]
            if value:
                domain[quantity] = value
            else:
                domain.pop(quantity, None)
            self._quantity_sum[partkey] = (
                self._quantity_sum.get(partkey, 0) + x * quantity
            )
            self._count[partkey] = self._count.get(partkey, 0) + x
            self._reevaluate(partkey)

    def result(self) -> Result:
        return self._total / 7.0

