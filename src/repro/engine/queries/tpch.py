"""Specialized RPAI engine for TPC-H Q18.

The nested aggregate (orders with Σ quantity > 300) is uncorrelated;
both DBToaster and our engine maintain it with point updates in O(1).
Included for the parity column of Figure 7.  (Q17 is built from its
plan: :class:`~repro.engine.queries.common.ThresholdSide`.)
"""

from __future__ import annotations

from repro.engine.base import IncrementalEngine, Result
from repro.storage.stream import Event

__all__ = ["Q18RpaiEngine"]


class Q18RpaiEngine(IncrementalEngine):
    """O(1)-per-update TPC-H Q18 (uncorrelated HAVING semijoin).

    The result is ``{custkey: Σ quantity over lineitems of that
    customer's qualifying orders}``.  Key assumption (true for TPC-H
    data): ``orderkey`` and ``custkey`` are unique in their tables.
    """

    name = "rpai"

    def __init__(self, threshold: float = 300) -> None:
        self.threshold = threshold
        self._order_quantity: dict[int, float] = {}
        self._order_customer: dict[int, int] = {}
        self._customer_orders: dict[int, set[int]] = {}
        self._customers: set[int] = set()
        # Contribution of each order currently reflected in the result.
        self._active: dict[int, tuple[int, float]] = {}
        self._result: dict[int, float] = {}

    def _lineitem(self, x, orderkey, quantity) -> None:
        order_quantity = self._order_quantity
        quantity = order_quantity.get(orderkey, 0) + x * quantity
        if quantity:
            order_quantity[orderkey] = quantity
        else:
            order_quantity.pop(orderkey, None)
        self._retract(orderkey)
        # _refresh_order with the quantity already in hand.
        if quantity > self.threshold:
            custkey = self._order_customer.get(orderkey)
            if custkey is not None and custkey in self._customers:
                self._activate(orderkey, custkey, quantity)

    def _orders(self, x, orderkey, custkey) -> None:
        self._retract(orderkey)
        if x == 1:
            self._order_customer[orderkey] = custkey
            self._customer_orders.setdefault(custkey, set()).add(orderkey)
            # _refresh_order with the customer already in hand; a
            # deleted order has no customer, so only the retraction
            # above applies to it.
            if custkey in self._customers:
                quantity = self._order_quantity.get(orderkey, 0)
                if quantity > self.threshold:
                    self._activate(orderkey, custkey, quantity)
        else:
            self._order_customer.pop(orderkey, None)
            orders = self._customer_orders.get(custkey)
            if orders is not None:
                orders.discard(orderkey)
                if not orders:
                    del self._customer_orders[custkey]

    def _customer(self, x, custkey) -> None:
        if x == 1:
            self._customers.add(custkey)
        else:
            self._customers.discard(custkey)
        for orderkey in list(self._customer_orders.get(custkey, ())):
            self._refresh_order(orderkey)

    row_handlers = {
        "lineitem": (_lineitem, ("orderkey", "quantity")),
        "orders": (_orders, ("orderkey", "custkey")),
        "customer": (_customer, ("custkey",)),
    }

    def _retract(self, orderkey: int) -> None:
        """Take one order's contribution out of the result dict."""
        previous = self._active.pop(orderkey, None)
        if previous is not None:
            custkey, amount = previous
            remaining = self._result[custkey] - amount
            if remaining:
                self._result[custkey] = remaining
            else:
                del self._result[custkey]

    def _activate(self, orderkey: int, custkey: int, quantity: float) -> None:
        self._active[orderkey] = (custkey, quantity)
        self._result[custkey] = self._result.get(custkey, 0) + quantity

    def _refresh_order(self, orderkey: int) -> None:
        """Reconcile one order's contribution with the result dict."""
        self._retract(orderkey)
        quantity = self._order_quantity.get(orderkey, 0)
        custkey = self._order_customer.get(orderkey)
        if (
            quantity > self.threshold
            and custkey is not None
            and custkey in self._customers
        ):
            self._activate(orderkey, custkey, quantity)

    def result(self) -> Result:
        return dict(self._result)

    # -- sharded execution: hash on orderkey, broadcast customers --
    # Lineitems and orders join on orderkey, so partitioning both by
    # orderkey keeps every order's reassembly shard-local.  Customer
    # events carry no orderkey; they are reference data gating
    # qualification, so they broadcast to every replica (returning None
    # from the routing key).  A customer's orders may land on several
    # shards, so the grouped union combines colliding custkeys by
    # addition — per-shard dicts never hold zero entries, matching the
    # unsharded result exactly.

    shard_mode = "hash"

    def shard_routing_key(self, event: Event):
        if event.relation == "customer":
            return None  # broadcast
        if event.relation not in ("orders", "lineitem"):
            return 0  # irrelevant relation: pin anywhere, it is ignored
        return event.row["orderkey"]

    def shard_routing_spec(self) -> dict:
        return {
            "customer": ("broadcast",),
            "orders": ("column", "orderkey"),
            "lineitem": ("column", "orderkey"),
            "*": ("pin", 0),
        }

    def shard_partial(self):
        return dict(self._result)

    def shard_combine(self, partials, probes) -> Result:
        from repro.engine.mergeable import merge_grouped

        return merge_grouped(partials)
