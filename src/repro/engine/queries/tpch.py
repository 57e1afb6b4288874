"""Specialized RPAI engines for TPC-H Q17 and Q18.

**Q17** (Section 5.2.2): the correlated subquery
``SELECT 0.2 * AVG(l2.quantity) FROM lineitem l2 WHERE l2.partkey =
p.partkey`` correlates on *equality*, so the engine keeps, per part
key, an ordered index ``quantity -> Σ extendedprice`` plus the running
(Σ quantity, count) pair for the average.  A lineitem arrival updates
one part's index and re-probes that part's contribution with a single
``get_sum`` — O(log n) regardless of data skew, which is the point of
the Q17* experiment.

**Q18**: the nested aggregate (orders with Σ quantity > 300) is
uncorrelated; both DBToaster and our engine maintain it with point
updates in O(1).  Included for the parity column of Figure 7.
"""

from __future__ import annotations

from repro.engine.base import IncrementalEngine, Result
from repro.storage.stream import Event
from repro.trees.treemap import TreeMap
from repro.workloads.tpch import Q17_BRAND, Q17_CONTAINER

__all__ = ["Q17RpaiEngine", "Q18RpaiEngine"]


class _PartGroup:
    """Per-partkey state: quantity domain + average components.

    The ordered index over quantities is built *lazily*, only while the
    part passes the brand/container filter: the overwhelming majority
    of lineitems belong to non-qualifying parts and should cost exactly
    one dict update, like the baseline's maps.  While the tree exists it
    is maintained incrementally (O(log d) per lineitem).
    """

    __slots__ = ("domain", "tree", "quantity_sum", "count")

    def __init__(self) -> None:
        self.domain: dict[int, float] = {}  # quantity -> Σ extendedprice
        self.tree: TreeMap | None = None
        self.quantity_sum: float = 0
        self.count: int = 0

    def ensure_tree(self) -> None:
        if self.tree is None:
            tree = TreeMap(prune_zeros=True)
            for quantity, price_sum in self.domain.items():
                tree.add(quantity, price_sum)
            self.tree = tree

    def drop_tree(self) -> None:
        self.tree = None

    def contribution(self) -> float:
        """Σ extendedprice over lineitems with quantity < 0.2 * avg.
        Requires :meth:`ensure_tree` to have run."""
        if self.count == 0 or self.tree is None:
            return 0
        threshold = 0.2 * (self.quantity_sum / self.count)
        return self.tree.get_sum(threshold, inclusive=False)


class Q17RpaiEngine(IncrementalEngine):
    """O(log n)-per-update TPC-H Q17.

    Args:
        brand / container: the part filter (defaults are the query
            constants from the paper).
    """

    name = "rpai"

    def __init__(self, brand: str = Q17_BRAND, container: str = Q17_CONTAINER) -> None:
        self.brand = brand
        self.container = container
        self._groups: dict[int, _PartGroup] = {}
        self._qualifying: set[int] = set()
        self._total: float = 0  # Σ of qualifying parts' contributions

    def _lineitem(self, x, partkey, quantity, extendedprice) -> None:
        group = self._groups.get(partkey)
        if group is None:
            group = self._groups[partkey] = _PartGroup()
        tracked = partkey in self._qualifying
        if tracked:
            self._total -= group.contribution()
        price_delta = x * extendedprice
        domain = group.domain
        value = domain.get(quantity, 0) + price_delta
        if value:
            domain[quantity] = value
        else:
            domain.pop(quantity, None)
        group.quantity_sum += x * quantity
        group.count += x
        if group.tree is not None:
            group.tree.add(quantity, price_delta)
        if tracked:
            self._total += group.contribution()
        elif not group.count and not domain:
            # The part's last lineitem is gone and no part row holds the
            # group: an empty group is what ``get`` finds absent.
            del self._groups[partkey]

    def _part(self, x, partkey, brand, container) -> None:
        if brand == self.brand and container == self.container:
            group = self._groups.get(partkey)
            if group is None:
                group = self._groups[partkey] = _PartGroup()
            if x == 1:
                self._qualifying.add(partkey)
                group.ensure_tree()
                self._total += group.contribution()
            else:
                self._qualifying.discard(partkey)
                self._total -= group.contribution()
                group.drop_tree()
                if not group.count and not group.domain:
                    del self._groups[partkey]

    row_handlers = {
        "lineitem": (_lineitem, ("partkey", "quantity", "extendedprice")),
        "part": (_part, ("partkey", "brand", "container")),
    }

    def result(self) -> Result:
        return self._total / 7.0

    # -- sharded execution: equality correlation on partkey --
    # Both relations carry partkey, so hash partitioning puts every
    # tuple of a part (and the part row itself) on one replica; each
    # replica's ``_total`` is the Σ over its own qualifying parts.  The
    # per-shard totals are integer sums (quantities/prices are ints in
    # the workload generator), so adding them and dividing by 7.0 once
    # reproduces the unsharded float bit-for-bit.

    shard_mode = "hash"

    def shard_routing_key(self, event: Event):
        if event.relation not in ("part", "lineitem"):
            return 0  # irrelevant relation: pin anywhere, it is ignored
        return event.row["partkey"]

    def shard_routing_spec(self) -> dict:
        return {
            "part": ("column", "partkey"),
            "lineitem": ("column", "partkey"),
            "*": ("pin", 0),
        }

    def shard_partial(self):
        return self._total

    def shard_combine(self, partials, probes) -> Result:
        from repro.engine.mergeable import merge_sums

        return merge_sums(partials) / 7.0


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
