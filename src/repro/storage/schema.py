"""Relation schemas.

A :class:`Schema` names the columns of a relation and optionally types
them.  The incremental engines only need names (rows are dicts), but the
schema layer validates tuples at the stream boundary so malformed events
fail fast with a :class:`~repro.errors.SchemaError` instead of deep
inside a trigger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import SchemaError

__all__ = ["Schema", "WORKLOAD_SCHEMAS"]


@dataclass(frozen=True)
class Schema:
    """Column layout of a relation.

    Attributes:
        name: relation name (e.g. ``"bids"``).
        columns: ordered column names.
        types: optional column -> python type mapping used by
            :meth:`validate`; columns absent from the mapping are
            unchecked.
    """

    name: str
    columns: tuple[str, ...]
    types: Mapping[str, type] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"duplicate column in schema {self.name!r}")

    def validate(self, row: Mapping[str, Any]) -> None:
        """Check that ``row`` has exactly this schema's columns (and
        matching types where declared).

        Raises:
            SchemaError: on missing/extra columns or a type mismatch.
        """
        missing = [c for c in self.columns if c not in row]
        if missing:
            raise SchemaError(f"{self.name}: row missing columns {missing}")
        extra = [c for c in row if c not in self.columns]
        if extra:
            raise SchemaError(f"{self.name}: row has unknown columns {extra}")
        for column, expected in self.types.items():
            value = row[column]
            if not isinstance(value, expected):
                raise SchemaError(
                    f"{self.name}.{column}: expected {expected.__name__}, "
                    f"got {type(value).__name__} ({value!r})"
                )

    def admits_block(self, names: tuple[str, ...], kinds: tuple[str, ...]) -> bool:
        """Whether *every* row of a columnar block with these column
        names and storage kinds passes :meth:`validate` — decided from
        the layout alone: a typed column holds only exact values of its
        kind, so the check is one per column, not one per row.  A
        declared type outside the columnar vocabulary is never
        provable here; such blocks are validated row by row."""
        if names != self.columns and (
            len(names) != len(self.columns) or set(names) != set(self.columns)
        ):
            return False
        return all(
            _COLUMN_KINDS.get(expected) == kinds[names.index(column)]
            for column, expected in self.types.items()
        )

    def project(self, row: Mapping[str, Any]) -> tuple:
        """Return the row as a tuple in schema column order (hashable,
        used for multiset bookkeeping)."""
        return tuple(row[c] for c in self.columns)

    def column_kinds(self) -> tuple[str, ...] | None:
        """Columnar storage kinds for this relation's columns, in
        column order — ``'i'`` (int), ``'f'`` (float) or ``'s'`` (str),
        the :mod:`repro.storage.colbatch` column vocabulary.

        Returns ``None`` when any column is untyped or typed with
        something the columnar encoding cannot hold exactly; callers
        then fall back to inferring the layout from the first row."""
        kinds = []
        for column in self.columns:
            kind = _COLUMN_KINDS.get(self.types.get(column))
            if kind is None:
                return None
            kinds.append(kind)
        return tuple(kinds)


#: python type -> colbatch column kind (see Schema.column_kinds)
_COLUMN_KINDS = {int: "i", float: "f", str: "s"}


# Schemas of the benchmark relations (paper Section 5.1).

BIDS = Schema(
    "bids",
    ("timestamp", "id", "broker_id", "volume", "price"),
    types={"volume": int, "price": int},
)
ASKS = Schema(
    "asks",
    ("timestamp", "id", "broker_id", "volume", "price"),
    types={"volume": int, "price": int},
)
R_AB = Schema("R", ("A", "B"), types={"A": int, "B": int})

LINEITEM = Schema(
    "lineitem",
    ("orderkey", "partkey", "quantity", "extendedprice"),
    types={"orderkey": int, "partkey": int, "quantity": int, "extendedprice": int},
)
PART = Schema(
    "part",
    ("partkey", "brand", "container"),
    types={"partkey": int, "brand": str, "container": str},
)
ORDERS = Schema(
    "orders",
    ("orderkey", "custkey", "orderdate", "totalprice"),
    types={"orderkey": int, "custkey": int},
)
CUSTOMER = Schema("customer", ("custkey", "name"), types={"custkey": int, "name": str})

#: every relation any benchmark workload can emit — the validation
#: boundary admits events for these even when the running query does
#: not reference them (engines ignore unreferenced relations), and
#: quarantines everything else.
WORKLOAD_SCHEMAS = {
    schema.name: schema
    for schema in (BIDS, ASKS, R_AB, LINEITEM, PART, ORDERS, CUSTOMER)
}
