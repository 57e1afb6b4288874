"""Result delta algebra for the serving layer.

A subscriber holds the last result it folded; the server ships the
difference to the next one.  The payloads follow the mergeable-law
design of :mod:`repro.engine.mergeable`: additive deltas only where
addition is *exact* (integers — the same argument that makes the
grouped-count merge laws exact), replacement values everywhere floats
are involved, so ``fold(prev, compute_delta(prev, cur))`` returns
``cur`` **bit-identically** — the serving chaos suite's core assertion
— rather than a float-rounding neighbour of it.

Three delta shapes:

* ``None`` — the result did not change (nothing goes on the wire);
* ``("set", value)`` — full replacement (float scalars, type changes);
* ``("add", n)`` — exact integer increment for integer scalars;
* ``("group", changes)`` — for dict results: only the changed keys,
  each mapped to its **new value** (replacement, exact per key) or to
  :data:`REMOVE` when the key disappeared.  This is the wire form of a
  grouped merge under last-writer-wins, and for the registry's grouped
  queries it is tiny: one ingest batch touches a handful of groups out
  of thousands.
"""

from __future__ import annotations

from typing import Any

__all__ = ["REMOVE", "compute_delta", "fold", "freeze"]


class _RemoveType:
    """Singleton marker for a group key deleted from a dict result."""

    _instance = None

    def __new__(cls) -> "_RemoveType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "REMOVE"

    def __reduce__(self):
        # Unpickle to the same singleton so ``is REMOVE`` checks work
        # on the receiving side of the wire.
        return (_RemoveType, ())


REMOVE = _RemoveType()


def freeze(result: Any) -> Any:
    """Snapshot a result for caching: engines may hand back internal
    mutable dicts, and the delta diff needs the *previous* value to
    stay put while the engine mutates forward.  Recursive, so grouped
    results with structured values never alias engine internals; flat
    ones (the registry's) are one C-level copy."""
    if isinstance(result, dict):
        if any(issubclass(kind, dict) for kind in set(map(type, result.values()))):
            return {key: freeze(value) for key, value in result.items()}
        return dict(result)
    return result


def compute_delta(prev: Any, cur: Any) -> Any | None:
    """The delta turning ``prev`` into ``cur``; ``None`` when equal.

    Equality is checked with matching types so ``1 == 1.0`` does not
    suppress a type change the subscriber would then never learn of.
    """
    if type(prev) is type(cur) and prev == cur:
        return None
    if isinstance(prev, dict) and isinstance(cur, dict):
        changes: dict = {}
        for key, value in cur.items():
            old = prev.get(key, REMOVE)
            if old is REMOVE or type(old) is not type(value) or old != value:
                changes[key] = value
        for key in prev:
            if key not in cur:
                changes[key] = REMOVE
        return ("group", changes)
    if (
        isinstance(prev, int)
        and isinstance(cur, int)
        and not isinstance(prev, bool)
        and not isinstance(cur, bool)
    ):
        return ("add", cur - prev)
    return ("set", cur)


def fold(base: Any, delta: Any | None, *, in_place: bool = False) -> Any:
    """Apply one delta; the inverse of :func:`compute_delta`:
    ``fold(prev, compute_delta(prev, cur))`` is bit-identical to
    ``cur``.  ``in_place`` lets a caller that owns ``base`` take group
    changes into it instead of into a copy."""
    if delta is None:
        return base
    kind, payload = delta
    if kind == "set":
        return payload
    if kind == "add":
        return base + payload
    if kind == "group":
        out = (base if in_place else dict(base)) if isinstance(base, dict) else {}
        for key, value in payload.items():
            if value is REMOVE:
                out.pop(key, None)
            else:
                out[key] = value
        return out
    raise ValueError(f"unknown delta kind {kind!r}")
