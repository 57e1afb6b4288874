"""Runtime support for generated triggers (see :mod:`repro.query.codegen`).

Generated trigger source never contains logic of its own beyond the
specialized trigger body; the pieces that must exist *outside* any one
compiled function — the trigger-mode constants, the uninstall helper
and the pickling helper — live here so both the code generator and the
engines can import them without cycles.
"""

from __future__ import annotations

__all__ = [
    "INTERPRETED",
    "COMPILED",
    "uninstall",
    "picklable_state",
]

#: Trigger modes reported by ``IncrementalEngine.trigger_mode``.
INTERPRETED = "interpreted"
COMPILED = "compiled"

_TRIGGER_ATTRS = ("on_event", "on_batch", "on_frame")

#: Instance attributes that must never enter a pickle: the compiled
#: triggers (MethodTypes over exec-namespace functions) plus the
#: codegen bookkeeping that only makes sense next to them.
_STATE_SKIP = _TRIGGER_ATTRS + ("_codegen_key", "trigger_mode")


def picklable_state(engine) -> dict:
    """``__getstate__`` helper for engines whose state is simply their
    instance ``__dict__``: everything minus the compiled-trigger
    attributes.  The matching ``__setstate__`` should restore the dict
    and call :func:`repro.query.codegen.maybe_specialize` to reinstall
    the triggers against the restored state."""
    return {
        key: value
        for key, value in engine.__dict__.items()
        if key not in _STATE_SKIP
    }


def uninstall(engine) -> None:
    """Remove compiled triggers and restore the interpreted mode."""
    engine_dict = engine.__dict__
    for attr in _TRIGGER_ATTRS:
        engine_dict.pop(attr, None)
    engine_dict.pop("_codegen_key", None)
    engine_dict.pop("trigger_mode", None)  # fall back to the class default
