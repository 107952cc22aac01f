"""One slotted context manager for the stack's timed regions.

A span, a query-stats phase and an active-query admission are each a
``with`` block that reads the clock where it starts and where it ends
and tells its owner what happened.  Written as ``@contextmanager``
generators they cost a generator and a wrapper object per block, 2 to
8 µs that every query paid several times; a :class:`Scope` is one
small object with two plain methods.

Its owner supplies two hooks:

* ``owner._scope_enter(scope)`` runs first (it may block, as admission
  control does) and returns what ``as`` binds; the clock is read after
  it, so waiting is not part of the timed region;
* ``owner._scope_exit(scope, exc_type)`` runs after the closing clock
  read; ``exc_type`` is the class of the exception leaving the block,
  or ``None``.

``scope.key`` is the owner's argument (a phase name, a trace context),
``scope.value`` what ``as`` binds and ``scope.token`` whatever the
enter hook leaves for the exit hook.  ``started`` and ``ended`` are the
two ``time.perf_counter()`` readings, so a caller can time a next step
from where this one stopped instead of reading the clock again.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any


class Scope:
    """A timed ``with`` block reporting to its owner (module docstring)."""

    __slots__ = ("owner", "key", "value", "token", "started", "ended")

    def __init__(self, owner: Any, key: Any = None, value: Any = None) -> None:
        self.owner = owner
        self.key = key
        self.value = value

    def __enter__(self) -> Any:
        value = self.owner._scope_enter(self)
        self.started = perf_counter()
        return value

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.ended = perf_counter()
        self.owner._scope_exit(self, exc_type)
        return False

    @property
    def seconds(self) -> float:
        """Wall seconds between entering and leaving the block."""
        return self.ended - self.started
