"""In-memory spans around calls into steercert's public functions.

A span is recorded by a wrapper installed on a function or method for the
duration of a ``with Tracer(...)`` block. Functions are imported by value
across the package (``harness`` holds its own ``jm_critical_visibility``
binding, for example), so a function is patched under every name that any
steercert module binds to it, not only in the module that defines it.
Methods are patched on their class, which is where they are looked up.

Per span name the tracer keeps the call count, the total time, the self time
(total minus the time of spans nested directly inside) and, when asked, each
call's duration. Nothing is written out while tracing; the caller reads the
aggregates when the block ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "steercert"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


@dataclass(frozen=True)
class SpanTarget:
    """One patch point: ``owner`` is a module name or a class, ``attr`` the
    function or method name. ``on_result(tracer, args, kwargs, result)``
    may add exact counts taken from a call's arguments or result."""

    span: str
    owner: object
    attr: str
    on_result: object = None
    keep_durations: bool = False


class Tracer:
    """Context manager that installs span wrappers on enter and restores the
    original bindings on exit."""

    def __init__(self, targets) -> None:
        self.targets = tuple(targets)
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[str, list] = {}
        self._stack: list[float] = []
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def add(self, key: str, value) -> None:
        """Append one exact observation (a count or a list entry)."""
        self.counts.setdefault(key, []).append(value)

    def _wrap(self, target: SpanTarget, fn):
        stats = self.spans.setdefault(target.span, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        on_result = target.on_result
        keep = target.keep_durations

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - nested
                if keep:
                    stats.durations.append(elapsed)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        try:
            for target in self.targets:
                if isinstance(target.owner, str):
                    original = getattr(sys.modules[target.owner], target.attr)
                    wrapper = self._wrap(target, original)
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._undo.append((mod, name, original))
                                setattr(mod, name, wrapper)
                else:
                    original = target.owner.__dict__[target.attr]
                    self._undo.append((target.owner, target.attr, original))
                    setattr(target.owner, target.attr, self._wrap(target, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
