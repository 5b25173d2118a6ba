"""Layer tracing from outside the program.

:class:`LayerTracer` replaces public functions and methods of the
program's packages with thin wrappers for the duration of one traced run
and puts the originals back afterwards.  Each wrapped call is one span:
layer name, start and duration, kept per thread on a stack so that a
layer's *self* time is its span's duration minus the spans nested in it.
The traced run itself is the root span; its self time is the remainder,
the time no measured layer accounts for.  Self times of every layer plus
the remainder therefore add up to the summed top-level span time, which
:meth:`LayerTracer.partition` checks.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer name of the root span; its self time is the remainder.
REMAINDER = "remainder"


class LayerTracer:
    """Wraps entry points, accumulates self time and calls per layer."""

    def __init__(self, package: str = "repro",
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.package = package
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Summed duration of spans that had no parent, per thread name.
        self.top_s: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> list:
        frame = [layer, self._clock(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = self._clock() - frame[1]
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.self_s[frame[0]] += duration - frame[2]
            self.calls[frame[0]] += 1
            if not stack:
                self.top_s[threading.current_thread().name] += duration
        if stack:
            stack[-1][2] += duration

    @contextmanager
    def span(self, layer: str):
        frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(frame)

    def root(self):
        """The traced run itself; its self time is the remainder."""
        return self.span(REMAINDER)

    # -- wrapping ------------------------------------------------------------
    def _wrapper(self, fn: Callable, layer: "str | None",
                 observe: "Callable | None") -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                frame = tracer._enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def wrap_method(self, cls: type, name: str, layer: "str | None",
                    observe: "Callable | None" = None,
                    before: "Callable | None" = None) -> None:
        """Wrap ``cls.name``, a plain function defined on ``cls`` itself.

        ``observe(args, result)`` runs after each call; ``before(args)``
        runs before it, outside the span.
        """
        original = cls.__dict__[name]
        if not callable(original):
            raise TypeError(f"{cls.__name__}.{name} is not a plain method")
        target = original
        if before is not None:
            @functools.wraps(original)
            def target(*args, **kwargs):
                before(args)
                return original(*args, **kwargs)
        self._patches.append((cls, name, original))
        setattr(cls, name, self._wrapper(target, layer, observe))

    def wrap_function(self, module: Any, name: str, layer: "str | None",
                      observe: "Callable | None" = None) -> None:
        """Wrap ``module.name`` and every ``from module import name``
        binding of it in the package's already-imported modules."""
        original = getattr(module, name)
        wrapper = self._wrapper(original, layer, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back (last wrapped, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- results -------------------------------------------------------------
    def totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        with self._lock:
            return dict(self.self_s), dict(self.calls)

    def partition(self, wall_s: Optional[float],
                  rel_tol: float = 0.02) -> Tuple[Dict[str, float],
                                                  Optional[str]]:
        """Self seconds by layer (the remainder included) and ``None`` when
        they add up, else a message saying how they do not.

        The self times must sum to the top-level span time of every
        thread.  When the calling thread measured ``wall_s`` around its
        root spans, their duration must match it within ``rel_tol``.
        """
        self_s, _ = self.totals()
        total_self = sum(self_s.values())
        top = sum(self.top_s.values())
        negative = {k: v for k, v in self_s.items() if v < -1e-9}
        if negative:
            return self_s, f"negative self time: {negative}"
        if abs(total_self - top) > 1e-9 * max(1.0, top) + 1e-9:
            return self_s, (f"self times sum to {total_self:.9f} s but "
                            f"top-level spans to {top:.9f} s")
        main = self.top_s.get(threading.current_thread().name, 0.0)
        if wall_s and abs(main - wall_s) > rel_tol * wall_s:
            return self_s, (f"root spans cover {main:.6f} s of a "
                            f"{wall_s:.6f} s traced wall time")
        return self_s, None
