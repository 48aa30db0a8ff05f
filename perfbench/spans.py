"""Spans around calls into jeanslab's public functions, recorded from outside the package.

``Tracer.install`` replaces every public module-level function and every
public method of a class defined in a ``jeanslab`` module with a wrapper that
records one span per call: (name, start, end, parent).  The package binds
some of these functions under more than one name: ``cli`` imports them with
``from ... import``, ``pde._DERIV_MODES["fd4"]`` holds the stencils in a
tuple, and ``cli._COMMANDS`` maps subcommands to their functions.  Every
binding that holds the original function object is replaced, so a call is
traced whichever name it goes through.  ``uninstall`` puts the originals back.

Spans stay in memory; per-name call counts, self time and inclusive time are
accumulated as the spans close.  Self time is a span's duration minus the
durations of its child spans.  Inclusive time counts only the outermost span
of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

MODULES = ("params", "contrast_ode", "timemaps", "reference", "pde", "fuchsian", "cli")


def _public_targets(mod):
    """(owner, attribute, function, span name) for each public function of a module."""
    short = mod.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((mod, name, obj, f"{short}.{name}"))
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    out.append((obj, meth, fn, f"{short}.{name}.{meth}"))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and totals recorded so far; the wrappers stay installed."""
        n = len(self.names)
        self.spans: list = []
        self._stack: list[list[int]] = []
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.incl_ns = [0] * n
        self._depth = [0] * n

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for arr in (self.calls, self.self_ns, self.incl_ns, self._depth):
                arr.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            frame = [idx, 0]
            stack.append(frame)
            self._depth[nid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._depth[nid] -= 1
                dur = t1 - t0
                self.spans[idx] = (nid, t0, t1, parent)
                self.calls[nid] += 1
                self.self_ns[nid] += dur - frame[1]
                if self._depth[nid] == 0:
                    self.incl_ns[nid] += dur
                if stack:
                    stack[-1][1] += dur

        return traced

    def install(self) -> None:
        mods = [importlib.import_module(f"jeanslab.{m}") for m in MODULES]
        wrapped = {}
        for mod in mods:
            for owner, attr, fn, name in _public_targets(mod):
                wrapped[id(fn)] = self.wrap(name, fn)
                self._set(owner, attr, wrapped[id(fn)])
        # rebind every other module-level name, dict value or tuple entry
        # that still holds an original function
        for mod in [importlib.import_module("jeanslab"), *mods]:
            for key, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._set(mod, key, wrapped[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        new = _swap(v, wrapped)
                        if new is not v:
                            self._patches.append(("item", val, k, v))
                            val[k] = new

    def _set(self, owner, attr, new) -> None:
        self._patches.append(("attr", owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for kind, owner, key, old in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, old)
            else:
                owner[key] = old
        self._patches.clear()

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Span name -> (calls, self ns, inclusive ns) since the last reset."""
        return {name: (self.calls[i], self.self_ns[i], self.incl_ns[i])
                for i, name in enumerate(self.names) if self.calls[i]}

    def write(self, path: Path) -> None:
        """Write the recorded spans as {names, spans: [[name, start_ns, end_ns, parent]]}."""
        doc = {"names": self.names, "spans": [list(s) for s in self.spans]}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _swap(value, wrapped):
    if id(value) in wrapped:
        return wrapped[id(value)]
    if isinstance(value, tuple) and any(id(v) in wrapped for v in value):
        return tuple(wrapped.get(id(v), v) for v in value)
    return value
