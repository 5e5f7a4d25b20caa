"""Span recording around a package's public functions, installed from outside.

A :class:`Tracer` wraps public functions and public methods defined in a
package and rebinds *every* module attribute that still holds the original
object. ``from .linalg import opnorm`` leaves the same function bound as
``linalg.opnorm``, ``flow.opnorm``, ``tidy.opnorm`` and so on; each binding
is replaced, so a call through any of those names records a span.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written once with :meth:`Tracer.dump`. Times come from the monotonic clock in
integer nanoseconds, so a parent process can compare them with its own
``time.monotonic_ns()`` readings, and self times are exact differences.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np


def package_modules(package) -> list:
    """The package itself and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def public_callables(package) -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, function) for every public function and method.

    A function counts once, under the module that defines it; the span name is
    ``<module>.<function>`` or ``<module>.<Class>.<method>`` with the package
    prefix dropped.
    """
    out = []
    for mod in package_modules(package)[1:]:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{short}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out.append((f"{short}.{attr}.{meth}", obj, meth, fn))
    return out


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, on_call=None):
        """A wrapper of fn recording a span named name; on_call(args, kwargs) runs first."""
        name_id = len(self.names)
        self.names.append(name)
        stack, name_ids, parents, starts, ends = (
            self._stack, self.name_ids, self.parents, self.starts, self.ends)
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(slot)
            starts.append(clock())
            try:
                if on_call is not None:
                    on_call(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                ends[slot] = clock()
                stack.pop()

        return traced

    def install(self, package, select=None, on_call=None) -> None:
        """Wrap the selected public callables of package and rebind every alias.

        select(name) picks span names (default: all); on_call maps a span
        name to a hook given the call's (args, kwargs).
        """
        on_call = on_call or {}
        modules = package_modules(package)
        for name, owner, attr, fn in public_callables(package):
            if select is not None and not select(name):
                continue
            wrapped = self.wrap(fn, name, on_call.get(name))
            if inspect.isclass(owner):
                self._rebind(owner, attr, fn, wrapped)
                continue
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, alias, fn, wrapped)

    def _rebind(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path, **meta) -> None:
        """Write spans, counters and meta to an .npz file."""
        header = {"names": self.names, "counters": dict(self.counters), **meta}
        with open(path, "wb") as fh:
            np.savez(
                fh,
                header=np.array(json.dumps(header)),
                name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                parents=np.frombuffer(self.parents, dtype=np.int32),
                starts=np.frombuffer(self.starts, dtype=np.int64),
                ends=np.frombuffer(self.ends, dtype=np.int64),
            )


class SpanTable:
    """Spans read back from :meth:`Tracer.dump`, with per-name aggregates."""

    def __init__(self, header: dict, name_ids, parents, starts, ends):
        self.header = header
        self.names: list[str] = header["names"]
        self.name_ids = np.asarray(name_ids, dtype=np.int64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)

    @classmethod
    def load(cls, path) -> "SpanTable":
        with np.load(path) as z:
            return cls(json.loads(str(z["header"])), z["name_ids"], z["parents"],
                       z["starts"], z["ends"])

    def durations(self) -> np.ndarray:
        return self.ends - self.starts

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        child = np.zeros_like(dur)
        has_parent = self.parents >= 0
        np.add.at(child, self.parents[has_parent], dur[has_parent])
        return dur - child

    def _by_name(self, values) -> dict[str, int]:
        sums = np.bincount(self.name_ids, weights=None if values is None else values,
                           minlength=len(self.names))
        return {n: int(s) for n, s in zip(self.names, sums)}

    def calls(self) -> dict[str, int]:
        return self._by_name(None)

    def self_s(self) -> dict[str, float]:
        # bincount sums in float64; nanosecond totals stay exact below 2**53
        return {n: ns / 1e9 for n, ns in self._by_name(self.self_ns()).items()}

    def total_s(self) -> dict[str, float]:
        return {n: ns / 1e9 for n, ns in self._by_name(self.durations()).items()}

    def starts_of(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.sort(self.starts[self.name_ids == self.names.index(name)])

    def ends_of(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.sort(self.ends[self.name_ids == self.names.index(name)])
