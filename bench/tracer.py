"""Layer tracing from outside the package.

The tracer replaces selected flagkneser functions and methods with timing
wrappers and restores the originals afterwards.  A function is replaced in
every flagkneser module that holds it, so a name bound with
``from .projective import meet`` in ``verify`` is traced along with
``projective.meet`` itself.

Two kinds of wrapper exist:

* hot wrappers keep only a call count and busy time (``rref`` is called
  hundreds of thousands of times per pass, so per-call spans would cost
  more than the work they describe);
* span wrappers also record a span (name, start, end, parent) for the
  coarse public calls: checkers, builders, oracles, CLI subcommands.

Busy time is inclusive: ``projective.meet.busy_s`` contains the ``rref``
calls made inside ``meet``.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

perf = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One function or method to trace.

    ``owner`` is a module name or ``module:Class``; ``attr`` the attribute.
    ``work`` maps (args, kwargs, result) to extra counters for the call.
    """

    owner: str
    attr: str
    name: str
    span: bool = False
    generator: bool = False
    work: Callable | None = None


class Stat:
    __slots__ = ("calls", "busy", "depth", "work")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.depth = 0
        self.work: dict[str, float] = {}


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- counters -----------------------------------------------------------

    def reset(self) -> None:
        """Zero the counters; spans are kept until written."""
        self.stats = {}

    def snapshot(self) -> dict[str, float]:
        """Flat counters: <name>.calls, <name>.busy_s, <name>.<work key>."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[name + ".calls"] = st.calls
            out[name + ".busy_s"] = st.busy
            for key, val in st.work.items():
                out[name + "." + key] = val
        return out

    def self_time(self, prefix: str, first_span: int = 0) -> float:
        """Time inside spans named ``prefix*`` (from span index
        ``first_span`` on) not covered by child spans of other names."""
        spans = self.spans
        inside = [sp[2].startswith(prefix) for sp in spans]
        total = covered = 0.0
        for sid, parent, name, start, end in spans[first_span:]:
            parent_inside = parent >= 0 and inside[parent]
            if inside[sid] and not parent_inside:
                total += end - start
            elif not inside[sid] and parent_inside:
                covered += end - start
        return total - covered

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "flagkneser"
                                         or n.startswith("flagkneser."))]
        for t in self.targets:
            mod_name, _, cls_name = t.owner.partition(":")
            holder = sys.modules[mod_name]
            if cls_name:
                holder = getattr(holder, cls_name)
            original = holder.__dict__[t.attr]
            wrapper = self._wrap(original, t)
            if cls_name:
                self._patch(holder, t.attr, wrapper)
                continue
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    def _patch(self, holder, attr: str, wrapper) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def _stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, fn, t: Target):
        if t.generator:
            return self._wrap_generator(fn, t)
        tracer = self
        name, work, span = t.name, t.work, t.span

        def wrapper(*args, **kwargs):
            st = tracer._stat(name)
            st.calls += 1
            if st.depth:
                return fn(*args, **kwargs)
            st.depth = 1
            sid = len(tracer.spans)
            if span:
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer._stack.append(sid)
                tracer.spans.append((sid, parent, name, 0.0, 0.0))
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                st.busy += t1 - t0
                st.depth = 0
                if span:
                    tracer._stack.pop()
                    tracer.spans[sid] = (sid, parent, name, t0, t1)
            if work is not None:
                for key, val in work(args, kwargs, result).items():
                    st.work[key] = st.work.get(key, 0) + val
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, t: Target):
        tracer = self
        name = t.name

        def wrapper(*args, **kwargs):
            st = tracer._stat(name)
            st.calls += 1
            gen = fn(*args, **kwargs)

            def timed():
                while True:
                    t0 = perf()
                    try:
                        item = next(gen)
                    except StopIteration:
                        st.busy += perf() - t0
                        return
                    st.busy += perf() - t0
                    st.work["yielded"] = st.work.get("yielded", 0) + 1
                    yield item

            return timed()

        wrapper.__wrapped__ = fn
        return wrapper
