"""In-memory span recorder that patches wrappers around functions.

A span has a name, a start, an end and the span that was open when it
started.  Spans are kept in flat arrays (36 bytes each) so a traced
deletion-contraction run of a million calls fits in memory, and written
out in one go when the op ends.  Counter hooks run after the wrapped
call, inside a span of their own (``trace.counters``), so their cost is
tracing overhead rather than part of any layer's self time.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

COUNTER_SPAN = "trace.counters"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sid = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)  # counter -> values seen
        self._next = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record(self, nid: int, sid: int, parent: int, start: float, end: float):
        self.sid.append(sid)
        self.name.append(nid)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, fn, span: str, hook=None):
        """A function that records a span around each call of ``fn`` and
        then passes (tracer, args, result) to ``hook``."""
        nid = self._intern(span)
        hook_nid = self._intern(COUNTER_SPAN)
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._record(nid, sid, parent, start, end)
            if hook is not None:
                hsid = self._next
                self._next += 1
                hook(self, args, result)
                self._record(hook_nid, hsid, parent, end, perf_counter())
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, span: str, hook=None):
        """Replace ``owner.attr`` by a traced version; class methods,
        classmethods and module functions all work."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, span, hook))
        else:
            new = self.wrap(raw, span, hook)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)
        return new

    def patch_everywhere(self, modules, fn, span: str, hook=None):
        """Patch every module attribute bound to ``fn``, so names imported
        with ``from ... import`` are traced too."""
        traced = self.wrap(fn, span, hook)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, traced)
        return traced

    def patch_item(self, seq: list, index: int, value):
        self._patches.append((seq, index, seq[index]))
        seq[index] = value

    def uninstall(self):
        """Restore every patched attribute and item, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, list):
                owner[key] = original
            else:
                setattr(owner, key, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per span name: self time and call count; plus the total
        duration of root spans (those with no parent)."""
        n = self._next
        child = array("d", bytes(8 * n))
        for sid, parent, start, end in zip(self.sid, self.parent, self.start, self.end):
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        roots = 0.0
        for sid, nid, parent, start, end in zip(self.sid, self.name, self.parent,
                                                self.start, self.end):
            name = self.names[nid]
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[sid]
            calls[name] += 1
            if parent < 0:
                roots += end - start
        return self_s, dict(calls), roots

    def counter_values(self) -> dict:
        """Counts, plus the number of distinct values of each distinct-set."""
        return {**self.counters, **{k: len(v) for k, v in self.distinct.items()}}

    def write(self, path: Path):
        """Spans as flat arrays in native byte order, after a one-line JSON
        header that names the columns and the byte order."""
        header = {"names": self.names, "spans": len(self.sid),
                  "columns": ["sid:q", "name:i", "parent:q", "start:d", "end:d"],
                  "byteorder": sys.byteorder, "counters": self.counter_values()}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.sid, self.name, self.parent, self.start, self.end):
                column.tofile(fh)
