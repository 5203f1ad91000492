"""Spans recorded from outside the program.

The tracer replaces a layer's public functions with timing wrappers at the
names the calling module looks up (``endnet.trainer.corrupt``, not only
``endnet.trainer`` itself), so no line of the package changes.  Spans are
held in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Spans (name, start, end, parent, failed) of one run, sharing a run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.failed = []
        self._stack = [-1]
        self._patches = []

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, failed, stack = self.parents, self.failed, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            failed.append(False)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[i] = True
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self, sites):
        """Patch every (owner, attribute, span name) site that exists.

        ``owner`` is a module, a class or a dict.  A site whose attribute is
        missing is skipped, so a renamed function drops its metric instead of
        breaking the run.
        """
        for owner, attr, name in sites:
            if isinstance(owner, dict):
                if attr in owner:
                    self._patches.append((owner, attr, owner[attr]))
                    owner[attr] = self.wrap(name, owner[attr])
                continue
            orig = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if orig is None:
                continue
            self._patches.append((owner, attr, orig))
            if isinstance(orig, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, orig.__func__)))
            else:
                setattr(owner, attr, self.wrap(name, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    def spans(self, name):
        """Indices of the spans called ``name``."""
        if getattr(self, "_indexed", -1) != len(self.names):
            self._by_name = {}
            for i, n in enumerate(self.names):
                self._by_name.setdefault(n, []).append(i)
            self._indexed = len(self.names)
        return self._by_name.get(name, [])

    def durations(self, name, under=None):
        """Durations (ns) of spans called ``name``, optionally below an ancestor name."""
        return [self.ends[i] - self.starts[i] for i in self.spans(name)
                if under is None or self.ancestor(i, under)]

    def ancestor(self, i, name):
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def self_time(self, name):
        """Total ns inside ``name`` spans not covered by their direct children."""
        ids = set(self.spans(name))
        total = sum(self.ends[i] - self.starts[i] for i in ids)
        for i, parent in enumerate(self.parents):
            if parent in ids:
                total -= self.ends[i] - self.starts[i]
        return total

    def count_failed(self, name):
        return sum(self.failed[i] for i in self.spans(name))

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("run_id,span,parent,name,start_ns,end_ns,failed\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.run_id},{i},{self.parents[i]},{name},"
                         f"{self.starts[i]},{self.ends[i]},{int(self.failed[i])}\n")
