"""Outside-in span tracing of specgeom, installed and removed per pass.

The rule: in each module of ``TRACED_MODULES``, every module-level function
that was bound from another ``specgeom`` module or from
``scipy.sparse.linalg`` is replaced by a wrapper that records a span.
Classes are left alone so ``isinstance`` checks keep working.  A span is
named ``<layer>.<function>``, where the layer is the defining specgeom
module, or the binding module for scipy functions (``eigensolve.eigsh``).
Because the rule reads the modules' namespaces, a renamed function stays
traced and a removed one simply stops producing spans.

Spans are kept in memory as ``[id, name, start, end, parent, command]``.
Each CLI command gets a root span named ``cli``; a span opened on a thread
with no open span of its own (the sweep's worker threads) is parented to
the current command span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

TRACED_MODULES = (
    "specgeom.cli",
    "specgeom.inequalities",
    "specgeom.prooflab",
    "specgeom.eigensolve",
)


def traced_bindings():
    """Yield ``(module, attribute, span name)`` for every binding the rule covers."""
    for modname in TRACED_MODULES:
        module = importlib.import_module(modname)
        for attr, value in list(vars(module).items()):
            if not inspect.isfunction(value):
                continue
            origin = value.__module__ or ""
            if origin.startswith("specgeom.") and origin != modname:
                yield module, attr, "%s.%s" % (origin.split(".")[1], value.__name__)
            elif origin.startswith("scipy.sparse.linalg"):
                yield module, attr, "%s.%s" % (modname.split(".")[1], attr)


class Tracer:
    """Records spans while installed.

    ``observe(name, fn, args, kwargs, result)``, when given, sees every
    traced call after its span has closed, so counting costs no span time.
    """

    def __init__(self, observe=None):
        self.observe = observe
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._command_span = None
        self._command_id = None
        self._saved = []

    def install(self):
        for module, attr, name in traced_bindings():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._command_span
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([span_id, name, start, end, parent, self._command_id])
            if self.observe is not None:
                self.observe(name, fn, args, kwargs, result)
            return result

        return traced

    def command(self, command_id, call):
        """Run ``call()`` as one CLI command under a root ``cli`` span."""
        span_id = next(self._ids)
        self._command_span, self._command_id = span_id, command_id
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self.spans.append([span_id, "cli", start, end, None, command_id])
            self._command_span = self._command_id = None


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span name: (summed self time, call count).

    Self time is a span's duration minus the part of it that its child
    spans cover, so a command's self time never goes below zero even when
    its children ran on overlapping threads.
    """
    children = defaultdict(list)
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals = defaultdict(lambda: [0.0, 0])
    for span_id, name, start, end, _, _ in spans:
        entry = totals[name]
        entry[0] += (end - start) - _covered(children.get(span_id, ()), start, end)
        entry[1] += 1
    return {name: (t, n) for name, (t, n) in totals.items()}
