"""In-memory span tracer that wraps module attributes from outside the program.

A wrapped attribute records one span per call: name, start, end (both on
the system-wide monotonic clock, so spans from worker processes line up
with the parent's), the span open when the call began, and attributes
computed from the call's inputs and result. Nothing under ``src/`` is
touched: callers look the attribute up at call time and find the wrapper.

Forked worker processes inherit the wrappers and the open-span stack.
Their spans are appended to ``<spool>/spans-<pid>.jsonl`` as each one
closes, because pool workers exit without running exit hooks; the owner
process merges those files in ``drain``.
"""

import functools
import itertools
import json
import os
import time


class Tracer:
    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.owner = os.getpid()
        self.spans = []
        self._stack = []
        self._ids = itertools.count(1)

    def wrap(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a traced twin.

        ``note(args, kwargs, result)`` returns span attributes; it runs
        after the span's end time is taken.
        """
        is_map = isinstance(owner, dict)
        fn = owner[attr] if is_map else getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, note)

        if is_map:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)

    def _call(self, name, fn, args, kwargs, note):
        pid = os.getpid()
        span = {"id": f"{pid}:{next(self._ids)}", "name": name,
                "parent": self._stack[-1] if self._stack else None, "pid": pid}
        self._stack.append(span["id"])
        span["start"] = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.monotonic()
            self._stack.pop()
        span["attrs"] = note(args, kwargs, result) if note else {}
        if pid == self.owner:
            self.spans.append(span)
        else:
            path = os.path.join(self.spool_dir, f"spans-{pid}.jsonl")
            with open(path, "a") as fh:
                fh.write(json.dumps(span) + "\n")
        return result

    def drain(self):
        """Return every span recorded so far (workers included) and start afresh."""
        spans, self.spans = self.spans, []
        for entry in sorted(os.listdir(self.spool_dir)):
            if entry.startswith("spans-") and entry.endswith(".jsonl"):
                path = os.path.join(self.spool_dir, entry)
                with open(path) as fh:
                    spans.extend(json.loads(line) for line in fh)
                os.remove(path)
        return spans


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def nesting_errors(spans, slack=1e-6):
    """Spans that leave their parent's interval or whose self time is out of range."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    errors = []
    for s in spans:
        dur = s["end"] - s["start"]
        if not -slack <= selfs[s["id"]] <= dur + slack:
            errors.append(f"{s['name']}: self {selfs[s['id']]:.6f}s outside [0, {dur:.6f}s]")
        parent = by_id.get(s["parent"])
        if parent and (s["start"] < parent["start"] - slack or s["end"] > parent["end"] + slack):
            errors.append(f"{s['name']}: outside parent {parent['name']}")
    return errors
