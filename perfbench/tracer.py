"""Span tracer that wraps hogpipe's public callables from outside the package.

A traced callable records one span per call: its duration, its self time
(duration minus the spans of the traced callables it called) and the call
count, plus any work counts its hook derives from the arguments and the
result. Spans are aggregated in memory per name as they close, so a run of
millions of per-pixel calls needs constant memory.

Wrappers are installed only inside `Tracer.installed()`. Every binding of
the wrapped object in a hogpipe module is replaced, so a callable is
traced whether callers reach it as `pipeline.vote` or `voting.vote`, and
everything is restored on exit. A target the package no longer has is
skipped and simply reports zero.
"""

import contextlib
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    """A callable to trace: `owner` is 'module' or 'module:Class', `attr` its name."""

    span: str
    owner: str
    attr: str
    counts: object = None  # (args, kwargs, result) -> {count name: increment}


class SpanStats:
    __slots__ = ("total", "self_time", "calls")

    def __init__(self):
        self.total = 0.0
        self.self_time = 0.0
        self.calls = 0


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = {t.span: SpanStats() for t in self.targets}
        self.counts = {}
        self._stack = []  # time covered by child spans, one entry per open span

    def _wrap(self, target, fn):
        stats = self.spans[target.span]
        stack = self._stack
        counts = self.counts
        hook = target.counts

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stats.total += dt
                stats.self_time += dt - child
                stats.calls += 1
                if stack:
                    stack[-1] += dt
            if hook is not None:
                for name, n in hook(args, kwargs, result).items():
                    counts[name] = counts.get(name, 0) + n
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every hogpipe binding of each target for the block's duration."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "hogpipe" or name.startswith("hogpipe."))
        ]
        saved = []
        try:
            for t in self.targets:
                owner = _resolve(t.owner)
                orig = getattr(owner, t.attr, None)
                if orig is None:
                    continue
                wrapped = self._wrap(t, orig)
                if isinstance(owner, type):
                    saved.append((owner, t.attr, orig))
                    setattr(owner, t.attr, wrapped)
                    continue
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            saved.append((m, key, orig))
                            setattr(m, key, wrapped)
            yield self
        finally:
            for obj, key, orig in reversed(saved):
                setattr(obj, key, orig)


def _resolve(path: str):
    """'hogpipe.gradient:GradientStage' -> the class; 'hogpipe.voting' -> the module."""
    mod_name, _, rest = path.partition(":")
    mod = sys.modules.get(mod_name)
    if mod is None or not rest:
        return mod
    return getattr(mod, rest, None)
