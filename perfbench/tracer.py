"""Span recording for the traced benchmark run.

The benchmark times each layer from the outside: :func:`installed` swaps
a module or class attribute (``repro.core.self_paced:fit_ensemble_member``)
for a wrapper that records one :class:`Span` per call and delegates to
the original. Nothing inside ``src/`` is instrumented by this module.

A target that no longer exists -- its module fails to import, or a name
on its attribute path is gone -- is reported as absent instead of
raising, so code paths can be deleted from the program without editing
the benchmark. ``test_perfbench_tracer.py`` pins that contract.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call. ``parent_id`` is ``None`` for a root span; all spans
    under one root share its ``trace_id``. Times are ``perf_counter`` s."""

    name: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float = 0.0
    tags: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps finished spans in memory; :meth:`dump` writes them out.

    The open span is tracked per thread/task with a context variable, so
    calls made on a server thread become roots of their own traces rather
    than children of whatever the generator thread has open.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._open: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
            "perfbench_open_span", default=None
        )

    @contextmanager
    def span(self, name: str, **tags) -> Iterator[Span]:
        parent = self._open.get()
        span_id = next(self._ids)
        span = Span(
            name=name,
            trace_id=parent.trace_id if parent is not None else span_id,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            start=time.perf_counter(),
            tags=dict(tags),
        )
        token = self._open.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.reset(token)
            self.spans.append(span)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


# --------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Target:
    """A public callable to time: ``module`` is imported, ``attr`` is a
    dotted path inside it (``"Class.method"`` for methods). ``rows`` maps
    the call's result to a work count stored in the span's tags."""

    layer: str
    module: str
    attr: str
    rows: Optional[Callable[[object], int]] = None


def _resolve_owner(target: Target):
    """``(owner, name)`` for ``target``, or ``None`` if any part is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        inspect.getattr_static(owner, name)
    except AttributeError:
        return None
    return owner, name


def _timed(recorder: Recorder, target: Target, func: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with recorder.span(target.layer) as span:
            result = func(*args, **kwargs)
            if target.rows is not None:
                span.tags["rows"] = int(target.rows(result))
            return result

    wrapper.__wrapped__ = func
    return wrapper


@contextmanager
def installed(recorder: Recorder, targets: Sequence[Target]) -> Iterator[List[str]]:
    """Wrap every resolvable target for the duration of the block.

    Yields the layers none of whose targets could be resolved. Every
    patched attribute is restored on exit, including attributes a class
    only inherited (the wrapper is deleted again rather than left behind).
    """
    restore: List[Tuple[object, str, bool, object, str]] = []
    absent: List[str] = []
    try:
        for target in targets:
            found = _resolve_owner(target)
            if found is None:
                continue
            owner, name = found
            raw = inspect.getattr_static(owner, name)
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(_timed(recorder, target, raw.__func__))
            else:
                patched = _timed(recorder, target, raw)
            owned = not inspect.isclass(owner) or name in vars(owner)
            restore.append((owner, name, owned, raw, target.layer))
            setattr(owner, name, patched)
        wrapped = {entry[-1] for entry in restore}
        for target in targets:
            if target.layer not in wrapped and target.layer not in absent:
                absent.append(target.layer)
        yield absent
    finally:
        for owner, name, owned, raw, _ in reversed(restore):
            if owned:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)


def resolve(module: str, attr: str):
    """The object at ``module:attr``, or ``None`` if it no longer exists."""
    found = _resolve_owner(Target("", module, attr))
    return None if found is None else getattr(*found)


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #
def children_index(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    index: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent_id, []).append(span)
    return index


def descendants(root: Span, index: Dict[Optional[int], List[Span]]) -> List[Span]:
    out: List[Span] = []
    stack = list(index.get(root.span_id, ()))
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(index.get(span.span_id, ()))
    return out


def self_time(span: Span, index: Dict[Optional[int], List[Span]]) -> float:
    """Duration minus the part of it that child spans cover (overlapping
    children are merged, so concurrent children are not double-counted)."""
    covered = 0.0
    cursor = span.start
    for child in sorted(index.get(span.span_id, ()), key=lambda s: s.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered
