"""Span tracing of the program from outside: patch public entry points.

:func:`patched` wraps, for the length of one ``with`` block, the public
functions and methods every ``repro`` module exposes (its ``__all__``)
plus the event loop's ``select``.  Each wrapped call records one span
``(name, start_ns, end_ns, parent)`` in a :class:`SpanRecorder`.
Generator and coroutine functions are timed per resumption, so a sweep
that yields while awaiting an answer records one span per step and
never holds a span open across the event loop.

A span's self time is its duration minus the part its child spans
cover.  Because calls nest on one thread, the self times of all spans
add up to the union of the root spans; the rest of the window is busy
time no span covers (``unattributed``).

Nothing in ``src/`` is edited: the patches live in this file and are
undone when the block exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import selectors
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Span name of the event loop's selector wait (time the loop sat idle).
SELECT = "asyncio.select"

#: Functions that run a whole experiment: they *are* the measured window,
#: so a span around them would swallow every other span.
ENTRY_POINTS = frozenset(
    {
        "repro.runtime.distributed.run_distributed",
        "repro.runtime.distributed.run_distributed_async",
        "repro.runtime.distributed.quick_distributed",
        "repro.runtime.shard.run_sharded",
        "repro.runtime.shard.run_sharded_async",
    }
)

#: Trampolines that resume another component's generator.  A span here
#: would take the resumed code's private work as its own self time, so
#: that work is left visible as unattributed instead.
TRAMPOLINES = frozenset(
    {
        "repro.simulation.process.Process.start",
        "repro.simulation.process.Process.resume",
    }
)

#: Per-row, per-message and schema accessors.  They run 10^4-10^6 times
#: in one run and cost less than a span does, so their time stays inside
#: the span of whoever called them.  A name covers everything under it.
LEAVES = frozenset(
    {
        "repro.relational.relation.BagBase",
        "repro.relational.relation.Relation",
        "repro.relational.relation.FrozenRelation",
        "repro.relational.delta.Delta",
        "repro.relational.schema",
        "repro.relational.predicate",
        "repro.relational.view.ViewDefinition.schema_of",
        "repro.relational.view.ViewDefinition.name_of",
        "repro.relational.view.ViewDefinition.index_of_name",
        "repro.relational.view.ViewDefinition.relation_index_of_attr",
        "repro.relational.view.ViewDefinition.wide_schema_range",
        "repro.relational.view.ViewDefinition.conditions_joining",
        "repro.relational.incremental.PartialView.is_adjacent",
        "repro.sources.messages",
        "repro.simulation.channel.Message",
        "repro.simulation.mailbox.Mailbox",
        "repro.simulation.metrics",
    }
)
#: Coarse operations under those names that are kept as spans.
LEAF_KEEP = frozenset({"repro.relational.relation.Relation.apply_delta"})

#: Packages whose modules are wrapped.  The CLI and the harness's
#: experiment runners never run inside the measured call.
PACKAGES = (
    "repro.relational",
    "repro.sources",
    "repro.warehouse",
    "repro.runtime",
    "repro.simulation",
    "repro.durability",
    "repro.consistency",
)

#: Layer of a span: the first prefix its name starts with.
LAYER_PREFIXES = (
    ("repro.runtime.shard.ShardedSourceFront", "sources"),
    ("repro.runtime.codec", "codec"),
    ("repro.runtime.binwire", "codec"),
    ("repro.runtime.tcp", "transport"),
    ("repro.runtime.transport", "transport"),
    ("repro.runtime.chaos", "transport"),
    ("repro.runtime", "runtime"),
    ("repro.simulation", "runtime"),
    ("repro.relational", "relational"),
    ("repro.sources", "sources"),
    ("repro.warehouse", "warehouse"),
    ("repro.durability", "durability"),
    ("repro.consistency", "consistency"),
    (SELECT, "idle"),
)
LAYERS = (
    "relational",
    "sources",
    "warehouse",
    "codec",
    "transport",
    "runtime",
    "durability",
    "consistency",
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


class SpanRecorder:
    """In-memory spans of one traced call, with self time kept per name.

    Only the thread that created the recorder records; calls from any
    other thread pass through untimed, so the span stack stays a stack.
    """

    def __init__(self) -> None:
        # One flat list per field: ints are not tracked by the cyclic
        # garbage collector, so 10^5 spans add no collection work.
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: qualified names wrapped while this recorder was patched in.
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._thread = threading.get_ident()

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        if threading.get_ident() != self._thread:
            return -1
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self._child_ns.append(0)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        if index < 0:
            return
        end = time.perf_counter_ns()
        self.ends[index] = end
        duration = end - self.starts[index]
        self._stack.pop()
        name = self.names[index]
        self.self_ns[name] += duration - self._child_ns.pop()
        self.calls[name] += 1
        if self._child_ns:
            self._child_ns[-1] += duration

    def root_union_ns(self) -> int:
        """Wall time covered by at least one root span."""
        roots = sorted(
            (self.starts[i], self.ends[i])
            for i, parent in enumerate(self.parents)
            if parent < 0
        )
        covered = 0
        cursor = None
        for start, end in roots:
            if cursor is None or start > cursor:
                covered += end - start
                cursor = end
            elif end > cursor:
                covered += end - cursor
                cursor = end
        return covered

    def layer_self_ns(self, names) -> dict[str, int]:
        """Time spent in the layer of each span named in ``names``.

        A span's own layer keeps the self time of every descendant
        reached through spans of that same layer, and loses the time of
        children in other layers: a join's own rows count toward the
        join, a source answer loses the join it calls.  The nearest
        named ancestor takes the time, so named spans never share it.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = list(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[i]
        layers = [layer_of(name) for name in self.names]
        anchor = [-1] * len(self.names)
        totals: dict[str, int] = dict.fromkeys(names, 0)
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            if name in totals:
                anchor[i] = i
            elif parent >= 0 and layers[parent] == layers[i]:
                anchor[i] = anchor[parent]
            if anchor[i] >= 0:
                totals[self.names[anchor[i]]] += own[i]
        return totals

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                record = {
                    "id": i,
                    "name": name,
                    "start_ns": self.starts[i],
                    "end_ns": self.ends[i],
                    "parent": self.parents[i],
                }
                handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _drive(recorder: SpanRecorder, name: str, inner):
    """Run generator/coroutine ``inner`` with one span per resumption."""
    value = None
    error: BaseException | None = None
    while True:
        span = recorder.open(name)
        try:
            if error is not None:
                step = inner.throw(error)
            else:
                step = inner.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            recorder.close(span)
        try:
            value = yield step
            error = None
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into inner
            value = None
            error = exc


class _Steps:
    """Awaitable driving one coroutine through :func:`_drive`."""

    __slots__ = ("recorder", "name", "inner")

    def __init__(self, recorder, name, inner):
        self.recorder = recorder
        self.name = name
        self.inner = inner

    def __await__(self):
        return (yield from _drive(self.recorder, self.name, self.inner))


def _wrap(recorder: SpanRecorder, name: str, fn, probe=None):
    if probe is not None and (
        inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn)
    ):
        raise TypeError(f"probes take plain functions only, not {name}")
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            return (yield from _drive(recorder, name, fn(*args, **kwargs)))

        return traced_gen
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_coro(*args, **kwargs):
            return await _Steps(recorder, name, fn(*args, **kwargs))

        return traced_coro
    if probe is None:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(span)

        return traced

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        state = probe.before(recorder, args, kwargs)
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        probe.after(recorder, args, kwargs, result, state)
        return result

    return probed


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return list(names)


def _modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.walk_packages(
            package.__path__, prefix=package_name + "."
        ):
            yield importlib.import_module(info.name)


def _is_leaf(qualified: str) -> bool:
    if qualified in LEAF_KEEP:
        return False
    return any(
        qualified == leaf or qualified.startswith(leaf + ".")
        for leaf in LEAVES
    )


def _targets():
    """(owner, attribute, qualified name, function, kind) to wrap."""
    seen: set[int] = set()
    for module in _modules():
        for public in _public_names(module):
            obj = getattr(module, public, None)
            if obj is None or getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exported; wrapped where it is defined
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if inspect.isclass(obj):
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    qualified = f"{module.__name__}.{obj.__qualname__}.{attr}"
                    if isinstance(raw, staticmethod):
                        yield obj, attr, qualified, raw.__func__, "static"
                    elif isinstance(raw, classmethod):
                        yield obj, attr, qualified, raw.__func__, "class"
                    elif inspect.isfunction(raw):
                        yield obj, attr, qualified, raw, "method"
            elif inspect.isfunction(obj):
                qualified = f"{module.__name__}.{obj.__qualname__}"
                yield module, public, qualified, obj, "function"


@contextmanager
def patched(recorder: SpanRecorder, probes: dict | None = None):
    """Wrap every public entry point for the duration of the block.

    ``probes`` maps a qualified name to an object with ``before(recorder,
    args, kwargs)`` and ``after(recorder, args, kwargs, result, state)``
    hooks that count work at that boundary (rows out, bytes written...).
    """
    probes = probes or {}
    undo: list[tuple[object, str, object]] = []
    replaced: dict[int, tuple] = {}
    modules = list(_modules())
    for owner, attr, qualified, fn, kind in list(_targets()):
        if qualified in ENTRY_POINTS or qualified in TRAMPOLINES:
            continue
        if _is_leaf(qualified):
            continue
        wrapper = _wrap(recorder, qualified, fn, probes.get(qualified))
        if kind == "static":
            new = staticmethod(wrapper)
        elif kind == "class":
            new = classmethod(wrapper)
        else:
            new = wrapper
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)
        recorder.wrapped.add(qualified)
        if kind == "function":
            replaced[id(fn)] = (fn, wrapper)
    # A function imported by name into another module is looked up there:
    # patch every module-level alias of a wrapped function too.
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = replaced.get(id(value))
            if entry is not None and entry[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, entry[1])
    selector_cls = selectors.DefaultSelector
    original_select = selector_cls.select

    def traced_select(self, timeout=None):
        span = recorder.open(SELECT)
        try:
            return original_select(self, timeout)
        finally:
            recorder.close(span)

    undo.append((selector_cls, "select", vars(selector_cls).get("select")))
    selector_cls.select = traced_select
    try:
        yield recorder
    finally:
        for owner, attr, value in reversed(undo):
            if value is None:
                delattr(owner, attr)  # was inherited, not defined here
            else:
                setattr(owner, attr, value)


__all__ = ["LAYERS", "SELECT", "SpanRecorder", "layer_of", "patched"]
