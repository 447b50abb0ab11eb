"""Per-layer attribution from outside the program: wrap public entry points.

The traced run wraps the public entry points of each ``repro.*`` layer
(``ENTRY_POINTS``) from here, so nothing under ``src/`` changes and the
program's own ``repro.obs`` tracer stays off.  Each wrapped call records a
span — name, start, end, parent — on a per-thread stack (the inference
server decodes on executor threads).  A span's *self time* is its duration
minus the time its child spans cover, so summing self time per layer never
counts a nested call twice (``Database.execute`` calls ``parse``).

Installation is strict:

* a module-level function is replaced in *every* loaded module that binds
  the same function object (``from repro.sql import parse`` copies the
  binding), and modules imported later read the patched attribute;
* a method is replaced on the class that defines it;
* an entry point that no longer resolves raises, so a refactor cannot drop
  a layer from the report without anyone noticing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: metric prefix -> the entry points (``module:qualname``) it attributes.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "sql.parse": ("repro.sql.parser:parse",),
    "engine.execute": ("repro.engine.database:Database.execute",),
    "analysis.analyze": ("repro.analysis.analyzer:analyze",),
    "semql.from_sql": ("repro.semql.from_sql:sql_to_semql",),
    "nl2sql.train": ("repro.nl2sql.base:NLToSQLSystem.train",),
    "nl2sql.observe": (
        "repro.nl2sql.lexicon:LearnedLexicon.observe",
        "repro.nl2sql.templates_store:TemplateStore.observe",
    ),
    "nl2sql.link": ("repro.nl2sql.linking:SchemaLinker.link",),
    "nl2sql.decode": ("repro.nl2sql.base:NLToSQLSystem.predict_batch",),
    "synthesis.seeding": ("repro.synthesis.seeding:extract_templates",),
    "synthesis.generate": ("repro.synthesis.generation:SqlGenerator.instantiate",),
    "synthesis.translate": (
        "repro.synthesis.translation:SqlToNlTranslator.translate_with_recovery",
    ),
    "synthesis.select": ("repro.synthesis.discriminator:Discriminator.select",),
    "llm.translate": ("repro.llm.base:SqlToNlModel.translate",),
    "embeddings.embed": ("repro.embeddings.hashing:SentenceEmbedder.embed_all",),
    "metrics.score": ("repro.metrics.execution:execution_match",),
    "metrics.triage": ("repro.metrics.triage:triage_prediction",),
    "runtime.cache.store": ("repro.runtime.cache:ArtifactCache.store",),
    "runtime.cache.load": ("repro.runtime.cache:ArtifactCache.load",),
    # The suite's task bodies resolve builders through
    # ``adapters.builder_from_spec``, which bypasses ``DomainAdapter.build``;
    # the module-level builders are what every path reaches.
    "datasets.build": (
        "repro.adapters.registry:DomainAdapter.build",
        "repro.datasets.cordis:build",
        "repro.datasets.sdss:build",
        "repro.datasets.oncomx:build",
    ),
    "spider.corpus": ("repro.spider.corpus:build_corpus",),
}


class EntryPointMissing(RuntimeError):
    """A declared entry point no longer resolves to a callable."""


class Span:
    """One recorded call of a wrapped entry point."""

    __slots__ = ("id", "name", "parent", "thread", "start", "end", "child_s", "error")

    def __init__(self, span_id: int, name: str, parent, thread: int, start: float):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class SpanRecorder:
    """Records spans in memory; one parent stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), name, parent, threading.get_ident(), self.clock())
        stack.append(span)
        return span

    def finish(self, span: Span, error: bool = False) -> None:
        span.end = self.clock()
        span.error = error
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def wrap(self, fn: Callable, name: str, on_return: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``on_return(args, result)``
        lets a layer collect extra counters from a call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.finish(span, error=True)
                raise
            self.finish(span)
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "self_s", "errors"} over every recorded span."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "errors": 0})
            entry["calls"] += 1
            entry["self_s"] += span.self_s
            entry["errors"] += int(span.error)
        return out

    def write_jsonl(self, path: Path) -> None:
        """Write every span, one JSON object per line, start-ordered."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: (s.start, s.id)):
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "parent": span.parent.id if span.parent else None,
                            "thread": span.thread,
                            "start": span.start,
                            "end": span.end,
                            "self_s": span.self_s,
                            "error": span.error,
                        }
                    )
                    + "\n"
                )


#: Calls per calibration trial and trials per calibration in ``wrapper_cost``.
CALIBRATION_CALLS = 20000
CALIBRATION_TRIALS = 5


def wrapper_cost() -> float:
    """Seconds one wrapped call adds over a plain call (median of trials).

    Multiplied by the number of recorded spans this estimates the tracing
    overhead of a run without a second, untraced pass.
    """
    recorder = SpanRecorder()

    def noop():
        return None

    wrapped = recorder.wrap(noop, "calibration")
    samples = []
    for _ in range(CALIBRATION_TRIALS):
        recorder.spans.clear()
        started = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        samples.append((time.perf_counter() - started - plain) / CALIBRATION_CALLS)
    samples.sort()
    return samples[len(samples) // 2]


def resolve(target: str):
    """``module:qualname`` -> (owner, attribute name, original callable).

    ``owner`` is the module for a function and the defining class for a
    method; the method must be defined on that class itself.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise EntryPointMissing(f"{target}: cannot import {module_name}: {exc}") from exc
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise EntryPointMissing(f"{target}: {part!r} not found")
    namespace = vars(owner)
    if attr not in namespace or not callable(namespace[attr]):
        raise EntryPointMissing(f"{target}: {attr!r} is not defined on {owner!r}")
    return owner, attr, namespace[attr]


@dataclass
class Installed:
    """Bookkeeping for one patched binding, so it can be restored."""

    owner: object
    attr: str
    original: Callable


def install(
    recorder: SpanRecorder,
    entry_points: dict[str, tuple[str, ...]] = ENTRY_POINTS,
    hooks: dict[str, Callable] | None = None,
    package: str = "repro",
) -> list[Installed]:
    """Wrap every entry point; returns what was patched (see :func:`uninstall`).

    A function is rebound in every loaded module of ``package`` that holds
    the same object; a method is rebound on its defining class.
    """
    hooks = hooks or {}
    patched: list[Installed] = []
    for name, targets in entry_points.items():
        for target in targets:
            owner, attr, original = resolve(target)
            wrapper = recorder.wrap(original, name, hooks.get(name))
            if isinstance(owner, type):
                overrides = [c.__qualname__ for c in _subclasses(owner) if attr in vars(c)]
                if overrides:
                    raise EntryPointMissing(
                        f"{target}: overridden by {', '.join(overrides)}; "
                        "declare those entry points too"
                    )
                setattr(owner, attr, wrapper)
                patched.append(Installed(owner, attr, original))
                continue
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if module_name != package and not module_name.startswith(package + "."):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        patched.append(Installed(module, binding, original))
    return patched


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def uninstall(patched: list[Installed]) -> None:
    for item in reversed(patched):
        setattr(item.owner, item.attr, item.original)
