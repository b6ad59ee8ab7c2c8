"""Span recording for the traced benchmark run.

The wrappers live here, in the benchmark, not in the program: a traced run
patches the public functions of each layer (every module attribute that
binds them, so ``from .faults import prepare_degradation`` copies are caught
too), records one span per call in memory, and reports per-layer self time
when the run ends.  Untraced runs install no wrappers.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

# (span name, "module:qualname") of each layer function the traced run wraps.
# Several targets may share one span name: ``store.load`` covers every
# artifact load.
LAYER_TARGETS: tuple[tuple[str, str], ...] = (
    ("decision.fit", "polygraphmr.decision:LogisticDecisionModule.fit"),
    ("decision.evaluate", "polygraphmr.decision:LogisticDecisionModule.evaluate"),
    ("decision.predict_proba", "polygraphmr.decision:LogisticDecisionModule.predict_proba"),
    ("decision.ensemble_features", "polygraphmr.decision:ensemble_features"),
    ("decision.ensemble_features_batch", "polygraphmr.decision:ensemble_features_batch"),
    ("faults.apply_batch", "polygraphmr.faults:FaultSpec.apply_batch"),
    ("faults.sanitize_probs_batch", "polygraphmr.faults:sanitize_probs_batch"),
    ("faults.prepare_degradation", "polygraphmr.faults:prepare_degradation"),
    ("ensemble.assemble", "polygraphmr.ensemble:EnsembleRuntime.assemble"),
    ("journal.append_many", "polygraphmr.journal:CampaignJournal.append_many"),
    ("journal.write_checkpoint", "polygraphmr.journal:write_checkpoint"),
    ("campaign.execute", "polygraphmr.campaign:TrialExecutor.execute"),
    ("store.load", "polygraphmr.store:ArtifactStore.load_probs"),
    ("store.load", "polygraphmr.store:ArtifactStore.load_labels"),
    ("store.load", "polygraphmr.store:ArtifactStore.load_weights"),
    ("serve.parse_request", "polygraphmr.serve:parse_request"),
    ("serve.check_samples", "polygraphmr.serve:PolygraphService.check_samples"),
    ("serve.session_evaluate", "polygraphmr.serve:ModelSession.evaluate"),
    ("serve.build_payloads", "polygraphmr.serve:PolygraphService.build_payloads"),
    ("serve.response_frame", "polygraphmr.serve:response_frame"),
)


# every program module that may bind a wrapped function by name
PROGRAM_MODULES = (
    "polygraphmr.batching",
    "polygraphmr.campaign",
    "polygraphmr.ensemble",
    "polygraphmr.faults",
    "polygraphmr.serve",
)


def covered_length(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Children may nest inside each other or overlap (spans from different
    threads), so the intervals are clipped to the parent and merged before
    summing — no instant is counted twice.
    """

    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[str, tuple[float, int]]:
    """``{name: (total self seconds, calls)}`` from ``(span_id, name, start,
    end, parent_id)`` spans; a root span's ``parent_id`` is ``None``.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.
    """

    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, _name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, tuple[float, int]] = {}
    for sid, name, start, end, _parent in spans:
        own = (end - start) - covered_length(start, end, children.get(sid, ()))
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + own, calls + 1)
    return out


class SpanRecorder:
    """In-memory span log.  Each thread keeps its own stack of open spans, so
    a span's parent is the innermost wrapped call on the same thread.  A
    span opened on a thread with nothing open yet (the campaign's watchdog
    and batch-kernel threads, whose spawner blocks in ``join``) takes as
    parent the latest-started span still open on any other thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._stacks: dict[int, list[tuple[int, float]]] = {}

    def _stack(self) -> list[tuple[int, float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def _adopt_parent(self, own: list) -> int | None:
        tops = []
        for stack in list(self._stacks.values()):
            if stack is not own:
                try:
                    tops.append(stack[-1])
                except IndexError:  # emptied by its own thread meanwhile
                    pass
        return max(tops, key=lambda top: top[1])[0] if tops else None

    def wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else self._adopt_parent(stack)
            sid = next(ids)
            start = time.perf_counter()
            stack.append((sid, start))
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent))

        return traced

    def drain(self) -> dict[str, tuple[float, int]]:
        """Self times of every finished span; clears the log."""

        done = list(self.spans)
        self.spans.clear()
        return self_times(done)


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: SpanRecorder) -> list[tuple[object, str, object]]:
    """Wrap every :data:`LAYER_TARGETS` function; returns the patched
    bindings as ``(owner, attribute, original)``.

    Class attributes are patched once on the class.  A module-level function
    is patched in its home module *and* in every loaded ``polygraphmr``
    module that bound it by ``from … import``.
    """

    for module_name in PROGRAM_MODULES:
        __import__(module_name)
    patched = []
    for name, target in LAYER_TARGETS:
        owner, attr = _resolve(target)
        original = owner.__dict__[attr]
        wrapper = recorder.wrap(name, original)
        if isinstance(owner, type):
            bindings = [(owner, attr)]
        else:
            bindings = [
                (module, key)
                for module_name, module in list(sys.modules.items())
                if module is not None and module_name.startswith("polygraphmr")
                for key, value in list(vars(module).items())
                if value is original
            ]
        for holder, key in bindings:
            setattr(holder, key, wrapper)
            patched.append((holder, key, original))
    return patched


def uninstall(patched) -> None:
    """Undo :func:`install`."""

    for holder, key, original in reversed(patched):
        setattr(holder, key, original)
