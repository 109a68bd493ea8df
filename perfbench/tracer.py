"""Span tracing from outside the program: wrappers around each layer's calls.

:class:`Tracer` records one span per wrapped call: a name, start and end
times, the parent span (the wrapped call that was open when it began),
the event-handler invocation it belongs to, and the device id when the
call has one.  Spans are kept in flat in-memory columns and written out
with :meth:`Tracer.save` after the run.

:func:`install` rebinds every name in :data:`TARGETS` to a timing
wrapper and returns an :class:`Installation` whose ``restore()`` puts
every original back.  A module-level function (``child_rng``,
``shared_key``) is rebound in *every* loaded ``repro.*`` module that
holds it, because callers import it with ``from ... import``.

Self time of a span is its duration minus the time covered by its direct
children; a layer's self time is the sum over its spans.  Time the
wrappers themselves take lands in the self time of the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

#: marker attribute set on every wrapper (the restore check looks for it)
MARK = "__perfbench_wrapped__"

#: the layers, in report order (names follow the repo's modules)
LAYERS = (
    "engine",
    "rng",
    "population",
    "control",
    "client",
    "trainer",
    "agg",
    "secagg",
    "obs",
)


def _arg(i: int) -> Callable[[tuple], Any]:
    return lambda args: args[i] if len(args) > i else -1


def _arg_attr(i: int, attr: str) -> Callable[[tuple], Any]:
    return lambda args: getattr(args[i], attr, -1) if len(args) > i else -1


_SELF_DEVICE = _arg_attr(0, "device_id")  # ClientSession methods
#: adapter.train(profile, ...), runtime.process_update(session, ...)
_ARG_DEVICE = _arg_attr(1, "device_id")


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``module.owner.attr`` (``owner`` None: a function)."""

    module: str
    owner: str | None
    attr: str
    layer: str
    device: Callable[[tuple], Any] | None = None

    @property
    def span_name(self) -> str:
        leaf = f"{self.owner}.{self.attr}" if self.owner else self.attr
        return f"{self.layer}:{leaf}"


def _methods(module, owner, attrs, layer, device=None) -> list[Target]:
    return [Target(module, owner, a, layer, device) for a in attrs]


#: every wrapped call, by layer.  ``Simulator.schedule_at`` is special:
#: besides its own span it wraps the scheduled action, so every event
#: handler invocation gets a :data:`HANDLER_SPAN` span and a fresh
#: invocation id.  The base ``TrainerAdapter.train_cohort`` is left
#: unwrapped: it loops over ``train``, which is wrapped, so a cohort of
#: a trainer without a batched engine counts as that many ``train`` calls.
TARGETS: tuple[Target, ...] = tuple(
    _methods("repro.sim.engine", "Simulator", ["run_until", "schedule_at"], "engine")
    + [Target("repro.utils.rng", None, "child_rng", "rng")]
    + _methods(
        "repro.sim.population", "DevicePopulation",
        ["profile", "is_eligible", "dropout_point"], "population", _arg(1),
    )
    + [
        Target("repro.system.selector", "Selector", "route_checkin", "control"),
        Target("repro.system.coordinator", "Coordinator", "assign_client", "control"),
    ]
    + _methods(
        "repro.system.client_runtime", "ClientSession",
        ["begin", "_downloaded", "_training_complete", "_dropped", "_timed_out",
         "abort", "complete", "_finish"],
        "client", _SELF_DEVICE,
    )
    + _methods("repro.system.adapters", "SurrogateAdapter", ["train"], "trainer",
               _ARG_DEVICE)
    + _methods("repro.system.adapters", "RealTrainingAdapter", ["train"], "trainer",
               _ARG_DEVICE)
    + _methods("repro.system.adapters", "RealTrainingAdapter", ["train_cohort"],
               "trainer")
    + _methods("repro.system.adapters", "SurrogateAdapter", ["current_loss"], "trainer")
    + _methods("repro.system.adapters", "RealTrainingAdapter", ["current_loss"],
               "trainer")
    + _methods(
        "repro.system.aggregator", "FLTaskRuntime",
        ["upload_arrived", "process_update", "_on_server_step", "attach_session",
         "session_ended"],
        "agg", _ARG_DEVICE,
    )
    + _methods("repro.system.aggregator", "AggregatorNode", ["enqueue_update"], "agg")
    + _methods("repro.system.sharding", "ShardedFLTaskRuntime", ["upload_arrived"],
               "agg", _ARG_DEVICE)
    + _methods("repro.core.fedbuff", "FedBuffAggregator",
               ["register_download", "client_failed", "receive_update"], "agg", _arg(1))
    + _methods("repro.core.sharding", "ShardedFedBuffAggregator",
               ["register_download", "client_failed", "receive_update"], "agg", _arg(1))
    + _methods("repro.core.syncfl", "SyncRoundAggregator",
               ["register_download", "client_failed", "receive_update"], "agg", _arg(1))
    + _methods("repro.system.secure", "SecureBufferedAggregator",
               ["register_download", "client_failed", "receive_update"], "agg", _arg(1))
    + _methods("repro.system.secure_sharding", "SecureShardedAggregator",
               ["register_download", "client_failed", "receive_update"], "agg", _arg(1))
    + [
        Target("repro.secagg.dh", "DHKeyPair", "generate", "secagg"),
        Target("repro.secagg.dh", None, "shared_key", "secagg"),
    ]
    + _methods(
        "repro.secagg.tsa", "TrustedSecureAggregator",
        ["prepare_legs", "complete_leg", "process_client", "process_client_block",
         "release_unmask", "release_unmask_partial", "begin_round"],
        "secagg",
    )
    + _methods("repro.secagg.tsa", "TrustedShardReducer",
               ["release_merged_unmask", "merge_released_partials", "begin_round"],
               "secagg")
    + _methods(
        "repro.secagg.server", "SecAggServer",
        ["begin_round", "assign_leg", "complete_checkin", "submit", "submit_block",
         "masked_weighted_sum", "finalize"],
        "secagg",
    )
    + _methods("repro.secagg.client", "SecAggClient", ["participate"], "secagg")
    + _methods(
        "repro.obs.telemetry", "RunTelemetry",
        ["on_checkin", "on_heartbeat", "on_session_begin", "on_session_downloaded",
         "on_session_upload", "on_update_admitted", "on_session_end", "on_enqueue",
         "on_server_step", "on_failover", "finalize"],
        "obs",
    )
)

#: the span of one event-handler invocation.  It belongs to no layer: its
#: self time is handler code outside every wrapped call (mostly the
#: orchestrator's own bookkeeping) and counts as unattributed.
HANDLER_SPAN = "handler:event"


class Tracer:
    """In-memory span store with running per-name totals.

    Columns (one entry per span): name index, parent span index (-1 at
    the top), invocation id (0 outside event handlers), device id (-1
    when the call has none), start and end (``time.perf_counter``).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span and total (names stay registered)."""
        self.name_col = array("i")
        self.parent_col = array("i")
        self.invocation_col = array("q")
        self.device_col = array("q")
        self.start_col = array("d")
        self.end_col = array("d")
        self.calls = [0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self._stack: list[list] = []  # [span index, child seconds]
        self._invocation = 0
        self._invocations = 0

    def name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return idx

    def open(self, name_idx: int, device: Any = -1) -> int:
        span = len(self.name_col)
        stack = self._stack
        self.name_col.append(name_idx)
        self.parent_col.append(stack[-1][0] if stack else -1)
        self.invocation_col.append(self._invocation)
        self.device_col.append(device if type(device) is int else -1)
        self.end_col.append(0.0)
        stack.append([span, 0.0])
        self.start_col.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        end = time.perf_counter()
        self.end_col[span] = end
        frame = self._stack.pop()
        duration = end - self.start_col[span]
        name_idx = self.name_col[span]
        self.calls[name_idx] += 1
        self.total_s[name_idx] += duration
        self.self_s[name_idx] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def begin_invocation(self) -> int:
        """Start a new event-handler invocation; returns the previous id."""
        previous = self._invocation
        self._invocations += 1
        self._invocation = self._invocations
        return previous

    def end_invocation(self, previous: int) -> None:
        self._invocation = previous

    @property
    def span_count(self) -> int:
        return len(self.name_col)

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)`` for every name seen."""
        return {
            name: (self.calls[i], self.total_s[i], self.self_s[i])
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer (the prefix of each span name)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.by_name().items():
            layer = name.split(":", 1)[0]
            if layer in out:
                out[layer] += self_s
        return out

    def save(self, path) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            parent=np.frombuffer(self.parent_col, dtype=np.int32),
            invocation=np.frombuffer(self.invocation_col, dtype=np.int64),
            device=np.frombuffer(self.device_col, dtype=np.int64),
            start=np.frombuffer(self.start_col, dtype=np.float64),
            end=np.frombuffer(self.end_col, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# Installing and restoring wrappers
# ---------------------------------------------------------------------------

Hook = Callable[[tuple, dict, Any], None]


def _timed(tracer: Tracer, fn, name: str, device, hook: Hook | None):
    name_idx = tracer.name_index(name)
    open_, close = tracer.open, tracer.close

    if device is None and hook is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = open_(name_idx)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = open_(name_idx, device(args) if device is not None else -1)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span)
            if hook is not None:
                hook(args, kwargs, result)
            return result

    setattr(wrapper, MARK, True)
    return wrapper


def _schedule_wrapper(tracer: Tracer, fn, name: str):
    """``Simulator.schedule_at`` that also wraps the action it schedules."""
    name_idx = tracer.name_index(name)
    handler_idx = tracer.name_index(HANDLER_SPAN)
    open_, close = tracer.open, tracer.close

    def wrap_action(action):
        owner = getattr(action, "__self__", None)
        device = getattr(owner, "device_id", -1)

        def handler():
            previous = tracer.begin_invocation()
            span = open_(handler_idx, device)
            try:
                action()
            finally:
                close(span)
                tracer.end_invocation(previous)

        return handler

    @functools.wraps(fn)
    def schedule_at(self, time_s, action):
        span = open_(name_idx)
        try:
            return fn(self, time_s, wrap_action(action))
        finally:
            close(span)

    setattr(schedule_at, MARK, True)
    return schedule_at


class Installation:
    """The wrappers of one :func:`install` call; ``restore()`` undoes them."""

    def __init__(self) -> None:
        #: (namespace object, attribute, original value as found in __dict__)
        self.patched: list[tuple[Any, str, Any]] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def _repro_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer, hooks: dict[str, Hook] | None = None) -> Installation:
    """Wrap every :data:`TARGETS` name; ``hooks`` maps a span name to a
    post-call hook ``(args, kwargs, result)`` used for result counts."""
    hooks = hooks or {}
    installation = Installation()
    try:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            name = target.span_name
            if target.owner is None:
                original = getattr(module, target.attr)
                wrapper = _timed(tracer, original, name, target.device, hooks.get(name))
                for mod in _repro_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            installation.patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
                continue
            cls = getattr(module, target.owner)
            raw = cls.__dict__[target.attr]
            if target.owner == "Simulator" and target.attr == "schedule_at":
                wrapped: Any = _schedule_wrapper(tracer, raw, name)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(
                    _timed(tracer, raw.__func__, name, target.device, hooks.get(name))
                )
                setattr(wrapped, MARK, True)
            else:
                wrapped = _timed(tracer, raw, name, target.device, hooks.get(name))
            installation.patched.append((cls, target.attr, raw))
            setattr(cls, target.attr, wrapped)
    except BaseException:
        installation.restore()
        raise
    return installation


def leftover_wrappers() -> list[str]:
    """Names in loaded ``repro.*`` modules (and their classes) still wrapped."""
    found = []
    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    if getattr(cvalue, MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found
