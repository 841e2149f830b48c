"""Outside-in span recorder for the benchmark.

Spans wrap the public calls into each layer of ``repro`` from outside the
package: a :class:`~repro.api.session.Session` subclass for the pipeline
stages, an :class:`~repro.api.store.ArtifactStore` subclass (passed as
``store=``) for store I/O and a :class:`~repro.serve.client.ServeClient`
subclass for the daemon transport.  Nothing under ``src/`` changes.

Each span records its name, start, end and parent.  Spans stay in memory
and are written out as JSON when the measurement ends.  A span's self time
is its duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Every layer span the benchmark reports, named by the module it measures.
LAYER_SPANS = (
    "uarch.batched", "uarch.scalar", "sim.profile", "sim.trace",
    "minigraph.select", "minigraph.build_mgt", "program.rewrite",
    "workloads.assemble", "api.session", "api.store.get", "api.store.put",
    "api.store.contains", "grid.plan", "grid.engine", "serve.submit",
    "serve.stream",
)

#: Public ``Session`` method -> the layer span that wraps it.
SESSION_SPANS = {
    "program": "workloads.assemble",
    "profile": "sim.profile",
    "baseline_trace": "sim.profile",
    "selection": "minigraph.select",
    "rewritten": "program.rewrite",
    "mgt": "minigraph.build_mgt",
    "minigraph_trace": "sim.trace",
    "baseline_timing": "uarch.scalar",
    "minigraph_timing": "uarch.scalar",
    "prime_timing": "uarch.batched",
    "run": "api.session",
    "plan": "grid.plan",
}


class SpanRecorder:
    """In-memory span log: ``[name, start, end, parent index or None]``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.spans: List[List[Any]] = []
        self._open: List[int] = []

    @property
    def current(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]][0] if self._open else None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, self._clock(), None,
                  self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = self._clock()
            self._open.pop()

    def as_json(self) -> List[Dict[str, Any]]:
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans]


def _covered(intervals: Sequence[Tuple[float, float]],
             low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_times(spans: Sequence[Sequence[Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    layers: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        duration = end - start
        entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - _covered(children.get(index, ()),
                                               start, end)
    return layers


def coverage(spans: Sequence[Sequence[Any]], low: float, high: float) -> float:
    """Share of ``[low, high]`` that top-level spans cover."""
    if high <= low:
        return 0.0
    tops = [(start, end) for _, start, end, parent in spans if parent is None]
    return _covered(tops, low, high) / (high - low)


# -- traced subclasses of the public API ---------------------------------------------


def _spanned(name: str, method: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(method)
    def wrapper(self, *args: Any, **kwargs: Any) -> Any:
        with self.recorder.span(name):
            return method(self, *args, **kwargs)
    return wrapper


def _spanned_stream(recorder: SpanRecorder, name: str,
                    rows: Iterator[Any]) -> Iterator[Any]:
    """Keep a span open from the first row pulled until the stream ends."""
    with recorder.span(name):
        yield from rows


def traced_classes():
    """``(TracedSession, TracedStore, TracedServeClient)`` over ``repro``.

    Built on demand so importing this module does not import ``repro``.
    """
    from repro.api import ArtifactStore, Session
    from repro.api.session import ProfileArtifact
    from repro.serve.client import ServeClient
    from repro.sim.trace import Trace
    from repro.uarch.stats import PipelineStats

    class TracedStore(ArtifactStore):
        """Store I/O spans plus counts of what the stage puts computed."""

        def __init__(self, recorder: SpanRecorder, *args: Any,
                     **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self.recorder = recorder
            self.profile_entries = 0
            self.trace_entries = 0
            self.sim_cycles = 0
            #: Profiles computed while ``Session.run`` itself was the
            #: innermost span, i.e. through its private profile path rather
            #: than a public stage call.
            self.profile_paid_in_session = 0

        def get(self, key: str) -> Any:
            with self.recorder.span("api.store.get"):
                return super().get(key)

        def __contains__(self, key: str) -> bool:
            with self.recorder.span("api.store.contains"):
                return super().__contains__(key)

        def put(self, key: str, value: Any) -> None:
            if isinstance(value, ProfileArtifact):
                self.profile_entries += len(value.trace)
                if self.recorder.current == "api.session":
                    self.profile_paid_in_session += 1
            elif isinstance(value, Trace):
                self.trace_entries += len(value)
            elif isinstance(value, PipelineStats):
                self.sim_cycles += value.cycles
            with self.recorder.span("api.store.put"):
                super().put(key, value)

    class TracedSession(Session):
        """Stage spans; keeps every distinct timing result it returned."""

        def __init__(self, recorder: SpanRecorder, **kwargs: Any) -> None:
            super().__init__(**kwargs)
            self.recorder = recorder
            self.timings: Dict[int, PipelineStats] = {}

        def _timed(self, stats: PipelineStats) -> PipelineStats:
            self.timings[id(stats)] = stats
            return stats

        def baseline_timing(self, spec, machine=None):
            return self._timed(super().baseline_timing(spec, machine))

        def minigraph_timing(self, spec, machine=None):
            return self._timed(super().minigraph_timing(spec, machine))

        def run_grid(self, grid, **kwargs: Any):
            return _spanned_stream(self.recorder, "grid.engine",
                                   super().run_grid(grid, **kwargs))

    for method, span in SESSION_SPANS.items():
        setattr(TracedSession, method,
                _spanned(span, getattr(TracedSession, method)))

    class TracedServeClient(ServeClient):
        """Transport spans around the calls one closed-loop job makes."""

        def __init__(self, recorder: SpanRecorder, *args: Any,
                     **kwargs: Any) -> None:
            self.recorder = recorder
            super().__init__(*args, **kwargs)

        def submit_cells(self, cells, **kwargs: Any):
            with self.recorder.span("serve.submit"):
                return super().submit_cells(cells, **kwargs)

        def stream(self, job_id: str, **kwargs: Any):
            return _spanned_stream(self.recorder, "serve.stream",
                                   super().stream(job_id, **kwargs))

    return TracedSession, TracedStore, TracedServeClient
