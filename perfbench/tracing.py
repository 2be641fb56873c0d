"""In-memory span tracing for the traced benchmark run.

The program under test carries no tracing of its own here: the spans come
from wrappers this module installs, from the benchmark's side, around the
public functions at each layer boundary (class or module attributes).
Installation happens before any serving process forks, so a worker
inherits the wrappers; its spans stay in its memory and are flushed to a
file when the worker returns from its drain command.

A span is ``[name, start, end, parent, trace_id, pid, tid, n]``:
``start``/``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC,
comparable across processes on one host), ``parent`` is the index of the
enclosing span on the same thread (``None`` for a root), ``trace_id``
groups the spans of one request, and ``n`` is an optional count the span
measured (batch size, bytes written).
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence
from urllib.parse import quote

NAME, START, END, PARENT, TRACE, PID, TID, COUNT = range(8)
NAN = float("nan")


class _Buffer:
    """One thread's spans in flat arrays: no per-span Python objects, so
    a long traced run adds no garbage-collector work."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trace = array("q")
        self.count = array("d")
        self.stack: List[int] = []
        self.trace_id = -1
        self.pid = os.getpid()
        self.tid = threading.get_ident()

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.trace.append(self.trace_id)
        self.count.append(NAN)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self._patches: List[tuple] = []
        self._names: Dict[str, int] = {}
        self._traces: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: Where a forked serving worker writes its spans (set by the front).
        self.worker_span_dir: Optional[str] = None
        self.reset()

    # -- recording ------------------------------------------------------
    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def name_id(self, name: str) -> int:
        nid = self._names.get(name)
        if nid is None:
            with self._lock:
                nid = self._names.setdefault(name, len(self._names))
        return nid

    def set_trace_id(self, trace_id: Optional[str]) -> None:
        """Tag the spans this thread opens from now on."""
        tid = -1
        if trace_id is not None:
            with self._lock:
                tid = self._traces.setdefault(trace_id, len(self._traces))
        self.buffer().trace_id = tid

    def begin(self, name: str):
        buf = self.buffer()
        return buf, buf.open(self.name_id(name))

    def end(self, handle) -> None:
        buf, index = handle
        buf.close(index)

    def record(self, name: str, start: float, end: float, trace_id: str) -> None:
        """Add a finished root span measured by the caller."""
        buf = self.buffer()
        self.set_trace_id(trace_id)
        index = buf.open(self.name_id(name))
        buf.close(index)
        buf.start[index], buf.end[index] = start, end
        buf.trace_id = -1

    def reset(self) -> None:
        self._local = threading.local()
        self._buffers: List[_Buffer] = []

    @property
    def spans(self) -> List[list]:
        """Every span recorded so far, as ``[name, start, end, parent,
        trace_id, pid, tid, n]`` lists with process-wide indices."""
        names = {v: k for k, v in self._names.items()}
        traces = {v: k for k, v in self._traces.items()}
        out: List[list] = []
        for buf in list(self._buffers):
            offset = len(out)
            for i in range(len(buf.start)):
                parent = buf.parent[i]
                count = buf.count[i]
                out.append([names[buf.name[i]], buf.start[i], buf.end[i],
                            None if parent < 0 else parent + offset,
                            traces.get(buf.trace[i]), buf.pid, buf.tid,
                            None if count != count else count])
        return out

    # -- patching -------------------------------------------------------
    def wrap(self, owner, attr: str, name, count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a callable of the call's positional
        arguments returning one; ``count(args, result)`` runs after the
        span closes and stores a measured quantity on it.
        """
        original = owner.__dict__[attr]
        tracer = self
        static = None if callable(name) else tracer.name_id(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            buf = tracer.buffer()
            index = buf.open(static if static is not None else tracer.name_id(name(args)))
            try:
                result = original(*args, **kwargs)
            finally:
                buf.close(index)
            if count is not None:
                buf.count[index] = count(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace an attribute without recording spans (hooks)."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.agents import trainer as trainer_mod
    from repro.agents.sdp import SDPAgent
    from repro.autograd.optim import Optimizer
    from repro.envs import backtester as backtester_mod
    from repro.envs.portfolio import PortfolioEnv
    from repro.envs.pvm import PortfolioVectorMemory
    from repro.envs.sampling import GeometricBatchSampler
    from repro.execution import ExecutionEngine
    from repro.risk import RiskEngine
    from repro.serving import supervisor as supervisor_mod
    from repro.serving.http import ServingHandler
    from repro.serving.service import MicroBatcher, PortfolioService
    from repro.serving.store import SessionStateStore
    from repro.snn.encoding import PopulationEncoder
    from repro.snn.layers import SpikingLinear, SpikingStack
    from repro.snn.network import SharedSDPNetwork

    # Layer k of every spiking stack built from now on, for per-layer names.
    layer_index: Dict[int, int] = {}
    stack_init = SpikingStack.__init__

    def indexed_init(self, layers, *args, **kwargs):
        stack_init(self, layers, *args, **kwargs)
        for k, layer in enumerate(layers):
            layer_index[id(layer)] = k

    tracer.patch(SpikingStack, "__init__", indexed_init)

    def per_layer(prefix):
        return lambda args: f"{prefix}.L{layer_index.get(id(args[0]), 'x')}"

    # Training step: sample -> features -> encode -> LIF fwd -> head ->
    # loss -> head/LIF bwd -> optimizer -> PVM write-back.
    tracer.wrap(trainer_mod.PolicyTrainer, "train_step", "agents.train_step")
    # The minibatch prologue (permutation, PVM drift, relatives gather)
    # is the trainer's own work between the sampler and the PVM.
    tracer.wrap(trainer_mod.PolicyTrainer, "_prepare_batch", "agents.prepare_batch")
    tracer.wrap(GeometricBatchSampler, "sample", "envs.sample")
    tracer.wrap(PortfolioVectorMemory, "read", "envs.pvm")
    tracer.wrap(PortfolioVectorMemory, "write", "envs.pvm")
    tracer.wrap(trainer_mod, "fused_training_loss", "agents.loss")
    tracer.wrap(Optimizer, "zero_grad", "autograd.optim")
    tracer.wrap(Optimizer, "step", "autograd.optim")
    # The network's own share of the fused step: tape set-up, readout and
    # softmax head (its encoder and layers are children).
    tracer.wrap(SharedSDPNetwork, "policy_forward_fused", "agents.head_fwd")
    tracer.wrap(SharedSDPNetwork, "policy_backward_fused", "agents.head_bwd")
    tracer.wrap(SpikingLinear, "step_train", per_layer("snn.lif_fwd"))
    tracer.wrap(SpikingLinear, "backward_step_train", per_layer("snn.lif_bwd"))
    tracer.wrap(PopulationEncoder, "encode", "snn.encode")
    tracer.wrap(PopulationEncoder, "encode_buffered", "snn.encode")
    tracer.wrap(SDPAgent, "prepare_states", "envs.observations")
    tracer.wrap(SDPAgent, "policy_forward_fused", "agents.policy_fwd")

    # Back-test: observations -> decide (encode, LIF per layer, decode)
    # -> environment step -> result metrics.
    tracer.wrap(backtester_mod.Backtester, "run_many", "envs.backtest")
    tracer.wrap(SDPAgent, "decide_batch", "agents.decide")
    tracer.wrap(SpikingLinear, "step_inference", per_layer("snn.lif_inf"))
    tracer.wrap(PortfolioEnv, "step", "envs.env_step")
    tracer.wrap(backtester_mod, "concat_states", "envs.concat_states")
    tracer.wrap(backtester_mod, "evaluate_backtest", "metrics.evaluate")

    # Serving: HTTP handler -> micro-batcher -> supervisor (admission,
    # pipe) -> worker: store load / import -> service -> risk,
    # execution -> export / store save.
    def handle_post(original):
        @functools.wraps(original)
        def do_post(self):
            tracer.set_trace_id(self.headers.get("X-Trace-Id"))
            handle = tracer.begin("serving.http.handler")
            try:
                return original(self)
            finally:
                tracer.end(handle)
                tracer.set_trace_id(None)
        return do_post

    tracer.patch(ServingHandler, "do_POST", handle_post(ServingHandler.do_POST))
    tracer.wrap(MicroBatcher, "submit", "serving.batcher")
    tracer.wrap(supervisor_mod.ServingSupervisor, "rebalance_many",
                "serving.supervisor", count=lambda args, result: len(args[1]))
    tracer.wrap(PortfolioService, "rebalance_many", "serving.service.rebalance",
                count=lambda args, result: len(args[1]))
    tracer.wrap(PortfolioService, "export_session", "serving.export")
    tracer.wrap(PortfolioService, "import_session", "serving.import")
    save_session = SessionStateStore.save_session

    def traced_save_session(store, payload):
        # Bytes this call writes: the state record always, the weights
        # sidecar only the first time.
        directory = store.root / "sessions" / quote(payload["session_id"], safe="")
        fresh = not (directory / "weights.npz").exists()
        handle = tracer.begin("serving.store.save")
        try:
            return save_session(store, payload)
        finally:
            tracer.end(handle)
            names = ("state.json", "weights.npz") if fresh else ("state.json",)
            handle[0].count[handle[1]] = sum(
                (directory / name).stat().st_size
                for name in names if (directory / name).exists()
            )

    tracer.patch(SessionStateStore, "save_session", traced_save_session)
    tracer.wrap(SessionStateStore, "load_session", "serving.store.load")
    tracer.wrap(RiskEngine, "step", "risk.step")
    tracer.wrap(ExecutionEngine, "estimate_batch", "execution.estimate")
    tracer.wrap(ExecutionEngine, "tradable_volume", "execution.estimate")

    worker_main = supervisor_mod._worker_main

    def traced_worker_main(conn, config):
        # The fork copied the front's spans; this process keeps its own
        # and writes them out when it returns (drain or a closed pipe).
        tracer.reset()
        try:
            worker_main(conn, config)
        finally:
            if tracer.worker_span_dir is not None:
                tracer.dump(os.path.join(tracer.worker_span_dir,
                                         f"worker-{os.getpid()}.json"))

    tracer.patch(supervisor_mod, "_worker_main", traced_worker_main)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def merge(*span_lists: List[list]) -> List[list]:
    """Concatenate span lists from different processes, re-basing each
    list's parent indices."""
    out: List[list] = []
    for spans in span_lists:
        offset = len(out)
        for span in spans:
            span = list(span)
            if span[PARENT] is not None:
                span[PARENT] += offset
            out.append(span)
    return out


def _union_length(intervals: Sequence[tuple], lo: float, hi: float) -> float:
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def link_children(spans: List[list]) -> Dict[int, List[int]]:
    """Parent -> children, including links across processes.

    Within a process the parent is the enclosing span of the thread.  A
    front-side HTTP handler span's parent is the client span carrying the
    same trace id; a worker-side root span's parent is the front's
    supervisor span whose interval contains it (one worker conversation
    runs at a time, so containment is unambiguous).
    """
    children: Dict[int, List[int]] = {}
    client_by_trace = {
        s[TRACE]: i for i, s in enumerate(spans)
        if s[PARENT] is None and s[NAME].startswith("loadgen.") and s[TRACE]
    }
    supervisors = sorted(
        (s[START], s[END], i) for i, s in enumerate(spans)
        if s[NAME] == "serving.supervisor"
    )
    supervisor_pids = {spans[i][PID] for _, _, i in supervisors}
    starts = [start for start, _, _ in supervisors]

    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent is None and span[NAME] == "serving.http.handler":
            parent = client_by_trace.get(span[TRACE])
        elif parent is None and supervisors and span[PID] not in supervisor_pids \
                and not span[NAME].startswith("loadgen."):
            k = bisect.bisect_right(starts, span[START]) - 1
            if k >= 0 and supervisors[k][1] >= span[END]:
                parent = supervisors[k][2]
                span[TRACE] = spans[parent][TRACE]
        if parent is not None:
            children.setdefault(parent, []).append(i)
    return children


def self_times(spans: List[list], calibration=(0.0, 0.0)) -> List[float]:
    """Each span's duration minus the part its children cover, less the
    tracer's own cost: ``inside`` seconds of wrapper work fall within
    every span, ``outside`` seconds per child fall in its parent."""
    inside, outside = calibration
    children = link_children(spans)
    out = []
    for i, span in enumerate(spans):
        kids = [(spans[c][START], spans[c][END]) for c in children.get(i, ())]
        covered = _union_length(kids, span[START], span[END]) if kids else 0.0
        own = span[END] - span[START] - covered - inside - outside * len(kids)
        out.append(max(own, 0.0))
    return out


def breakdown(spans: List[list], root: str, n_ops: int,
              calibration=(0.0, 0.0)) -> Dict[str, Dict[str, float]]:
    """Per-name self time per op (ms), calls, summed counts and, for the
    root, its mean duration per op (ms).

    Only spans under a ``root`` span are counted, so set-up work that ran
    traced does not leak into the per-op figures.
    """
    selfs = self_times(spans, calibration)
    children = link_children(spans)
    under = set()
    frontier = [i for i, s in enumerate(spans) if s[NAME] == root]
    while frontier:
        i = frontier.pop()
        under.add(i)
        frontier.extend(children.get(i, ()))
    table: Dict[str, Dict[str, float]] = {}
    for i in sorted(under):
        row = table.setdefault(spans[i][NAME], {"self_ms": 0.0, "calls": 0, "count": 0.0,
                                                "total_ms": 0.0})
        row["self_ms"] += selfs[i] * 1e3
        row["total_ms"] += (spans[i][END] - spans[i][START]) * 1e3
        row["calls"] += 1
        if spans[i][COUNT] is not None:
            row["count"] += spans[i][COUNT]
    for row in table.values():
        row["self_ms"] /= n_ops
        row["total_ms"] /= n_ops
    return table


def calibrate(tracer: Tracer, calls: int = 20000) -> tuple:
    """Seconds of tracer work inside and outside one wrapped call."""

    class Probe:
        def call(self):
            return None

    probe = Probe()
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.call()
    raw = (time.perf_counter() - t0) / calls
    tracer.wrap(Probe, "call", "trace.calibrate")
    buf = tracer.buffer()
    first = len(buf.start)
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.call()
    wrapped = (time.perf_counter() - t0) / calls
    owner, attr, original = tracer._patches.pop()
    setattr(owner, attr, original)
    recorded = sum(buf.end[i] - buf.start[i] for i in range(first, first + calls)) / calls
    return max(recorded - raw, 0.0), max(wrapped - recorded, 0.0)
