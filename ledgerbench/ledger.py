"""Span recorder and per-layer cost ledger, measured from outside ``src/``.

The benchmark never edits the program it measures.  It wraps the calls
that cross a layer boundary (model forward, backward, optimizer, codec,
hook, packetizer, topology builder, ``Simulator.run``, the cluster
driver) and records a span around each.  Spans live in memory and are
written out once, when the episode ends.

Self time follows the usual definition: a span's duration minus the time
its child spans cover.  The cluster workload runs one thread per job, so
spans on different threads overlap in wall time.  The ledger therefore
shares each instant equally between the threads that are inside a span
at that instant (processor sharing).  On a single thread this reduces to
plain self time.  A thread inside a ``wait`` span is parked and claims
nothing.  Time that no thread claims is ``other``, so the per-layer self
times plus ``other`` add up to the wall time exactly.

Untraced episodes also measure the host's speed next to every round: a
fixed reference kernel runs right after each round ends, timed in the
thread's own CPU time, and the round keeps that time beside its own.
The runner divides each round by it (see :func:`reference_kernel`).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Spans with this name mark a thread as parked (blocked on another
#: thread); they claim no wall time.
WAIT = "wait"

_now = time.perf_counter
_cpu = time.thread_time

#: Reference-kernel operand; built on the first call, after set-up.
_REFERENCE_MATRIX = None


def reference_kernel() -> None:
    """Fixed work of the same kind as a round: interpreter and small numpy.

    About 3 ms on a 2-core x86 VM.  It is the benchmark's own code, so a
    change to the program cannot change what it computes.  On a shared
    host the speed of a core swings by up to 1.6x within seconds (a busy
    neighbour, a contended sibling thread), and a round and the kernel
    run just after it see the same swing.
    """
    global _REFERENCE_MATRIX
    import numpy as np

    if _REFERENCE_MATRIX is None:
        _REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((64, 64))
    acc = 0
    for i in range(15_000):
        acc += i * i
    m = _REFERENCE_MATRIX
    for _ in range(50):
        m = np.tanh(m @ _REFERENCE_MATRIX * 0.01)


class _ThreadState:
    """Per-thread span stack, layer transitions and round bookkeeping."""

    __slots__ = ("ident", "stack", "transitions", "samples", "boundary")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        #: open spans: (layer, span id, start)
        self.stack: List[Tuple[str, int, float]] = []
        #: (time, innermost layer or None) each time the top changes
        self.transitions: List[Tuple[float, Optional[str]]] = []
        self.samples = 0
        self.boundary: Optional[float] = None


class Recorder:
    """Collects spans (when ``trace``) and synchronous-round timings.

    Round timing is always on: a round ends when the optimizer step
    returns, and starts at the previous round's end, the end of the last
    evaluation, or the start of the timed phase, whichever is latest.
    With ``calibrate``, :func:`reference_kernel` runs after every round,
    outside the round's time.
    """

    def __init__(self, trace: bool, calibrate: bool = False) -> None:
        self.trace = trace
        self.calibrate = calibrate
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._next_id = 0
        #: finished spans: (id, parent id, thread, layer, start, end)
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        #: finished rounds: (end time, duration, training samples, thread,
        #: reference-kernel CPU seconds after it, or 0 without ``calibrate``)
        self.rounds: List[Tuple[float, float, int, int, float]] = []
        self.phase_start: Optional[float] = None
        self.counts: Dict[str, float] = {}

    # -- spans --------------------------------------------------------------

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def begin(self, layer: str, start: Optional[float] = None) -> None:
        st = self.state()
        t = _now() if start is None else start
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        st.stack.append((layer, span_id, t))
        st.transitions.append((t, layer))

    def end(self) -> None:
        t = _now()
        st = self.state()
        layer, span_id, start = st.stack.pop()
        parent = st.stack[-1] if st.stack else None
        st.transitions.append((t, parent[0] if parent else None))
        self.spans.append(
            (span_id, parent[1] if parent else 0, st.ident, layer, start, t)
        )

    def top(self) -> Optional[str]:
        stack = self.state().stack
        return stack[-1][0] if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:  # job threads count concurrently
            self.counts[name] = self.counts.get(name, 0) + amount

    def traced(
        self, fn: Callable, layer: str, skip_inside: Tuple[str, ...] = ()
    ) -> Callable:
        """``fn`` wrapped to record a ``layer`` span around each call.

        A call made while the innermost open span is one of
        ``skip_inside`` records nothing, so nested module calls inside a
        forward pass do not open spans of their own.
        """
        rec = self

        def traced(*args, **kwargs):
            if skip_inside and rec.top() in skip_inside:
                return fn(*args, **kwargs)
            rec.begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end()

        return traced

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        skip_inside: Tuple[str, ...] = (),
        static: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with its :meth:`traced` version."""
        traced = self.traced(getattr(owner, attr), layer, skip_inside)
        setattr(owner, attr, staticmethod(traced) if static else traced)

    # -- rounds ---------------------------------------------------------------

    def start_phase(self) -> None:
        self.phase_start = _now()

    def add_samples(self, n: int) -> None:
        self.state().samples += n

    def mark_boundary(self) -> None:
        """An evaluation ended: the next round starts now."""
        self.state().boundary = _now()

    def end_round(self) -> None:
        t = _now()
        st = self.state()
        start = st.boundary if st.boundary is not None else self.phase_start
        reference = 0.0
        if self.calibrate:
            c0 = _cpu()
            reference_kernel()
            reference = _cpu() - c0
        if start is not None:
            with self._lock:
                self.rounds.append((t, t - start, st.samples, st.ident, reference))
        st.samples = 0
        st.boundary = _now()

    # -- ledger ---------------------------------------------------------------

    def ledger(self, t_begin: float, t_end: float) -> Dict[str, float]:
        """Per-layer self seconds over ``[t_begin, t_end]``, plus ``other``."""
        events: List[Tuple[float, int, Optional[str]]] = []
        for index, st in enumerate(self._threads):
            for t, layer in st.transitions:
                events.append((t, index, layer))
        events.sort(key=lambda e: e[0])
        current: Dict[int, Optional[str]] = {}
        totals: Dict[str, float] = {}
        other = 0.0
        cursor = t_begin

        def spend(until: float) -> None:
            nonlocal cursor, other
            until = min(until, t_end)
            if until <= cursor:
                return
            dt = until - cursor
            active = [
                layer
                for layer in current.values()
                if layer is not None and layer != WAIT
            ]
            if active:
                share = dt / len(active)
                for layer in active:
                    totals[layer] = totals.get(layer, 0.0) + share
            else:
                other += dt
            cursor = until

        for t, index, layer in events:
            spend(t)
            current[index] = layer
        spend(t_end)
        totals["other"] = other
        return totals

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in start order, times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, thread, layer, start, end in sorted(
                self.spans, key=lambda s: s[4]
            ):
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "thread": thread,
                            "name": layer,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def wrap_plain(owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` with ``make(original)``."""
    setattr(owner, attr, make(getattr(owner, attr)))


def install_common(rec: Recorder) -> None:
    """Wrap the layers every workload crosses (imports must be done).

    Always on: round timing (optimizer step, evaluation), the training
    sample count (the loss sees every training batch) and the simulator
    event count.  With tracing: a span per layer call.
    """
    import repro.train.ddp as ddp
    from repro.core.rht import RHTCodec
    from repro.collectives.hooks import CommHook
    from repro.net.simulator import Simulator
    from repro.nn.layers import Module
    from repro.nn.optim import SGD
    from repro.nn.tensor import Tensor

    def loss_counting(fn):
        def loss(logits, labels, *args, **kwargs):
            rec.add_samples(len(labels))
            return fn(logits, labels, *args, **kwargs)

        return loss

    def step_timing(fn):
        def step(self):
            fn(self)
            rec.end_round()

        return step

    def eval_boundary(fn):
        def evaluate(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                rec.mark_boundary()

        return evaluate

    def event_counting(fn):
        def run(self, *args, **kwargs):
            before = self.events_processed
            try:
                return fn(self, *args, **kwargs)
            finally:
                rec.count("net.events", self.events_processed - before)

        return run

    wrap_plain(ddp, "cross_entropy", loss_counting)
    wrap_plain(SGD, "step", step_timing)
    wrap_plain(ddp, "evaluate", eval_boundary)
    wrap_plain(Simulator, "run", event_counting)
    if not rec.trace:
        return

    def coord_counting(fn):
        def encode(self, flat, *args, **kwargs):
            rec.count("core.coords", flat.size)
            return fn(self, flat, *args, **kwargs)

        return encode

    def message_counting(fn):
        def aggregate(self, grads, *args, **kwargs):
            rec.count("collectives.messages", len(grads))
            return fn(self, grads, *args, **kwargs)

        return aggregate

    wrap_plain(RHTCodec, "encode", coord_counting)
    wrap_plain(CommHook, "aggregate", message_counting)
    forward = ("nn.forward", "nn.eval")
    rec.wrap(Module, "__call__", "nn.forward", skip_inside=forward)
    rec.wrap(ddp, "cross_entropy", "nn.forward")
    rec.wrap(Tensor, "backward", "nn.backward")
    rec.wrap(SGD, "step", "nn.optim")
    for attr in ("zero_grad", "flat_gradient", "load_flat_gradient"):
        rec.wrap(Module, attr, "nn.optim")
    rec.wrap(ddp, "evaluate", "nn.eval")
    rec.wrap(RHTCodec, "encode", "core.encode")
    rec.wrap(RHTCodec, "decode", "core.decode")
    rec.wrap(CommHook, "aggregate", "collectives.aggregate")
    rec.wrap(Simulator, "run", "net.sim")


def install_packet_path(rec: Recorder, module: object) -> None:
    """Trace the packetizer calls a channel module imported by name."""
    if not rec.trace:
        return

    def packet_counting(fn):
        def packetize(enc, *args, **kwargs):
            packets = fn(enc, *args, **kwargs)
            rec.count("packet.packets", len(packets))
            rec.count("packet.wire_bytes", sum(p.wire_size for p in packets))
            return packets

        return packetize

    def trim_counting(fn):
        def decode_packets(packets, *args, **kwargs):
            data = [
                p for p in packets if p.grad_header and not p.grad_header.is_metadata
            ]
            rec.count("packet.data_delivered", len(data))
            rec.count("packet.data_trimmed", sum(1 for p in data if p.is_trimmed))
            return fn(packets, *args, **kwargs)

        return decode_packets

    wrap_plain(module, "packetize", packet_counting)
    wrap_plain(module, "decode_packets", trim_counting)
    rec.wrap(module, "packetize", "core.packetize")
    rec.wrap(module, "decode_packets", "core.decode_packets")


def transport_counts() -> Dict[str, float]:
    """Transport counters from the ``repro.obs`` registry."""
    from repro.obs.metrics import get_registry

    registry = get_registry()
    out = {}
    for name, metric in (
        ("transport.retransmissions", "repro_transport_retransmissions_total"),
        ("transport.timeouts", "repro_transport_timeouts_total"),
        ("transport.surrenders", "repro_transport_surrenders_total"),
    ):
        family = registry.get(metric)
        out[name] = int(family.total()) if family is not None else 0
    return out
