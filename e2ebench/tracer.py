"""In-memory span tracer installed from outside the program.

Spans are recorded around calls into each layer's public entry points by
patching module and class attributes for the duration of a traced run
(:meth:`Tracer.install` / :meth:`Tracer.restore`) and by a delegating
kernel-backend proxy (:class:`KernelProxy`) installed with
``use_backend``.  Every span keeps its parent; a span's self time is
its duration minus the durations of its direct children, so the self
times of all spans under one root add up to the root's duration
exactly.  The root's own self time is the unattributed remainder.

Only synchronous calls are wrapped: spans form one stack per thread,
which stays consistent on an asyncio loop because a synchronous call
never yields to another task before it returns.
"""

from __future__ import annotations

import functools
import selectors
import threading
import time
from collections import defaultdict

ROOT = "request"

#: Kernel-backend methods the proxy times, with their layer names.
KERNEL_METHODS = {
    "forward_ntt_batch": "kernels.fwd_ntt",
    "inverse_ntt_batch": "kernels.inv_ntt",
    "automorphism_eval_batch": "kernels.auto",
    "keyswitch_inner_product": "kernels.ks_inner",
}


class Tracer:
    """Span store: ``(layer, start_ns, end_ns, parent_index)`` rows."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.rows = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append([layer, time.perf_counter_ns(), 0, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed out of order")
        stack.pop()

    def wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    # -- installation -------------------------------------------------------

    def patch(self, owner, name: str, layer: str) -> None:
        """Replace ``owner.name`` with a traced wrapper until restore()."""
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(getattr(owner, name), layer))

    def install(self) -> None:
        """Wrap the public entry points of the fhe, fault, recover and
        serve layers.  ``repro.fhe.ckks`` imports ``apply_keyswitch``,
        ``mod_down`` and ``rescale`` by name, so both namespaces are
        patched."""
        from repro.fault.integrity import AbftChecker
        from repro.fhe import ckks, encoding, keyswitch, linear
        from repro.fhe.backend import IntegrityBackend
        from repro.recover.journal import RequestJournal
        from repro.serve.admission import AdmissionController
        from repro.serve.executor import CkksOpExecutor
        from repro.serve.limits import TokenBucket

        for module in (keyswitch, ckks):
            for name, layer in (("mod_down", "fhe.mod_down"),
                                ("rescale", "fhe.rescale")):
                self.patch(module, name, layer)
        self.patch(keyswitch, "decompose_digits", "fhe.decompose")
        self.patch(keyswitch, "accumulate_keyswitch", "fhe.accumulate")
        self.patch(encoding.CkksEncoder, "encode", "fhe.encode")
        self.patch(encoding.CkksEncoder, "decode", "fhe.encode")
        for name in ("encrypt", "decrypt", "add", "sub", "multiply",
                     "multiply_plain", "add_plain", "square", "relinearize",
                     "rescale", "rotate", "mod_reduce", "match_scale"):
            self.patch(ckks.CkksContext, name, "fhe.ckks")
        self.patch(linear, "encrypted_matvec_bsgs", "fhe.ckks")
        for name in ("check_ntt_batch", "check_automorphism_batch",
                     "check_keyswitch_accumulation"):
            self.patch(AbftChecker, name, "integrity.verify")
        for name in ("forward_ntt_batch", "inverse_ntt_batch",
                     "automorphism_eval_batch",
                     "check_keyswitch_accumulation"):
            self.patch(IntegrityBackend, name, "integrity.dispatch")
        self.patch(RequestJournal, "record_submit", "journal")
        self.patch(RequestJournal, "record_resolve", "journal")
        self.patch(AdmissionController, "admit", "serve.admission")
        self.patch(TokenBucket, "try_acquire", "serve.admission")
        self.patch(CkksOpExecutor, "verify", "serve.golden")

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, int]]:
        """``layer -> (calls, self_ns)``: each span's duration minus the
        durations of its direct children."""
        child_ns = defaultdict(int)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for index, (layer, start, end, _) in enumerate(self.spans):
            entry = out[layer]
            entry[0] += 1
            entry[1] += end - start - child_ns[index]
        return {layer: (calls, ns) for layer, (calls, ns) in out.items()}

    def root_ns(self) -> int:
        """Total duration of the root spans (those without a parent)."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)


class KernelProxy:
    """Delegating kernel backend that times every kernel call.

    A kernel method exists on the proxy only when the wrapped backend
    has it, so ``getattr(backend, "keyswitch_inner_product", None)``
    probes see the same answer through the proxy.  Rows processed are
    counted per call for the per-row cost."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        for name, layer in KERNEL_METHODS.items():
            method = getattr(inner, name, None)
            if method is not None:
                setattr(self, name, self._timed(method, layer, tracer))

    @staticmethod
    def _timed(method, layer: str, tracer: Tracer):
        traced = tracer.wrap(method, layer)

        @functools.wraps(method)
        def call(x, *args, **kwargs):
            shape = getattr(x, "shape", (1,))
            rows = 1 if len(shape) < 2 else shape[0] * (
                shape[1] if len(shape) == 3 else 1)
            tracer.rows[layer] += rows
            return traced(x, *args, **kwargs)
        return call

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class TimedSelector(selectors.DefaultSelector):
    """Selector whose blocking waits are spans of layer ``loop.idle``,
    so an event loop's idle time is measured instead of left
    unattributed (``asyncio.SelectorEventLoop(selector=...)``)."""

    def __init__(self, tracer: Tracer | None = None):
        super().__init__()
        self.tracer = tracer

    def select(self, timeout=None):
        if self.tracer is None:
            return super().select(timeout)
        index = self.tracer.open("loop.idle")
        try:
            return super().select(timeout)
        finally:
            self.tracer.close(index)
