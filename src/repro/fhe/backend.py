"""Pluggable kernel backends for the FHE layer.

Every polynomial-level kernel the accelerator cares about — forward and
inverse negacyclic NTTs and evaluation-domain automorphisms — funnels
through the active backend:

* :class:`NumpyBackend` — the fast vectorized golden path.
* :class:`repro.kernels.CompiledBackend` — fused kernels in a
  runtime-compiled C extension: the whole transform per dispatch,
  bit-identical to the numpy path, falling back to it whenever a
  provider or an eligibility gate is missing.
* :class:`VpuBackend` — routes the kernels through the behavioral VPU
  model (compiled ISA programs executed on the mux-level network), so a
  whole CKKS workload can be run "on the hardware" and checked
  bit-for-bit against the numpy path.
* :class:`IntegrityBackend` — wraps any of the above with the ABFT
  runtime integrity layer: O(n) linear checksums after every batched
  kernel, policy-driven bounded replay, compiled-program quarantine and
  graceful degradation down to the golden per-row path
  (:mod:`repro.fault`).

The unit of dispatch is the full ``(L, n)`` residue matrix of a
double-CRT polynomial: the ``*_batch`` methods take every limb at once
(the paper's batch shape — a keyswitch is "per digit, a batch of NTTs",
§II-A), and the legacy single-row methods remain for golden-model and
mapping tests.  On the numpy path a batch is one stacked vectorized
transform; on the VPU path it is a replay of one cached compiled
program per limb — programs are compiled once per ``(kernel, n, m, q)``
and counted in ``program_compilations``.

Swap with :func:`set_backend`, or temporarily with :func:`use_backend`;
the process default honors ``REPRO_BACKEND=numpy|compiled|vpu``
(:func:`backend_from_env`).
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from contextlib import contextmanager

import numpy as np

from repro.automorphism.mapping import galois_eval_permutation
from repro.fault.injector import current_fault_hook
from repro.fault.integrity import AbftChecker
from repro.fault.policy import IntegrityPolicy
from repro.ntt.negacyclic import NegacyclicNtt, get_batched_ntt
from repro.obs import current_obs_hook

_NTT_CACHE: dict[tuple[int, int], NegacyclicNtt] = {}
_NTT_CACHE_LOCK = threading.Lock()


def _ntt(n: int, q: int) -> NegacyclicNtt:
    # Lock-protected lookup-and-build: the serving layer hits this cache
    # from overlapping tasks, and each (n, q) must be built exactly once.
    key = (n, q)
    with _NTT_CACHE_LOCK:
        ntt = _NTT_CACHE.get(key)
        if ntt is None:
            ntt = _NTT_CACHE[key] = NegacyclicNtt(n, q)
    return ntt


class NumpyBackend:
    """Vectorized numpy kernels (the default).

    ``mode`` selects the rung of the integrity layer's degradation
    ladder this instance runs at:

    * ``"fast"`` — the default: Shoup/unclamped batched stage kernels.
    * ``"clamped"`` — batched, but every butterfly product strictly
      reduced (no Shoup companions, no unclamped DIT).
    * ``"golden"`` — per-row :class:`NegacyclicNtt` reference, the
      slowest and simplest path.
    """

    name = "numpy"
    #: Class-level default so subclasses overriding __init__ (test
    #: doubles that count kernel calls) inherit the fast path.
    mode = "fast"

    def __init__(self, mode: str = "fast"):
        if mode not in ("fast", "clamped", "golden"):
            raise ValueError(f"unknown NumpyBackend mode {mode!r}")
        self.mode = mode

    def forward_ntt(self, coeffs: np.ndarray, q: int) -> np.ndarray:
        """Negacyclic coefficients -> natural-order evaluation values."""
        return _ntt(len(coeffs), q).forward(coeffs)

    def inverse_ntt(self, values: np.ndarray, q: int) -> np.ndarray:
        """Natural-order evaluation values -> coefficients."""
        return _ntt(len(values), q).inverse(values)

    def automorphism_eval(self, values: np.ndarray, galois_k: int,
                          q: int) -> np.ndarray:
        """Apply the Galois action ``X -> X^k`` in the evaluation domain."""
        perm = galois_eval_permutation(len(values), galois_k)
        return perm.apply(values)

    # -- limb-batched kernels -------------------------------------------------

    def forward_ntt_batch(self, residues: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        """Forward-NTT every limb of an ``(L, n)`` residue matrix in one
        stacked dispatch (row ``i`` modulo ``primes[i]``)."""
        residues = np.asarray(residues)
        if self.mode != "golden" and all(q < (1 << 31) for q in primes):
            ntt = get_batched_ntt(residues.shape[1], primes,
                                  self.mode == "clamped")
            return ntt.forward(residues)
        return np.stack([self.forward_ntt(residues[i], q)
                         for i, q in enumerate(primes)])

    def inverse_ntt_batch(self, values: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        """Inverse-NTT every limb of an ``(L, n)`` value matrix at once."""
        values = np.asarray(values)
        if self.mode != "golden" and all(q < (1 << 31) for q in primes):
            ntt = get_batched_ntt(values.shape[1], primes,
                                  self.mode == "clamped")
            return ntt.inverse(values)
        return np.stack([self.inverse_ntt(values[i], q)
                         for i, q in enumerate(primes)])

    def automorphism_eval_batch(self, values: np.ndarray, galois_k: int,
                                primes: tuple[int, ...]) -> np.ndarray:
        """Galois action on every limb: the permutation is prime-independent,
        so the whole matrix moves in one fancy-indexed assignment."""
        values = np.asarray(values)
        perm = galois_eval_permutation(values.shape[1], galois_k)
        out = np.empty_like(values)
        out[:, perm.destinations()] = values
        return out


class ProgramQuarantinedError(RuntimeError):
    """A kernel resolved to a quarantined compiled program.

    Raised by :meth:`VpuBackend._program` after the integrity layer
    blacklisted the program (repeated checksum failures); callers are
    expected to degrade to a software path rather than replay it.
    """


class VpuBackend:
    """Kernels executed on the behavioral VPU model.

    Works for any power-of-two ``n >= m`` (full-width dimensions peel
    off recursively; ragged tails run in the packed grouped-CG layout);
    automorphisms work for any ``n`` divisible by ``m``.  The psi-folding
    scalings of the negacyclic wrap run as element-wise twiddle work,
    which the real VPU also does in its element-wise mode.

    Compiled ISA programs are cached per ``(kernel, n, m, q)`` — limb
    batches replay one program per limb instead of recompiling it, so
    ``program_compilations`` grows with the number of *distinct* kernels
    while ``kernel_invocations`` grows with the work actually executed.
    """

    name = "vpu"

    def __init__(self, m: int = 16, verify_programs: bool | None = None):
        from repro.core import VectorProcessingUnit
        from repro.mapping import required_registers

        self.m = m
        self._vpu = VectorProcessingUnit(
            m=m, q=3, regfile_entries=required_registers(m),
            memory_rows=8,
        )
        self.kernel_invocations = 0
        self.program_compilations = 0
        self.programs_verified = 0
        #: Compiled-program cache hit/miss counters.  Unlike
        #: ``program_compilations`` (the lifetime experiment record)
        #: these reset with :meth:`clear_caches`, tracking the cache
        #: *instance* — the figures the metrics registry mirrors.
        self.program_cache_hits = 0
        self.program_cache_misses = 0
        if verify_programs is None:
            import os
            verify_programs = bool(os.environ.get("REPRO_VERIFY_PROGRAMS"))
        #: Debug hook: interval-verify every newly compiled micro-program
        #: (repro.analysis.program_check) before it enters the cache.
        self.verify_programs = verify_programs
        self._programs: dict[tuple, object] = {}
        self._quarantined: set[tuple] = set()
        #: Guards the compiled-program cache and quarantine set (the
        #: serving layer shares one backend across overlapping tasks;
        #: per-key compilation must happen exactly once).  RLock so
        #: clear/quarantine paths may nest.
        self._cache_lock = threading.RLock()

    @property
    def vpu(self):
        """The underlying behavioral VPU (fault hooks install here)."""
        return self._vpu

    def _prepare(self, n: int, q: int):
        self._vpu.set_modulus(q)
        needed = 2 * max(n // self.m, 2)
        if self._vpu.memory.rows < needed:
            # resize_memory keeps any installed fault hook attached.
            self._vpu.resize_memory(needed)

    def _key(self, kind: str, n: int, q: int,
             galois_k: int | None = None) -> tuple:
        return (kind, n, self.m, None if kind == "auto" else q, galois_k)

    def invalidate_program(self, kind: str, n: int, q: int,
                           galois_k: int | None = None) -> bool:
        """Drop one cached compiled program (recompiled on next use) —
        the integrity layer's first response to a failed check, since
        the cached artifact itself may be the poisoned state."""
        with self._cache_lock:
            return self._programs.pop(self._key(kind, n, q, galois_k),
                                      None) is not None

    def quarantine_program(self, kind: str, n: int, q: int,
                           galois_k: int | None = None) -> None:
        """Blacklist a compiled program: dropped now and refused later
        (:class:`ProgramQuarantinedError`) until :meth:`clear_caches`."""
        key = self._key(kind, n, q, galois_k)
        with self._cache_lock:
            self._programs.pop(key, None)
            self._quarantined.add(key)

    @property
    def quarantined_programs(self) -> tuple[tuple, ...]:
        with self._cache_lock:
            return tuple(sorted(self._quarantined, key=repr))

    def clear_caches(self) -> None:
        """Forget every compiled program, lift all quarantines, and
        zero the cache hit/miss counters (a fresh cache instance)."""
        with self._cache_lock:
            self._programs.clear()
            self._quarantined.clear()
            self.program_cache_hits = 0
            self.program_cache_misses = 0
        obs = current_obs_hook()
        if obs is not None:
            obs.count("backend.program_cache.clears")
            self._publish_cache_metrics(obs)

    def _publish_cache_metrics(self, obs) -> None:
        """Mirror the cache/quarantine state into the metrics registry
        (only ever called through a guarded obs hook)."""
        obs.gauge("backend.program_cache.hits", self.program_cache_hits)
        obs.gauge("backend.program_cache.misses", self.program_cache_misses)
        obs.gauge("backend.program_cache.size", len(self._programs))
        obs.gauge("backend.quarantined_programs", len(self._quarantined))

    def _program(self, kind: str, n: int, q: int, galois_k: int | None = None):
        """Fetch (or compile once) the program for one kernel shape.

        Automorphism programs are pure permutations — independent of the
        modulus — so their cache key drops ``q`` and one program serves
        every limb of a batch.
        """
        key = self._key(kind, n, q, galois_k)
        obs = current_obs_hook()
        with self._cache_lock:
            if key in self._quarantined:
                if obs is not None:
                    obs.count("backend.program_cache.quarantine_refusals")
                raise ProgramQuarantinedError(
                    f"compiled program {key} is quarantined after detected "
                    f"corruption")
            prog = self._programs.get(key)
            if prog is not None:
                self.program_cache_hits += 1
            else:
                self.program_cache_misses += 1
            if obs is not None:
                obs.count("backend.program_cache.hit" if prog is not None
                          else "backend.program_cache.miss")
            if prog is None:
                from repro.mapping import compile_automorphism
                from repro.mapping.ntt import (
                    compile_negacyclic_intt,
                    compile_negacyclic_ntt,
                )

                if kind == "ntt":
                    prog = compile_negacyclic_ntt(n, self.m, q)
                elif kind == "intt":
                    prog = compile_negacyclic_intt(n, self.m, q)
                elif kind == "auto":
                    perm = galois_eval_permutation(n, galois_k)
                    prog = compile_automorphism(perm, self.m)
                else:  # pragma: no cover - internal misuse
                    raise ValueError(f"unknown kernel kind {kind!r}")
                if self.verify_programs:
                    # Raises ProgramVerificationError before a bad program
                    # can enter the cache (and be replayed limb after limb).
                    from repro.analysis.program_check import check_program

                    check_program(prog, q=q, m=self.m).raise_on_error()
                    self.programs_verified += 1
                self.program_compilations += 1
                self._programs[key] = prog
        if obs is not None:
            self._publish_cache_metrics(obs)
        return prog

    def forward_ntt(self, coeffs: np.ndarray, q: int) -> np.ndarray:
        from repro.mapping import pack_for_ntt, unpack_ntt_result

        n = len(coeffs)
        obs = current_obs_hook()
        if obs is not None:
            obs.begin("vpu.kernel.ntt", cat="kernel", n=n, q=q)
        self._prepare(n, q)
        self._vpu.memory.data[:n // self.m] = pack_for_ntt(
            np.asarray(coeffs, dtype=np.uint64), self.m)
        # psi-folding runs on the VPU too (element-wise twiddle mode).
        self._vpu.execute(self._program("ntt", n, q))
        self.kernel_invocations += 1
        if obs is not None:
            obs.count("backend.kernels.ntt")
            obs.end()
        # Natural-order negacyclic values, matching NegacyclicNtt.forward.
        return unpack_ntt_result(self._vpu.memory, n, self.m)

    def inverse_ntt(self, values: np.ndarray, q: int) -> np.ndarray:
        from repro.mapping import pack_ntt_values

        n = len(values)
        obs = current_obs_hook()
        if obs is not None:
            obs.begin("vpu.kernel.intt", cat="kernel", n=n, q=q)
        self._prepare(n, q)
        self._vpu.memory.data[:n // self.m] = pack_ntt_values(
            np.asarray(values, dtype=np.uint64), self.m)
        self._vpu.execute(self._program("intt", n, q))
        self.kernel_invocations += 1
        if obs is not None:
            obs.count("backend.kernels.intt")
            obs.end()
        rows = self._vpu.memory.data[:n // self.m]
        return rows.T.reshape(-1).copy()  # undo pack_for_ntt layout

    def automorphism_eval(self, values: np.ndarray, galois_k: int,
                          q: int) -> np.ndarray:
        from repro.mapping import (
            automorphism_layout_pack,
            automorphism_layout_unpack,
        )

        n = len(values)
        obs = current_obs_hook()
        if obs is not None:
            obs.begin("vpu.kernel.auto", cat="kernel", n=n, q=q,
                      galois_k=galois_k)
        self._prepare(n, q)
        cols = n // self.m
        self._vpu.memory.data[:cols] = automorphism_layout_pack(
            np.asarray(values, dtype=np.uint64), self.m)
        self._vpu.execute(self._program("auto", n, q, galois_k))
        self.kernel_invocations += 1
        if obs is not None:
            obs.count("backend.kernels.auto")
            obs.end()
        return automorphism_layout_unpack(self._vpu.memory, n, self.m,
                                          base_row=cols)

    # -- limb-batched kernels -------------------------------------------------
    #
    # The VPU model is a single-polynomial engine, so a batch replays the
    # cached program once per limb — the compile cost is paid once per
    # (kernel, n, m, q) while the data movement stays per limb, exactly
    # the replay schedule a real dispatch queue would issue.

    def forward_ntt_batch(self, residues: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        residues = np.asarray(residues)
        obs = current_obs_hook()
        if obs is not None:
            obs.begin("vpu.batch.ntt", cat="kernel", limbs=len(primes),
                      n=residues.shape[1])
        out = np.stack([self.forward_ntt(residues[i], q)
                        for i, q in enumerate(primes)])
        if obs is not None:
            obs.end()
        return out

    def inverse_ntt_batch(self, values: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        values = np.asarray(values)
        obs = current_obs_hook()
        if obs is not None:
            obs.begin("vpu.batch.intt", cat="kernel", limbs=len(primes),
                      n=values.shape[1])
        out = np.stack([self.inverse_ntt(values[i], q)
                        for i, q in enumerate(primes)])
        if obs is not None:
            obs.end()
        return out

    def automorphism_eval_batch(self, values: np.ndarray, galois_k: int,
                                primes: tuple[int, ...]) -> np.ndarray:
        values = np.asarray(values)
        obs = current_obs_hook()
        if obs is not None:
            obs.begin("vpu.batch.auto", cat="kernel", limbs=len(primes),
                      n=values.shape[1], galois_k=galois_k)
        out = np.stack([self.automorphism_eval(values[i], galois_k, q)
                        for i, q in enumerate(primes)])
        if obs is not None:
            obs.end()
        return out


class IntegrityBackend:
    """The runtime ABFT integrity layer, wrapping any kernel backend.

    Every batched kernel dispatch is verified after the fact with an
    O(n) algorithm-based check (:class:`~repro.fault.integrity
    .AbftChecker`): random-combination checksums for NTT batches, exact
    permutation replay for automorphisms.  What happens on a failed
    check is the :class:`~repro.fault.policy.IntegrityPolicy`:

    * ``OFF`` — no checks, no staging copies: bit-identical dispatch
      straight to the wrapped backend.
    * ``DETECT`` — count and flag, keep the result.
    * ``DETECT_RETRY`` — bounded replay (``max_retries``), invalidating
      the wrapped backend's cached compiled program first.
    * ``DETECT_DEGRADE`` — replay, then quarantine the compiled program
      (after ``quarantine_threshold`` failures) and walk the ladder:
      level 0 = wrapped backend, level 1 = clamped numpy batched path,
      level 2 = golden per-row path.  Degraded levels bypass the
      dram/sram staging models — the redundant re-read path.

    Optional ``dram``/``sram`` models stage inputs through
    :meth:`DramModel.transfer`/:meth:`OnChipSram.stage`, which is where
    buffer-site fault injection lands; checksums are taken from the
    *pristine* caller array (checksummed at the producer), so staging
    corruption is detectable.
    """

    name = "integrity"

    def __init__(self, inner=None,
                 policy: IntegrityPolicy | str = IntegrityPolicy.DETECT_RETRY,
                 *, seed: int = 0, max_retries: int = 2,
                 quarantine_threshold: int = 2, dram=None, sram=None):
        self.inner = NumpyBackend() if inner is None else inner
        self.policy = IntegrityPolicy.parse(policy)
        self.checker = AbftChecker(seed)
        self.max_retries = max_retries
        self.quarantine_threshold = quarantine_threshold
        self.dram = dram
        self.sram = sram
        self.detections = 0
        self.corrected = 0
        self.retries = 0
        self.flagged = 0
        self.degrade_level = 0
        self.degradations = 0
        self.keyswitch_detections = 0
        self.keyswitch_recomputed = 0
        self.dram_ns = 0.0
        self.sram_cycles = 0
        self._failures: dict[tuple, int] = {}
        self._clamped: NumpyBackend | None = None
        self._golden: NumpyBackend | None = None

    # -- degradation ladder ------------------------------------------------

    def _level_backend(self, level: int):
        if level == 0:
            return self.inner
        if level == 1:
            if self._clamped is None:
                self._clamped = NumpyBackend(mode="clamped")
            return self._clamped
        if self._golden is None:
            self._golden = NumpyBackend(mode="golden")
        return self._golden

    def _degrade(self) -> None:
        self.degrade_level = min(self.degrade_level + 1, 2)
        self.degradations += 1
        obs = current_obs_hook()
        if obs is not None:
            obs.count("integrity.degradations")
            obs.gauge("integrity.degrade_level", self.degrade_level)

    def _note_failure(self, key: tuple, primes: tuple[int, ...]) -> None:
        """Failed-check bookkeeping against the wrapped backend's
        compiled-program cache: invalidate on early failures, quarantine
        (under DETECT_DEGRADE) once the threshold is reached."""
        count = self._failures.get(key, 0) + 1
        self._failures[key] = count
        invalidate = getattr(self.inner, "invalidate_program", None)
        if invalidate is None:
            return
        kind, n, _, galois_k = key
        quarantine = (self.policy is IntegrityPolicy.DETECT_DEGRADE
                      and count >= self.quarantine_threshold)
        for q in sorted(set(primes)):
            if quarantine:
                self.inner.quarantine_program(kind, n, q, galois_k)
            else:
                invalidate(kind, n, q, galois_k)

    # -- staging / dispatch -------------------------------------------------

    def _stage_in(self, rows: np.ndarray) -> np.ndarray:
        if rows.dtype == object:
            return rows  # wide-modulus path: exact big ints, no staging
        work = rows
        if self.dram is not None:
            work, ns = self.dram.transfer(work, current_fault_hook())
            self.dram_ns += ns
        if self.sram is not None:
            if not self.sram.fits(int(work.size)):
                raise ValueError(
                    f"working set of {int(work.size)} words does not fit "
                    f"the {self.sram.capacity_bytes}-byte SRAM; stage in "
                    f"tiles or enlarge the scratchpad")
            work, cycles = self.sram.stage(work)
            self.sram_cycles += cycles
        return work

    def _run(self, kind: str, rows: np.ndarray, primes: tuple[int, ...],
             galois_k: int | None, level: int) -> np.ndarray:
        backend = self._level_backend(level)
        if kind == "ntt":
            return backend.forward_ntt_batch(rows, primes)
        if kind == "intt":
            return backend.inverse_ntt_batch(rows, primes)
        return backend.automorphism_eval_batch(rows, galois_k, primes)

    def _verify(self, kind: str, inputs: np.ndarray, outputs: np.ndarray,
                primes: tuple[int, ...], galois_k: int | None) -> bool:
        if kind == "auto":
            return self.checker.check_automorphism_batch(inputs, outputs,
                                                         galois_k)
        return self.checker.check_ntt_batch(inputs, outputs, primes,
                                            inverse=kind == "intt")

    def _dispatch(self, kind: str, rows: np.ndarray,
                  primes: tuple[int, ...],
                  galois_k: int | None = None) -> np.ndarray:
        rows = np.asarray(rows)
        if self.policy is IntegrityPolicy.OFF:
            return self._run(kind, self._stage_in(rows), primes, galois_k, 0)
        attempts = 0
        key = (kind, rows.shape[1], primes, galois_k)
        while True:
            level = self.degrade_level
            work = self._stage_in(rows) if level == 0 else rows
            obs = current_obs_hook()
            if obs is not None and attempts:
                # A replay re-run: spans inherit the ambient request
                # trace (if any), so serve traces show the integrity
                # layer's recovery work inside the request's attempt.
                obs.begin("integrity.replay", cat="integrity", kind=kind,
                          attempt=attempts, level=level)
            try:
                out = self._run(kind, work, primes, galois_k, level)
            except ProgramQuarantinedError:
                obs = current_obs_hook()
                if obs is not None and attempts:
                    obs.end(quarantined=True)
                self._degrade()
                continue
            obs = current_obs_hook()
            if obs is not None and attempts:
                obs.end()
            if obs is not None:
                obs.begin("integrity.verify", cat="integrity", kind=kind,
                          rows=int(rows.shape[0]), attempt=attempts)
            verified = self._verify(kind, rows, out, primes, galois_k)
            obs = current_obs_hook()
            if obs is not None:
                obs.end(ok=verified)
            if verified:
                if attempts:
                    self.corrected += 1
                    if obs is not None:
                        obs.count("integrity.corrected")
                return out
            self.detections += 1
            if obs is not None:
                obs.count("integrity.detections")
            hook = current_fault_hook()
            if hook is not None:
                hook.note_detection()
            if self.policy is IntegrityPolicy.DETECT:
                self.flagged += 1
                if obs is not None:
                    obs.count("integrity.flagged")
                return out
            self._note_failure(key, primes)
            if attempts < self.max_retries:
                attempts += 1
                self.retries += 1
                if obs is not None:
                    obs.count("integrity.retries")
                continue
            if (self.policy is IntegrityPolicy.DETECT_DEGRADE
                    and self.degrade_level < 2):
                self._degrade()
                attempts = 0
                continue
            # Replay budget and ladder exhausted: surface the (flagged)
            # result rather than loop forever against a persistent fault.
            self.flagged += 1
            return out

    # -- the backend protocol ----------------------------------------------

    def forward_ntt(self, coeffs: np.ndarray, q: int) -> np.ndarray:
        return self._dispatch("ntt", np.asarray(coeffs)[None, :], (q,))[0]

    def inverse_ntt(self, values: np.ndarray, q: int) -> np.ndarray:
        return self._dispatch("intt", np.asarray(values)[None, :], (q,))[0]

    def automorphism_eval(self, values: np.ndarray, galois_k: int,
                          q: int) -> np.ndarray:
        return self._dispatch("auto", np.asarray(values)[None, :], (q,),
                              galois_k)[0]

    def forward_ntt_batch(self, residues: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        return self._dispatch("ntt", residues, tuple(primes))

    def inverse_ntt_batch(self, values: np.ndarray,
                          primes: tuple[int, ...]) -> np.ndarray:
        return self._dispatch("intt", values, tuple(primes))

    def automorphism_eval_batch(self, values: np.ndarray, galois_k: int,
                                primes: tuple[int, ...]) -> np.ndarray:
        return self._dispatch("auto", values, tuple(primes), galois_k)

    # -- keyswitch spare-modulus channel ------------------------------------

    def check_keyswitch_accumulation(self, acc_raw: np.ndarray,
                                     digit_stack: np.ndarray,
                                     key_stack: np.ndarray) -> bool:
        """Verify one lazy keyswitch accumulator over the spare modulus.

        Returns True to accept the accumulator as-is; False tells the
        caller to recompute on the independent per-step reduced channel
        (only under retry/degrade policies).
        """
        if self.policy is IntegrityPolicy.OFF:
            return True
        if self.checker.check_keyswitch_accumulation(acc_raw, digit_stack,
                                                     key_stack):
            return True
        self.detections += 1
        self.keyswitch_detections += 1
        obs = current_obs_hook()
        if obs is not None:
            obs.count("integrity.detections")
            obs.count("integrity.keyswitch_detections")
        hook = current_fault_hook()
        if hook is not None:
            hook.note_detection()
        if self.policy is IntegrityPolicy.DETECT:
            self.flagged += 1
            if obs is not None:
                obs.count("integrity.flagged")
            return True
        self.keyswitch_recomputed += 1
        if obs is not None:
            obs.count("integrity.keyswitch_recomputed")
        return False

    # -- reporting ----------------------------------------------------------

    def integrity_counters(self) -> dict[str, int]:
        """The structured counter block a :class:`~repro.fault.report
        .FaultReport` aggregates per injection."""
        return {
            "checks": self.checker.checks,
            "mismatches": self.checker.mismatches,
            "detections": self.detections,
            "corrected": self.corrected,
            "retries": self.retries,
            "flagged": self.flagged,
            "degrade_level": self.degrade_level,
            "degradations": self.degradations,
            "keyswitch_detections": self.keyswitch_detections,
            "keyswitch_recomputed": self.keyswitch_recomputed,
        }

    def clear_caches(self) -> None:
        """Clear the wrapped backend's caches and the failure counts
        (detection counters are the experiment record and survive)."""
        inner_clear = getattr(self.inner, "clear_caches", None)
        if inner_clear is not None:
            inner_clear()
        self._failures.clear()


def backend_from_env(default: str = "numpy"):
    """Construct the backend ``REPRO_BACKEND`` selects (``numpy`` |
    ``compiled`` | ``vpu``); ``default`` applies when unset or empty.
    Raises :class:`ValueError` on an unknown name."""
    name = os.environ.get("REPRO_BACKEND", default).strip().lower() or default
    if name == "numpy":
        return NumpyBackend()
    if name == "compiled":
        from repro.kernels import CompiledBackend

        return CompiledBackend()
    if name == "vpu":
        return VpuBackend()
    raise ValueError(
        f"unknown REPRO_BACKEND {name!r} (expected numpy, compiled or vpu)")


def _initial_backend() -> NumpyBackend | VpuBackend:
    try:
        return backend_from_env()
    except ValueError as exc:
        # Import-time typo in the environment must not make the package
        # unimportable — warn and run on the default path.
        warnings.warn(f"{exc}; falling back to NumpyBackend",
                      RuntimeWarning, stacklevel=2)
        return NumpyBackend()


_ACTIVE: NumpyBackend | VpuBackend | IntegrityBackend = _initial_backend()


def get_backend():
    """The backend all FHE polynomial kernels currently use."""
    return _ACTIVE


def clear_caches() -> None:
    """Drop every kernel-level cache: the per-``(n, q)`` golden NTT
    objects, the batched-NTT stacks, the compiled-kernel plans and
    workspaces (:mod:`repro.kernels`, when loaded), and the active
    backend's compiled programs and quarantines.  Fault campaigns and
    tests call this between runs so poisoned state cannot leak across
    experiments.  (Twiddle tables stay cached: they are pure functions
    of ``(n, q)`` that no injection site ever writes.)

    With a live metrics registry the cache hit/miss/size gauges of both
    program caches are zeroed as well — a metrics snapshot taken after a
    reset must not report the dropped caches' stale counters, even when
    the backend that published them is no longer the active one — and
    the telemetry ring is dropped (its entries snapshot the zeroed
    series, so windowed deltas across a reset would be nonsense)."""
    with _NTT_CACHE_LOCK:
        _NTT_CACHE.clear()
    get_batched_ntt.cache_clear()
    kernel_plans = sys.modules.get("repro.kernels.plan")
    if kernel_plans is not None:
        kernel_plans.clear_compiled_caches()
    clearer = getattr(_ACTIVE, "clear_caches", None)
    if clearer is not None:
        clearer()
    obs = current_obs_hook()
    if obs is not None:
        obs.zero_gauges("backend.program_cache.")
        obs.zero_gauges("backend.compiled_plan_cache.")
        obs.reset_telemetry()


def set_backend(backend) -> None:
    """Install a kernel backend globally."""
    global _ACTIVE
    _ACTIVE = backend


@contextmanager
def use_backend(backend):
    """Temporarily install a backend (restores the previous on exit)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = backend
    try:
        yield backend
    finally:
        _ACTIVE = previous
