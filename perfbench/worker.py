"""One run of one workload, in a fresh process.

``run.py`` starts this with a hermetic environment (its own
``REPRO_CACHE_DIR`` and ``TMPDIR``, no other ``REPRO_*`` variable) and
reads the result file it writes::

    python3 perfbench/worker.py --workload native_calls --seed 1 \
        --seconds 35 --trace 0 --out result.json

Every workload is one application session built from the same seven
operations: cold compile, memory-cache hit, disk-cache hit after a
simulated restart, native call, simulated call, native batch and
simulated batch.  The workloads differ in the mix (see README.md).
Work is done in rounds of identical composition; the seed picks the
order, sizes, names and data.  The loop stops at the first round
boundary after ``--seconds``.
"""

from __future__ import annotations

import argparse
import array
import ctypes
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import kernels as K  # noqa: E402
import tracing  # noqa: E402

import repro.core.cache as cache  # noqa: E402
import repro.core.resilience as resilience  # noqa: E402
from repro.codegen.compiler import inspect_system  # noqa: E402
from repro.core import pipeline  # noqa: E402
from repro.core.pipeline import BackendKind  # noqa: E402
from repro.isa import registry  # noqa: E402

SETUP_REPS = 4           # at least; cheap set-ups repeat for SETUP_MIN_S
SETUP_MIN_S = 1.0
WAIT_S = 120.0           # bound on one background promotion

# ``_tail`` is the highest of these percentiles with at least ten
# samples beyond it.  It stops at 95: every series of a 35 s run has
# well over 200 samples, so every run, however fast, is compared at p95
# (p99 would be reached by some runs and not others).
TAIL_LADDER = (95, 90, 75)

# Ratios of a sample to its kernel's median, pooled over a run in a
# fixed histogram (0.23% wide bins), so memory does not grow with the
# number of calls a faster program makes.
RATIO_EDGES = np.logspace(-2, 3, 5001)

# The host-speed reference: a fixed pure-Python loop, probed a few times
# in every window.  A window's timings are scaled by REF_S over the
# median probe, i.e. to a host on which the loop takes 1 ms.
REF_LOOP = 15000
REF_S = 1e-3

perf = time.perf_counter


# ---------------------------------------------------------------------------
# Session: what one run measures and checks.

class Session:
    def __init__(self, seed: int, seconds: float, cache_base: Path,
                 tracer: tracing.Tracer | None = None,
                 installation: tracing.Installation | None = None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.rng = np.random.default_rng(seed)
        self.cache_base = cache_base
        self.tracer = tracer
        self.installation = installation
        # Every sample is filed under the window it was taken in (a
        # phase of a set-up, a round of ``native_calls`` or a kernel of
        # ``compile_stream``; see ``end_to_end`` for why) and its group
        # (the kernel, or kernel and argument set, it measured).
        self.window: tuple = ("setup", 0)
        self.series = {kind: Series() for kind, _s, _u in SERIES.values()}
        self.refs: dict = defaultdict(list)  # window -> reference probes
        self.groups: dict = {}   # kernel name (and argument set) -> code
        self._pools: dict[int, tuple] = {}
        self.call_rate: dict = defaultdict(lambda: [0, 0.0])
        # tier -> window -> family -> [entries, seconds]
        self.batches = {tier: defaultdict(lambda: defaultdict(
            lambda: [0, 0.0])) for tier in ("native", "sim")}
        self.setup_s: list[float] = []
        self.time_to_native: list[float] = []
        self.attempted = 0
        self.problems: list[str] = []
        self.rounds = 0
        self.loop_s = 0.0

    def op(self, kind: str):
        return self.tracer.operation(kind) if self.tracer else nullcontext()

    def enter(self, window: tuple) -> None:
        """Close the current window and start ``window``."""
        for series in self.series.values():
            series.close(self.window)
        self.window = window

    def probe(self) -> None:
        """Time the host-speed reference loop in the current window."""
        t0 = perf()
        reference_loop()
        self.refs[self.window].append(perf() - t0)

    def speed(self, *windows: tuple) -> float:
        """The factor that scales timings taken in ``windows`` to the
        reference host."""
        return REF_S / tracing.median([t for w in windows
                                       for t in self.refs[w]])

    def group(self, key) -> int:
        return self.groups.setdefault(key, len(self.groups))

    def pool_codes(self, pool: list) -> np.ndarray:
        """The group code of each entry of a call pool: its kernel and
        argument set, so that a call is compared with calls of its own
        size (memoized; the pool is kept alive with its codes, so its id
        is not reused)."""
        held = self._pools.get(id(pool))
        if held is None:
            codes = np.array([self.group((e[0].name, i))
                              for i, e in enumerate(pool)])
            held = self._pools[id(pool)] = (pool, codes)
        return held[1]

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def name(self, *parts) -> str:
        """A C-identifier kernel-name suffix, distinct per seed."""
        seed = str(self.seed).replace("-", "m")
        return "_".join(str(p) for p in (f"s{seed}",) + parts)

    def use_cache_dir(self, name: str) -> None:
        path = self.cache_base / name
        path.mkdir(parents=True, exist_ok=True)
        os.environ["REPRO_CACHE_DIR"] = str(path)

    def restart(self) -> None:
        """A simulated process restart: the memory tier and the session
        state go, the disk tier stays."""
        cache.default_cache.clear()
        resilience.clear_session_state()

    # -- compiles ------------------------------------------------------

    def compile(self, kind: str, fam: K.Family, suffix: str,
                same_as=None, **kwargs):
        """One timed ``compile_staged``.  ``kind`` is what it must be:
        ``cold`` (compiled now), ``mem`` (the very object ``same_as``),
        ``disk`` (loaded from the disk tier), ``async`` (serving from
        the simulator while it compiles) or ``simbuild``."""
        self.attempted += 1
        with self.op(kind):
            t0 = perf()
            try:
                k = fam.compile(pipeline, suffix, **kwargs)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                self.fail(f"{kind} compile of {fam.name}: {exc!r}")
                return None
            elapsed = perf() - t0
        if kind in self.series:
            self.series[kind].add(self.group(k.name), elapsed)
        report = k.report
        source = report.cache_source if report is not None else None
        want_native = kind in ("cold", "disk")
        if kind == "mem":
            ok = k is same_as
        elif kind == "simbuild" or kind == "async":
            ok = k.backend is BackendKind.SIMULATED and \
                k.fallback_reason is None
        else:
            ok = k.backend is BackendKind.NATIVE and \
                k.fallback_reason is None and \
                source == ("compiled" if kind == "cold" else "disk")
        if not ok:
            self.fail(f"{kind} compile of {k.name}: backend="
                      f"{k.backend.value} source={source} "
                      f"reason={k.fallback_reason}"
                      + (" (expected native)" if want_native else ""))
        return k

    def promote(self, k, source: str, started: float | None = None):
        """Wait for a tiered kernel's background compile; it must land
        on the native tier from ``source``."""
        try:
            k.wait_native(timeout=WAIT_S)
        except TimeoutError as exc:
            self.fail(str(exc))
            return
        if started is not None:
            self.time_to_native.append(perf() - started)
        got = k.report.cache_source if k.report is not None else None
        if k.tier != "native" or got != source:
            self.fail(f"promotion of {k.name}: tier={k.tier} "
                      f"source={got} reason={k.fallback_reason}")

    # -- calls ---------------------------------------------------------

    def native_calls(self, pool: list, order, last: list) -> None:
        """Call ``pool[i]`` for every ``i`` in ``order``, timing each
        call; ``last[i]`` keeps the latest return value."""
        times = array.array("q")
        record = times.append
        clock = time.perf_counter_ns
        op = self.op if self.tracer is not None else None
        start = perf()
        for i in order:
            kernel, args = pool[i][0], pool[i][2]
            try:
                if op is None:
                    t0 = clock()
                    result = kernel(*args)
                    t1 = clock()
                else:
                    with op("call"):
                        t0 = clock()
                        result = kernel(*args)
                        t1 = clock()
            except Exception as exc:  # noqa: BLE001 - counted
                self.fail(f"native call of {kernel.name}: {exc!r}")
                record(-1)   # keeps ``times`` aligned with ``order``
                continue
            record(t1 - t0)
            last[i] = result
        rate = self.call_rate[self.window]
        rate[0] += len(order)
        rate[1] += perf() - start
        ns = np.frombuffer(times, dtype=np.int64)
        ok = ns >= 0
        self.series["call"].extend(self.pool_codes(pool)[order][ok],
                                   ns[ok] * 1e-9)
        self.attempted += len(order)

    def sim_call(self, fam: K.Family, kernel, args, index: int) -> None:
        """One timed simulated call of argument set ``index``, checked
        against the reference."""
        before = K.copy_args(args)
        self.attempted += 1
        with self.op("sim"):
            t0 = perf()
            try:
                result = kernel(*args)
            except Exception as exc:  # noqa: BLE001 - counted
                self.fail(f"simulated call of {kernel.name}: {exc!r}")
                return
            self.series["sim"].add(self.group((kernel.name, index)),
                                   perf() - t0)
        problem = K.check(fam, before, args, result)
        if problem:
            self.fail(f"simulated {problem}")

    def batch(self, tier: str, fam: K.Family, kernel, entries: list,
              check: list[int]) -> None:
        """One timed ``call_batch``; entries at positions ``check`` are
        compared with the reference afterwards."""
        before = [K.copy_args(entries[j]) for j in check]
        self.attempted += 1
        with self.op(f"{tier}_batch"):
            t0 = perf()
            try:
                results = kernel.call_batch(entries)
            except Exception as exc:  # noqa: BLE001 - counted
                self.fail(f"{tier} batch of {kernel.name}: {exc!r}")
                return
            elapsed = perf() - t0
        cell = self.batches[tier][self.window][fam.name]
        cell[0] += len(entries)
        cell[1] += elapsed
        for j, args in zip(check, before):
            problem = K.check(fam, args, entries[j], results[j])
            if problem:
                self.fail(f"{tier} batch entry: {problem}")

    # -- checks outside the timed region -----------------------------

    def check_call(self, fam: K.Family, kernel, args) -> None:
        """Call once on a copy and compare with the reference."""
        work = K.copy_args(args)
        try:
            result = kernel(*work)
        except Exception as exc:  # noqa: BLE001 - counted
            self.fail(f"check call of {kernel.name}: {exc!r}")
            return
        problem = K.check(fam, args, work, result)
        if problem:
            self.fail(f"{kernel.name}: {problem}")

    def check_last(self, pool: list, last: list) -> None:
        """Pure kernels (the dots) return the same value on every call:
        compare the latest one with the reference."""
        for i, (kernel, fam, args) in enumerate(pool):
            if last[i] is None or not fam.pure:
                continue
            problem = K.check(fam, args, args, last[i])
            if problem:
                self.fail(f"{kernel.name}: {problem}")

    def check_tiers(self, fam: K.Family, native, simulated, args) -> None:
        """The native and the simulated tier must agree bit for bit."""
        a, b = K.copy_args(args), K.copy_args(args)
        try:
            ra = native(*a)
            rb = simulated.run_simulated(*b) if simulated is native \
                else simulated(*b)
        except Exception as exc:  # noqa: BLE001 - counted
            self.fail(f"tier check of {fam.name}: {exc!r}")
            return
        if not K.bit_identical(fam, a, ra, b, rb):
            self.fail(f"{fam.name}: native and simulated tiers differ")


def reference_loop() -> int:
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    return s


class Series:
    """The timings of one kind of operation.  Samples are reduced as
    they come, each time a window (or a step of one) closes: to each
    group's median, kept as a sum of logs per window, and to every
    sample's ratio to its group's median, added to a fixed histogram.
    Memory does not grow with the number of samples a run makes."""

    def __init__(self) -> None:
        self.groups = array.array("q")
        self.values = array.array("d")
        # window -> [sum of log group medians (seconds), group count]
        self.log_medians: dict = defaultdict(lambda: [0.0, 0])
        self.ratios = np.zeros(len(RATIO_EDGES) - 1, dtype=np.int64)

    def add(self, group: int, seconds: float) -> None:
        self.groups.append(group)
        self.values.append(seconds)

    def extend(self, groups: np.ndarray, seconds: np.ndarray) -> None:
        self.groups.frombytes(np.asarray(groups, np.int64).tobytes())
        self.values.frombytes(np.asarray(seconds, np.float64).tobytes())

    def close(self, window: tuple) -> None:
        if not self.values:
            return
        groups = np.frombuffer(self.groups, dtype=np.int64)
        values = np.frombuffer(self.values, dtype=np.float64)
        keys, inverse = np.unique(groups, return_inverse=True)
        medians = np.array([np.median(values[inverse == j])
                            for j in range(len(keys))])
        ratios = np.clip(values / medians[inverse], RATIO_EDGES[0],
                         RATIO_EDGES[-1])
        self.ratios += np.histogram(ratios, RATIO_EDGES)[0]
        cell = self.log_medians[window]
        cell[0] += float(np.log(medians).sum())
        cell[1] += len(medians)
        self.groups = array.array("q")
        self.values = array.array("d")

    def p50(self, speed=lambda w: 1.0) -> float:
        """The geometric mean of every group median, each scaled by
        ``speed`` of its window."""
        total = sum(lsum + n * math.log(speed(w))
                    for w, (lsum, n) in self.log_medians.items())
        count = sum(n for _l, n in self.log_medians.values())
        return math.exp(total / count)

    def ratio_percentile(self, p: float) -> float:
        """The ``p``-th percentile of the pooled ratios, interpolated in
        log space inside its bin."""
        cum = np.cumsum(self.ratios)
        rank = p / 100 * cum[-1]
        i = min(int(np.searchsorted(cum, rank)), len(cum) - 1)
        below = cum[i - 1] if i else 0
        frac = (rank - below) / self.ratios[i] if self.ratios[i] else 0.0
        lo, hi = np.log(RATIO_EDGES[i]), np.log(RATIO_EDGES[i + 1])
        return float(np.exp(lo + frac * (hi - lo)))


# ---------------------------------------------------------------------------
# Inputs.

def sizes(fam: K.Family, count: int, hi: int,
          skew: float = 2.0) -> list[int]:
    """``count`` log-spaced sizes in [8, hi], skewed small (``u **
    skew``), one at the middle of each equal slice of ``u``.  The set is
    the same for every seed (the seed orders the calls and fills the
    arrays), so no seed gets a different size mix.  The MMM side doubles
    from 8 up to 32 (up to 16 for ``hi`` below 4096, 8 below 256)."""
    out = []
    for i in range(count):
        u = ((i + 0.5) / count) ** skew
        if fam.name == "mmm":
            top = 2 if hi >= 4096 else 1 if hi >= 256 else 0
            out.append(8 << int(round(u * top)))
        else:
            out.append(fam.size(int(round(8 * (hi / 8) ** u))))
    return out


def batch_size_n(fam: K.Family) -> int:
    return {"mmm": 8, "dot4": 64}.get(fam.name, 32)


def call_pool(rng, kernels: list, per_kernel: int, hi: int) -> list:
    """``(kernel, family, args)`` triples with seeded sizes and data."""
    return [(k, fam, fam.make_args(rng, n)) for k, fam in kernels
            for n in sizes(fam, per_kernel, hi)]


def batch_pool(rng, fam: K.Family, count: int) -> list:
    n = batch_size_n(fam)
    return [fam.make_args(rng, n) for _ in range(count)]


# ---------------------------------------------------------------------------
# Set-up: repeated in fresh cache directories; the last one is kept.

def set_up(s: Session, build):
    state = None
    rep = 0
    while rep < SETUP_REPS or sum(s.setup_s) < SETUP_MIN_S:
        s.restart()
        s.enter(("setup", rep))
        s.use_cache_dir(f"setup{rep}")
        registry._cache.clear()   # so every rep loads the ISAs cold
        s.probe()
        t0 = perf()
        with s.op("setup.isa"):
            K.load()
        state = build(rep)
        s.setup_s.append(perf() - t0)
        s.probe()
        rep += 1
    return state


REQUEST = {"cold": {"tier": "sync"}, "async": {"tier": "async"},
           "simbuild": {"backend": "simulated"}}


def lifecycle(s: Session, rep: int, sync: list[str], tiered: list[str],
              simulated: list[str]) -> dict:
    """An application start: compile the kernel set, restart, and
    request everything again from the disk tier.  Tiered kernels
    compile in the background after the synchronous ones, so no timed
    compile shares the two cores with a background compile.  Each plan
    is a window of its own, with a reference probe before each compile
    and after the last.  Returns
    ``(family, kind) -> kernel``."""
    plans = ([(n, "cold") for n in sync]
             + [(n, "simbuild") for n in simulated],
             [(n, "async") for n in tiered])
    out = {}
    for again in (False, True):
        if again:
            s.restart()
        for i, plan in enumerate(plans):
            s.enter(("setup", rep, again, i))
            s.probe()
            started = {}
            for name, kind in plan:
                s.probe()
                timed = "disk" if again and kind == "cold" else kind
                out[(name, kind)] = s.compile(
                    timed, K.FAMILIES[name], s.name(kind, rep),
                    **REQUEST[kind])
                started[name] = perf()
            for name, kind in plan:
                if kind == "async" and out[(name, kind)] is not None:
                    s.promote(out[(name, kind)],
                              "disk" if again else "compiled",
                              None if again else started[name])
            s.probe()
    return out


def step_part(seq, t: int, steps: int = 10):
    """The ``t``-th of ``steps`` contiguous parts of ``seq``."""
    return seq[len(seq) * t // steps:len(seq) * (t + 1) // steps]


def requests(kernels: dict, times: int) -> list:
    """Every kernel of the set, ``times`` times: the requests an
    application makes again at its call sites (memory-cache hits)."""
    return [(name, kind, k) for (name, kind), k in kernels.items()
            for _ in range(times)]


def request(s: Session, name: str, kind: str, k) -> None:
    rep = len(s.setup_s) - 1   # the set-up whose kernels serve the run
    s.compile("mem", K.FAMILIES[name], s.name(kind, rep), same_as=k,
              **REQUEST[kind])


# ---------------------------------------------------------------------------
# Calibration of the call boundary (traced runs only).

def calibrate(s: Session, sync_k=None, tiered_k=None) -> dict:
    """The ctypes floor and the sync-vs-tiered call cost, on SAXPY at
    n=64, measured with tracing paused."""
    fam = K.FAMILIES["saxpy"]
    if sync_k is None:
        with s.op("setup"):
            sync_k = fam.compile(pipeline, s.name("cal"), tier="sync")
            tiered_k = fam.compile(pipeline, s.name("calt"), tier="async")
            t0 = perf()
            s.promote(tiered_k, "compiled", t0)
    native = sync_k._native   # the linked NativeKernel behind the sync path
    lib = ctypes.CDLL(str(native.library_path))
    raw = getattr(lib, native.symbol)
    raw.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_float,
                    ctypes.c_int32]
    raw.restype = None
    a, b, scalar, n = fam.make_args(np.random.default_rng(s.seed), 64)
    pa, pb = a.ctypes.data, b.ctypes.data
    clock = time.perf_counter_ns

    def per_call(fn, *args) -> float:
        t0 = clock()
        for _ in range(2000):
            fn(*args)
        return (clock() - t0) / 2000 / 1e3

    blocks: dict[str, list[float]] = defaultdict(list)
    with s.installation.paused():
        for _ in range(7):
            blocks["raw"].append(per_call(raw, pa, pb, scalar, n))
            blocks["sync"].append(per_call(sync_k, a, b, scalar, n))
            blocks["tiered"].append(per_call(tiered_k, a, b, scalar, n))
    for _ in range(200):   # traced tiered calls, for the dispatch spans
        with s.op("call"):
            tiered_k(a, b, scalar, n)
    return {"raw_us": tracing.median(blocks["raw"]),
            "sync_us": tracing.median(blocks["sync"]),
            "tiered_us": tracing.median(blocks["tiered"]),
            "time_to_native_ms": tracing.median(s.time_to_native) * 1e3}


# ---------------------------------------------------------------------------
# The workloads.  Each returns the calibration (traced) or None.

def run_rounds(s: Session, one_round) -> None:
    start = perf()
    while True:
        s.enter(("loop", s.rounds))
        one_round(s.rounds)
        s.rounds += 1
        if s.tracer is not None and s.rounds == 1:
            s.tracer.freeze()
        s.loop_s = perf() - start
        if s.loop_s >= s.seconds:
            break
    s.enter(("done",))


def compile_stream(s: Session):
    """Distinct kernels, each through its three lifetimes, then briefly
    used on both tiers.  Rounds of one kernel per family."""
    def build(rep):
        inspect_system()   # compiler discovery, once per process
    set_up(s, build)
    s.use_cache_dir("stream")
    fams = list(K.FAMILIES.values())
    calibration = calibrate(s) if s.tracer is not None else None
    rng = s.rng

    def one_round(r):
        # a fresh cache directory per round: however many rounds a run
        # fits, the disk tier never nears its bound (no eviction)
        s.use_cache_dir(f"stream{r}")
        order = rng.permutation(len(fams))
        repeats = int(rng.integers(16, 25))   # the same for every family
        for j, fi in enumerate(order):
            # each kernel is a window: a round is too long for one
            # host-speed scale
            s.enter(("loop", r, j))
            s.probe()
            fam = fams[fi]
            suffix = s.name(r, j, format(int(rng.integers(1 << 16)), "04x"))
            k = s.compile("cold", fam, suffix)
            s.probe()
            for _ in range(repeats):
                s.compile("mem", fam, suffix, same_as=k)
            s.probe()
            s.restart()
            k = s.compile("disk", fam, suffix)
            sim = s.compile("simbuild", fam, suffix, backend="simulated")
            if k is None or sim is None:
                continue
            s.probe()
            pool = call_pool(rng, [(k, fam)], 8, 256)
            calls = np.concatenate([rng.permutation(8) for _ in range(128)])
            last = [None] * len(pool)
            s.native_calls(pool, calls, last)
            s.check_last(pool, last)
            for _k, _f, args in pool:
                s.check_call(fam, k, args)
            sim_args = [fam.make_args(rng, n) for n in sizes(fam, 8, 128)]
            for a in np.repeat(rng.permutation(8), 6):
                s.sim_call(fam, sim, sim_args[a], a)
            for _ in range(4):
                s.batch("native", fam, k, batch_pool(rng, fam, 16), [0, 15])
                s.batch("sim", fam, sim, batch_pool(rng, fam, 16), [0, 15])
            s.check_tiers(fam, k, sim, pool[0][2])

    run_rounds(s, one_round)
    return calibration


NC_SYNC = ["saxpy", "dot32", "dot8", "scalar"]
NC_TIERED = ["saxpy", "mmm", "dot16", "dot4"]
NC_SIM = ["saxpy", "dot8", "scalar"]


def native_calls(s: Session):
    """A fixed kernel set (half synchronous, half tiered) serving seeded
    (kernel, size) calls, skewed small, plus a light share of
    simulated calls and batches."""
    kernels = set_up(s, lambda rep: lifecycle(s, rep, NC_SYNC, NC_TIERED,
                                              NC_SIM))
    fams = K.FAMILIES
    native = [(kernels[(n, "cold")], fams[n]) for n in NC_SYNC] + \
        [(kernels[(n, "async")], fams[n]) for n in NC_TIERED]
    sims = [(kernels[(n, "simbuild")], fams[n]) for n in NC_SIM]
    if any(k is None for k, _f in native + sims):
        raise RuntimeError("set-up left kernels missing: "
                           + "; ".join(s.problems))
    rng = s.rng
    pool = call_pool(rng, native, 32, 4096)
    saxpy = fams["saxpy"]
    for k in (kernels[("saxpy", "cold")], kernels[("saxpy", "async")]):
        pool.append((k, saxpy, saxpy.make_args(rng, 65536)))
    orders = [np.concatenate([rng.permutation(len(pool)) for _ in range(16)])
              for _ in range(8)]
    sim_pool = {fam.name: call_pool(rng, [(k, fam)], 8, 256)
                for k, fam in sims}
    native_batches = {fam.name: batch_pool(rng, fam, 16) for _k, fam in native}
    sim_batches = {fam.name: batch_pool(rng, fam, 16) for _k, fam in sims}
    last = [None] * len(pool)
    calibration = calibrate(s, kernels[("saxpy", "cold")],
                            kernels[("saxpy", "async")]) \
        if s.tracer is not None else None

    sim_ops = [(fam, k, args, j) for k, fam in sims
               for j, (_k, _f, args) in enumerate(sim_pool[fam.name])]
    batches = [("native", k, fam) for k, fam in native] + \
        [("sim", k, fam) for k, fam in sims]

    again = requests(kernels, 8)

    def one_round(r):
        # Ten steps of about 0.1 s; every round (a window, about a
        # second) makes the same requests, calls and batches, in seeded
        # order.  Requests and simulated calls come in bursts, each
        # kernel or argument set several times in a row, and every step
        # is reduced on its own: a sample is compared with its group's
        # median in the same step, so the host changing speed during a
        # round does not read as a tail.
        sim_order = np.repeat(rng.permutation(len(sim_ops)), 4)
        for t in range(10):
            s.probe()
            for req in step_part(again, t):
                request(s, *req)
            s.native_calls(pool, orders[(10 * r + t) % len(orders)], last)
            for i in step_part(sim_order, t):
                s.sim_call(*sim_ops[i])
            for tier, k, fam in batches[t::10]:
                pool_ = native_batches if tier == "native" else sim_batches
                s.batch(tier, fam, k, pool_[fam.name], [(r + t) % 16])
            for kind in ("mem", "call", "sim"):
                s.series[kind].close(s.window)

    run_rounds(s, one_round)
    s.check_last(pool, last)
    for kernel, fam, args in pool:
        s.check_call(fam, kernel, args)
    for i in rng.choice(len(pool) - 2, 16, replace=False):
        kernel, fam, args = pool[i]
        s.check_tiers(fam, kernel, kernel, args)
    for k, fam in sims:
        for _k, _f, args in sim_pool[fam.name]:
            s.check_call(fam, k, args)
    for k, fam in native + sims:
        if k.fallback_reason is not None:
            s.fail(f"{k.name} fell back: {k.fallback_reason}")
    return calibration


WORKLOADS = {"compile_stream": compile_stream,
             "native_calls": native_calls}


# ---------------------------------------------------------------------------
# Results.

def tail(series: Series) -> tuple[int, float]:
    """The highest ``TAIL_LADDER`` percentile of the pooled ratios with
    at least ten samples beyond it; the median when there are fewer
    than forty samples."""
    n = int(series.ratios.sum())
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return p, series.ratio_percentile(p)
    return 50, series.ratio_percentile(50)


def geo_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# series name -> (sample kind, seconds to the unit, unit)
SERIES = {"cold_compile_ms": ("cold", 1e3, "ms"),
          "disk_hit_ms": ("disk", 1e3, "ms"),
          "mem_hit_us": ("mem", 1e6, "us"),
          "call_us": ("call", 1e6, "us"),
          "sim_call_us": ("sim", 1e6, "us")}

# Cold compiles and disk hits see each kernel once per window, so their
# within-window ratios are all 1: they get no ``_tail``.
NO_TAIL = ("cold", "disk")


def end_to_end(s: Session, rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics.

    Two things would make a plain percentile over a run jump between
    runs, and each is taken out here:

    * The kernels of a series differ by up to 10x (an MMM against a
      scalar loop), so its samples form clusters, and a percentile that
      lands near the edge of a cluster moves by the gap.  So samples are
      reduced per group (a kernel, or for calls a kernel and argument
      set) within a window, or a step of one (see ``Series``): ``_p50``
      is the geometric mean of all group medians, and ``_tail`` scales
      it by the tail of every sample's ratio to its group median: how
      far the slow operations of a group sit above its typical one.
    * The host's speed drifts in two states about 1.45x apart (other
      tenants on the machine), and the slow state can last a whole run.
      So every window (a phase of a set-up, a round of ``native_calls``
      or one kernel of ``compile_stream``) is scaled by its reference
      probes (see ``Session.speed``), ``setup_s`` too.  A rate is the
      geometric mean over windows (and families batched) of entries per
      scaled second: a rare stall (single calls of about 40 ms were
      seen in ``compile_stream``) weighs in the window it hit without
      deciding the run.
    """
    metrics: dict[str, tuple[float, str]] = {}
    detail: dict[str, object] = {"rounds": s.rounds, "loop_s": s.loop_s}
    metrics["setup_s"] = (tracing.median(
        [t * s.speed(*[w for w in s.refs if w[:2] == ("setup", i)])
         for i, t in enumerate(s.setup_s)]), "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    speeds = [s.speed(w) for w in s.refs]
    detail["speed"] = {"windows": len(speeds), "min": min(speeds),
                       "median": tracing.median(speeds), "max": max(speeds)}
    for name, (kind, scale, unit) in SERIES.items():
        series = s.series[kind]
        if not series.log_medians:
            raise RuntimeError(f"no samples for {name}")
        p50 = scale * series.p50(s.speed)
        metrics[f"{name}_p50"] = (p50, unit)
        detail[name] = {"windows": len(series.log_medians),
                        "unscaled_p50": scale * series.p50()}
        if kind not in NO_TAIL:
            p, ratio = tail(series)
            metrics[f"{name}_tail"] = (p50 * ratio, unit)
            detail[name].update(tail_percentile=p,
                                samples=int(series.ratios.sum()))
    metrics["calls_per_s"] = (geo_mean(
        n / (t * s.speed(w)) for w, (n, t) in s.call_rate.items()), "1/s")
    for tier in ("native", "sim"):
        metrics[f"{tier}_batch_entries_per_s"] = (geo_mean(
            n / (t * s.speed(w)) for w, cells in s.batches[tier].items()
            for n, t in cells.values()), "1/s")
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    tracer = installation = None
    if args.trace:
        tracer = tracing.Tracer()
        installation = tracing.Installation(tracer).install()
    cache_base = Path(os.environ["REPRO_CACHE_DIR"])
    s = Session(args.seed, args.seconds, cache_base, tracer, installation)
    calibration = WORKLOADS[args.workload](s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if installation is not None:
        installation.undo()
    metrics, detail = end_to_end(s, rss_mb)
    broken = [k for k, (v, _u) in metrics.items() if not math.isfinite(v)]
    if broken:
        raise RuntimeError(f"metrics without a value: {broken}")
    result = {
        "attempted": s.attempted,
        "failed": len(s.problems),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "detail": detail,
        "problems": s.problems[:20],
    }
    if tracer is not None:
        layers = tracing.Layers(tracer).compute(calibration)
        missing = [k for k, v in layers.items() if not math.isfinite(v)]
        if missing:
            raise RuntimeError(f"no trace data for {missing}")
        result["layers"] = layers
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
