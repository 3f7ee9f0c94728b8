"""Linking generated native code into the runtime (the JNI analog).

The paper links LMS-generated C into the JVM through JNI, automating the
``Java_<pkg>_<class>_<method>`` naming with Scala macros.  The Python
analog is ``ctypes``: arrays are passed as pointers into the numpy
buffers (the equivalent of ``GetPrimitiveArrayCritical`` pinning — numpy
arrays never move, so the GC-copy caveat of Section 3.5 does not arise),
scalars are marshalled by value, and the exported symbol name is derived
automatically from the staged function.
"""

from __future__ import annotations

import atexit
import ctypes
import itertools
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

import repro.obs as obs
from repro.core import faults
from repro.core.procutil import pid_alive
from repro.codegen.cgen import BATCH_SUFFIX, EXPORT_PREFIX, emit_c_source
from repro.codegen.compiler import (
    CompileAttempt,
    CompilerInfo,
    SystemInfo,
    compile_with_fallback,
    compiler_chain,
    inspect_system,
)
from repro.lms.staging import StagedFunction
from repro.lms.types import ArrayType, ScalarType, Type, VectorType, VoidType

_CTYPE_BY_SCALAR = {
    "Float": ctypes.c_float, "Double": ctypes.c_double,
    "Byte": ctypes.c_int8, "Short": ctypes.c_int16,
    "Int": ctypes.c_int32, "Long": ctypes.c_int64,
    "Char": ctypes.c_uint16, "Boolean": ctypes.c_bool,
    "UByte": ctypes.c_uint8, "UShort": ctypes.c_uint16,
    "UInt": ctypes.c_uint32, "ULong": ctypes.c_uint64,
}


class NativeLinkError(RuntimeError):
    """Raised when a staged function cannot be linked natively."""


def _ctype_for(tp: Type):
    if isinstance(tp, ScalarType):
        return _CTYPE_BY_SCALAR[tp.name]
    if isinstance(tp, ArrayType):
        return ctypes.POINTER(_CTYPE_BY_SCALAR[tp.elem.name])
    if isinstance(tp, VoidType):
        return None
    if isinstance(tp, VectorType):
        raise NativeLinkError(
            "vector values cannot cross the native boundary; return "
            "scalars or write into arrays"
        )
    raise NativeLinkError(f"no ctypes mapping for {tp}")


def _array_converter(param) -> Any:
    """One array parameter's marshalling closure.

    Everything decidable from the signature — the kind test, the
    expected dtype object, the ctypes pointer type — is resolved here,
    once, instead of on every call (the old path re-indexed
    ``_CTYPE_BY_SCALAR`` and re-derived ``np_dtype`` per argument per
    call).  The per-call residue is three checks and one ``data_as``.
    """
    expected = param.tp.elem.np_dtype
    ptr_type = ctypes.POINTER(_CTYPE_BY_SCALAR[param.tp.elem.name])

    def convert(value: Any) -> Any:
        if not isinstance(value, np.ndarray):
            raise TypeError(f"expected numpy array for {param!r}")
        if value.dtype != expected:
            raise TypeError(
                f"array for {param!r} must have dtype {expected}"
            )
        if not value.flags["C_CONTIGUOUS"]:
            raise TypeError("arrays must be C-contiguous")
        return value.ctypes.data_as(ptr_type)

    return convert


def marshalling_plan(staged: StagedFunction) -> tuple:
    """The per-parameter converter tuple for a staged function's export.

    ``None`` entries pass through untouched (scalars are marshalled by
    the ``argtypes`` ctypes already carries); array entries are
    specialized closures from :func:`_array_converter`.  A warm native
    call is then a tuple-walk plus one ctypes invocation.
    """
    return tuple(
        _array_converter(p) if isinstance(p.tp, ArrayType) else None
        for p in staged.params)


def _batch_array_packer(param) -> Any:
    """One array parameter's *batch* marshalling closure: the same
    validation as :func:`_array_converter` but yielding the raw data
    address for the ``void**`` table — the array payload itself never
    moves (zero-copy)."""
    expected = param.tp.elem.np_dtype

    def pack(value: Any) -> int:
        if not isinstance(value, np.ndarray):
            raise TypeError(f"expected numpy array for {param!r}")
        if value.dtype != expected:
            raise TypeError(
                f"array for {param!r} must have dtype {expected}"
            )
        if not value.flags["C_CONTIGUOUS"]:
            raise TypeError("arrays must be C-contiguous")
        return value.ctypes.data

    return pack


def batch_marshalling_plan(staged: StagedFunction) -> tuple:
    """The batch-shape marshalling plan: one entry per parameter.

    Array entries are :func:`_batch_array_packer` closures (pointer
    extraction, zero-copy); scalar entries are the numpy dtype their
    values are packed into the arena with (one contiguous pack per
    batch).
    """
    plan = []
    for p in staged.params:
        if isinstance(p.tp, ArrayType):
            plan.append(("array", _batch_array_packer(p)))
        elif isinstance(p.tp, ScalarType):
            plan.append(("scalar", p.tp.np_dtype))
        else:  # pragma: no cover - link_native refuses these already
            raise NativeLinkError(f"no batch marshalling for {p.tp}")
    return tuple(plan)


class _BatchArena:
    """The reusable buffers behind one kernel's batched calls.

    Holds the ``void**`` argument table, one packed column per scalar
    parameter and (for non-void kernels) the result column.  Buffers
    grow geometrically to the largest batch seen and are reused for
    every later flush — a warm batched call allocates nothing.  The
    arena lock serializes packing *and* the native call, so concurrent
    flushers never tear each other's tables; contention is bounded by
    the batching layer, which flushes one batch per kernel at a time.
    """

    __slots__ = ("lock", "capacity", "argv", "scalars", "out",
                 "_nargs", "_plan", "_out_dtype")

    def __init__(self, plan: tuple, out_dtype: np.dtype | None) -> None:
        self.lock = threading.Lock()
        self.capacity = 0
        self._nargs = len(plan)
        self._plan = plan
        self._out_dtype = out_dtype
        self.argv: np.ndarray | None = None
        self.scalars: dict[int, np.ndarray] = {}
        self.out: np.ndarray | None = None

    def reserve(self, n: int) -> None:
        """Grow the buffers to hold ``n`` argument sets (lock held)."""
        if n <= self.capacity:
            return
        cap = max(n, self.capacity * 2, 16)
        self.argv = np.empty(max(cap * self._nargs, 1), dtype=np.uintp)
        self.scalars = {
            j: np.empty(cap, dtype=dt)
            for j, (kind, dt) in enumerate(self._plan)
            if kind == "scalar"
        }
        if self._out_dtype is not None:
            self.out = np.empty(cap, dtype=self._out_dtype)
        self.capacity = cap


@dataclass
class NativeKernel:
    """A compiled-and-linked staged function.

    The marshalling plan is memoized on the instance at construction
    (``__post_init__``), so the dispatch fast path does no per-call
    type dispatch beyond the plan's own checks.  When the artifact
    carries the batched entry point (``<symbol>__batch``),
    :meth:`call_batch` executes N argument sets in one native call
    through the batch-shape plan; artifacts linked from older caches
    fall back to a per-call loop transparently.
    """

    staged: StagedFunction
    c_source: str
    library_path: Path
    symbol: str
    _fn: Any
    system: SystemInfo
    _plan: tuple = field(default=(), repr=False, compare=False)
    _batch_fn: Any = field(default=None, repr=False, compare=False)
    _batch_plan: tuple = field(default=(), repr=False, compare=False)
    _arena: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._plan = marshalling_plan(self.staged)

    def __call__(self, *args: Any) -> Any:
        plan = self._plan
        if len(args) != len(plan):
            raise TypeError(
                f"{self.staged.name} expects {len(plan)} "
                f"arguments, got {len(args)}"
            )
        return self._fn(*[value if convert is None else convert(value)
                          for convert, value in zip(plan, args)])

    @property
    def supports_batch(self) -> bool:
        """Whether the linked artifact exports the batched entry point."""
        return self._batch_fn is not None

    def _ensure_arena(self) -> "_BatchArena":
        arena = self._arena
        if arena is None:
            out_dtype = None
            tp = self.staged.result_type
            if isinstance(tp, ScalarType):
                out_dtype = tp.np_dtype
            if self._batch_plan == ():
                self._batch_plan = batch_marshalling_plan(self.staged)
            arena = _BatchArena(self._batch_plan, out_dtype)
            self._arena = arena
        return arena

    def call_batch(self, args_seq: Sequence[Sequence[Any]]) -> list:
        """Execute ``args_seq`` (N argument tuples) in one native call.

        Argument packing is batch-atomic: every entry is validated and
        packed before the native call runs, so an invalid entry raises
        without executing anything.  Array payloads are never copied —
        their data pointers go straight into the ``void**`` table;
        scalars are packed once into the reusable arena.  Without the
        batched symbol (artifacts published before it existed) this
        degrades to a per-call loop with identical results.
        """
        entries = [tuple(args) for args in args_seq]
        n = len(entries)
        if n == 0:
            return []
        if self._batch_fn is None:
            return [self(*args) for args in entries]
        nargs = len(self.staged.params)
        for args in entries:
            if len(args) != nargs:
                raise TypeError(
                    f"{self.staged.name} expects {nargs} "
                    f"arguments, got {len(args)}"
                )
        arena = self._ensure_arena()
        with arena.lock:
            arena.reserve(n)
            argv = arena.argv
            for j, (kind, spec) in enumerate(self._batch_plan):
                if kind == "array":
                    argv[j:n * nargs:nargs] = \
                        [spec(args[j]) for args in entries]
                else:
                    column = arena.scalars[j]
                    column[:n] = [args[j] for args in entries]
                    base = column.ctypes.data
                    argv[j:n * nargs:nargs] = \
                        base + column.itemsize * np.arange(n,
                                                           dtype=np.uintp)
            out = arena.out
            out_ptr = ctypes.c_void_p(out.ctypes.data) \
                if out is not None else ctypes.c_void_p(0)
            self._batch_fn(
                n, argv.ctypes.data_as(ctypes.POINTER(ctypes.c_void_p)),
                out_ptr)
            if out is None:
                return [None] * n
            # .tolist() yields the same Python values ctypes' restype
            # conversion produces for the single-call path
            return out[:n].tolist()


def required_isas(staged: StagedFunction,
                  version: str | None = None) -> frozenset[str]:
    """The ISAs a staged function's intrinsics need, from their CPUIDs.

    ``version`` selects the spec release to resolve intrinsics against
    (default: the registry's ``DEFAULT_VERSION``), so Table-3 version
    experiments exercise the real link path.
    """
    from repro.isa.base import IntrinsicsDef
    from repro.lms.defs import iter_defs
    from repro.spec.catalog import all_entries
    from repro.spec.versions import DEFAULT_VERSION

    version = version or DEFAULT_VERSION
    by_name = {e.name: e for e in all_entries(version)}
    needed: set[str] = set()
    for stm, _ in iter_defs(staged.body):
        if isinstance(stm.rhs, IntrinsicsDef):
            spec = by_name.get(stm.rhs.intrinsic_name)
            if spec:
                needed.update(spec.cpuids)
    return frozenset(needed)


def check_kernel_isas(name: str, isas: frozenset[str], system: SystemInfo,
                      compilers: Sequence[CompilerInfo]) -> None:
    """Raise :class:`NativeLinkError` if the host cannot run or no
    available compiler can build a kernel needing ``isas``."""
    unsupported = {i for i in isas
                   if i not in system.isas and i not in ("SVML", "KNCNI")}
    if unsupported:
        raise NativeLinkError(
            f"host CPU lacks ISAs {sorted(unsupported)} required by {name}"
        )
    if "SVML" in isas and not any(c.name == "icc" for c in compilers):
        raise NativeLinkError(
            "SVML intrinsics need the Intel compiler; use the "
            "simulator backend"
        )


_session_root: Path | None = None
_session_lock = threading.Lock()
_build_seq = itertools.count()

#: Unstamped session roots older than this are treated as leaked.
_SWEEP_AGE_S = 3600.0


def _sweep_leaked_workdirs(base: Path) -> int:
    """Remove ``repro-native-*`` session roots leaked by killed
    processes (their atexit cleanup never ran).

    A root is leaked when its ``owner.pid`` stamp names a dead process,
    or when it carries no stamp and has gone untouched for an hour
    (pre-stamp leftovers).  Runs once per session, when this process
    creates its own root.
    """
    swept = 0
    try:
        candidates = list(base.glob("repro-native-*"))
    except OSError:
        return 0
    for root in candidates:
        if not root.is_dir():
            continue
        stamp = root / "owner.pid"
        try:
            pid = int(stamp.read_text().strip())
        except (OSError, ValueError):
            pid = None
        if pid is not None:
            if pid == os.getpid() or pid_alive(pid):
                continue
        else:
            try:
                age = time.time() - root.stat().st_mtime
            except OSError:
                continue
            if age < _SWEEP_AGE_S:
                continue
        shutil.rmtree(root, ignore_errors=True)
        swept += 1
    if swept:
        obs.counter("native.workdirs_swept", swept)
    return swept


def _session_workdir(name: str) -> Path:
    """A per-build directory under one atexit-cleaned session root.

    Replaces the old leak where every ``compile_to_native`` call left a
    ``tempfile.mkdtemp`` behind for the life of the machine; persistent
    artifacts belong to the disk kernel cache instead.  Root creation
    is locked — background compile workers race through here.  Each
    root is stamped with its owner pid so a later process can sweep
    roots whose owners were killed before atexit ran.
    """
    global _session_root
    with _session_lock:
        if _session_root is None or not _session_root.exists():
            _session_root = Path(tempfile.mkdtemp(prefix="repro-native-"))
            try:
                (_session_root / "owner.pid").write_text(str(os.getpid()))
            except OSError:
                pass
            atexit.register(shutil.rmtree, str(_session_root),
                            ignore_errors=True)
            _sweep_leaked_workdirs(_session_root.parent)
        root = _session_root
    wd = root / f"{next(_build_seq):04d}-{name}"
    wd.mkdir(parents=True, exist_ok=True)
    return wd


@dataclass
class NativeArtifact:
    """A compiled-but-not-yet-linked kernel: the unit the resilience
    layer smoke-tests in a forked child before trusting it in-process."""

    staged: StagedFunction
    c_source: str
    so_path: Path
    symbol: str
    isas: frozenset[str]
    system: SystemInfo
    compiler: CompilerInfo | None = None
    flags: tuple[str, ...] = ()


def build_native(staged: StagedFunction,
                 workdir: str | Path | None = None,
                 check_isas: bool = True,
                 compilers: Sequence[CompilerInfo] | None = None,
                 attempts: list[CompileAttempt] | None = None,
                 max_retries: int | None = None,
                 deadline: float | None = None) -> NativeArtifact:
    """Generate C and compile it down the fallback ladder — no linking.

    The returned artifact has not been loaded into this process; link
    it with :func:`link_native` (or let
    :func:`repro.core.resilience.acquire_native` smoke-test it first).
    ``deadline`` (absolute ``time.monotonic()``) bounds the whole
    ladder walk; see :func:`compile_with_fallback`.
    """
    system = inspect_system()
    ccs = list(compilers) if compilers is not None \
        else list(compiler_chain(system))
    if not ccs:
        raise NativeLinkError("no C compiler available")

    isas = required_isas(staged)
    if check_isas:
        check_kernel_isas(staged.name, isas, system, ccs)

    symbol = EXPORT_PREFIX + staged.name
    with obs.span("emit", kernel=staged.name):
        source = emit_c_source(staged, export_name=symbol)
    wd = Path(workdir) if workdir is not None else \
        _session_workdir(staged.name)
    with obs.span("compile", kernel=staged.name) as compile_span:
        so_path, cc, flags = compile_with_fallback(
            source, wd, isas, required=isas, compilers=ccs,
            name=staged.name, attempts=attempts, max_retries=max_retries,
            deadline=deadline)
        compile_span.set("compiler", cc.name)
        compile_span.set("flags", flags)
    return NativeArtifact(staged=staged, c_source=source, so_path=so_path,
                          symbol=symbol, isas=isas, system=system,
                          compiler=cc, flags=flags)


def ctype_signature(staged: StagedFunction) -> tuple[list, Any]:
    """The ctypes ``(argtypes, restype)`` of a staged function's export."""
    return ([_ctype_for(p.tp) for p in staged.params],
            _ctype_for(staged.result_type))


def link_native(artifact: NativeArtifact) -> NativeKernel:
    """Load an artifact's shared library into this process via ctypes."""
    faults.maybe_raise("link.fail", NativeLinkError,
                       f"injected link failure for {artifact.symbol}")
    try:
        lib = ctypes.CDLL(str(artifact.so_path))
        fn = getattr(lib, artifact.symbol)
    except (OSError, AttributeError) as exc:
        raise NativeLinkError(
            f"cannot link {artifact.so_path}: {exc}") from exc
    fn.argtypes, fn.restype = ctype_signature(artifact.staged)
    # The batched entry point is optional: artifacts published before
    # it existed still link, they just batch via a per-call loop.
    batch_fn = getattr(lib, artifact.symbol + BATCH_SUFFIX, None)
    if batch_fn is not None:
        batch_fn.argtypes = [ctypes.c_int64,
                             ctypes.POINTER(ctypes.c_void_p),
                             ctypes.c_void_p]
        batch_fn.restype = None
    return NativeKernel(staged=artifact.staged, c_source=artifact.c_source,
                        library_path=artifact.so_path,
                        symbol=artifact.symbol, _fn=fn,
                        system=artifact.system, _batch_fn=batch_fn)


def compile_to_native(staged: StagedFunction,
                      workdir: str | Path | None = None,
                      check_isas: bool = True) -> NativeKernel:
    """Generate C, compile it and link it back (Figure 3's runtime path).

    This is the direct, trusting path: no smoke-run, no quarantine, no
    disk cache.  The managed pipeline (:mod:`repro.core.pipeline`) goes
    through :func:`repro.core.resilience.acquire_native` instead.
    """
    return link_native(build_native(staged, workdir=workdir,
                                    check_isas=check_isas))
