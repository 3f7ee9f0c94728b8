"""Fault tolerance for the compile-and-link path.

The paper's Section 3.5 names the two weak points of linking generated
SIMD code into a live managed runtime: invalid code faults the host
process ("it is the responsibility of the developer to write valid SIMD
code"), and code generation itself can fail or stall.  This module is
the harness layer around both:

* **Compiler fallback** — :func:`repro.codegen.compiler.compile_with_fallback`
  retries transient failures with bounded exponential backoff and
  degrades down the icc→gcc→clang chain and a flag ladder; every
  invocation lands in a :class:`CompileReport`.
* **Crash containment** — before a freshly built (or disk-cached)
  artifact is linked into the host, :func:`acquire_native` smoke-runs it
  once in a forked child against simulator-validated shadow arguments
  and compares the results with the bit-accurate simulator.  A SIGSEGV,
  hang (past :data:`SMOKE_TIMEOUT`) or mismatch quarantines the kernel
  by graph hash for the rest of the session and the pipeline falls back
  to the simulator backend.
* **Persistent caching** — validated artifacts live in the disk tier of
  :class:`repro.core.cache.DiskKernelCache`, keyed by ``(graph hash,
  compiler version, flags, ISA set)``, so a second process skips the
  compiler entirely (visible as ``cache_source == "disk"`` with zero
  attempts in the report).

:func:`acquire_native` is the one acquisition path; on a disk miss it
runs a build step, :func:`build_locally` unless the caller (the
compile-service client) passes its own.  :func:`ladder_keys` and
:func:`publish_artifact` are shared with the compile daemon.

Exception taxonomy: :class:`TransientCompileError` (retryable),
:class:`PermanentCompileError` (ladder moves on), and
:class:`KernelQuarantinedError` (this session will not link the kernel).
"""

from __future__ import annotations

import ctypes
import faulthandler
import hashlib
import os
import select
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

import repro.obs as obs
from repro.codegen.compiler import (
    CompileAttempt,
    CompileError,
    CompilerInfo,
    PermanentCompileError,
    SystemInfo,
    TransientCompileError,
    compiler_chain,
    flag_ladder,
    inspect_system,
)
from repro.codegen.native import (
    NativeArtifact,
    NativeKernel,
    NativeLinkError,
    build_native,
    check_kernel_isas,
    ctype_signature,
    link_native,
    required_isas,
)
from repro.core import faults
from repro.core.cache import DiskKernelCache, default_cache, graph_hash
from repro.lms.staging import StagedFunction
from repro.lms.types import ArrayType, ScalarType
from repro.simd.machine import SimdMachine

__all__ = [
    "CompileReport",
    "KernelQuarantinedError",
    "PermanentCompileError",
    "TransientCompileError",
    "acquire_native",
    "build_locally",
    "clear_session_state",
    "find_published",
    "ladder_keys",
    "publish_artifact",
    "quarantined_kernels",
]


@dataclass
class CompileReport:
    """Everything that happened while acquiring one native kernel."""

    graph_hash: str
    attempts: list[CompileAttempt] = field(default_factory=list)
    cache_source: str | None = None   # "disk" | "compiled" | None
    smoke: str = "not-run"
    fallback_reason: str | None = None
    compiler: str | None = None
    compiler_version: str | None = None
    flags: tuple[str, ...] = ()

    @property
    def compiler_invocations(self) -> int:
        return len(self.attempts)

    def to_dict(self) -> dict:
        return {
            "graph_hash": self.graph_hash,
            "attempts": [a.to_dict() for a in self.attempts],
            "cache_source": self.cache_source,
            "smoke": self.smoke,
            "fallback_reason": self.fallback_reason,
            "compiler": self.compiler,
            "compiler_version": self.compiler_version,
            "flags": list(self.flags),
        }


class KernelQuarantinedError(RuntimeError):
    """This kernel crashed or mis-computed in its smoke-run (now or
    earlier this session); the runtime refuses to link it."""

    def __init__(self, graph_hash_: str, reason: str,
                 report: CompileReport | None = None) -> None:
        super().__init__(
            f"kernel {graph_hash_} is quarantined: {reason}")
        self.graph_hash = graph_hash_
        self.reason = reason
        self.report = report


# Session state: kernels proven dangerous, artifacts proven safe.
_quarantined: dict[str, str] = {}
_trusted: set[tuple[str, str]] = set()
_state_lock = threading.Lock()


def quarantine(graph_hash_: str, reason: str) -> None:
    with _state_lock:
        _quarantined[graph_hash_] = reason
    obs.counter("quarantine.events")
    obs.event("quarantine", graph_hash=graph_hash_, reason=reason)


def quarantined_kernels() -> dict[str, str]:
    """Graph hash → reason for every kernel quarantined this session."""
    with _state_lock:
        return dict(_quarantined)


def clear_session_state() -> None:
    """Forget quarantines and smoke-trusted artifacts, after draining
    any pending background compiles and resetting the tiered manager's
    counters (test hook; keeps suites hermetic under ``REPRO_TIER``).

    Order matters: the manager drains first so an in-flight compile
    cannot quarantine a kernel *after* the registry is cleared.

    The serve layer is reset only if it was ever imported
    (``sys.modules.get`` — never load it eagerly): the service client
    singleton is dropped and any daemon started by *this* process is
    stopped, which removes its socket and pid file.
    """
    from repro.core.tiered import default_manager
    default_manager.reset()
    serve_client = sys.modules.get("repro.serve.client")
    if serve_client is not None:
        serve_client.reset_service()
    serve_daemon = sys.modules.get("repro.serve.daemon")
    if serve_daemon is not None:
        serve_daemon.shutdown_local_daemons()
    with _state_lock:
        _quarantined.clear()
        _trusted.clear()
    faults.reset()
    from repro.core import policy
    policy.reset_tables()


# ---------------------------------------------------------------------------
# Shadow arguments: small deterministic inputs the simulator validates.

_SHADOW_LEN = 64
_SHADOW_BOUNDS = (64, 16, 8, 1, 0)


def _candidate_shadow_args(staged: StagedFunction
                           ) -> Iterator[list[Any]]:
    """Candidate argument sets: arrays of ``_SHADOW_LEN`` elements and a
    descending ladder of integer-scalar values (loop bounds, usually).
    The first set the simulator executes cleanly is used for the smoke
    run; if it raises (e.g. out-of-bounds for that bound), try smaller.
    """
    for bound in _SHADOW_BOUNDS:
        args: list[Any] = []
        ok = True
        for i, p in enumerate(staged.params):
            tp = p.tp
            if isinstance(tp, ArrayType):
                elem = tp.elem
                if elem.is_float:
                    arr = ((np.arange(_SHADOW_LEN) % 7 + 1 + i)
                           .astype(elem.np_dtype) / elem.np_dtype.type(4))
                elif elem.name == "Boolean":
                    arr = (np.arange(_SHADOW_LEN) % 2 == 0)
                else:
                    arr = ((np.arange(_SHADOW_LEN) + i) % 5
                           ).astype(elem.np_dtype)
                args.append(np.ascontiguousarray(arr))
            elif isinstance(tp, ScalarType):
                if tp.is_float:
                    args.append(1.5)
                elif tp.name == "Boolean":
                    args.append(True)
                else:
                    args.append(bound)
            else:
                ok = False
                break
        if ok:
            yield args


def _copy_args(args: Sequence[Any]) -> list[Any]:
    return [np.array(a, copy=True) if isinstance(a, np.ndarray) else a
            for a in args]


def _validated_shadow_args(staged: StagedFunction,
                           machine: SimdMachine | None = None
                           ) -> list[Any] | None:
    """The first candidate set the bit-accurate simulator accepts."""
    if machine is None:
        machine = SimdMachine()
    for args in _candidate_shadow_args(staged):
        try:
            machine.run(staged, _copy_args(args))
        except Exception:  # noqa: BLE001 - any failure disqualifies
            continue
        return args
    return None


def _scalars_match(tp, got: Any, want: Any) -> bool:
    if not isinstance(tp, ScalarType):
        return True
    a = tp.np_dtype.type(got)
    b = tp.np_dtype.type(want)
    if tp.is_float and np.isnan(a) and np.isnan(b):
        return True
    return a.tobytes() == b.tobytes()


def _arrays_match(a: np.ndarray, b: np.ndarray) -> bool:
    if np.issubdtype(a.dtype, np.floating):
        return np.array_equal(a, b, equal_nan=True)
    return np.array_equal(a, b)


# ---------------------------------------------------------------------------
# The forked smoke-run.

@dataclass
class SmokeVerdict:
    status: str          # "passed" | "skipped" | "crashed" | "mismatch"
    #                      | "timeout" | "child-error"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status in ("crashed", "mismatch", "timeout")


#: Seconds before a smoke-run child is killed and the kernel
#: quarantined.
SMOKE_TIMEOUT = 30.0


def _child_smoke(artifact: NativeArtifact, shadow: list[Any],
                 expected_args: list[Any], expected_ret: Any,
                 write_fd: int) -> int:
    """Runs in the forked child: link, run, compare.  Returns exit code
    0 (match), 3 (mismatch) or 4 (infrastructure error); a crash in the
    native code never returns at all — that is the point of the fork.
    """
    try:
        # injected mid-smoke crash: the fork is the containment
        # boundary this exercises — the parent sees WIFSIGNALED
        faults.maybe_kill("smoke.kill_child")
        # faulthandler is imported at module scope: the child must not
        # touch the import machinery (a lock another thread may hold at
        # fork time, now that smoke-runs happen on compile workers).
        if faulthandler.is_enabled():
            # a crash here is expected and contained; don't let the
            # inherited handler dump the parent's stack to stderr
            faulthandler.disable()
        lib = ctypes.CDLL(str(artifact.so_path))
        fn = getattr(lib, artifact.symbol)
        fn.argtypes, fn.restype = ctype_signature(artifact.staged)
        kernel = NativeKernel(
            staged=artifact.staged, c_source=artifact.c_source,
            library_path=artifact.so_path, symbol=artifact.symbol,
            _fn=fn, system=artifact.system)
        got = kernel(*shadow)
        problems: list[str] = []
        for param, have, want in zip(artifact.staged.params, shadow,
                                     expected_args):
            if isinstance(have, np.ndarray) and \
                    not _arrays_match(have, want):
                problems.append(f"array {param!r} diverges")
        if not _scalars_match(artifact.staged.result_type, got,
                              expected_ret):
            problems.append(
                f"return value {got!r} != simulator {expected_ret!r}")
        if problems:
            os.write(write_fd, "; ".join(problems).encode()[:512])
            return 3
        return 0
    except BaseException as exc:  # noqa: BLE001 - child must not unwind
        try:
            os.write(write_fd, f"{type(exc).__name__}: {exc}"
                     .encode()[:512])
        except OSError:
            pass
        return 4


def smoke_test_artifact(artifact: NativeArtifact,
                        timeout: float | None = None) -> SmokeVerdict:
    """Run the artifact once in a forked child on simulator-validated
    shadow arguments and compare against :meth:`run_simulated` output.

    The host process never maps the library: a SIGSEGV, abort or hang
    kills only the child.  Platforms without ``os.fork`` skip.
    """
    if not hasattr(os, "fork"):
        return SmokeVerdict("skipped", "os.fork unavailable")
    # One machine validates and produces the expectation: the staged
    # function's compiled executor program is built once and shared.
    machine = SimdMachine()
    shadow = _validated_shadow_args(artifact.staged, machine)
    if shadow is None:
        return SmokeVerdict(
            "skipped", "no simulator-validated shadow arguments")
    expected_args = _copy_args(shadow)
    expected_ret = machine.run(artifact.staged, expected_args)
    if timeout is None:
        timeout = SMOKE_TIMEOUT

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 4
        try:
            os.close(read_fd)
            code = _child_smoke(artifact, shadow, expected_args,
                                expected_ret, write_fd)
        finally:
            os._exit(code)
    os.close(write_fd)
    status: int | None = None
    detail = b""
    try:
        # The child's exit closes the last write end, so EOF on the
        # pipe means it is done; select() sleeps until then.
        deadline = time.monotonic() + timeout
        eof = False
        while not eof:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            ready, _, _ = select.select([read_fd], [], [], remaining)
            if not ready:
                continue
            try:
                chunk = os.read(read_fd, 4096)
            except OSError:
                chunk = b""
            detail += chunk
            eof = not chunk
        if eof:
            status = os.waitpid(pid, 0)[1]
        else:
            # A smoke child forked by another thread may hold a copy
            # of the write end: a child that already exited is no
            # timeout.
            wpid, wstatus = os.waitpid(pid, os.WNOHANG)
            if wpid == pid:
                status = wstatus
            else:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
                os.waitpid(pid, 0)
    finally:
        os.close(read_fd)

    if status is None:
        return SmokeVerdict("timeout",
                            f"smoke-run exceeded {timeout}s; child killed")
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        try:
            name = signal.Signals(sig).name
        except ValueError:
            name = f"signal {sig}"
        return SmokeVerdict("crashed", f"native smoke-run died with {name}")
    code = os.WEXITSTATUS(status)
    text = detail.decode(errors="replace")
    if code == 0:
        return SmokeVerdict("passed")
    if code == 3:
        return SmokeVerdict("mismatch", text or "results diverge")
    return SmokeVerdict("child-error", text or f"child exit {code}")


# ---------------------------------------------------------------------------
# The acquisition path: disk probe → build → publish → smoke → link.

def ladder_keys(ghash: str, isas: frozenset[str],
                ccs: Sequence[CompilerInfo]
                ) -> Iterator[tuple[str, CompilerInfo, tuple[str, ...]]]:
    """Every ``(disk key, compiler, flags)`` the compiler ladder could
    produce for a kernel, preferred configuration first."""
    for cc in ccs:
        for _rung, flags in flag_ladder(cc, isas, required=isas):
            yield (DiskKernelCache.artifact_key(ghash, cc.version, flags,
                                                isas), cc, tuple(flags))


def find_published(disk: DiskKernelCache, staged: StagedFunction,
                   ghash: str, isas: frozenset[str],
                   ccs: Sequence[CompilerInfo], system: SystemInfo
                   ) -> tuple[NativeArtifact, str] | None:
    """The first artifact published under any :func:`ladder_keys` key,
    with that key."""
    for key, cc, flags in ladder_keys(ghash, isas, ccs):
        entry = disk.get(key)
        if entry is not None:
            meta = entry.meta
            return NativeArtifact(
                staged=staged,
                c_source=meta.get("c_source", ""),
                so_path=entry.so_path,
                symbol=meta.get("symbol", ""),
                isas=frozenset(meta.get("isas", sorted(isas))),
                system=system, compiler=cc, flags=flags), key
    return None


def publish_artifact(disk: DiskKernelCache, ghash: str,
                     isas: frozenset[str], cc: CompilerInfo,
                     flags: Sequence[str], so_path: Path, symbol: str,
                     c_source: str, **stamp: Any) -> str:
    """Put a compiled library and its manifest into the disk tier under
    its ladder key, and return the key.  ``stamp`` adds manifest fields
    (the daemon's ``published_by``); ``OSError`` propagates."""
    key = DiskKernelCache.artifact_key(ghash, cc.version, flags, isas)
    disk.put(key, so_path.read_bytes(), {
        "graph_hash": ghash,
        "symbol": symbol,
        "c_source": c_source,
        "isas": sorted(isas),
        "compiler": cc.name,
        "compiler_version": cc.version,
        "flags": list(flags),
        "created": time.time(),
        **stamp,
    })
    return key


def build_locally(staged: StagedFunction, isas: frozenset[str],
                  ccs: Sequence[CompilerInfo], system: SystemInfo,
                  report: CompileReport, deadline: float | None,
                  max_retries: int | None
                  ) -> tuple[NativeArtifact, str | None]:
    """The default build step of :func:`acquire_native`: the compiler
    ladder, in this process."""
    return build_native(staged, isas, compilers=ccs,
                        attempts=report.attempts, max_retries=max_retries,
                        deadline=deadline), None


def _artifact_token(ghash: str, so_path) -> tuple[str, str]:
    try:
        digest = hashlib.sha256(so_path.read_bytes()).hexdigest()
    except OSError:
        digest = "unreadable"
    return (ghash, digest)


def acquire_native(staged: StagedFunction, *,
                   system: SystemInfo | None = None,
                   compilers: Sequence[CompilerInfo] | None = None,
                   max_retries: int | None = None,
                   deadline: float | None = None,
                   build: Callable[..., tuple[NativeArtifact, str | None]]
                   | None = None,
                   ) -> tuple[NativeKernel, CompileReport]:
    """Produce a trusted, linked native kernel — or refuse loudly.

    The one native-acquisition path: quarantine check, ISA resolution
    (once), disk-cache probe, build, publish, forked smoke-run, then
    (and only then) ``ctypes`` linking into this process.  On a disk
    miss ``build`` (default :func:`build_locally`) is called with
    ``(staged, isas, compilers, system, report, deadline,
    max_retries)`` and returns ``(artifact, key)``: ``key`` is the disk
    key of an already published artifact, or ``None`` for a fresh one
    this function publishes.
    ``deadline`` (absolute ``time.monotonic()``) bounds the compile
    ladder — see :class:`repro.codegen.compiler.CompileDeadlineError`.
    Raises :class:`KernelQuarantinedError`,
    :class:`PermanentCompileError` / :class:`TransientCompileError`
    (both :class:`CompileError`) or :class:`NativeLinkError`; each
    carries the ``report`` attribute.
    """
    system = system or inspect_system()
    ccs = list(compilers) if compilers is not None \
        else list(compiler_chain(system))
    ghash = graph_hash(staged)
    report = CompileReport(graph_hash=ghash)

    with obs.span("acquire", kernel=staged.name,
                  graph_hash=ghash) as acq_span:
        with _state_lock:
            reason = _quarantined.get(ghash)
        if reason is not None:
            report.fallback_reason = f"quarantined: {reason}"
            raise KernelQuarantinedError(ghash, reason, report)

        if not ccs:
            exc: Exception = NativeLinkError("no C compiler available")
            exc.report = report  # type: ignore[attr-defined]
            raise exc

        isas = required_isas(staged)
        try:
            check_kernel_isas(staged.name, isas, system, ccs)
        except NativeLinkError as err:
            err.report = report  # type: ignore[attr-defined]
            raise

        disk = default_cache.disk
        with obs.span("disk_probe") as probe_span:
            found = find_published(disk, staged, ghash, isas, ccs, system)
            probe_span.set(
                "outcome", "hit" if found is not None else "miss")
        obs.counter("acquire.disk_probe",
                    outcome="hit" if found is not None else "miss")
        if found is None:
            try:
                found = (build or build_locally)(
                    staged, isas, ccs, system, report, deadline,
                    max_retries)
            except (CompileError, NativeLinkError) as err:
                report.fallback_reason = str(err)
                err.report = report  # type: ignore[attr-defined]
                raise
        artifact, key = found
        cc = artifact.compiler
        report.cache_source = "compiled" if key is None else "disk"
        report.compiler = cc.name
        report.compiler_version = cc.version
        report.flags = artifact.flags
        if key is None:
            try:
                key = publish_artifact(
                    disk, ghash, artifact.isas, cc, artifact.flags,
                    artifact.so_path, artifact.symbol, artifact.c_source)
            except OSError:
                pass  # a full or read-only cache never blocks compilation
        acq_span.set("cache_source", report.cache_source)

        with obs.span("smoke", kernel=staged.name) as smoke_span:
            token = _artifact_token(ghash, artifact.so_path)
            with _state_lock:
                already_trusted = token in _trusted
            if already_trusted:
                report.smoke = "trusted"
            else:
                verdict = smoke_test_artifact(artifact)
                report.smoke = verdict.status
                if verdict.failed:
                    reason = f"{verdict.status}: {verdict.detail}" \
                        if verdict.detail else verdict.status
                    smoke_span.set("verdict", report.smoke)
                    obs.counter("smoke.verdicts", status=report.smoke)
                    quarantine(ghash, reason)
                    if key is not None:
                        # never serve a condemned artifact to others
                        disk.invalidate(key)
                    report.fallback_reason = f"quarantined: {reason}"
                    raise KernelQuarantinedError(ghash, reason, report)
                if verdict.status == "passed":
                    with _state_lock:
                        _trusted.add(token)
            smoke_span.set("verdict", report.smoke)
        obs.counter("smoke.verdicts", status=report.smoke)

        with obs.span("link", kernel=staged.name):
            try:
                native = link_native(artifact)
            except NativeLinkError as err:
                err.report = report  # type: ignore[attr-defined]
                raise
        return native, report
