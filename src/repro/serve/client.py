"""The client side of the kernel compilation service.

:class:`ServiceKernelManager` is a drop-in :class:`KernelManager`
whose compiles go through the daemon.  It runs the ordinary
:func:`~repro.core.resilience.acquire_native` and overrides only its
build step: the quarantine check, ISA resolution, disk probe, smoke run
and link stay in the one acquisition path.  On a disk miss the build
step ships the kernel's generated C to ``python -m repro.serve`` over
the Unix socket, waits for the daemon to publish the artifact into the
shared sharded :class:`~repro.core.cache.DiskKernelCache`, and reads it
back through :func:`~repro.core.resilience.find_published` — no
compiler runs locally, and a kernel whose artifact is already published
(or which this host refuses) never reaches the daemon.  The ``.so`` is
always loaded by the process that will call it; the daemon never links.

Selection is by ``REPRO_SERVICE`` (see
:func:`repro.core.tiered.service_mode`), consulted by
:func:`repro.core.tiered.get_manager`.  The failure contract is
*degraded, never broken*:

========================  ======================  =====================
daemon state              ``auto``                ``require``
========================  ======================  =====================
reachable, compile ok     native (local link)     native (local link)
unreachable / mid-crash   in-process compile      demote to simulator
sheds (breaker/bound)     in-process compile      demote to simulator
reports compile failure   demote to simulator     demote to simulator
========================  ======================  =====================

Every row ends with a working kernel — the simulator is the floor.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Any

import repro.obs as obs
from repro.codegen.compiler import (
    CompileDeadlineError,
    PermanentCompileError,
    TransientCompileError,
    compiler_chain,
)
from repro.codegen.native import NativeLinkError, export_source
from repro.core import tiered
from repro.core.cache import default_cache
from repro.core.resilience import acquire_native, build_locally, \
    find_published
from repro.core.tiered import KernelManager, service_mode
from repro.serve import protocol
from repro.serve.protocol import (
    ProtocolError,
    read_frame,
    service_socket_path,
    write_frame,
)

__all__ = [
    "ServiceError",
    "ServiceKernelManager",
    "ServiceUnavailableError",
    "daemon_available",
    "get_service_manager",
    "request",
    "reset_service",
]


class ServiceError(RuntimeError):
    """The daemon answered, but not with a usable result."""


class ServiceUnavailableError(ServiceError):
    """No daemon on the socket (or it died mid-conversation)."""


def request(message: dict[str, Any], *,
            socket_path: str | Path | None = None,
            reply_timeout: float | None = None) -> dict[str, Any]:
    """One request/response round-trip on a fresh connection.

    Connect and handshake are bounded by
    :data:`repro.serve.protocol.SERVICE_TIMEOUT`;
    ``reply_timeout`` (default: the same) bounds the wait for the
    response frame — compile requests pass their remaining deadline.
    Any connection-level failure raises
    :class:`ServiceUnavailableError`; a daemon that closes the stream
    without replying (killed mid-request) does too.
    """
    path = Path(socket_path) if socket_path is not None \
        else service_socket_path()
    connect_timeout = protocol.SERVICE_TIMEOUT
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(connect_timeout)
        try:
            sock.connect(str(path))
        except (OSError, ValueError) as exc:
            raise ServiceUnavailableError(
                f"compile service unreachable on {path}: {exc}") from exc
        try:
            write_frame(sock, message)
            sock.settimeout(reply_timeout if reply_timeout is not None
                            else connect_timeout)
            response = read_frame(sock)
        except ProtocolError as exc:
            raise ServiceError(
                f"compile service protocol error: {exc}") from exc
        except OSError as exc:
            raise ServiceUnavailableError(
                f"compile service unreachable (connection lost): "
                f"{exc}") from exc
        if response is None:
            raise ServiceUnavailableError(
                "compile service unreachable: daemon closed the "
                "connection without replying")
        return response
    finally:
        try:
            sock.close()
        except OSError:
            pass


def daemon_available(socket_path: str | Path | None = None) -> bool:
    """Whether a live daemon answers ``ping`` on the socket."""
    try:
        return bool(request({"verb": "ping"},
                            socket_path=socket_path).get("ok"))
    except ServiceError:
        return False


class ServiceKernelManager(KernelManager):
    """A :class:`KernelManager` whose compiles go through the daemon.

    Everything above the compile backend — tier dispatch, hot-swap,
    single-flight, the client-side circuit breaker, queue bound — is
    inherited unchanged; :meth:`_acquire` only swaps the build step of
    :func:`acquire_native` for :meth:`_build`.  The client-
    side breaker still matters: when the daemon is unreachable in
    ``require`` mode every job fails with an environment-level reason,
    so the breaker opens and stops even *enqueuing* doomed jobs.
    """

    def __init__(self, socket_path: str | Path | None = None,
                 workers: int | None = None) -> None:
        super().__init__(workers=workers)
        self._socket_path = Path(socket_path) \
            if socket_path is not None else None

    @property
    def socket_path(self) -> Path:
        return self._socket_path if self._socket_path is not None \
            else service_socket_path()

    def _remote_compile(self, staged, ghash: str,
                        isas: frozenset[str],
                        deadline: float | None) -> dict[str, Any]:
        symbol, source = export_source(staged)
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # A lapsed budget must fail like the local ladder does,
                # not clamp up and dispatch a doomed remote compile.
                raise CompileDeadlineError(
                    f"compile deadline exhausted before dispatching "
                    f"{staged.name!r} to the compile service")
            remaining = max(0.5, remaining)
        else:
            remaining = tiered.COMPILE_DEADLINE
        message = {
            "verb": "compile",
            "ghash": ghash,
            "name": staged.name,
            "symbol": symbol,
            "c_source": source,
            "isas": sorted(isas),
            "client": f"pid-{os.getpid()}",
            "timeout_s": remaining,
        }
        start = time.perf_counter()
        response = request(message, socket_path=self.socket_path,
                           reply_timeout=remaining + 30.0)
        obs.observe("service.client.roundtrip.seconds",
                    time.perf_counter() - start)
        return response

    def _acquire(self, staged, deadline: float | None):
        return acquire_native(staged, deadline=deadline, build=self._build)

    def _build(self, staged, isas, ccs, system, report, deadline,
               max_retries):
        """The build step this manager gives :func:`acquire_native`:
        the daemon compiles and publishes, and the artifact is read
        back through :func:`find_published`.  A fallback to
        :func:`build_locally` detects the compiler chain afresh, as a
        new acquire would after the round trip."""
        mode = service_mode()
        ghash = report.graph_hash

        def local(reason: str):
            obs.counter("service.client.fallback", reason=reason)
            return build_locally(staged, isas, compiler_chain(), system,
                                 report, deadline, max_retries)

        try:
            response = self._remote_compile(staged, ghash, isas, deadline)
        except ServiceError as exc:
            obs.counter("service.client.requests",
                        outcome="unreachable")
            if mode == "require":
                err = NativeLinkError(
                    f"compile service unreachable "
                    f"(REPRO_SERVICE=require): {exc}")
                raise err from exc
            return local("unreachable")
        if response.get("ok"):
            obs.counter("service.client.requests",
                        outcome=str(response.get("outcome", "ok")))
            if response.get("dedup"):
                obs.counter("service.client.dedup")
            # a miss here means the artifact was evicted since, or was
            # built by a toolchain this host does not have
            return find_published(default_cache.disk, staged, ghash,
                                  isas, ccs, system) \
                or local("unpublished")
        kind = str(response.get("kind", "error"))
        error = str(response.get("error") or "service compile failed")
        obs.counter("service.client.requests", outcome=kind)
        if kind in ("shed", "shutdown", "timeout"):
            if mode == "require":
                raise TransientCompileError(
                    f"compile service refused the request ({kind}): "
                    f"{error}")
            return local(kind)
        # a reported compile failure is deterministic: retrying locally
        # would walk the same ladder to the same diagnostics
        raise PermanentCompileError(
            f"service compile failed ({kind}): {error}")


_service_lock = threading.Lock()
_service_manager: ServiceKernelManager | None = None


def get_service_manager() -> ServiceKernelManager:
    """The process-wide service-backed manager (created on first use;
    :func:`repro.core.tiered.get_manager` routes here when
    ``REPRO_SERVICE`` is ``auto`` or ``require``)."""
    global _service_manager
    with _service_lock:
        if _service_manager is None:
            _service_manager = ServiceKernelManager()
        return _service_manager


def reset_service() -> None:
    """Drop the service-manager singleton (draining its pool) — part
    of :func:`repro.core.resilience.clear_session_state`, so suites
    that flip ``REPRO_SERVICE``/``REPRO_SERVICE_SOCKET`` never leak a
    manager bound to the old endpoint."""
    global _service_manager
    with _service_lock:
        manager, _service_manager = _service_manager, None
    if manager is not None:
        manager.reset()
