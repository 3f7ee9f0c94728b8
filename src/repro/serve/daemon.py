"""The kernel compilation daemon: one compile pool, many client
processes.

``python -m repro.serve`` turns the library-shaped pipeline into a
serving system: a long-lived process listens on a Unix domain socket
(:func:`repro.serve.protocol.service_socket_path`) and compiles staged
kernels' generated C on behalf of every client process on the host,
publishing artifacts through the crash-consistent sharded
:class:`repro.core.cache.DiskKernelCache` so clients link the ``.so``
locally after a cheap cache probe (DESIGN.md §12).

Three properties make it multi-tenant rather than just remote:

* **Cluster-wide single-flight.**  Compile requests are deduplicated by
  structural graph hash across *processes*: while a compile is in
  flight, identical requests from any client attach to it and all
  receive the one result — the cross-the-wire extension of
  :class:`repro.core.cache.InflightCompiles`.  A thundering herd of N
  clients staging the same kernel costs one ladder walk.
* **Per-client fair queueing.**  Each client gets its own FIFO queue
  and the worker pool drains queues round-robin, so one client batch-
  warming 500 kernels cannot starve another client's single compile.
  Admission control reuses the PR 6 machinery: a
  :class:`repro.core.tiered.CircuitBreaker` sheds work while the
  toolchain is broken, and :data:`repro.core.tiered.QUEUE_BOUND`
  bounds distinct in-flight jobs.
* **Crash-safe lifecycle.**  The socket and pid file are removed on
  every exit path (``stop``, atexit, the ``__main__`` SIGTERM handler);
  on startup a leftover socket whose pid-file owner is dead
  (``procutil.pid_alive``) is swept and the address reclaimed, so a
  crashed daemon never wedges ``REPRO_SERVICE=auto`` clients.

The daemon exposes its own observability: ``stats`` returns the
request/dedup/shed counters, ``metrics`` returns the process's
Prometheus text exposition over the socket (the service dashboard).
"""

from __future__ import annotations

import atexit
import itertools
import os
import shutil
import socket
import tempfile
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

import repro.obs as obs
from repro.codegen.compiler import (
    CompileError,
    PermanentCompileError,
    compile_with_fallback,
    compiler_chain,
    inspect_system,
)
from repro.core import tiered
from repro.core.cache import default_cache
from repro.core.procutil import pid_alive
from repro.core.resilience import ladder_keys, publish_artifact
from repro.core.tiered import (
    CircuitBreaker,
    compile_workers,
    environment_failure,
)
from repro.serve.protocol import (
    FrameTooLargeError,
    ProtocolError,
    pid_path,
    read_frame,
    service_socket_path,
    write_frame,
)

__all__ = [
    "DaemonAlreadyRunningError",
    "KernelCompileDaemon",
    "shutdown_local_daemons",
]


class DaemonAlreadyRunningError(RuntimeError):
    """The service socket is owned by a live daemon process."""


class _ServiceJob:
    """One deduplicated compile: the queue entry every identical
    request attaches to."""

    __slots__ = ("ghash", "name", "symbol", "c_source", "isas", "client",
                 "is_probe", "waiters", "result", "event", "enqueued_at")

    def __init__(self, ghash: str, name: str, symbol: str,
                 c_source: str, isas: frozenset[str], client: str) -> None:
        self.ghash = ghash
        self.name = name
        self.symbol = symbol
        self.c_source = c_source
        self.isas = isas
        self.client = client
        self.is_probe = False
        self.waiters = 1
        self.result: dict[str, Any] | None = None
        self.event = threading.Event()
        self.enqueued_at = time.monotonic()


# Daemons started inside this process (embedded in tests, or the
# __main__ entry point).  clear_session_state() shuts these down so a
# suite can never leak a listener — and with it the socket/pid files.
_local_daemons: list["KernelCompileDaemon"] = []
_local_lock = threading.Lock()


def shutdown_local_daemons() -> None:
    """Stop every daemon started by this process (removing their
    socket and pid files).  Invoked by
    :func:`repro.core.resilience.clear_session_state`."""
    with _local_lock:
        daemons = list(_local_daemons)
    for daemon in daemons:
        daemon.stop()


class KernelCompileDaemon:
    """The multi-tenant compile service (see the module docstring).

    ``start`` binds and spawns the accept loop plus ``workers`` compile
    threads; ``stop`` is idempotent and always removes the socket and
    pid file.  ``serve_forever`` is the ``__main__`` entry: start, then
    block until something calls ``stop`` (a signal handler, the
    ``shutdown`` verb, or another thread).
    """

    def __init__(self, socket_path: str | Path | None = None,
                 workers: int | None = None) -> None:
        self.socket_path = Path(socket_path).expanduser() \
            if socket_path is not None else service_socket_path()
        self.pid_file = pid_path(self.socket_path)
        self.workers = workers if workers is not None else compile_workers()
        self.breaker = CircuitBreaker()
        self.started_at = 0.0
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._cond = threading.Condition()
        self._queues: dict[str, deque[_ServiceJob]] = {}
        self._rr: deque[str] = deque()
        self._inflight: dict[str, _ServiceJob] = {}
        self._stopping = False
        self._started = False
        # the thread of the current or last stop(), and its completion
        self._stopper: int | None = None
        self._stopped = threading.Event()
        self._stopped.set()
        self._workroot: Path | None = None
        self._build_seq = itertools.count()
        self._counts = {key: 0 for key in (
            "requests", "compiled", "cached", "dedup", "shed", "errors",
            "timeouts", "protocol_errors")}
        self._per_client: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------

    def _read_stamped_pid(self) -> int | None:
        try:
            return int(self.pid_file.read_text().strip())
        except (OSError, ValueError):
            return None

    def _reclaim_stale_socket(self) -> None:
        """Sweep a dead daemon's leftovers so this one can bind.

        A socket file whose stamped owner is alive is a real daemon —
        refuse to start.  A dead (or unreadable) stamp means the
        previous daemon crashed before cleanup: remove both files and
        count the reclaim.
        """
        if not self.socket_path.exists():
            return
        pid = self._read_stamped_pid()
        if pid is not None and pid_alive(pid):
            raise DaemonAlreadyRunningError(
                f"kernel service already running (pid {pid}) on "
                f"{self.socket_path}")
        for leftover in (self.socket_path, self.pid_file):
            try:
                leftover.unlink()
            except OSError:
                pass
        obs.counter("service.stale_socket_reclaimed")
        obs.event("service.stale_socket", path=str(self.socket_path))

    def start(self) -> None:
        if self._started:
            return
        self._reclaim_stale_socket()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(str(self.socket_path))
        except OSError:
            listener.close()
            raise
        listener.listen(64)
        self._listener = listener
        try:
            self.pid_file.write_text(str(os.getpid()))
        except OSError:
            pass
        self._workroot = Path(tempfile.mkdtemp(prefix="repro-serve-"))
        self._stopping = False
        self._started = True
        self.started_at = time.monotonic()
        accept = threading.Thread(target=self._accept_loop,
                                  name="repro-serve-accept", daemon=True)
        accept.start()
        self._threads.append(accept)
        for i in range(self.workers):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"repro-serve-worker-{i}",
                                      daemon=True)
            worker.start()
            self._threads.append(worker)
        with _local_lock:
            _local_daemons.append(self)
        atexit.register(self.stop)
        obs.event("service.start", socket=str(self.socket_path),
                  workers=self.workers)

    def stop(self) -> None:
        """Stop serving and remove the socket and pid file.  Safe to
        call from any thread, any number of times, including from a
        SIGTERM handler and atexit.  A call that finds a stop in
        progress on another thread returns once that stop finishes; a
        re-entrant one on the stopping thread (a signal handler) returns
        at once."""
        me = threading.get_ident()
        with self._cond:
            running = self._started
            if running:
                self._started = False
                self._stopping = True
                self._stopper = me
                self._stopped.clear()
                self._cond.notify_all()
        if not running:
            if self._stopper != me:
                self._stopped.wait()
            return
        try:
            self._teardown()
        finally:
            self._stopped.set()

    def _teardown(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does (accept fails with EINVAL)
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        # unlink the address first: from here on no client can reach a
        # dying daemon, and a crash later in teardown leaves no stale
        # socket behind
        for leftover in (self.socket_path, self.pid_file):
            try:
                leftover.unlink()
            except OSError:
                pass
        with self._cond:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        # settle queued jobs so no client waits out its full timeout
        with self._cond:
            pending = [job for q in self._queues.values() for job in q]
            self._queues.clear()
            self._rr.clear()
            for job in pending:
                self._inflight.pop(job.ghash, None)
        for job in pending:
            job.result = {"ok": False, "kind": "shutdown",
                          "error": "daemon is shutting down"}
            job.event.set()
        current = threading.current_thread()
        for thread in self._threads:
            if thread is not current:
                thread.join(timeout=5.0)
        self._threads.clear()
        if self._workroot is not None:
            shutil.rmtree(self._workroot, ignore_errors=True)
            self._workroot = None
        with _local_lock:
            if self in _local_daemons:
                _local_daemons.remove(self)
        obs.event("service.stop", socket=str(self.socket_path))

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`stop` runs."""
        self.start()
        try:
            while True:
                with self._cond:
                    if self._stopping:
                        return
                    self._cond.wait(timeout=1.0)
        except KeyboardInterrupt:
            self.stop()

    @property
    def running(self) -> bool:
        return self._started

    # -- accept/connection side ----------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return      # listener closed: shutting down
            with self._cond:
                if self._stopping:
                    conn.close()
                    return
                self._conns.add(conn)
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-serve-conn", daemon=True)
            handler.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    request = read_frame(conn)
                except FrameTooLargeError as exc:
                    self._bump("protocol_errors")
                    obs.counter("service.errors", kind="oversized")
                    self._try_respond(conn, {
                        "ok": False, "kind": "protocol",
                        "error": str(exc)})
                    return   # cannot resync after refusing a frame
                except ProtocolError as exc:
                    self._bump("protocol_errors")
                    obs.counter("service.errors", kind="protocol")
                    self._try_respond(conn, {
                        "ok": False, "kind": "protocol",
                        "error": str(exc)})
                    return
                except OSError:
                    return
                if request is None:
                    return   # clean EOF
                response = self._dispatch(request)
                control = {key: response.pop(key)
                           for key in ("_close", "_stop")
                           if key in response}
                try:
                    write_frame(conn, response)
                except (OSError, ProtocolError):
                    return
                if control.get("_stop"):
                    threading.Thread(target=self.stop,
                                     daemon=True).start()
                if control:
                    return
        finally:
            with self._cond:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _try_respond(conn: socket.socket, obj: dict) -> None:
        try:
            write_frame(conn, obj)
        except (OSError, ProtocolError):
            pass

    def _bump(self, key: str, n: int = 1) -> None:
        with self._cond:
            self._counts[key] = self._counts.get(key, 0) + n

    def _dispatch(self, request: dict) -> dict:
        verb = request.get("verb")
        self._bump("requests")
        obs.counter("service.requests", verb=str(verb))
        start = time.perf_counter()
        try:
            if verb == "ping":
                return {"ok": True, "pid": os.getpid()}
            if verb == "status":
                return self._status()
            if verb == "stats":
                return self._stats()
            if verb == "metrics":
                return {"ok": True,
                        "prometheus": obs.prometheus_text()}
            if verb == "shutdown":
                # the handler flushes the reply *before* acting on
                # ``_stop`` (and cannot join itself, hence the thread)
                return {"ok": True, "stopping": True,
                        "_close": True, "_stop": True}
            if verb == "compile":
                return self._handle_compile(request)
            self._bump("errors")
            obs.counter("service.errors", kind="bad_verb")
            return {"ok": False, "kind": "protocol",
                    "error": f"unknown verb {verb!r}"}
        finally:
            obs.observe("service.request.seconds",
                        time.perf_counter() - start, verb=str(verb))

    # -- the compile verb: dedup + fair queueing -----------------------

    def _handle_compile(self, request: dict) -> dict:
        missing = [field for field in
                   ("ghash", "name", "symbol", "c_source")
                   if not isinstance(request.get(field), str)
                   or not request.get(field)]
        if missing:
            self._bump("errors")
            obs.counter("service.errors", kind="bad_request")
            return {"ok": False, "kind": "protocol",
                    "error": f"compile request missing {missing}"}
        client = str(request.get("client") or "anonymous")
        ghash = request["ghash"]
        dedup = False
        with self._cond:
            job = self._inflight.get(ghash)
            if job is not None:
                job.waiters += 1
                dedup = True
                self._counts["dedup"] += 1
            else:
                admit, is_probe = self.breaker.allow()
                if not admit:
                    self._counts["shed"] += 1
                    obs.counter("service.shed", reason="breaker")
                    return {"ok": False, "kind": "shed",
                            "error": "circuit breaker open: the "
                                     "compile environment is failing"}
                if not is_probe and \
                        len(self._inflight) >= tiered.QUEUE_BOUND:
                    self._counts["shed"] += 1
                    obs.counter("service.shed", reason="queue_bound")
                    return {"ok": False, "kind": "shed",
                            "error": f"compile queue at bound "
                                     f"({tiered.QUEUE_BOUND})"}
                job = _ServiceJob(
                    ghash=ghash, name=request["name"],
                    symbol=request["symbol"],
                    c_source=request["c_source"],
                    isas=frozenset(request.get("isas") or ()),
                    client=client)
                job.is_probe = is_probe
                self._inflight[ghash] = job
                queue = self._queues.setdefault(client, deque())
                if not queue and client not in self._rr:
                    self._rr.append(client)
                queue.append(job)
                self._per_client[client] = \
                    self._per_client.get(client, 0) + 1
                self._cond.notify()
            depth = len(self._inflight)
        obs.gauge("service.queue_depth", depth)
        if dedup:
            obs.counter("service.dedup")
        timeout = request.get("timeout_s")
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            timeout = tiered.COMPILE_DEADLINE + 30.0
        if not job.event.wait(float(timeout)):
            self._bump("timeouts")
            obs.counter("service.errors", kind="timeout")
            return {"ok": False, "kind": "timeout",
                    "error": f"compile of {ghash} still in flight "
                             f"after {timeout}s"}
        response = dict(job.result or {
            "ok": False, "kind": "internal", "error": "job lost"})
        response["dedup"] = dedup
        return response

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopping and not self._rr:
                    self._cond.wait()
                if self._stopping:
                    return
                client = self._rr.popleft()
                queue = self._queues.get(client)
                if not queue:
                    self._queues.pop(client, None)
                    continue
                job = queue.popleft()
                if queue:
                    self._rr.append(client)   # back of the line: fair
                else:
                    self._queues.pop(client, None)
            self._execute(job)

    def _execute(self, job: _ServiceJob) -> None:
        start = time.perf_counter()
        result: dict[str, Any]
        report_attempts: list = []
        try:
            with obs.span("service.compile", kernel=job.name,
                          graph_hash=job.ghash, client=job.client
                          ) as span:
                result = self._compile_job(job, report_attempts)
                span.set("outcome", result.get("outcome", "error"))
        except CompileError as exc:
            result = {"ok": False, "kind": "compile", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - workers never unwind
            result = {"ok": False, "kind": "internal",
                      "error": f"{type(exc).__name__}: {exc}"}
        result["duration_s"] = time.perf_counter() - start
        if result.get("ok"):
            self.breaker.record_success(probe=job.is_probe)
            self._bump(str(result.get("outcome", "compiled")))
        else:
            self._bump("errors")
            obs.counter("service.errors", kind=result.get("kind", "?"))
            if environment_failure(result.get("error"), report_attempts):
                self.breaker.record_env_failure(probe=job.is_probe)
            else:
                self.breaker.record_other(probe=job.is_probe)
        obs.observe("service.compile.seconds",
                    time.perf_counter() - start)
        job.result = result
        with self._cond:
            self._inflight.pop(job.ghash, None)
            depth = len(self._inflight)
        obs.gauge("service.queue_depth", depth)
        job.event.set()

    def _compile_job(self, job: _ServiceJob,
                     attempts: list) -> dict[str, Any]:
        """Probe the shared artifact store, else compile the generated
        C down the ladder and publish the result."""
        ccs = list(compiler_chain(inspect_system()))
        if not ccs:
            raise PermanentCompileError("no C compiler available")
        disk = default_cache.disk
        for key, cc, flags in ladder_keys(job.ghash, job.isas, ccs):
            if disk.get(key) is not None:
                obs.counter("service.compiles", outcome="cached")
                return {"ok": True, "outcome": "cached", "key": key,
                        "compiler": cc.name, "flags": list(flags),
                        "attempts": 0}
        deadline = time.monotonic() + tiered.COMPILE_DEADLINE
        workroot = self._workroot or Path(tempfile.gettempdir())
        workdir = workroot / f"{next(self._build_seq):04d}-{job.name}"
        so_path, cc, flags = compile_with_fallback(
            job.c_source, workdir, job.isas, required=job.isas,
            compilers=ccs, name=job.name, attempts=attempts,
            deadline=deadline)
        key = publish_artifact(
            disk, job.ghash, job.isas, cc, flags, so_path, job.symbol,
            job.c_source, published_by=f"repro-serve:{os.getpid()}")
        shutil.rmtree(workdir, ignore_errors=True)
        obs.counter("service.compiles", outcome="compiled")
        return {"ok": True, "outcome": "compiled", "key": key,
                "compiler": cc.name, "flags": list(flags),
                "attempts": len(attempts)}

    # -- introspection verbs -------------------------------------------

    def _status(self) -> dict:
        with self._cond:
            queued = sum(len(q) for q in self._queues.values())
            inflight = len(self._inflight)
            clients = sorted(self._queues)
        return {
            "ok": True,
            "pid": os.getpid(),
            "socket": str(self.socket_path),
            "workers": self.workers,
            "uptime_s": time.monotonic() - self.started_at,
            "queued": queued,
            "inflight": inflight,
            "queued_clients": clients,
        }

    def _stats(self) -> dict:
        with self._cond:
            counts = dict(self._counts)
            per_client = dict(self._per_client)
            inflight = len(self._inflight)
        return {
            "ok": True,
            "counts": counts,
            "per_client": per_client,
            "inflight": inflight,
            "breaker": self.breaker.state,
        }
