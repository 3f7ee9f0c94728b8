"""The wire format of the kernel compilation service.

One frame per message, in both directions: a 4-byte big-endian
unsigned length followed by that many bytes of UTF-8 JSON encoding a
single object.  Length-prefixing keeps the parser trivial and makes
malformed input cheap to reject: a frame whose declared length is zero,
not JSON, not an object, or larger than :data:`MAX_FRAME_BYTES`
(8 MiB — generated C sources are the big payload) is a
:class:`ProtocolError` before any allocation proportional to the claim.

Verbs (requests carry ``{"verb": ...}``, responses ``{"ok": ...}``):

* ``compile`` — compile one kernel's generated C and publish the
  artifact to the shared disk cache; deduplicated by graph hash.
* ``status`` — daemon identity and queue snapshot.
* ``stats`` — request/dedup/shed/compile counters per client.
* ``metrics`` — the daemon's Prometheus text exposition.
* ``ping`` — liveness probe.
* ``shutdown`` — stop the daemon (it removes its socket and pid file).

The framing helpers work on connected sockets; they never log and never
raise anything but :class:`ProtocolError` / ``OSError`` family errors,
so both daemon and client can treat any failure as "this peer is gone".
"""

from __future__ import annotations

import json
import os
import socket
import struct
import tempfile
from pathlib import Path
from typing import Any

__all__ = [
    "FrameTooLargeError",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "SERVICE_TIMEOUT",
    "pid_path",
    "read_frame",
    "service_socket_path",
    "write_frame",
]

#: Client-side connect/handshake timeout in seconds.  Compile replies
#: get a separate budget derived from the compile deadline.
SERVICE_TIMEOUT = 5.0

#: Upper bound on one frame's payload in bytes.
MAX_FRAME_BYTES = 8 << 20


def service_socket_path() -> Path:
    """Where the daemon listens (``REPRO_SERVICE_SOCKET``; default
    ``$XDG_RUNTIME_DIR/repro-serve-<uid>.sock``, falling back to the
    system temp dir).  AF_UNIX paths are length-bounded (~107 bytes on
    Linux), which is why the default avoids deep cache directories."""
    override = os.environ.get("REPRO_SERVICE_SOCKET")
    if override:
        return Path(override).expanduser()
    runtime = os.environ.get("XDG_RUNTIME_DIR")
    base = Path(runtime) if runtime else Path(tempfile.gettempdir())
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return base / f"repro-serve-{uid}.sock"


def pid_path(socket_path: Path | None = None) -> Path:
    """The pid file next to the socket: the stale-socket detector
    (``procutil.pid_alive``) probes the pid stamped here."""
    sock = socket_path if socket_path is not None \
        else service_socket_path()
    return sock.with_name(sock.name + ".pid")


_LEN = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid protocol frame."""


class FrameTooLargeError(ProtocolError):
    """A frame's declared (or encoded) length exceeds the bound."""


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ProtocolError` on a
    mid-frame EOF.  A clean EOF before any byte returns ``b""``."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 16))
        if not chunk:
            if got == 0:
                return b""
            raise ProtocolError(
                f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF (peer closed between
    frames).  Raises :class:`ProtocolError` for malformed input and
    lets socket timeouts/``OSError`` propagate."""
    header = _recv_exact(sock, _LEN.size)
    if not header:
        return None
    if len(header) < _LEN.size:  # pragma: no cover - _recv_exact raises
        raise ProtocolError("truncated frame header")
    (length,) = _LEN.unpack(header)
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound")
    body = _recv_exact(sock, length)
    if len(body) < length:
        raise ProtocolError("connection closed mid-frame")
    try:
        obj = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(obj).__name__}")
    return obj


def write_frame(sock: socket.socket, obj: dict[str, Any]) -> None:
    """Serialize and send one frame.  Raises
    :class:`FrameTooLargeError` before sending anything when the
    encoded object exceeds the bound."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"encoded frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound")
    sock.sendall(_LEN.pack(len(body)) + body)
