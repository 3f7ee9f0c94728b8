"""The kernel compilation service (DESIGN.md §12).

``python -m repro.serve`` runs the multi-tenant compile daemon;
``repro.serve.client.ServiceKernelManager`` is the drop-in client
selected by ``REPRO_SERVICE=auto|require``.  Nothing in ``repro.core``
imports this package eagerly — the service layer is opt-in.
"""

from repro.serve.client import (
    ServiceError,
    ServiceKernelManager,
    ServiceUnavailableError,
    daemon_available,
    get_service_manager,
    reset_service,
)
from repro.serve.daemon import (
    DaemonAlreadyRunningError,
    KernelCompileDaemon,
    shutdown_local_daemons,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    SERVICE_TIMEOUT,
    FrameTooLargeError,
    ProtocolError,
    pid_path,
    service_socket_path,
)

__all__ = [
    "DaemonAlreadyRunningError",
    "FrameTooLargeError",
    "KernelCompileDaemon",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "SERVICE_TIMEOUT",
    "ServiceError",
    "ServiceKernelManager",
    "ServiceUnavailableError",
    "daemon_available",
    "get_service_manager",
    "pid_path",
    "reset_service",
    "service_socket_path",
    "shutdown_local_daemons",
]
