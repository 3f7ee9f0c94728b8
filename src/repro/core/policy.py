"""Observe-mode outcome recorder for the pipeline's fixed decisions.

The pipeline's decisions are fixed: the compiler ladder walks
icc→gcc→clang / O3→O2→minimal-ISA in order, ``REPRO_TIER=hot``
promotes at :data:`~repro.core.tiered.HOT_THRESHOLD`, the backend
probe always runs for ``backend="auto"``, and each cache tier evicts
by one rank (DESIGN.md §15).  This module only *records* how those
decisions turn out, in a thread-safe **bit-history table** keyed by
``(kernel_family, decision_kind, choice)``, and exports the records as
``policy.*`` counters.  It never changes a decision.

* **Bit history.**  Each entry is a fixed-width 64-bit shift register
  of recent success/failure observations (bit 0 = most recent).  The
  score is a recency-weighted popcount: ``sum(bit_i * DECAY**i) /
  sum(DECAY**i)`` over the observed window, and history older than 64
  observations falls off the end (saturation).
* **Mode gating.**  ``REPRO_POLICY`` is ``off`` (record nothing) or
  ``observe`` (the default: record outcomes and export counters).
* **Crash-safe persistence.**  Tables live under
  ``REPRO_CACHE_DIR/policy/policy.json`` with the same
  write-fsync-rename discipline as the disk kernel cache, flushed
  every ``_FLUSH_EVERY`` records and at interpreter exit.  A torn or
  corrupt file is a clean cold start, never a crash; fields this
  version does not read are ignored.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from pathlib import Path

import repro.obs as obs
from repro.core.env import env_choice

__all__ = [
    "DECAY",
    "MODES",
    "BitHistory",
    "PolicyTable",
    "family_of",
    "get_policy",
    "policy_mode",
    "recording",
    "reset_tables",
]

MODES = ("off", "observe")

_HISTORY_BITS = 64
_MASK = (1 << _HISTORY_BITS) - 1

#: Per-observation decay of the bit-history weighting.
DECAY = 0.9

_FLUSH_EVERY = 32

_MODE_CODES = {"off": 0, "observe": 1}


def policy_mode() -> str:
    """The recorder gate (``REPRO_POLICY``): ``off`` | ``observe``
    (default)."""
    return env_choice("REPRO_POLICY", MODES, "observe")


def recording() -> bool:
    """Whether outcomes are recorded (``observe``)."""
    return policy_mode() != "off"


def family_of(name: str) -> str:
    """The kernel family a kernel name belongs to.

    Trailing digits, underscores and dots are stripped so variants of
    one logical kernel (``dot8``/``dot16``/``dot32``, ``saxpy_2``)
    share one history; a name that is *all* suffix keeps itself.
    """
    stripped = name.rstrip("0123456789_.")
    return stripped or name


class BitHistory:
    """One (family, kind, choice) entry: a 64-bit success/failure shift
    register plus the observed count (capped at the register width)."""

    __slots__ = ("bits", "n")

    def __init__(self, bits: int = 0, n: int = 0) -> None:
        self.bits = bits & _MASK
        self.n = max(0, min(int(n), _HISTORY_BITS))

    def record(self, success: bool) -> None:
        self.bits = ((self.bits << 1) | (1 if success else 0)) & _MASK
        self.n = min(self.n + 1, _HISTORY_BITS)

    def score(self, decay_: float) -> float | None:
        """Recency-weighted popcount over the observed window, in
        [0, 1]; ``None`` when nothing has been observed."""
        if self.n == 0:
            return None
        num = 0.0
        den = 0.0
        weight = 1.0
        bits = self.bits
        for i in range(self.n):
            if (bits >> i) & 1:
                num += weight
            den += weight
            weight *= decay_
        return num / den

    def to_state(self) -> dict:
        return {"bits": self.bits, "n": self.n}


class PolicyTable:
    """The thread-safe bit-history table of recorded outcomes.

    ``record`` shifts one success/failure bit into the entry for
    ``(family, kind, choice)``; ``score`` reads its decayed success
    rate.  Everything persists to ``<dir>/policy.json``
    (write-fsync-rename); concurrent writers are last-writer-wins,
    which is acceptable because the file is advisory history, not a
    ledger.
    """

    def __init__(self, directory: str | Path | None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str, str], BitHistory] = {}
        self._dirty = 0
        if self.directory is not None:
            self._load()
        obs.gauge("policy.mode", _MODE_CODES[policy_mode()])

    def record(self, family: str, kind: str, choice: str,
               success: bool) -> None:
        with self._lock:
            entry = self._entries.get((family, kind, choice))
            if entry is None:
                entry = BitHistory()
                self._entries[(family, kind, choice)] = entry
            entry.record(success)
            self._dirty += 1
            should_flush = self._dirty >= _FLUSH_EVERY
        obs.counter("policy.records", kind=kind)
        obs.counter("policy.outcomes", kind=kind, choice=choice,
                    outcome="ok" if success else "fail")
        if should_flush:
            self.flush()

    def score(self, family: str, kind: str, choice: str) -> float | None:
        with self._lock:
            entry = self._entries.get((family, kind, choice))
        return entry.score(DECAY) if entry is not None else None

    # -- persistence ---------------------------------------------------

    @property
    def path(self) -> Path | None:
        return self.directory / "policy.json" \
            if self.directory is not None else None

    def _load(self) -> None:
        path = self.path
        if path is None:
            return
        try:
            raw = path.read_bytes()
        except OSError:
            obs.counter("policy.load", outcome="absent")
            return
        try:
            state = json.loads(raw)
            if not isinstance(state, dict) or state.get("version") != 1:
                raise ValueError("unrecognized policy state")
            for item in state.get("entries", []):
                key = (str(item["family"]), str(item["kind"]),
                       str(item["choice"]))
                self._entries[key] = BitHistory(int(item["bits"]),
                                                int(item["n"]))
        except (KeyError, TypeError, ValueError):
            # torn write or foreign schema: clean cold start, and the
            # next flush overwrites the debris
            self._entries.clear()
            obs.counter("policy.load", outcome="corrupt")
            return
        obs.counter("policy.load", outcome="ok")

    def flush(self, force: bool = False) -> None:
        """Persist the table (write-fsync-rename, same crash discipline
        as the disk kernel cache).  Best-effort: a read-only or deleted
        cache directory never blocks the pipeline."""
        path = self.path
        if path is None:
            return
        with self._lock:
            if self._dirty == 0 and not force:
                return
            payload = json.dumps({
                "version": 1,
                "entries": [
                    {"family": fam, "kind": kind, "choice": choice,
                     **entry.to_state()}
                    for (fam, kind, choice), entry
                    in sorted(self._entries.items())],
            }).encode()
            self._dirty = 0
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                         0o644)
            try:
                os.write(fd, payload)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
            try:
                dir_fd = os.open(path.parent, os.O_RDONLY)
            except OSError:
                dir_fd = -1
            if dir_fd >= 0:
                try:
                    os.fsync(dir_fd)
                except OSError:
                    pass
                finally:
                    os.close(dir_fd)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        obs.counter("policy.flushes")


# ---------------------------------------------------------------------------
# The process-wide table registry (one table per policy directory, so a
# test that re-points REPRO_CACHE_DIR gets a fresh table that loads the
# new directory's history).

_tables: dict[Path, PolicyTable] = {}
_tables_lock = threading.Lock()


def _policy_dir() -> Path:
    from repro.core.cache import cache_root
    return cache_root() / "policy"


def get_policy() -> PolicyTable:
    """The policy table for the current ``REPRO_CACHE_DIR``."""
    directory = _policy_dir()
    with _tables_lock:
        table = _tables.get(directory)
        if table is None:
            table = PolicyTable(directory)
            _tables[directory] = table
        return table


def reset_tables(flush: bool = True) -> None:
    """Flush and drop every live table (the hermetic-test hook, also
    invoked by :func:`repro.core.resilience.clear_session_state`).
    Persisted history survives — only in-memory state is dropped."""
    with _tables_lock:
        tables = list(_tables.values())
        _tables.clear()
    if flush and recording():
        for table in tables:
            table.flush()


@atexit.register
def _flush_at_exit() -> None:  # pragma: no cover - exit path
    if not recording():
        return
    with _tables_lock:
        tables = list(_tables.values())
    for table in tables:
        try:
            table.flush()
        except Exception:  # noqa: BLE001 - never fail interpreter exit
            pass
