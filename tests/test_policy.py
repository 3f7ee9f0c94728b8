"""The observe-mode outcome recorder (DESIGN.md §15): bit-history
table mechanics, crash-safe persistence and mode gating; the decision
points it observes — compiler ladder, hot-tier threshold, backend
probe — stay fixed; and the one eviction rank per cache tier."""

from __future__ import annotations

import json
import shutil
import stat
import time
from pathlib import Path

import pytest

import repro.obs as obs
from repro.core import BackendKind, compile_staged
from repro.core import policy
from repro.core.cache import DiskKernelCache, KernelCache, default_cache
from repro.core.policy import BitHistory, PolicyTable
from repro.core.resilience import clear_session_state
from repro.lms import forloop, stage_function
from repro.lms.ops import array_apply, array_update
from repro.lms.types import FLOAT, INT32, array_of
from repro.obs.report import render_report
from tests.conftest import requires_compiler


@pytest.fixture(autouse=True)
def _pin_env(monkeypatch):
    """Hermetic: no ambient chaos schedule, service routing, or policy
    mode may perturb this suite's exact assertions."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_SERVICE", raising=False)
    monkeypatch.delenv("REPRO_POLICY", raising=False)


@pytest.fixture
def clean_state(monkeypatch, tmp_path):
    """Fresh cache dir (hence fresh policy table), no REPRO_CC leakage."""
    cache_dir = tmp_path / "kcache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_CC", raising=False)
    default_cache.clear()
    clear_session_state()
    yield cache_dir
    default_cache.clear()
    clear_session_state()


def _staged(salt: float, name: str):
    """A unique-by-salt scalar-loop kernel (compiles on any host)."""

    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + salt))

    return stage_function(fn, [array_of(FLOAT), INT32], name)


def _write_script(path: Path, body: str) -> Path:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


_VERSION_PASSTHROUGH = """
if [ "$1" = "--version" ]; then exec gcc --version; fi
"""


def _fake_icc_always_fail(tmp_path: Path) -> Path:
    return _write_script(tmp_path / "fake-icc", _VERSION_PASSTHROUGH + """
echo "catastrophic error: cannot open source file" >&2
exit 1
""")


# ---------------------------------------------------------------------------
# Bit-history mechanics


class TestBitHistory:
    def test_empty_history_has_no_score(self):
        assert BitHistory().score(0.9) is None

    def test_decay_prefers_recent_outcomes(self):
        """Recent observations dominate: old successes followed by
        fresh failures score below 0.5, and the mirror image above."""
        went_bad = BitHistory()
        for ok in [True] * 4 + [False] * 4:
            went_bad.record(ok)
        got_good = BitHistory()
        for ok in [False] * 4 + [True] * 4:
            got_good.record(ok)
        assert went_bad.score(0.9) < 0.5 < got_good.score(0.9)
        # same popcount, different order — the decay is what separates
        assert bin(went_bad.bits).count("1") == \
            bin(got_good.bits).count("1")

    def test_saturation_drops_history_off_the_end(self):
        """The register is fixed-width: after 64 fresh failures, 64
        ancient successes are gone entirely."""
        h = BitHistory()
        for _ in range(64):
            h.record(True)
        assert h.n == 64 and h.score(0.9) == pytest.approx(1.0)
        for _ in range(64):
            h.record(False)
        assert h.n == 64
        assert h.score(0.9) == pytest.approx(0.0)

    def test_scores_monotone_in_recent_successes(self):
        streaks = []
        for wins in range(5):
            h = BitHistory()
            for i in range(4):
                h.record(i >= 4 - wins)
            streaks.append(h.score(0.9))
        assert streaks == sorted(streaks)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        table = PolicyTable(tmp_path / "p")
        table.record("fam", "ladder", "gcc/O3", True)
        table.record("fam", "ladder", "icc/O3", False)
        table.flush(force=True)
        assert (tmp_path / "p" / "policy.json").is_file()
        reborn = PolicyTable(tmp_path / "p")
        assert reborn.score("fam", "ladder", "gcc/O3") == \
            pytest.approx(1.0)
        assert reborn.score("fam", "ladder", "icc/O3") == \
            pytest.approx(0.0)
        # no temp debris from the write-fsync-rename
        assert not list((tmp_path / "p").glob("*.tmp"))

    @pytest.mark.parametrize("debris", [
        b"{truncated", b"[1, 2, 3]", b'{"version": 99}', b"\x00\xff"])
    def test_torn_file_is_a_clean_cold_start(self, tmp_path, debris):
        d = tmp_path / "p"
        d.mkdir()
        (d / "policy.json").write_bytes(debris)
        table = PolicyTable(d)     # must not raise
        assert table.score("fam", "ladder", "gcc/O3") is None
        # the next flush overwrites the debris with valid state
        table.record("fam", "ladder", "a", True)
        table.flush(force=True)
        state = json.loads((d / "policy.json").read_text())
        assert state["version"] == 1 and state["entries"]

    def test_file_with_values_loads(self, tmp_path):
        """A ``policy.json`` that still carries the retired ``values``
        list (per-family cost averages) loads its entries."""
        d = tmp_path / "p"
        d.mkdir()
        (d / "policy.json").write_text(json.dumps({
            "version": 1,
            "entries": [{"family": "fam", "kind": "ladder",
                         "choice": "gcc/O3", "bits": 1, "n": 1}],
            "values": [{"family": "fam", "kind": "compile_cost",
                        "value": 0.5, "n": 3}]}))
        table = PolicyTable(d)
        assert table.score("fam", "ladder", "gcc/O3") == \
            pytest.approx(1.0)

    def test_registry_keys_on_cache_dir(self, clean_state, monkeypatch,
                                        tmp_path):
        first = policy.get_policy()
        assert first is policy.get_policy()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
        assert policy.get_policy() is not first


class TestModes:
    def test_default_is_observe(self):
        assert policy.policy_mode() == "observe"
        assert policy.recording()

    def test_off_disables_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_POLICY", "off")
        assert not policy.recording()

    def test_unknown_mode_warns_and_observes(self, monkeypatch):
        # "learned" is a retired mode: it falls back like any other
        for raw in ("bogus", "learned"):
            monkeypatch.setenv("REPRO_POLICY", raw)
            with pytest.warns(RuntimeWarning, match="REPRO_POLICY"):
                assert policy.policy_mode() == "observe"


# ---------------------------------------------------------------------------
# The compiler ladder


@requires_compiler
class TestLadderPolicy:
    def _chain_env(self, tmp_path, monkeypatch):
        real_gcc = shutil.which("gcc")
        assert real_gcc, "suite requires gcc"
        fake = _fake_icc_always_fail(tmp_path)
        monkeypatch.setenv("REPRO_CC", f"icc={fake},gcc={real_gcc}")

    def test_observe_records_but_keeps_fixed_order(
            self, clean_state, tmp_path, monkeypatch):
        self._chain_env(tmp_path, monkeypatch)
        # default mode: observe
        for salt, name in ((3.5, "obsfam1"), (4.5, "obsfam2")):
            kernel = compile_staged(_make_fn(salt),
                                    [array_of(FLOAT), INT32],
                                    name=name, backend="native")
            # both kernels pay the full fixed icc-first walk
            assert kernel.report.attempts[0].compiler == "icc"
            assert kernel.report.attempts[0].outcome == "permanent"
        # ...but the outcomes were recorded
        table = policy.get_policy()
        assert table.score("obsfam", "ladder", "gcc/O3") == \
            pytest.approx(1.0)
        assert table.score("obsfam", "ladder", "icc/O3") == \
            pytest.approx(0.0)

    def test_off_is_fixed_order_even_with_poisoned_history(
            self, clean_state, tmp_path, monkeypatch):
        """``REPRO_POLICY=off``: a persisted table full of history is
        neither consulted nor written."""
        poisoned = PolicyTable(clean_state / "policy")
        for _ in range(8):
            poisoned.record("offfam", "ladder", "icc/O3", False)
            poisoned.record("offfam", "ladder", "gcc/O3", True)
        poisoned.flush(force=True)
        policy.reset_tables(flush=False)
        self._chain_env(tmp_path, monkeypatch)
        monkeypatch.setenv("REPRO_POLICY", "off")
        before = (clean_state / "policy" / "policy.json").read_bytes()
        kernel = compile_staged(_make_fn(5.5), [array_of(FLOAT), INT32],
                                name="offfam1", backend="native")
        assert kernel.report.attempts[0].compiler == "icc"
        assert kernel.report.attempts[0].outcome == "permanent"
        assert kernel.report.attempts[-1].compiler == "gcc"
        # off records nothing: the persisted table is untouched
        policy.reset_tables()
        after = (clean_state / "policy" / "policy.json").read_bytes()
        assert after == before


def _make_fn(salt: float):
    def fn(a, n):
        forloop(0, n, step=1, body=lambda i: array_update(
            a, i, array_apply(a, i) * 2.0 + salt))
    return fn


# ---------------------------------------------------------------------------
# The hot-tier promotion threshold


class TestTierPolicy:
    def test_fixed_threshold_without_learned_mode(self, clean_state):
        table = policy.get_policy()
        for _ in range(8):
            table.record("obshot", "tier", "promote", False)
        kernel = compile_staged(_make_fn(7.5), [array_of(FLOAT), INT32],
                                name="obshot1", backend="auto",
                                tier="hot")
        assert kernel._impl.countdown == 8     # history never acts


# ---------------------------------------------------------------------------
# The backend probe


class TestBackendGate:
    def _poison(self, family: str) -> None:
        table = policy.get_policy()
        for _ in range(8):
            table.record(family, "backend", "native", False)

    def test_explicit_native_requests_are_never_gated(
            self, clean_state, monkeypatch):
        self._poison("wantfam")
        probed = []

        def fake_acquire(staged, *a, **k):
            probed.append(staged.name)
            raise AssertionError("probe reached (expected)")

        monkeypatch.setattr("repro.core.pipeline.acquire_native",
                            fake_acquire)
        with pytest.raises(AssertionError, match="probe reached"):
            compile_staged(_make_fn(9.5), [array_of(FLOAT), INT32],
                           name="wantfam1", backend="native")
        assert probed == ["wantfam1"]

    def test_observe_mode_never_gates(self, clean_state, monkeypatch):
        self._poison("obsgate")
        probed = []

        def fake_acquire(staged, *a, **k):
            probed.append(staged.name)
            from repro.codegen.compiler import PermanentCompileError
            raise PermanentCompileError("still probing")

        monkeypatch.setattr("repro.core.pipeline.acquire_native",
                            fake_acquire)
        kernel = compile_staged(_make_fn(10.5), [array_of(FLOAT), INT32],
                                name="obsgate1", backend="auto")
        assert probed == ["obsgate1"]
        assert kernel.backend == BackendKind.SIMULATED


# ---------------------------------------------------------------------------
# The in-memory kernel cache: LRU


class TestMemCacheEviction:
    def _traffic(self, cache: KernelCache):
        """A hot entry, a recent entry, then an overflow put."""
        sa = _staged(1.0, "mema")
        sb = _staged(2.0, "memb")
        sc = _staged(3.0, "memc")
        cache.put_for(sa, "auto", "ka")
        cache.put_for(sb, "auto", "kb")
        for _ in range(5):
            assert cache.get_for(sa, "auto") == "ka"
        assert cache.get_for(sb, "auto") == "kb"   # most recent access
        cache.put_for(sc, "auto", "kc")            # forces one eviction
        return sa, sb, sc

    def test_lru_keeps_the_most_recent(self, clean_state):
        cache = KernelCache(maxsize=2)
        sa, sb, _sc = self._traffic(cache)
        # pure LRU: the hot-but-less-recent entry is the victim
        assert cache.get_for(sa, "auto") is None
        assert cache.get_for(sb, "auto") == "kb"

# ---------------------------------------------------------------------------
# The disk cache: (hits, mtime)


def _payload(tag: str) -> bytes:
    return (tag * 20).encode()


class TestDiskCachePolicy:
    def test_census_gates_the_evict_scan(self, clean_state, tmp_path):
        """Satellite: a put under the bound must not JSON-parse every
        manifest — the full scan only fires past ``max_entries``."""
        reg = obs.get_registry()
        before = reg.counter_value("cache.disk.evict_scans")
        disk = DiskKernelCache(root=tmp_path / "c", max_entries=4)
        for i in range(4):
            disk.put(f"{i:032x}", _payload(str(i)), {})
        assert reg.counter_value("cache.disk.evict_scans") == before
        disk.put(f"{4:032x}", _payload("4"), {})   # past the bound
        assert reg.counter_value("cache.disk.evict_scans") == before + 1
        assert len(list((tmp_path / "c").glob("*/*.json"))) == 4

    def test_hit_writeback_batches(self, clean_state, tmp_path):
        """Satellite: hits accumulate in memory and persist every
        ``hit_flush`` per key; ``flush_hits`` drains the remainder."""
        disk = DiskKernelCache(root=tmp_path / "c", max_entries=8,
                               hit_flush=4)
        key = f"{7:032x}"
        disk.put(key, _payload("h"), {})
        meta_path = disk.shard_dir(key) / f"{key}.json"

        def on_disk() -> int:
            return int(json.loads(meta_path.read_text()).get("hits", 0))

        for i in range(1, 4):
            entry = disk.get(key)
            assert entry.meta["hits"] == i   # served count includes
            assert on_disk() == 0            # ...unflushed pending
        assert disk.get(key).meta["hits"] == 4
        assert on_disk() == 4                # the 4th hit flushed
        disk.get(key)
        assert on_disk() == 4
        disk.flush_hits()
        assert on_disk() == 5

    def test_eviction_flushes_pending_hits_first(self, clean_state,
                                                 tmp_path):
        disk = DiskKernelCache(root=tmp_path / "c", max_entries=2,
                               hit_flush=100)
        hot, cold, trigger = f"{1:032x}", f"{2:032x}", f"{3:032x}"
        disk.put(hot, _payload("a"), {})
        for _ in range(3):
            disk.get(hot)          # pending only, nothing on disk yet
        time.sleep(0.02)
        disk.put(cold, _payload("b"), {})
        time.sleep(0.02)
        disk.put(trigger, _payload("c"), {})
        # eviction ranked on flushed counts: the 3-hit entry survived
        assert disk.get(hot) is not None
        assert disk.get(cold) is None

    def test_manifest_with_decayed_history_still_serves(
            self, clean_state, tmp_path):
        """Manifests carrying the retired ``hist``/``hist_at`` fields
        still serve hits, and eviction ranks them by ``(hits, mtime)``
        alone: the entry whose decayed history is dead but whose raw
        count is higher survives."""
        disk = DiskKernelCache(root=tmp_path / "c", max_entries=2,
                               hit_flush=1)
        stale, warm = f"{10:032x}", f"{11:032x}"
        disk.put(stale, _payload("s"),
                 {"hits": 5, "hist": 0.001, "hist_at": 1.0})
        disk.put(warm, _payload("w"),
                 {"hits": 2, "hist": 2.0, "hist_at": time.time()})
        entry = disk.get(stale)
        assert entry is not None and entry.meta["hits"] == 6
        disk.max_entries = 1
        disk._evict()
        assert disk.get(stale) is not None
        assert disk.get(warm) is None


# ---------------------------------------------------------------------------
# Observability


class TestPolicyReport:
    def test_report_has_policy_section(self):
        counters = {
            "policy.records{kind=ladder}": 6.0,
            "policy.outcomes{choice=gcc/O3,kind=ladder,outcome=ok}": 3.0,
            "policy.load{outcome=ok}": 1.0,
            "policy.flushes": 2.0,
        }
        text = render_report([], {"counters": counters,
                                  "gauges": {"policy.mode": 1}})
        assert "== policy ==" in text
        assert "mode: observe" in text
        assert "policy.records = 6" in text
        assert "policy.decisions" not in text
        assert "policy.outcomes{choice=gcc/O3,kind=ladder,outcome=ok}" \
            in text

    def test_report_prints_standing_rows_when_idle(self):
        text = render_report([], {"counters": {}, "gauges": {}})
        assert "== policy ==" in text
        assert "policy.records = 0" in text
        assert "policy.flushes = 0" in text
