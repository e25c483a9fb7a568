"""ArtifactStore: checksummed round-trips, quarantine, self-healing, gc.

The store's contract is *never serve a wrong byte*: every payload is
sha256-verified on read, corruption quarantines the blob (a miss, not an
error), and the next publish heals it.  Faults during publication degrade
to "not persisted", never to a torn blob.
"""

import marshal
import os

import pytest

import repro.store.store as store_module
from repro.resilience import FaultPlan, install_plan, set_plan
from repro.store import (
    ArtifactStore,
    StoreError,
    StoreLockTimeout,
    get_store,
    store_counters,
)
from repro.store.io import is_tmp_debris


@pytest.fixture(autouse=True)
def no_ambient_plan():
    previous = set_plan(None)
    try:
        yield
    finally:
        set_plan(previous)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _flip_byte(path, offset=-1):
    with open(path, "r+b") as handle:
        data = bytearray(handle.read())
        data[offset] ^= 0xFF
        handle.seek(0)
        handle.write(data)


class TestRoundTrip:
    def test_bytes_round_trip(self, store):
        assert store.get("verilog", "k") is None
        path = store.put("verilog", "k", b"module top; endmodule")
        assert path is not None and os.path.exists(path)
        assert store.get("verilog", "k") == b"module top; endmodule"
        assert store.has("verilog", "k")

    def test_text_round_trip(self, store):
        store.put("ir", "k", "hir text → unicode")
        assert store.get_text("ir", "k") == "hir text → unicode"

    def test_kinds_are_namespaces(self, store):
        store.put("ir", "same-key", b"one")
        store.put("verilog", "same-key", b"two")
        assert store.get("ir", "same-key") == b"one"
        assert store.get("verilog", "same-key") == b"two"

    def test_unsafe_keys_are_hashed_not_traversed(self, store):
        key = "../../../etc/passwd and spaces"
        path = store.put("ir", key, b"payload")
        assert path.startswith(store.objects_dir)
        assert ".." not in os.path.relpath(path, store.objects_dir)
        assert store.get("ir", key) == b"payload"

    def test_identical_put_is_a_noop_rewrite(self, store):
        before = store_counters()["writes"]
        store.put("ir", "k", b"payload")
        store.put("ir", "k", b"payload")
        assert store_counters()["writes"] == before + 1

    def test_survives_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        ArtifactStore(root).put("ir", "k", b"payload")
        assert ArtifactStore(root).get("ir", "k") == b"payload"

    def test_get_store_memoizes(self, tmp_path):
        root = str(tmp_path / "store")
        assert get_store(root) is get_store(root)

    def test_root_collision_with_file_is_typed(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        with pytest.raises(StoreError):
            ArtifactStore(str(target))


class TestCorruption:
    def test_corrupt_blob_is_a_miss_and_quarantined(self, store):
        path = store.put("ir", "k", b"payload-bytes")
        _flip_byte(path)
        before = store_counters()["quarantined"]
        assert store.get("ir", "k") is None
        assert not os.path.exists(path)
        assert len(os.listdir(store.quarantine_dir)) == 1
        assert store_counters()["quarantined"] == before + 1

    def test_self_heals_on_next_put(self, store):
        path = store.put("ir", "k", b"payload-bytes")
        _flip_byte(path)
        assert store.get("ir", "k") is None
        store.put("ir", "k", b"payload-bytes")
        assert store.get("ir", "k") == b"payload-bytes"
        assert store.verify().ok

    def test_truncated_blob_is_a_miss(self, store):
        path = store.put("ir", "k", b"payload-bytes")
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 4)
        assert store.get("ir", "k") is None

    def test_wrong_kind_header_is_a_miss(self, store):
        path = store.put("ir", "k", b"payload")
        with open(path, "rb") as handle:
            raw = handle.read()
        os.unlink(path)
        other = store.blob_path("verilog", "k")
        os.makedirs(os.path.dirname(other), exist_ok=True)
        with open(other, "wb") as handle:
            handle.write(raw)           # an "ir" blob where verilog belongs
        assert store.get("verilog", "k") is None

    def test_verify_quarantines_corrupt_blobs(self, store):
        good = store.put("ir", "good", b"fine")
        bad = store.put("ir", "bad", b"will rot")
        _flip_byte(bad)
        report = store.verify()
        assert not report.ok
        assert report.checked == 2
        assert report.corrupt == [bad] and report.quarantined == 1
        assert os.path.exists(good) and not os.path.exists(bad)
        assert store.verify().ok        # second pass: clean

    def test_injected_corruption_is_caught_end_to_end(self, store):
        # store.write:corrupt damages the encoded blob *after* its checksum
        # was computed — the read path must detect and quarantine it.
        with install_plan(FaultPlan.parse("store.write:corrupt")):
            store.put("ir", "k", b"payload-bytes")
        assert store.get("ir", "k") is None
        assert store.verify().ok        # quarantine emptied the objects dir


class TestReadThrough:
    """``read_through``: the one store tier every cached stage uses."""

    @staticmethod
    def _builder(value="built"):
        calls = []

        def build():
            calls.append(1)
            return value
        return build, calls

    def test_miss_builds_and_publishes_once(self, store):
        build, calls = self._builder()
        writes = store_counters()["writes"]
        assert store.read_through("ir", "k", build) == "built"
        assert calls == [1]
        assert store_counters()["writes"] == writes + 1
        assert store.get_text("ir", "k") == "built"

    def test_hit_decodes_without_building(self, store):
        store.put("resources", "k", "41")
        build, calls = self._builder(0)
        value = store.read_through("resources", "k", build, decode=int)
        assert value == 41 and calls == []

    def test_bad_checksum_is_quarantined_and_rebuilt(self, store):
        _flip_byte(store.put("ir", "k", "stale"))
        build, calls = self._builder()
        before = store_counters()
        assert store.read_through("ir", "k", build) == "built"
        after = store_counters()
        assert calls == [1]
        assert after["corrupt"] == before["corrupt"] + 1
        assert after["quarantined"] == before["quarantined"] + 1
        assert store.get_text("ir", "k") == "built"

    def test_undecodable_blob_is_corrupt_rebuilt_and_republished(self, store):
        store.put("resources", "k", "not a number")     # valid checksum
        build, calls = self._builder(7)
        before = store_counters()
        value = store.read_through("resources", "k", build, decode=int,
                                   errors=(ValueError,))
        after = store_counters()
        assert value == 7 and calls == [1]
        assert after["corrupt"] == before["corrupt"] + 1
        assert after["quarantined"] == before["quarantined"] + 1
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"]
        assert after["writes"] == before["writes"] + 1
        assert len(os.listdir(store.quarantine_dir)) == 1
        # The re-published blob serves the next read.
        assert store.read_through("resources", "k", build, decode=int,
                                  errors=(ValueError,)) == 7
        assert calls == [1]
        assert store_counters()["hits"] == after["hits"] + 1

    def test_binary_payload_round_trips_as_bytes(self, store):
        payload = bytes(range(256))                 # not valid UTF-8
        build, calls = self._builder(payload)
        for _ in range(2):
            assert store.read_through("simcode", "k", build, encode=bytes,
                                      decode=bytes) == payload
        assert calls == [1]
        assert store.get("simcode", "k") == payload

    @pytest.mark.parametrize("payload", [b"\xffgarbage", marshal.dumps(7)],
                             ids=["garbage", "int"])
    def test_undecodable_code_blob_is_corrupt_and_rebuilt(self, store,
                                                          payload):
        from repro.sim.engine.cache import _UNMARSHALABLE, _code_object
        code = compile("x = 1", "<test>", "exec")
        store.put("simcode", "k", payload)          # valid checksum
        build, calls = self._builder(code)
        before = store_counters()
        value = store.read_through("simcode", "k", build, marshal.dumps,
                                   _code_object, _UNMARSHALABLE)
        after = store_counters()
        assert value is code and calls == [1]
        assert after["corrupt"] == before["corrupt"] + 1
        assert after["quarantined"] == before["quarantined"] + 1
        assert after["hits"] == before["hits"]
        assert _code_object(store.get("simcode", "k")) == code

    def test_unlisted_decode_error_propagates(self, store):
        store.put("resources", "k", "not a number")
        build, calls = self._builder(7)
        with pytest.raises(ValueError):
            store.read_through("resources", "k", build, decode=int,
                               errors=(KeyError,))
        assert calls == []
        assert store.get_text("resources", "k") == "not a number"


class TestFaultedPublication:
    def test_write_fault_degrades_to_unpersisted(self, store):
        before = store_counters()["write_failures"]
        with install_plan(FaultPlan.parse("store.write:io_error")):
            assert store.put("ir", "k", b"payload") is None
        assert store_counters()["write_failures"] == before + 1
        assert store.get("ir", "k") is None
        store.put("ir", "k", b"payload")   # next session publishes fine
        assert store.get("ir", "k") == b"payload"

    def test_torn_write_debris_is_swept_by_verify(self, store):
        with install_plan(FaultPlan.parse("store.write:torn")):
            assert store.put("ir", "k", b"payload" * 100) is None
        debris = [name for _, _, files in os.walk(store.objects_dir)
                  for name in files if is_tmp_debris(name)]
        assert len(debris) == 1
        report = store.verify()
        assert report.debris_removed == 1
        assert report.ok

    def test_lock_faults_are_retried(self, store):
        with install_plan(FaultPlan.parse("store.lock:io_error*2")):
            assert store.put("ir", "k", b"payload") is not None
        assert store.get("ir", "k") == b"payload"

    def test_lock_timeout_is_typed(self, store, monkeypatch):
        monkeypatch.setattr(store_module, "_LOCK_ATTEMPTS", 3)
        with install_plan(FaultPlan.parse("store.lock:io_error*99")):
            with pytest.raises(StoreLockTimeout) as excinfo:
                store.put("ir", "k", b"payload")
        assert isinstance(excinfo.value, StoreError)

    def test_contended_lock_times_out_cleanly(self, store, monkeypatch):
        fcntl = pytest.importorskip("fcntl")
        monkeypatch.setattr(store_module, "_LOCK_ATTEMPTS", 3)
        fd = os.open(store.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(StoreLockTimeout):
                store.put("ir", "k", b"payload")
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        assert store.put("ir", "k", b"payload") is not None


class TestMaintenance:
    def test_gc_evicts_least_recently_used(self, store):
        import time
        for index in range(4):
            store.put("ir", f"k{index}", f"payload {index}".encode())
            time.sleep(0.01)            # distinct mtimes for LRU order
        store.get("ir", "k0")           # refresh k0's recency
        time.sleep(0.01)
        report = store.gc(max_blobs=2)
        assert report.render().startswith("gc:")
        kept = {key for _, key in
                [(info.kind, info.key) for info in store.iter_blobs()]}
        assert store.blob_count() == 2
        assert store.get("ir", "k0") is not None    # recently used survived
        assert store.get("ir", "k3") is not None    # newest survived
        assert kept == {store._safe("k0"), store._safe("k3")}

    def test_gc_max_bytes(self, store):
        import time
        store.put("ir", "large", b"y" * 10_000)
        time.sleep(0.01)
        store.put("ir", "small", b"x")
        store.gc(max_bytes=5_000)       # evicts the older, larger blob
        assert store.blob_count() == 1
        assert store.get("ir", "small") == b"x"

    def test_clear_removes_everything(self, store):
        store.put("ir", "a", b"1")
        store.put("verilog", "b", b"2")
        assert store.clear() == 2
        assert store.blob_count() == 0
        assert store.get("ir", "a") is None

    def test_stats_report_renders(self, store):
        store.put("ir", "a", b"1234")
        text = store.stats().render()
        assert "ir" in text and "1 blob" in text
