"""Unit tests for the cache coordinator."""

import pytest

from repro.kvcache.coordinator import Coordinator
from repro.kvcache.errors import CacheError, NoSuchKey
from repro.kvcache.server import CacheServer
from repro.sim.latency import MB


def make_coordinator(n=4, capacity=64 * MB, rf=2):
    coordinator = Coordinator(replication_factor=rf)
    for i in range(n):
        coordinator.register(CacheServer(f"w{i}", capacity=capacity))
    return coordinator


def test_register_rejects_duplicates():
    coordinator = make_coordinator()
    with pytest.raises(CacheError):
        coordinator.register(CacheServer("w0"))


def test_unknown_server_raises():
    coordinator = make_coordinator()
    with pytest.raises(CacheError):
        coordinator.server("nope")


def test_negative_replication_factor_rejected():
    with pytest.raises(CacheError):
        Coordinator(replication_factor=-1)


def test_choose_master_prefers_requested_node():
    coordinator = make_coordinator()
    assert coordinator.choose_master(1000, preferred="w2") == "w2"


def test_choose_master_skips_full_preferred():
    coordinator = make_coordinator()
    coordinator.server("w2").capacity = 0
    chosen = coordinator.choose_master(1000, preferred="w2")
    assert chosen is not None and chosen != "w2"


def test_choose_master_picks_most_free():
    coordinator = make_coordinator()
    coordinator.server("w1").capacity = 256 * MB
    assert coordinator.choose_master(1000) == "w1"


def test_choose_master_none_when_all_full():
    coordinator = make_coordinator(capacity=0)
    assert coordinator.choose_master(1000) is None


def test_choose_backups_excludes_master_and_respects_factor():
    coordinator = make_coordinator(rf=2)
    backups = coordinator.choose_backups("k", "w0")
    assert len(backups) == 2
    assert "w0" not in backups


def test_choose_backups_spreads_by_disk_usage():
    coordinator = make_coordinator(rf=1)
    from repro.kvcache.objects import CacheObject

    coordinator.server("w1").backup_put(CacheObject("x", None, 10 * MB))
    backups = coordinator.choose_backups("k", "w0")
    assert backups == ["w2"] or backups == ["w3"]


def test_placement_bookkeeping_roundtrip():
    coordinator = make_coordinator()
    coordinator.record_placement("k", "w0", ["w1", "w2"])
    assert coordinator.master_of("k") == "w0"
    assert coordinator.backups_of("k") == ["w1", "w2"]
    assert coordinator.holds("k")
    assert coordinator.keys_mastered_by("w0") == ["k"]
    coordinator.forget("k")
    assert coordinator.master_of("k") is None
    assert not coordinator.holds("k")


def test_backups_read_back_sorted():
    """Placement order never leaks into iteration order: callers draw
    replication latencies per backup, so a hash-ordered set would make
    schedules depend on PYTHONHASHSEED."""
    coordinator = make_coordinator()
    coordinator.record_placement("k", "w1", ["w2", "w0"])
    assert coordinator.backups_of("k") == ["w0", "w2"]


def test_record_master_change_swaps_roles():
    coordinator = make_coordinator()
    coordinator.record_placement("k", "w0", ["w1", "w2"])
    coordinator.record_master_change("k", "w1")
    assert coordinator.master_of("k") == "w1"
    assert coordinator.backups_of("k") == ["w0", "w2"]


def test_record_master_change_unknown_key_raises():
    coordinator = make_coordinator()
    with pytest.raises(NoSuchKey):
        coordinator.record_master_change("ghost", "w1")


def test_live_servers_excludes_crashed():
    coordinator = make_coordinator()
    coordinator.server("w3").crash()
    live = {s.server_id for s in coordinator.live_servers()}
    assert live == {"w0", "w1", "w2"}
