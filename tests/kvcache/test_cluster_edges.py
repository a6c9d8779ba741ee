"""Edge-case tests for the cache cluster."""

import pytest

from repro.kvcache import CacheCluster, CacheError, NoSuchKey
from repro.kvcache.errors import CapacityExceeded
from repro.sim import Kernel
from repro.sim.latency import MB


@pytest.fixture()
def env():
    kernel = Kernel()
    cluster = CacheCluster(kernel, ["w0", "w1", "w2"], replication_factor=1)
    for node in ("w0", "w1", "w2"):
        cluster.server(node).resize(64 * MB)
    return kernel, cluster


def run(kernel, gen):
    return kernel.run_process(gen)


def test_empty_cluster_rejected():
    with pytest.raises(CacheError):
        CacheCluster(Kernel(), [])


def test_single_node_cluster_has_no_backups():
    kernel = Kernel()
    cluster = CacheCluster(kernel, ["solo"])
    cluster.server("solo").resize(64 * MB)

    def scenario():
        yield from cluster.put("k", "v", 100, caller="solo")

    run(kernel, scenario())
    assert cluster.coordinator.backups_of("k") == []
    assert cluster.contains("k")


def test_migrate_on_single_node_returns_none():
    kernel = Kernel()
    cluster = CacheCluster(kernel, ["solo"])
    cluster.server("solo").resize(64 * MB)

    def scenario():
        yield from cluster.put("k", "v", 100, caller="solo")
        return (yield from cluster.migrate_master("k"))

    assert run(kernel, scenario()) is None


def test_migrate_unknown_key_raises(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.migrate_master("ghost")

    with pytest.raises(NoSuchKey):
        run(kernel, scenario())


def test_delete_unknown_key_raises(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.delete("ghost", caller="w0")

    with pytest.raises(NoSuchKey):
        run(kernel, scenario())


def test_scale_up_negative_rejected(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.scale_up("w0", -1)

    with pytest.raises(CacheError):
        run(kernel, scenario())


def test_put_to_down_node_uses_other_master(env):
    kernel, cluster = env
    cluster.crash("w0")

    def scenario():
        master = yield from cluster.put("k", "v", 100, caller="w0")
        return master

    assert run(kernel, scenario()) != "w0"


def test_backups_skip_down_nodes(env):
    kernel, cluster = env
    cluster.crash("w2")

    def scenario():
        yield from cluster.put("k", "v", 100, caller="w0")

    run(kernel, scenario())
    assert cluster.coordinator.backups_of("k") == ["w1"]


def test_get_after_master_crash_without_recovery_is_miss(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 100, caller="w0")
        cluster.crash("w0")
        yield from cluster.get("k", caller="w1")

    with pytest.raises(NoSuchKey):
        run(kernel, scenario())
    assert cluster.location_of("k") is None


def test_overwrite_grows_object_beyond_capacity_raises(env):
    kernel, cluster = env
    cluster.server("w0").resize(1 * MB)
    cluster.server("w1").resize(0)
    cluster.server("w2").resize(0)

    def scenario():
        yield from cluster.put("k", "v", 100, caller="w0")
        yield from cluster.put("k", "v2", 2 * MB, caller="w0")

    with pytest.raises(CapacityExceeded):
        run(kernel, scenario())


def test_stats_snapshot_keys(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 100, caller="w0")
        yield from cluster.get("k", caller="w0")

    run(kernel, scenario())
    snap = cluster.stats.snapshot()
    assert snap["puts"] == 1
    assert snap["gets_local"] == 1
    assert "migrations" in snap and "recoveries" in snap


def test_recover_idempotent_for_empty_node(env):
    kernel, cluster = env
    cluster.crash("w2")

    def scenario():
        return (yield from cluster.recover("w2"))

    assert run(kernel, scenario()) == 0
