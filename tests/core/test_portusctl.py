"""Tests for Portusctl: view, dump, and the console entry point."""

import pytest

from repro.core.portusctl import dump, dump_to_file, format_view, main, view
from repro.dnn.serialize import deserialize_state_dict
from repro.errors import NoValidCheckpoint
from repro.harness.cluster import PaperCluster


@pytest.fixture
def checkpointed_cluster():
    cluster = PaperCluster(seed=11)

    def scenario(env):
        session_a = yield from cluster.portus_register("alexnet", gpu=0)
        session_b = yield from cluster.portus_register("resnet50", gpu=1)
        session_a.model.update_step(10)
        session_b.model.update_step(20)
        yield from session_a.checkpoint(10)
        yield from session_b.checkpoint(20)
        return session_a, session_b

    sessions = cluster.run(scenario)
    return cluster, sessions


def test_view_lists_models_and_versions(checkpointed_cluster):
    cluster, _sessions = checkpointed_cluster
    rows = view(cluster.portus_pool)
    assert [row["model"] for row in rows] == ["alexnet", "resnet50"]
    alexnet = rows[0]
    assert alexnet["layers"] == 16
    states = {v["state"] for v in alexnet["versions"]}
    assert "DONE" in states


def test_format_view_renders_table(checkpointed_cluster):
    cluster, _sessions = checkpointed_cluster
    text = format_view(view(cluster.portus_pool))
    assert "alexnet" in text
    assert "DONE" in text
    assert "MODEL" in text


def test_dump_is_loadable_and_bit_exact(checkpointed_cluster):
    cluster, (session_a, _b) = checkpointed_cluster
    image = dump(cluster.portus_pool, "alexnet")
    parsed = deserialize_state_dict(image)
    assert len(parsed) == 16
    for tensor in session_a.model.tensors:
        _spec, payload = parsed[tensor.name]
        assert payload.equals(tensor.expected_content(10))


def test_dump_without_checkpoint_fails():
    cluster = PaperCluster(seed=12)

    def scenario(env):
        yield from cluster.portus_register("alexnet")

    cluster.run(scenario)
    with pytest.raises(NoValidCheckpoint):
        dump(cluster.portus_pool, "alexnet")


def test_dump_to_simulated_filesystem(checkpointed_cluster):
    cluster, _sessions = checkpointed_cluster

    def scenario(env):
        yield from cluster.volta_ext4.mkdir("/export")
        size = yield from dump_to_file(cluster.portus_pool, "resnet50",
                                       cluster.volta_ext4,
                                       "/export/resnet50.pt")
        return size

    size = cluster.run(scenario)
    assert size > 0
    assert cluster.volta_ext4.exists("/export/resnet50.pt")


def test_cli_view_runs(capsys):
    assert main(["view"]) == 0
    out = capsys.readouterr().out
    assert "resnet50" in out
    assert "DONE" in out


def test_cli_dump_writes_host_file(tmp_path, capsys):
    target = tmp_path / "resnet50.pt"
    assert main(["dump", "resnet50", str(target)]) == 0
    data = target.read_bytes()
    assert data[:8] == b"RPTCKPT1"
    assert len(data) > 97 * 1024 * 1024  # the full 97 MiB of weights


def test_cli_repack_reports(capsys):
    assert main(["repack"]) == 0
    out = capsys.readouterr().out
    assert "reclaimed" in out


def test_cli_dump_unknown_model_exits_cleanly(tmp_path, capsys):
    """Regression: an unknown model must produce a clean error message
    and a nonzero exit, not a raw traceback from table.lookup()."""
    target = tmp_path / "nope.pt"
    assert main(["dump", "no-such-model", str(target)]) == 1
    captured = capsys.readouterr()
    assert "portusctl:" in captured.err
    assert "no-such-model" in captured.err
    assert not target.exists()


def test_cli_dump_model_without_checkpoint_exits_cleanly(tmp_path, capsys,
                                                         monkeypatch):
    """Regression: a model that exists but has no valid checkpoint also
    gets the clean-error path."""
    import repro.core.portusctl as portusctl_mod

    def demo_without_checkpoints(tracing=False):
        cluster = PaperCluster(seed=13)

        def scenario(env):
            yield from cluster.portus_register("alexnet")

        cluster.run(scenario)
        return cluster, cluster.portus_pool

    monkeypatch.setattr(portusctl_mod, "_demo_pool",
                        demo_without_checkpoints)
    assert main(["dump", "alexnet", str(tmp_path / "x.pt")]) == 1
    err = capsys.readouterr().err
    assert "portusctl:" in err and "NoValidCheckpoint" in err


def test_cli_stats_prints_metrics_json(capsys):
    import json

    assert main(["stats"]) == 0
    out = capsys.readouterr().out
    snapshot = json.loads(out)
    assert snapshot["daemon.checkpoints_completed"]["value"] == 2
    assert snapshot["daemon.checkpoint_latency_ns"]["count"] == 2


def test_cli_stats_trace_out_writes_chrome_trace(tmp_path, capsys):
    import json

    trace_path = tmp_path / "demo.json"
    assert main(["stats", "--trace-out", str(trace_path)]) == 0
    trace = json.loads(trace_path.read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert "daemon.DO_CHECKPOINT" in names
    assert "engine.read" in names


# --- fleet mode: --daemons N ----------------------------------------------------


def test_cli_fsck_fleet_reports_every_shard(capsys):
    import json

    assert main(["fsck", "--daemons", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is True
    assert sorted(report["shards"]) == ["server", "server1", "server2"]
    # Per-key rollup over the fleet: each demo shard holds one model.
    assert report["checked"]["models"] == 3
    for shard in report["shards"].values():
        assert shard["clean"] is True


def test_cli_fsck_fleet_text_has_rollup_line(capsys):
    assert main(["fsck", "--daemons", "2"]) == 0
    out = capsys.readouterr().out
    assert "== server ==" in out
    assert "== server1 ==" in out
    assert "fleet: clean (2/2 shards clean)" in out


def test_cli_health_fleet_rolls_up_worst_state(capsys):
    import json

    assert main(["health", "--daemons", "3", "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["state"] == "healthy"
    assert sorted(snapshot["shards"]) == ["server", "server1", "server2"]
    for name, entry in snapshot["shards"].items():
        assert entry["state"] == "healthy"
        assert entry["sample"]["up"] is True
        # Each shard is sampled through a session of its own daemon.
        assert entry["sample"]["shard"] == name


def test_cli_stats_fleet_embeds_per_shard_work(capsys):
    import json

    assert main(["stats", "--daemons", "2"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    per_shard = snapshot["fleet"]["per_shard"]
    assert sorted(per_shard) == ["server", "server1"]
    for entry in per_shard.values():
        assert entry["checkpoints_completed"] == 1
        assert entry["bytes_pulled"] > 0
    # The flat metrics snapshot rides along unchanged.
    assert "daemon.checkpoints_completed" in snapshot["metrics"]


def test_cli_stats_fleet_counts_survive_a_daemon_restart(capsys,
                                                         monkeypatch):
    """Per-shard rows come from the shard-labelled registry series, so a
    restarted daemon's earlier work still counts — in ``stats`` and in
    the health sample alike."""
    import json

    import repro.core.portusctl as portusctl_mod
    from repro.core.retry import RetryPolicy

    clusters = []

    def demo_with_restart(tracing=False, daemons=1):
        cluster = PaperCluster(seed=19, ampere_nodes=0,
                               storage_nodes=daemons,
                               client_retry=RetryPolicy(), tracing=tracing)

        def scenario(env):
            instance = cluster.materialize("alexnet")
            session = yield from cluster.portus_client(
                shard=1).register(instance)
            for step in (1, 2):
                instance.update_step(step)
                yield from session.checkpoint(step)
                if step == 1:
                    cluster.restart_daemon(shard=1)

        cluster.run(scenario)
        clusters.append(cluster)
        return cluster, cluster.portus_pool

    monkeypatch.setattr(portusctl_mod, "_demo_pool", demo_with_restart)
    assert main(["stats", "--daemons", "2"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    per_shard = snapshot["fleet"]["per_shard"]
    assert per_shard["server"]["checkpoints_completed"] == 0
    assert per_shard["server1"]["checkpoints_completed"] == 2
    completed = snapshot["metrics"]["daemon.checkpoints_completed"]
    assert completed["value"] == 2
    assert completed["series"] == {"shard=server1": 2}
    health = clusters[0].shards[1].daemon.health_snapshot()
    assert health["counters"]["checkpoints_completed"] == 2


def test_view_counts_the_chunk_stores_spares():
    """Three dumps of a dedup model, the last two head-only: the third
    displaces the first's head chunks, which stay as spares, and the
    view's chunk-store line shows them."""
    from repro.core.portusctl import chunk_inventory
    from repro.dnn.tensor import ModelInstance, TensorSpec

    cluster = PaperCluster(seed=11, ampere_nodes=0)
    specs = [TensorSpec("backbone.weight", (256, 1024)),
             TensorSpec("head.weight", (64, 1024))]
    assert chunk_inventory(cluster.portus_pool) is None

    def scenario(env):
        instance = ModelInstance.materialize(
            "tuned", specs, cluster.volta.gpus[0], model_seed=3)
        session = yield from cluster.portus_register(
            instance, dedup=True, chunk_bytes=256 * 1024)
        for step in (1, 2, 3):
            instance.update_step(step,
                                 only=None if step == 1 else ["head.weight"])
            yield from session.checkpoint(step)

    cluster.run(scenario)
    chunks = chunk_inventory(cluster.portus_pool)
    assert chunks == {"chunks": 6, "stored_bytes": 1536 * 1024,
                      "spares": 1, "spare_bytes": 256 * 1024}
    text = format_view(view(cluster.portus_pool), chunks)
    assert "chunk store: 6 chunks (1.50MiB), 1 spares (256.00KiB)" in text
