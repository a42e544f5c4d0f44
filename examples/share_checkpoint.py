#!/usr/bin/env python3
"""Easy sharing: export a Portus checkpoint to a generic file (§IV-b).

Checkpoints live inside the three-level index on PMem, not as files.
Portusctl bridges that to the wider ecosystem: ``view`` lists what is on
a device; ``dump`` serializes a model's newest valid checkpoint into the
generic (torch.save-like) format, which any framework-side loader can
parse.  This example checkpoints BERT, dumps it, re-parses the dump and
verifies every tensor, then runs the repacking tool and shows the space
coming back.

The second half shows the *other* kind of sharing: two tenants
fine-tuning the same pretrained base register with ``dedup=True``, so
their checkpoints share backbone chunks in the pool-wide refcounted
chunk store — the second tenant's checkpoint moves only its own head
bytes, and both restore bit-exactly.

Run:  python examples/share_checkpoint.py
"""

from repro.core.portusctl import dump, format_view, view
from repro.core.repack import repack_daemon
from repro.dnn.serialize import deserialize_state_dict
from repro.dnn.tensor import ModelInstance
from repro.dnn.zoo import build_zoo_model, head_tensor_names
from repro.harness.cluster import PaperCluster
from repro.pmem.chunks import ChunkStore
from repro.units import fmt_bytes


def main() -> None:
    cluster = PaperCluster(seed=5)
    state = {}

    def train(env):
        session = yield from cluster.portus_register("bert_large")
        for step in (10, 20):
            session.model.update_step(step)
            yield from session.checkpoint(step)
        state["session"] = session

    cluster.run(train)
    print("after two checkpoints (double mapping keeps both):")
    print(format_view(view(cluster.portus_pool)))

    image = dump(cluster.portus_pool, "bert_large")
    print(f"\ndumped bert_large to a generic checkpoint image: "
          f"{fmt_bytes(image.size)}")
    parsed = deserialize_state_dict(image)
    model = state["session"].model
    bad = [t.name for t in model.tensors
           if not parsed[t.name][1].equals(t.expected_content(20))]
    print(f"re-parsed {len(parsed)} tensors; "
          f"{'all bit-exact at step 20' if not bad else f'MISMATCH: {bad}'}")

    report = repack_daemon(cluster.daemon)
    print(f"\nrepacked: reclaimed {fmt_bytes(report.bytes_reclaimed)} "
          f"from {len(report.models_compacted)} model(s)")
    print(format_view(view(cluster.portus_pool)))

    shared_base_finetunes(cluster)


def shared_base_finetunes(cluster: PaperCluster) -> None:
    """Two tenants, one pretrained base: dedup shares the backbone."""
    spec = build_zoo_model("vit_b_32")
    head = head_tensor_names(spec)
    replies = {}
    sessions = {}

    def finetune(env):
        for tenant, gpu, step in (("tenant-a", 0, 2), ("tenant-b", 1, 3)):
            instance = ModelInstance.materialize(
                tenant, spec.tensors, cluster.volta.gpus[gpu],
                model_seed=42)  # the same pretrained base for both
            session = yield from cluster.portus_register(instance,
                                                         dedup=True)
            instance.update_step(1)            # the shared base weights
            instance.update_step(step, only=head)  # each tenant's head
            replies[tenant] = yield from session.checkpoint(step)
            sessions[tenant] = (session, step)

    cluster.run(finetune)
    first, second = replies["tenant-a"], replies["tenant-b"]
    store = ChunkStore.attach(cluster.portus_pool)
    saved = second["bytes_logical"] - second["bytes_pulled"]
    print(f"\ntwo vit_b_32 fine-tunes of one base, dedup layout:")
    print(f"  tenant-a first checkpoint pulled "
          f"{fmt_bytes(first['bytes_pulled'])} "
          f"({first['chunks_new']} new chunks)")
    print(f"  tenant-b checkpoint pulled "
          f"{fmt_bytes(second['bytes_pulled'])} of "
          f"{fmt_bytes(second['bytes_logical'])} logical — dedup saved "
          f"{fmt_bytes(saved)} ({second['chunks_shared']} shared chunks)")
    print(f"  store: {fmt_bytes(store.stored_bytes)} physical backs "
          f"{fmt_bytes(store.logical_bytes)} logical")

    def roll_back(env):
        bad = []
        for tenant, (session, step) in sorted(sessions.items()):
            session.model.update_step(step + 5)  # diverge, then restore
            restored = yield from session.restore()
            assert restored == step
            for tensor in session.model.tensors:
                want = step if tensor.name in head else 1
                if not tensor.content().equals(
                        tensor.expected_content(want)):
                    bad.append(f"{tenant}:{tensor.name}")
        return bad

    bad = cluster.run(roll_back)
    print(f"  restored: "
          f"{'both tenants bit-exact' if not bad else f'MISMATCH: {bad}'}")


if __name__ == "__main__":
    main()
