"""Control-plane messages between Portus Client and Portus Daemon.

Everything rides the TCP/IPoIB socket; data never does.  Each constructor
returns ``(message_dict, wire_size_bytes)`` so the sender charges a
realistic wire size — the registration packet grows with the tensor
count (it carries per-layer metadata and rkeys, §III-B), while the
operational messages are tiny ("the word DO_CHECKPOINT", §III-C).

The ops, each answered by its reply op (or ERROR):

* REGISTER → REGISTERED: attach a model (create or re-attach its index);
* DO_CHECKPOINT → CHECKPOINT_DONE: pull one version; a group member's
  reply also names its group's committed step, which the checkpoint
  that completes a step commits;
* DO_RESTORE → RESTORE_DONE: push the newest version, one at a pinned
  step, or (naming the group) the group's committed step;
* UNREGISTER → UNREGISTERED, LIST → LIST_REPLY,
  HEARTBEAT → HEARTBEAT_ACK;
* GROUP_REGISTER → GROUP_REGISTERED: bind registered models into a group;
* GROUP_QUERY → GROUP_INFO: a group's committed step and layout.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

OP_REGISTER = "REGISTER"
OP_REGISTERED = "REGISTERED"
OP_DO_CHECKPOINT = "DO_CHECKPOINT"
OP_CHECKPOINT_DONE = "CHECKPOINT_DONE"
OP_DO_RESTORE = "DO_RESTORE"
OP_RESTORE_DONE = "RESTORE_DONE"
OP_UNREGISTER = "UNREGISTER"
OP_UNREGISTERED = "UNREGISTERED"
OP_LIST = "LIST"
OP_LIST_REPLY = "LIST_REPLY"
OP_HEARTBEAT = "HEARTBEAT"
OP_HEARTBEAT_ACK = "HEARTBEAT_ACK"
OP_GROUP_REGISTER = "GROUP_REGISTER"
OP_GROUP_REGISTERED = "GROUP_REGISTERED"
OP_GROUP_QUERY = "GROUP_QUERY"
OP_GROUP_INFO = "GROUP_INFO"
OP_ERROR = "ERROR"

_BASE_SIZE = 96
_PER_TENSOR_SIZE = 128  # name, dtype, shape, size, rkey, addr
_PER_QP_SIZE = 16  # QP number + starting PSN per extra stripe lane

#: Message key carrying the observability trace id end-to-end.  Real
#: deployments tuck the id into reserved header bytes (W3C traceparent
#: rides existing padding), so stamping it does NOT change any wire
#: size — which is also what keeps tracing zero-cost in simulated time.
TRACE_KEY = "trace"


def stamp_trace(message: Dict[str, Any], trace_id) -> Dict[str, Any]:
    """Attach *trace_id* to an outgoing message (no-op when None)."""
    if trace_id is not None:
        message[TRACE_KEY] = trace_id
    return message


def trace_of(message: Dict[str, Any]):
    """The trace id a message carries, or None."""
    return message.get(TRACE_KEY)


#: Wire bytes one chunk digest adds to a dedup checkpoint request.
_PER_CHUNK_SIZE = 24


def register(model_name: str, tensors: List[Dict[str, Any]],
             server_qp, dedup: Dict[str, Any] = None,
             tenant: str = None) -> Tuple[Dict[str, Any], int]:
    """The model description packet: one entry per tensor, plus the QP(s)
    the daemon will pull through (standing in for the out-of-band QP
    number exchange of the real system).  *server_qp* may be a single QP
    or a list — the stripe set the client negotiated (``num_qps``); the
    daemon stripes each transfer across all of them.  *dedup* (e.g.
    ``{"chunk_bytes": N}``) opts the model into the deduplicated layout:
    checkpoints then carry chunk manifests and the daemon stores the
    bytes in the pool-wide refcounted chunk store.  *tenant* names the
    owning tenant for fleet quota/bandwidth accounting (None = legacy
    unaccounted session).
    """
    qps = list(server_qp) if isinstance(server_qp, (list, tuple)) \
        else [server_qp]
    message = {"op": OP_REGISTER, "model": model_name, "tensors": tensors,
               "qps": qps}
    size = (_BASE_SIZE + _PER_TENSOR_SIZE * len(tensors)
            + _PER_QP_SIZE * (len(qps) - 1))
    if dedup is not None:
        message["dedup"] = dict(dedup)
        size += 16
    if tenant is not None:
        message["tenant"] = tenant
        size += 24
    return message, size


def do_checkpoint(model_name: str, step: int,
                  manifest: List[bytes] = None
                  ) -> Tuple[Dict[str, Any], int]:
    """*manifest* (dedup models) carries the content digest of every
    chunk of the would-be region; the daemon pulls only the chunks
    absent from its store and bumps refcounts for the rest."""
    message = {"op": OP_DO_CHECKPOINT, "model": model_name, "step": step}
    size = 64
    if manifest is not None:
        message["manifest"] = list(manifest)
        size += _PER_CHUNK_SIZE * len(manifest)
    return message, size


def do_restore(model_name: str, step: int = None,
               group: str = None) -> Tuple[Dict[str, Any], int]:
    """*step* pins the restore to an exact committed step; *group* pins
    it to that group's committed step, read on the daemon (every member
    of a group restore then returns the same step); neither keeps the
    newest-DONE behaviour."""
    message = {"op": OP_DO_RESTORE, "model": model_name}
    if step is not None:
        message["step"] = step
    if group is not None:
        message["group"] = group
    return message, 64


def group_register(group_name: str, layout_blob: bytes
                   ) -> Tuple[Dict[str, Any], int]:
    """Bind the already-registered member models into one named group.

    *layout_blob* is the packed :class:`~repro.dnn.layout.ShardedLayout`
    (degrees, member list, per-tensor partition specs) the daemon
    persists in the group-commit record — the wire size scales with it,
    like REGISTER scales with the tensor count."""
    message = {"op": OP_GROUP_REGISTER, "group": group_name,
               "layout": layout_blob}
    return message, 64 + len(layout_blob)


def group_query(group_name: str) -> Tuple[Dict[str, Any], int]:
    """The group's committed step and persisted layout."""
    return {"op": OP_GROUP_QUERY, "group": group_name}, 64


def unregister(model_name: str) -> Tuple[Dict[str, Any], int]:
    return {"op": OP_UNREGISTER, "model": model_name}, 64


def list_models() -> Tuple[Dict[str, Any], int]:
    return {"op": OP_LIST}, 64


def heartbeat(model_name: str) -> Tuple[Dict[str, Any], int]:
    """Lease renewal for an attached session (any request renews the
    lease too; explicit heartbeats cover long idle stretches)."""
    return {"op": OP_HEARTBEAT, "model": model_name}, 64


#: Wire bytes the health block adds to a heartbeat reply: pool
#: utilization, inflight/lease counts, and the fault counters — the
#: operator's raw detect signal (a handful of packed u64s).
_HEALTH_SIZE = 160


def heartbeat_ack(model_name: str, attached: bool,
                  health: Dict[str, Any] = None) -> Tuple[Dict[str, Any], int]:
    """Heartbeat reply, optionally carrying the daemon health block."""
    message = {"op": OP_HEARTBEAT_ACK, "model": model_name,
               "attached": attached}
    size = 64
    if health is not None:
        message["health"] = health
        size += _HEALTH_SIZE
    return message, size


def reply(op: str, **fields: Any) -> Tuple[Dict[str, Any], int]:
    message = {"op": op}
    message.update(fields)
    return message, 64


def error_reply(exc: BaseException) -> Tuple[Dict[str, Any], int]:
    return {"op": OP_ERROR, "error": exc}, 128
