"""Message transport of the multiprocess backend.

Pregelix models message exchange as a physical dataflow operator that can
be swapped without touching program semantics; this module is that seam.
The :class:`RingTransport` is the master-side handle (created before the
fork, so the workers inherit the shared memory it owns): per-pair
shared-memory SPSC byte rings (:mod:`repro.parallel.rings`) carrying
struct-packed frames. Each worker builds its :class:`RingEndpoint` after
forking and calls :meth:`RingEndpoint.exchange` once per superstep to
ship its per-peer outboxes and collect one batch from every peer.

**Wire format.** A batch of tagged messages ``(pos, seq, target,
payload)`` is one *frame*: a fixed header ``(kind, flags, src,
superstep, epoch, count)`` followed by the body. When every target is an
``int`` and every payload is a plain ``float`` (or every payload a plain
``int``), the body is three packed 64-bit columns — positions, targets,
payloads — which covers PageRank, SSSP and WCC without touching pickle.
Anything else falls back to a pickled list. ``seq`` never crosses the
wire: within a batch messages are already in send order, a worker sends
one batch per peer per superstep, and sender positions are disjoint
across workers, so the receiver regenerates ``seq = 0..count-1`` and the
global ``(pos, seq)`` merge order is unchanged. On the ring the frame is
length-prefixed; superstep and epoch in the header let receivers detect
protocol skew instead of silently merging a stale batch.
"""

from __future__ import annotations

import pickle
import struct
import time
from array import array
from typing import Any, Dict, List, Optional

from repro.errors import EngineError
from repro.parallel.rings import RingBoard

KIND_EMPTY = 0    # no messages this superstep
KIND_PICKLE = 1   # body = pickled [(pos, target, payload), ...]
KIND_F8 = 2       # body = i64 pos column + i64 target column + f64 payloads
KIND_I8 = 3       # body = i64 pos column + i64 target column + i64 payloads

FRAME_HEADER = struct.Struct("<BBHIII")  # kind, flags, src, superstep, epoch, count
_LEN = struct.Struct("<I")
_I64 = 8

#: Initial/terminal sleep of the ring pump's backoff when no byte moved.
_SPIN_MIN = 0.000001
_SPIN_MAX = 0.0005


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
def _lane_of(batch: List[Any]) -> int:
    """Pick the frame kind for a batch (struct lanes need uniform types).

    ``bool`` is an ``int`` subclass but round-trips as ``int`` through an
    i64 column, so the checks are exact-type, not ``isinstance``.
    """
    int_lane = True
    float_lane = True
    for pos, _seq, target, payload in batch:
        if type(target) is not int or type(pos) is not int:
            return KIND_PICKLE
        kind = type(payload)
        if kind is float:
            int_lane = False
        elif kind is int:
            float_lane = False
        else:
            return KIND_PICKLE
        if not (int_lane or float_lane):
            return KIND_PICKLE
    return KIND_F8 if float_lane else KIND_I8


def encode_batch(
    src: int, superstep: int, epoch: int, batch: List[Any]
) -> bytes:
    """One outbox -> one wire frame."""
    count = len(batch)
    if not count:
        return FRAME_HEADER.pack(KIND_EMPTY, 0, src, superstep, epoch, 0)
    kind = _lane_of(batch)
    if kind != KIND_PICKLE:
        code = "d" if kind == KIND_F8 else "q"
        try:
            body = (
                array("q", [m[0] for m in batch]).tobytes()
                + array("q", [m[2] for m in batch]).tobytes()
                + array(code, [m[3] for m in batch]).tobytes()
            )
        except OverflowError:  # an int outside i64 — rare, not worth a scan
            kind = KIND_PICKLE
    if kind == KIND_PICKLE:
        body = pickle.dumps(
            [(m[0], m[2], m[3]) for m in batch],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    return FRAME_HEADER.pack(kind, 0, src, superstep, epoch, count) + body


def decode_frame(frame: memoryview) -> Any:
    """One wire frame -> ``(src, superstep, epoch, batch)`` with ``seq``
    regenerated as the within-batch index."""
    kind, _flags, src, superstep, epoch, count = FRAME_HEADER.unpack_from(
        frame
    )
    body = frame[FRAME_HEADER.size:]
    if kind == KIND_EMPTY:
        batch: List[Any] = []
    elif kind == KIND_PICKLE:
        batch = [
            (pos, seq, target, payload)
            for seq, (pos, target, payload) in enumerate(pickle.loads(body))
        ]
    elif kind in (KIND_F8, KIND_I8):
        pos = array("q")
        pos.frombytes(body[:count * _I64])
        targets = array("q")
        targets.frombytes(body[count * _I64:2 * count * _I64])
        payloads = array("d" if kind == KIND_F8 else "q")
        payloads.frombytes(body[2 * count * _I64:3 * count * _I64])
        batch = list(zip(pos, range(count), targets, payloads))
    else:
        raise EngineError(f"unknown frame kind {kind}")
    return src, superstep, epoch, batch


# ----------------------------------------------------------------------
# endpoints (worker side)
# ----------------------------------------------------------------------
class RingEndpoint:
    """Worker-side pump over the shared-memory ring board.

    ``exchange`` interleaves partial writes and reads in one non-blocking
    loop, so it can never deadlock on ring capacity: even when every
    outgoing frame is larger than its ring, everyone drains incoming
    bytes while their own frames trickle out. The barrier protocol
    guarantees rings are empty between supersteps, so exactly one frame
    per peer is expected per call.
    """

    def __init__(
        self, board: RingBoard, worker_id: int, wait_seconds: float
    ) -> None:
        self.worker_id = worker_id
        self._board = board
        self._wait = wait_seconds
        self._peers = [
            w for w in range(board.num_workers) if w != worker_id
        ]
        self._out = {p: board.ring(worker_id, p) for p in self._peers}
        self._in = {p: board.ring(p, worker_id) for p in self._peers}

    def exchange(
        self, superstep: int, epoch: int, outboxes: List[List[Any]], report: Any
    ) -> List[List[Any]]:
        batches = [outboxes[self.worker_id]]
        sends = []
        for peer in self._peers:
            frame = encode_batch(
                self.worker_id, superstep, epoch, outboxes[peer]
            )
            data = _LEN.pack(len(frame)) + frame
            report.network_bytes += len(data)
            sends.append([self._out[peer], memoryview(data), 0])
        if not self._peers:
            return batches

        bufs: Dict[int, bytearray] = {p: bytearray() for p in self._peers}
        need: Dict[int, Optional[int]] = {p: None for p in self._peers}
        pending = set(self._peers)
        backoff = _SPIN_MIN
        deadline: Optional[float] = None
        waited = 0.0
        while sends or pending:
            progress = False
            still = []
            for item in sends:
                ring, data, offset = item
                if ring.poisoned:
                    raise EngineError(
                        f"worker {self.worker_id}: outgoing ring poisoned "
                        "(a peer failed or the master aborted)"
                    )
                wrote = ring.try_write(data, offset)
                if wrote:
                    progress = True
                    offset = item[2] = offset + wrote
                if offset < len(data):
                    still.append(item)
            sends = still
            for peer in tuple(pending):
                ring = self._in[peer]
                chunk = ring.try_read(1 << 16)
                if chunk:
                    progress = True
                    buf = bufs[peer]
                    while chunk:
                        buf += chunk
                        chunk = ring.try_read(1 << 16)
                    if need[peer] is None and len(buf) >= _LEN.size:
                        need[peer] = _LEN.unpack_from(buf)[0]
                    want = need[peer]
                    if want is not None and len(buf) >= _LEN.size + want:
                        if len(buf) != _LEN.size + want:
                            raise EngineError(
                                f"worker {self.worker_id}: trailing bytes "
                                f"after the frame from {peer}"
                            )
                        src, step, ep, batch = decode_frame(
                            memoryview(buf)[_LEN.size:]
                        )
                        if src != peer or step != superstep or ep != epoch:
                            raise EngineError(
                                f"worker {self.worker_id}: unexpected frame "
                                f"from {src} (superstep {step}, epoch {ep}; "
                                f"expected {peer}/{superstep}/{epoch})"
                            )
                        pending.discard(peer)
                        if batch:
                            batches.append(batch)
                elif ring.poisoned:
                    raise EngineError(
                        f"worker {self.worker_id}: ring from {peer} "
                        "poisoned (peer failed or the master aborted)"
                    )
            if progress:
                backoff = _SPIN_MIN
                deadline = None
            else:
                now = time.monotonic()
                if deadline is None:
                    deadline = now + self._wait
                elif now > deadline:
                    raise EngineError(
                        f"worker {self.worker_id}: no transport progress "
                        f"for {self._wait:.0f}s at superstep {superstep} "
                        f"(stuck peers: {sorted(pending)})"
                    )
                time.sleep(backoff)
                waited += backoff
                backoff = min(backoff * 2, _SPIN_MAX)
        report.wait_seconds += waited
        return batches

    def poison_outgoing(self) -> None:
        """Dying-worker path: unblock every peer pumping our rings."""
        self._board.poison_from(self.worker_id)

    def close(self) -> None:
        self._board.close()


# ----------------------------------------------------------------------
# transport (master side)
# ----------------------------------------------------------------------
class RingTransport:
    def __init__(self, config: Any) -> None:
        self.board = RingBoard(config.num_workers, config.ring_capacity)
        self._wait = config.transport_wait_seconds

    def endpoint(self, worker_id: int) -> RingEndpoint:
        return RingEndpoint(self.board, worker_id, self._wait)

    def poison(self) -> None:
        self.board.poison_all()

    def close(self) -> None:
        self.board.close()

    def unlink(self) -> None:
        self.board.unlink()
