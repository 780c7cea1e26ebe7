"""The channel protocol of a pipeline arrangement, statically.

This is the pipeline-side hook for the static deadlock checker
(:mod:`repro.analysis.concurrency.protocol`): a projection of the stage
graph (:mod:`repro.pipeline.stages`) onto its blocking operations — which
stage sends to which core, in what per-frame order — without building a
simulator, chip model or workload.  The result is a
:class:`ProtocolModel` whose abstract execution is exact for rendezvous
semantics, so ``repro lint`` can prove the paper's three arrangements
deadlock-free on every run, and ``repro analyze --concurrency`` can
render the channel wait-for graph for the exact configuration analysed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.concurrency.protocol import Op, Process, ProtocolModel
from .arrangements import Placement
from .stages import QUEUE_CAPACITY, Stage, placement_for, stage_graph

__all__ = ["extract_protocol", "channel_edges"]


def extract_protocol(config: str, pipelines: int,
                     arrangement: str = "ordered",
                     placement: Optional[Placement] = None,
                     frames: int = 2) -> ProtocolModel:
    """The channel-protocol IR for one runner configuration.

    ``frames`` bounds the abstract execution; rendezvous channels are
    unbuffered, so any wiring deadlock manifests within the first
    couple of frames — 2 is enough, and keeps ``repro lint`` fast.
    """
    if placement is None:
        placement = placement_for(config, pipelines, arrangement)
    graph = stage_graph(config, placement)
    processes = tuple(Process(name=stage.track, ops=_blocking_ops(stage),
                              iterations=frames)
                      for stage in graph.stages)
    queues = {op.queue: QUEUE_CAPACITY[op.queue]
              for proc in processes for op in proc.ops if op.queue}
    return ProtocolModel(name=f"{config}/{arrangement} x{pipelines}",
                         processes=processes, queues=queues)


def _blocking_ops(stage: Stage) -> Tuple[Op, ...]:
    """The stage's program as send/recv/put/get IR ops."""
    core = -1 if stage.core is None else stage.core
    ops: List[Op] = []
    for op in stage.program:
        if op.kind == "send":
            ops.append(Op("send", src=core, dst=op.peer))
        elif op.kind == "recv":
            ops.append(Op("recv", src=op.peer, dst=core))
        elif op.kind in ("put", "get"):
            ops.append(Op(op.kind, queue=op.queue))
    return tuple(ops)


def channel_edges(model: ProtocolModel) -> List[Tuple[str, str, str]]:
    """``(sender_process, receiver_process, channel)`` display edges.

    The wait-for summary ``repro analyze --concurrency`` renders: every
    rendezvous channel as a sender->receiver edge, plus queue edges.
    """
    chans: Dict[Tuple[int, int], List[str]] = {}
    queues: Dict[str, List[str]] = {}
    for proc in model.processes:
        for op in proc.ops:
            ends = (queues.setdefault(op.queue, ["?", "?"]) if op.queue
                    else chans.setdefault(op.channel, ["?", "?"]))
            side = 0 if op.kind in ("send", "put") else 1
            if ends[side] == "?":
                ends[side] = proc.name
    return ([(s, r, f"{c[0]}->{c[1]}") for c, (s, r) in sorted(chans.items())]
            + [(p, g, f"queue:{q}") for q, (p, g) in sorted(queues.items())])
