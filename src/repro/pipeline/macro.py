"""Generic macro pipelines on the simulated SCC — the reusable API.

The paper closes by arguing its findings "should easily translate to
other problem domains where parallel macro pipelines are used".  This
module is that generalization: build a pipeline of *arbitrary* stages
(any per-item service time, any Python transform), place it on SCC
cores, and run a stream of work items through it with the same
no-local-memory hand-off semantics as the silent-film pipeline.

Example
-------
>>> from repro.pipeline.macro import MacroPipeline
>>> pipe = (MacroPipeline()
...         .add_stage("parse", service_s=0.010)
...         .add_stage("compress",
...                    service_s=lambda item: 0.001 * item.nbytes / 1000)
...         .add_stage("emit", service_s=0.002))
>>> result = pipe.run(items=[100_000] * 50)
>>> result.items_completed
50
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..rcce import RCCEComm
from ..scc import SCCChip
from ..sim import Store
from .metrics import RunMetrics

__all__ = ["WorkItem", "MacroStageSpec", "MacroRunResult", "MacroPipeline"]

ServiceTime = Union[float, Callable[["WorkItem"], float]]


@dataclass
class WorkItem:
    """One unit of work flowing through a macro pipeline."""

    index: int
    nbytes: int
    payload: Any = None


@dataclass(frozen=True)
class MacroStageSpec:
    """Specification of one stage."""

    name: str
    service_s: ServiceTime
    #: optional functional transform applied to the payload
    func: Optional[Callable[[Any], Any]] = None
    #: optional explicit core; auto-placed when None
    core_id: Optional[int] = None

    def service_for(self, item: WorkItem) -> float:
        t = (self.service_s(item) if callable(self.service_s)
             else float(self.service_s))
        if t < 0:
            raise ValueError(f"stage {self.name!r}: negative service time")
        return t


@dataclass
class MacroRunResult:
    """Outcome of a macro-pipeline run."""

    items_completed: int
    makespan_s: float
    #: steady-state throughput (items/second over the whole run)
    throughput: float
    #: per-stage mean service time
    stage_busy_means: Dict[str, float]
    #: per-stage mean wait-for-input time
    stage_idle_means: Dict[str, float]
    #: payloads collected at the sink (when transforms are used)
    outputs: List[Any] = field(default_factory=list)
    #: joules the chip drew during the run
    energy_j: float = 0.0


class MacroPipeline:
    """Builder + runner for arbitrary macro pipelines on the SCC model.

    Parameters
    ----------
    chip:
        A simulated chip; a fresh default one is created when omitted.
    cores:
        Optional explicit core ids, one per stage (in ``add_stage``
        order); defaults to consecutive cores along the chip.
    """

    def __init__(self, chip: Optional[SCCChip] = None,
                 cores: Optional[Sequence[int]] = None) -> None:
        self.chip = chip or SCCChip()
        self.comm = RCCEComm(self.chip)
        self.stages: List[MacroStageSpec] = []
        self._explicit_cores = list(cores) if cores is not None else None

    def add_stage(self, name: str, service_s: ServiceTime,
                  func: Optional[Callable[[Any], Any]] = None,
                  core_id: Optional[int] = None) -> "MacroPipeline":
        """Append a stage; returns ``self`` for chaining."""
        if any(s.name == name for s in self.stages):
            raise ValueError(f"duplicate stage name {name!r}")
        self.stages.append(MacroStageSpec(name, service_s, func, core_id))
        return self

    # -- placement ------------------------------------------------------------
    def _assign_cores(self) -> List[int]:
        if self._explicit_cores is not None:
            cores = list(self._explicit_cores)
            if len(cores) != len(self.stages):
                raise ValueError("cores must match the number of stages")
        else:
            free = iter(range(self.chip.num_cores))
            used = {s.core_id for s in self.stages if s.core_id is not None}
            cores = []
            for spec in self.stages:
                if spec.core_id is not None:
                    cores.append(spec.core_id)
                else:
                    c = next(free)
                    while c in used:
                        c = next(free)
                    used.add(c)
                    cores.append(c)
        if len(set(cores)) != len(cores):
            raise ValueError("stages must run on distinct cores")
        for c in cores:
            self.chip.topology.core(c)
        return cores

    # -- processes ------------------------------------------------------------
    def _source_proc(self, items: List[WorkItem],
                     first_core: int, source_core: int
                     ) -> Generator[Any, Any, None]:
        for item in items:
            yield from self.comm.send(source_core, first_core, item.nbytes,
                                      tag=item.index, payload=item)

    def _stage_proc(self, spec: MacroStageSpec, core: int, prev: int,
                    nxt: Optional[int], sink: Store,
                    metrics: RunMetrics, n_items: int
                    ) -> Generator[Any, Any, None]:
        for _ in range(n_items):
            msg = yield from self.comm.recv(
                core, prev,
                idle_cb=lambda d: metrics.record_idle(spec.name, d))
            start = self.chip.sim.now
            item: WorkItem = msg.payload
            yield self.chip.sim.timeout(
                self.chip.compute_time(core, spec.service_for(item)))
            if spec.func is not None:
                item = WorkItem(item.index, item.nbytes,
                                spec.func(item.payload))
            if nxt is not None:
                yield from self.comm.send(core, nxt, item.nbytes,
                                          tag=item.index, payload=item)
            else:
                yield sink.put(item)
            metrics.record_busy(spec.name, self.chip.sim.now - start)

    # -- run ------------------------------------------------------------
    def run(self, items: Sequence[Union[int, Tuple[int, Any]]]
            ) -> MacroRunResult:
        """Push ``items`` through the pipeline.

        Each item is a byte count or a ``(nbytes, payload)`` tuple.
        """
        if not self.stages:
            raise ValueError("add at least one stage before running")
        if not items:
            raise ValueError("nothing to process")
        work: List[WorkItem] = []
        for i, item in enumerate(items):
            if isinstance(item, tuple):
                nbytes, payload = item
            else:
                nbytes, payload = item, None
            if nbytes < 0:
                raise ValueError("item sizes must be >= 0")
            work.append(WorkItem(i, int(nbytes), payload))

        cores = self._assign_cores()
        # The source occupies its own core in front of the first stage.
        source_core = next(c for c in range(self.chip.num_cores)
                           if c not in set(cores))
        sim = self.chip.sim
        metrics = RunMetrics()
        sink: Store = Store(sim, name="macro-sink")

        t0 = sim.now
        self.chip.power.set_cores_active([source_core, *cores], True)
        procs = [sim.process(self._source_proc(work, cores[0], source_core),
                             name="source")]
        for i, spec in enumerate(self.stages):
            prev = source_core if i == 0 else cores[i - 1]
            nxt = cores[i + 1] if i + 1 < len(cores) else None
            procs.append(sim.process(
                self._stage_proc(spec, cores[i], prev, nxt, sink, metrics,
                                 len(work)),
                name=spec.name))
        sim.run(until=sim.all_of(procs))
        end = sim.now
        self.chip.power.set_cores_active([source_core, *cores], False)

        outputs = [item.payload for item in sink.items
                   if item.payload is not None]
        makespan = end - t0
        return MacroRunResult(
            items_completed=len(sink.items),
            makespan_s=makespan,
            throughput=len(sink.items) / makespan if makespan > 0 else 0.0,
            stage_busy_means=metrics.busy_means(),
            stage_idle_means={k: a.mean for k, a in metrics.idle.items()},
            outputs=outputs,
            energy_j=self.chip.power.energy(t0, end),
        )
