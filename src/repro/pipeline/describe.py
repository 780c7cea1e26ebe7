"""Structured descriptions of the paper's configurations.

``describe(config, pipelines, arrangement)`` projects the stage graph a
run builds (:func:`repro.pipeline.stages.stage_graph`) onto its nodes
and feeds — which stages exist, on which cores, who feeds whom — without
running anything.  The CLI's ``describe`` subcommand and the docs use
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .stages import placement_for, stage_graph

__all__ = ["StageNode", "ConfigDescription", "describe"]

#: human-readable one-liners for each configuration (paper §V)
_SUMMARIES = {
    "single_core": "the 382 s baseline: every stage time-shared on one "
                   "SCC core",
    "one_renderer": "one SCC render core draws full frames and feeds all "
                    "pipelines with strips (render-bound beyond ~3 "
                    "pipelines)",
    "n_renderers": "sort-first: a render core per pipeline draws only its "
                   "strip (scales to the 7-pipeline maximum)",
    "mcpc_renderer": "heterogeneous: the MCPC's Xeon renders and streams "
                     "frames over UDP into a connect stage (the paper's "
                     "fastest SCC setup)",
}


@dataclass(frozen=True)
class StageNode:
    """One stage instance in the graph."""

    key: str
    core: Optional[int]           # None = runs on the MCPC
    feeds: Tuple[str, ...] = ()


@dataclass
class ConfigDescription:
    """The full stage graph of a configuration."""

    config: str
    arrangement: str
    pipelines: int
    summary: str
    stages: List[StageNode] = field(default_factory=list)

    @property
    def scc_cores_used(self) -> int:
        return sum(1 for s in self.stages if s.core is not None)

    def stage(self, key: str) -> StageNode:
        for s in self.stages:
            if s.key == key:
                return s
        raise KeyError(key)

    def to_text(self) -> str:
        lines = [f"{self.config} ({self.arrangement}), "
                 f"{self.pipelines} pipeline(s): {self.summary}",
                 f"SCC cores used: {self.scc_cores_used}"]
        for s in self.stages:
            where = "MCPC" if s.core is None else f"core {s.core:2d}"
            feeds = " -> " + ", ".join(s.feeds) if s.feeds else ""
            lines.append(f"  {s.key:12s} [{where}]{feeds}")
        return "\n".join(lines)


def describe(config: str, pipelines: int = 1,
             arrangement: str = "ordered") -> ConfigDescription:
    """The stage graph of a configuration, without simulating."""
    graph = stage_graph(config, placement_for(config, pipelines, arrangement))
    single = config == "single_core"
    desc = ConfigDescription(config, arrangement, 0 if single else pipelines,
                             _SUMMARIES[config])
    desc.stages.extend(StageNode(s.track, s.core, graph.feeds(s))
                       for s in graph.stages)
    return desc
