"""The paper's primary contribution: intra-cycle logic independence (ICI).

- :mod:`repro.core.component` — logic-component graphs with intra-cycle
  (combinational) vs inter-cycle (latched) edges,
- :mod:`repro.core.checker` — the ICI rule, super-component computation,
  and granularity checking (Section 3),
- :mod:`repro.core.transforms` — cycle splitting, logic privatization, and
  dependence rotation (Section 3.2),
- :mod:`repro.core.faultmap` — the 2n+4-bit fault-map register and the
  degraded configurations it encodes (Section 4),
- :mod:`repro.core.isolation` — scan-bit → component isolation (Section 3.1
  and the Section 6.1 experiment),
- :mod:`repro.core.rescue` — the component-level model of the full Rescue
  pipeline, produced by applying the paper's per-stage transformations to a
  baseline superscalar (Section 4).
"""

from repro.core.component import ComponentGraph, EdgeKind, LogicComponent
from repro.core.checker import (
    IciReport,
    check_granularity,
    ici_violations,
    super_components,
)
from repro.core.faultmap import DegradedConfig, FaultMapRegister
from repro.core.isolation import IsolationResult, IsolationTable
from repro.core.netcheck import NetIciReport, check_netlist_ici
from repro.core.rescue import (
    build_baseline_graph,
    build_rescue_graph,
    rescue_map_out_groups,
)
from repro.core.transforms import (
    TransformRecord,
    cycle_split,
    dependence_rotation,
    privatize,
)

__all__ = [
    "ComponentGraph",
    "DegradedConfig",
    "EdgeKind",
    "FaultMapRegister",
    "IciReport",
    "IsolationResult",
    "IsolationTable",
    "LogicComponent",
    "NetIciReport",
    "check_netlist_ici",
    "TransformRecord",
    "build_baseline_graph",
    "build_rescue_graph",
    "check_granularity",
    "cycle_split",
    "dependence_rotation",
    "ici_violations",
    "privatize",
    "rescue_map_out_groups",
    "super_components",
]
