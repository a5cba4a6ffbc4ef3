"""Gate-level netlist substrate.

This package stands in for the commercial RTL/synthesis tooling the paper
used (Synopsys Design Compiler over a Verilog model).  It provides:

- :mod:`repro.netlist.gates` — gate and flip-flop primitives,
- :mod:`repro.netlist.netlist` — the :class:`Netlist` container with
  its topological order, driver map, and fan-in cone query,
- :mod:`repro.netlist.delta` — what a patched copy changed, checked once,
- :mod:`repro.netlist.compiled` — the flat per-gate netlist form and the
  bit-parallel simulator (every net's patterns packed into one Python
  int) with stuck-at fault overrides, the one gate-level engine the
  ATPG, diagnosis, scan and repair layers run on,
- :mod:`repro.netlist.build` — word-level construction helpers used by the
  gate-level pipeline models in :mod:`repro.rtl`.
"""

from repro.netlist.gates import Flop, Gate, GateType
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.compiled import CompiledNetlist, PackedWordSimulator
from repro.netlist.build import NetBuilder

__all__ = [
    "CompiledNetlist",
    "Flop",
    "Gate",
    "GateType",
    "NetBuilder",
    "Netlist",
    "NetlistError",
    "PackedWordSimulator",
]
