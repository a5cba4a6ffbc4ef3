"""Gate and flip-flop primitives for the netlist substrate.

The gate library matches what a simple standard-cell mapping produces:
basic boolean gates, a 2:1 mux, and a D flip-flop.  Scan insertion
(:mod:`repro.scan`) replaces flops with their muxed-scan equivalent; at the
netlist level that is recorded as a flag on the :class:`Flop` rather than as
extra gates, with the area/cycle cost accounted for by the scan substrate.
Gates and flops are both immutable: an edit replaces the netlist's list
entry, so copies of a netlist share them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple


class GateType(enum.Enum):
    """Combinational gate kinds supported by the simulators and ATPG."""

    AND = "and"
    OR = "or"
    NOT = "not"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    BUF = "buf"
    # MUX2 inputs are ordered (d0, d1, select).
    MUX2 = "mux2"
    # Constant drivers take no inputs.
    CONST0 = "const0"
    CONST1 = "const1"


# Number of inputs each gate type accepts; None means "two or more".
_ARITY = {
    GateType.AND: None,
    GateType.OR: None,
    GateType.NAND: None,
    GateType.NOR: None,
    GateType.XOR: None,
    GateType.XNOR: None,
    GateType.NOT: 1,
    GateType.BUF: 1,
    GateType.MUX2: 3,
    GateType.CONST0: 0,
    GateType.CONST1: 0,
}


def block_of(component: str) -> str:
    """The map-out block of an ICI component label: its outermost ``/``
    segment (the outermost :meth:`NetBuilder.component` context); ``""``
    for unlabeled logic."""
    return component.split("/", 1)[0]


def check_arity(gtype: GateType, n_inputs: int) -> bool:
    """Return True when ``n_inputs`` is legal for ``gtype``."""
    want = _ARITY[gtype]
    if want is None:
        return n_inputs >= 2
    return n_inputs == want


@dataclass(frozen=True)
class Gate:
    """A combinational gate.

    Attributes:
        gid: index of the gate within its netlist.
        gtype: the gate kind.
        inputs: driving net ids, in pin order.
        output: the driven net id.
        component: ICI component label (empty string when unlabeled).
    """

    gid: int
    gtype: GateType
    inputs: Tuple[int, ...]
    output: int
    component: str = ""

    def __post_init__(self) -> None:
        if not check_arity(self.gtype, len(self.inputs)):
            raise ValueError(
                f"gate {self.gid}: {self.gtype.value} cannot take "
                f"{len(self.inputs)} inputs"
            )


@dataclass(frozen=True)
class Flop:
    """A D flip-flop (or its scan-equivalent once ``scan`` is set).

    The flop's Q output net is a state source for combinational evaluation;
    its D input net is a state sink captured on the clock edge.  ``component``
    carries the ICI label of the logic that *writes* this flop — the paper's
    isolation procedure maps a failing scan bit back through exactly this
    label (Section 6.1).
    """

    fid: int
    d_net: int
    q_net: int
    name: str = ""
    component: str = ""
    scan: bool = field(default=False)
    # Position within the scan chain, assigned by scan insertion; -1 when
    # the flop is not on a chain.
    scan_index: int = -1
