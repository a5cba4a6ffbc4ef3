"""Scan-bit → ICI-component fault isolation (Sections 3.1 and 6.1).

Under ICI, the only diagnosis machinery needed is a design-time table
mapping each scan-chain bit position to the component that writes it.  A
failing bit then identifies the faulty component by a single lookup —
*which* bit failed is the whole signal, with no back-tracing through logic.

:class:`IsolationTable` implements that lookup; it also resolves component
labels to map-out blocks (the granularity the fault-map register disables)
via a caller-supplied mapping, since several fine-grained components share
one map-out block (e.g. a queue half plus its selection logic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.netlist.gates import block_of
from repro.scan.chain import ScanChain


@dataclass
class IsolationResult:
    """Outcome of isolating one failing response."""

    components: Set[str]
    blocks: Set[str]
    failing_bits: List[int]
    failing_pos: List[int] = field(default_factory=list)

    @property
    def isolated(self) -> bool:
        """True when the failure pins to exactly one map-out block."""
        return len(self.blocks) == 1

    @property
    def block(self) -> str:
        """The single implicated map-out block (raises when ambiguous)."""
        if not self.isolated:
            raise ValueError(
                f"failure spans {len(self.blocks)} blocks: "
                f"{sorted(self.blocks)}"
            )
        return next(iter(self.blocks))


class IsolationTable:
    """The design-time bit→component / component→block lookup tables."""

    def __init__(
        self,
        chain: ScanChain,
        block_of_component: Optional[Callable[[str], str]] = None,
        po_components: Optional[Sequence[str]] = None,
    ) -> None:
        """Build the tables.

        Args:
            chain: the scan chain whose flops carry component labels.
            block_of_component: maps a fine component label to its map-out
                block; defaults to the label's first ``/`` segment (the
                outermost :meth:`NetBuilder.component` context).
            po_components: component owning each primary output, in PO
                order, for failures observed at pins rather than scan bits.
        """
        self.chain = chain
        self._block_of = block_of_component or block_of
        self.bit_component: List[str] = chain.component_table()
        self.po_components: List[str] = list(po_components or [])

    def isolate(
        self,
        failing_bits: Sequence[int],
        failing_pos: Sequence[int] = (),
    ) -> IsolationResult:
        """Attribute a failing response to components and map-out blocks.

        Args:
            failing_bits: scan-bit positions whose captured value
                mismatched the gold response (any vector).
            failing_pos: failing primary-output indices, when POs are
                labeled.

        Returns:
            An :class:`IsolationResult`; ``isolated`` is True when every
            failing observation points at the same map-out block — the
            paper's condition for safely disabling only that block.
        """
        components: Set[str] = {
            self.bit_component[b] for b in failing_bits
        }
        for p in failing_pos:
            if p < len(self.po_components):
                components.add(self.po_components[p])
        blocks = {self._block_of(c) for c in components if c}
        return IsolationResult(
            components=components,
            blocks=blocks,
            failing_bits=list(failing_bits),
            failing_pos=list(failing_pos),
        )

    def blocks(self) -> Set[str]:
        """All map-out blocks reachable from the chain."""
        return {
            self._block_of(c) for c in self.bit_component if c
        }
