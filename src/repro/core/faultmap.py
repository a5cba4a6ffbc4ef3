"""The fault-map register and the degraded configurations it encodes.

Section 4 of the paper: each core carries a one-fault-map register of
``2n + 4`` bits for an n-wide machine — one frontend bit and one backend
bit per way, plus two bits for the issue-queue halves and two for the
load/store-queue halves.  After test, the bits are blown into fuses; at
run time every stage masks out inputs from blocks the register marks
faulty and the routing stages steer instructions around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class DegradedConfig:
    """Operable resource counts derived from a fault map.

    ``ok`` means the core is operational at all: at least one frontend
    way, one backend way, one issue-queue half, and one LSQ half (paper
    Section 4, Figure 5).
    """

    frontend_ways: int
    backend_ways: int
    iq_halves: int
    lsq_halves: int
    width: int

    @property
    def ok(self) -> bool:
        """Core operational: at least one survivor in every dimension."""
        return (
            self.frontend_ways >= 1
            and self.backend_ways >= 1
            and self.iq_halves >= 1
            and self.lsq_halves >= 1
        )

    @property
    def is_full(self) -> bool:
        """No degradation at all."""
        return (
            self.frontend_ways == self.width
            and self.backend_ways == self.width
            and self.iq_halves == 2
            and self.lsq_halves == 2
        )

    def describe(self) -> str:
        """Human-readable resource summary."""
        if not self.ok:
            return "dead"
        return (
            f"fe={self.frontend_ways}/{self.width} "
            f"be={self.backend_ways}/{self.width} "
            f"iq={self.iq_halves}/2 lsq={self.lsq_halves}/2"
        )


class FaultMapRegister:
    """The 2n+4-bit fault map of one core (1 = block faulty)."""

    def __init__(self, width: int = 4) -> None:
        if width < 1:
            raise ValueError("machine width must be >= 1")
        self.width = width
        self.frontend = [False] * width
        self.backend = [False] * width
        self.iq = [False, False]  # old half, new half
        self.lsq = [False, False]

    # ------------------------------------------------------------------
    @property
    def n_bits(self) -> int:
        """The paper's 2n+4."""
        return 2 * self.width + 4

    def mark_faulty(self, block: str) -> None:
        """Mark a block faulty by name.

        Names: ``frontend<i>``, ``backend<i>``, ``iq_old``, ``iq_new``,
        ``lsq0``, ``lsq1``.
        """
        if block.startswith("frontend"):
            self.frontend[self._way(block, "frontend")] = True
        elif block.startswith("backend"):
            self.backend[self._way(block, "backend")] = True
        elif block == "iq_old":
            self.iq[0] = True
        elif block == "iq_new":
            self.iq[1] = True
        elif block in ("lsq0", "lsq1"):
            self.lsq[int(block[-1])] = True
        else:
            raise ValueError(f"unknown block {block!r}")

    def _way(self, block: str, prefix: str) -> int:
        way = int(block[len(prefix):])
        if not (0 <= way < self.width):
            raise ValueError(f"way out of range in {block!r}")
        return way

    # ------------------------------------------------------------------
    def to_bits(self) -> List[int]:
        """Fuse encoding: fe ways, be ways, iq halves, lsq halves."""
        bits = [int(b) for b in self.frontend]
        bits += [int(b) for b in self.backend]
        bits += [int(b) for b in self.iq]
        bits += [int(b) for b in self.lsq]
        assert len(bits) == self.n_bits
        return bits

    @classmethod
    def from_bits(cls, bits: Sequence[int], width: int = 4) -> "FaultMapRegister":
        reg = cls(width)
        if len(bits) != reg.n_bits:
            raise ValueError(
                f"need {reg.n_bits} bits for width {width}, got {len(bits)}"
            )
        reg.frontend = [bool(b) for b in bits[:width]]
        reg.backend = [bool(b) for b in bits[width: 2 * width]]
        reg.iq = [bool(b) for b in bits[2 * width: 2 * width + 2]]
        reg.lsq = [bool(b) for b in bits[2 * width + 2:]]
        return reg

    # ------------------------------------------------------------------
    def degraded_config(self) -> DegradedConfig:
        """Resource counts the pipeline runs with (Section 4.1.3)."""
        return DegradedConfig(
            frontend_ways=self.frontend.count(False),
            backend_ways=self.backend.count(False),
            iq_halves=self.iq.count(False),
            lsq_halves=self.lsq.count(False),
            width=self.width,
        )

    def working_frontend_ways(self) -> List[int]:
        """Indices the fetch routing stage may steer instructions to
        (Section 4.2: earliest instruction to the first fault-free way)."""
        return [i for i, bad in enumerate(self.frontend) if not bad]

    def route_frontend(self, n_fetched: int) -> List[Tuple[int, int]]:
        """Map fetched instruction slots to fault-free frontend ways.

        Returns (instruction index, way) pairs in program order; callers
        stall fetch and call again for instructions beyond the working
        width (the paper's function (2) of the routing stage).
        """
        ways = self.working_frontend_ways()
        return [(i, ways[i]) for i in range(min(n_fetched, len(ways)))]
