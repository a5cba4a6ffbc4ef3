"""Machine parameters (paper Table 1) and configuration plumbing.

``CoreParams`` is the baseline 4-way machine of Table 1.  ``MachineConfig``
adds the Rescue/baseline mode switch, the Section 5 modifications (extra
mispredict penalty for the shift stages, the compaction buffer, the extra
issue-to-free cycle), and the fault map's surviving group counts
(:class:`~repro.yieldmodel.configs.CoreCounts`), from which it derives
the degraded resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cpu.isa import OpClass
from repro.yieldmodel.configs import CoreCounts


@dataclass(frozen=True)
class CoreParams:
    """Baseline superscalar parameters (Table 1)."""

    width: int = 4  # fetch / issue / commit width
    rob_size: int = 128
    iq_int_size: int = 36
    iq_fp_size: int = 36
    lsq_size: int = 32
    mem_ports: int = 2

    # Functional units: two integer groups (2 ALU + 1 mul + 1 mem port
    # each) and two FP groups (1 add + 1 mul each).
    int_alus: int = 4
    int_muls: int = 2
    fp_adds: int = 2
    fp_muls: int = 2

    # Branch prediction: 8KB hybrid, 1K-entry 4-way BTB, 15-cycle
    # misprediction penalty (frontend depth).
    mispredict_penalty: int = 15
    btb_entries: int = 1024
    btb_assoc: int = 4
    ras_entries: int = 16

    # Caches: 64KB 2-way 32B 2-cycle L1s; 2MB 8-way 64B 15-cycle L2;
    # 250-cycle memory.
    l1d_kb: int = 64
    l1d_assoc: int = 2
    l1d_block: int = 32
    l1d_latency: int = 2
    l2_kb: int = 2048
    l2_assoc: int = 8
    l2_block: int = 64
    l2_latency: int = 15
    mem_latency: int = 250

    # Execution latencies per op class.
    latencies: Dict[int, int] = field(
        default_factory=lambda: {
            int(OpClass.IALU): 1,
            int(OpClass.IMUL): 3,
            int(OpClass.FADD): 2,
            int(OpClass.FMUL): 4,
            int(OpClass.STORE): 1,
            int(OpClass.BRANCH): 1,
        }
    )


@dataclass(frozen=True)
class MachineConfig:
    """A runnable machine: baseline or Rescue, possibly degraded.

    Rescue modifications (Section 5):

    1. separate issue queues and active list — both models do this;
    2. +2 cycles of branch misprediction penalty for the two shift stages;
    3. inter-segment issue-queue compaction cycle-split through a
       ``compaction_buffer``-entry temporary latch per queue;
    4. +1 cycle between issue and entry release / miss squash for the
       shift stage between issue and register read;
    5. the per-half selection + replay policy.

    ``counts`` holds the fault map's surviving groups per redundant
    dimension (out of 2 each); only a Rescue machine can be degraded.
    """

    core: CoreParams = field(default_factory=CoreParams)
    rescue: bool = False
    compaction_buffer: int = 4
    # Replay policy when the halves' combined selection oversubscribes:
    # "paper" replays the whole half that selected fewer (Section 4.1.2);
    # "trim" is an idealized comparator that drops only the youngest
    # excess selections (used by the ablation benchmarks).
    replay_policy: str = "paper"

    counts: CoreCounts = CoreCounts()

    # Technology extrapolation (Section 5: +50% memory latency and +2
    # mispredict cycles per transistor-area halving).
    tech_generations: int = 0

    def __post_init__(self) -> None:
        if not self.rescue and not self.counts.is_full:
            raise ValueError(
                "degraded operation applies to the Rescue machine"
            )
        if self.compaction_buffer < 1:
            raise ValueError("compaction buffer needs at least one entry")
        if self.replay_policy not in ("paper", "trim"):
            raise ValueError("replay_policy must be 'paper' or 'trim'")

    # ---- effective resources under degradation -----------------------
    @property
    def fetch_width(self) -> int:
        """Instructions fetched per cycle (scaled by working frontend groups)."""
        return self.core.width * self.counts.frontend // 2

    @property
    def int_issue_limit(self) -> int:
        """Integer-side issue bandwidth under the surviving backend groups."""
        return self.core.width * self.counts.int_backend // 2

    @property
    def fp_issue_limit(self) -> int:
        """FP-side issue bandwidth under the surviving backend groups."""
        return self.core.width * self.counts.fp_backend // 2

    @property
    def int_alus(self) -> int:
        """Working integer ALUs."""
        return self.core.int_alus * self.counts.int_backend // 2

    @property
    def int_muls(self) -> int:
        """Working integer multiplier/dividers."""
        return self.core.int_muls * self.counts.int_backend // 2

    @property
    def fp_adds(self) -> int:
        """Working FP adders."""
        return self.core.fp_adds * self.counts.fp_backend // 2

    @property
    def fp_muls(self) -> int:
        """Working FP multiplier/dividers."""
        return self.core.fp_muls * self.counts.fp_backend // 2

    @property
    def mem_ports(self) -> int:
        """Working cache ports (owned by the integer backend groups)."""
        return self.core.mem_ports * self.counts.int_backend // 2

    @property
    def iq_int_size(self) -> int:
        """Usable integer issue-queue entries (halved when one half is out)."""
        return self.core.iq_int_size * self.counts.iq_int // 2

    @property
    def iq_fp_size(self) -> int:
        """Usable FP issue-queue entries."""
        return self.core.iq_fp_size * self.counts.iq_fp // 2

    @property
    def lsq_size(self) -> int:
        """Usable load/store-queue entries."""
        return self.core.lsq_size * self.counts.lsq // 2

    @property
    def mispredict_penalty(self) -> int:
        """Branch misprediction penalty, including Rescue's +2 shift-stage
        cycles and the per-generation technology adder (Section 5)."""
        extra = 2 if self.rescue else 0
        return self.core.mispredict_penalty + extra + 2 * self.tech_generations

    @property
    def mem_latency(self) -> int:
        """Main-memory latency, +50 percent per technology generation."""
        lat = self.core.mem_latency
        for _ in range(self.tech_generations):
            lat = int(lat * 1.5)
        return lat

    @property
    def issue_to_free(self) -> int:
        """Cycles an issued entry stays in the queue before its slot frees
        (extra cycle in Rescue for the post-issue shift stage)."""
        return 3 if self.rescue else 2
