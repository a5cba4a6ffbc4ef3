"""Per-site occupancy/residency profiling of the golden run.

DAVOS-style SBFI flows profile the design once to learn where state
actually lives before spending injections; :class:`SiteProfile` is that
pass for this simulator.  During the golden run the injection harness
samples the machine every ``stride`` cycles (through the core's
``on_cycle`` hook, so the profiled run stays bit-identical) and counts,
per injection site, how many samples found live state under it:

- ``rob``/``iq_int``/``iq_fp`` — an occupant in the physical slot, as
  :func:`~repro.inject.sites.occupant` (the slot layout the fault layer
  forces through) resolves it;
- ``lsq`` — an entry at the queue position;
- ``prf_int``/``prf_fp`` — a live register
  (:func:`~repro.inject.sites.live_pregs`), i.e. a fault there could
  reach a future read;
- ``rmap_int``/``rmap_fp`` — the map entry points at a register;
- ``fetch`` — the way participates in fetch (ways below
  ``fetch_width``).

The resulting counts feed the opt-in ``weighted`` fault-sampling mode
(draw sites proportional to residency) and the ``repro inject
--profile`` report.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cpu.params import MachineConfig
from repro.inject.sites import enumerate_sites, live_pregs, occupant


class SiteProfile:
    """Sampled per-site residency counts from one golden run."""

    def __init__(self, config: MachineConfig, stride: int = 16) -> None:
        if stride <= 0:
            raise ValueError("profile stride must be positive")
        self.config = config
        self.stride = stride
        self.samples = 0
        self.counts: Dict[Tuple[str, int], int] = {}
        #: (struct, slot) of every ROB and issue-queue site.
        self._slots = tuple(sorted({
            (s.struct, s.index) for s in enumerate_sites(config)
            if s.struct in ("rob", "iq_int", "iq_fp")
        }))

    # ------------------------------------------------------------------
    def observe(self, core) -> None:
        """Record one occupancy sample of the running core."""
        self.samples += 1
        counts = self.counts
        keys = [k for k in self._slots if occupant(core, *k) is not None]
        keys.extend(("lsq", i) for i in range(len(core.lsq.entries)))
        arch = core.arch
        if arch is not None:
            live = live_pregs(
                ((r.preg, r.cls, r.srcs) for r in arch.info.values()),
                arch.n_pregs,
            )
            keys.extend(
                ("prf_int" if cls == 0 else "prf_fp", p) for cls, p in live
            )
            for cls, struct in ((0, "rmap_int"), (1, "rmap_fp")):
                keys.extend(
                    (struct, a) for a, p in enumerate(arch.rmap[cls])
                    if p is not None
                )
        keys.extend(("fetch", way) for way in range(self.config.fetch_width))
        for k in keys:
            counts[k] = counts.get(k, 0) + 1

    # ------------------------------------------------------------------
    def residency(self, struct: str, index: int) -> int:
        """Samples that found live state under ``struct[index]``."""
        return self.counts.get((struct, index), 0)

    def struct_totals(self) -> Dict[str, int]:
        """Summed residency counts per structure."""
        totals: Dict[str, int] = {}
        for (struct, _idx), c in self.counts.items():
            totals[struct] = totals.get(struct, 0) + c
        return totals

    def top_sites(self, n: int = 10) -> List[Tuple[str, int, int]]:
        """The ``n`` hottest (struct, index, count) sites."""
        ranked = sorted(
            ((s, i, c) for (s, i), c in self.counts.items()),
            key=lambda t: (-t[2], t[0], t[1]),
        )
        return ranked[:n]

    def report(self, top: int = 12) -> str:
        """Human-readable profile summary for the CLI."""
        lines = [
            f"site profile: {self.samples} samples"
            f" (every {self.stride} cycles)"
        ]
        totals = self.struct_totals()
        for struct in sorted(totals):
            mean = totals[struct] / self.samples if self.samples else 0.0
            lines.append(
                f"  {struct:<10s} mean occupied slots/sample {mean:8.2f}"
            )
        lines.append(f"  hottest {top} sites:")
        for struct, idx, c in self.top_sites(top):
            frac = c / self.samples if self.samples else 0.0
            lines.append(
                f"    {struct}[{idx}]"
                f" residency {frac:6.1%} ({c}/{self.samples})"
            )
        return "\n".join(lines)
