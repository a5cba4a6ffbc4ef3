"""Classical structural diagnosis — the expensive path ICI replaces.

Section 2 of the paper: without ICI, pinpointing a fault from failing
outputs is *diagnosis* — tracing observed failures back through the logic
to candidate locations, "a time-consuming process (on the order of hours)"
usually followed by physical inspection.  This module implements the
standard structural (effect-cause) approximation:

- every failing observation point restricts candidates to its combinational
  fan-in cone;
- intersecting over all failing observations narrows the set;
- optionally, gates that also reach a *passing* observation under the same
  pattern are down-ranked (they could still be candidates under masking,
  so they are kept unless ``strict``).

The output is a candidate *set of gates*; comparing its size with ICI's
single table lookup (``repro.core.isolation``) quantifies the paper's
motivation.  See ``benchmarks/bench_diagnosis.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set

from repro.netlist.gates import block_of
from repro.netlist.netlist import Netlist


@dataclass
class DiagnosisResult:
    """Candidate fault locations from structural back-trace."""

    candidate_gates: FrozenSet[int]
    candidate_components: FrozenSet[str]
    n_failing_observations: int

    @property
    def resolved(self) -> bool:
        """True when the candidates sit in exactly one component."""
        return len(self.candidate_components) == 1

    def summary(self) -> str:
        """One-line report of the candidate set."""
        return (
            f"{len(self.candidate_gates)} candidate gates across "
            f"{len(self.candidate_components)} components from "
            f"{self.n_failing_observations} failing observations"
        )


class ConeDiagnoser:
    """Intersection-of-cones diagnosis over a netlist."""

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist
        self._cone_cache: dict = {}

    def _fanin_gates(self, net: int) -> Set[int]:
        """Gate ids in the combinational fan-in cone of ``net`` (memoized:
        diagnosis intersects one cone per failing bit)."""
        cone = self._cone_cache.get(net)
        if cone is None:
            cone = self._cone_cache[net] = self.netlist.fanin_cone_gates(net)
        return cone

    def diagnose(
        self,
        failing_flops: Sequence[int],
        failing_pos: Sequence[int] = (),
        strict: bool = False,
        passing_flops: Optional[Sequence[int]] = None,
    ) -> DiagnosisResult:
        """Candidate gates explaining the observed failures.

        Args:
            failing_flops: flop ids whose captured bit mismatched.
            failing_pos: failing primary-output indices.
            strict: when True, exclude gates whose cone also reaches a
                passing observation (aggressive, may lose the real fault
                under error masking; kept for comparison).
            passing_flops: flop ids observed correct (needed for strict).

        Returns:
            A :class:`DiagnosisResult`; an empty candidate set means the
            observations are inconsistent with a single stuck-at fault.
        """
        nl = self.netlist
        obs_nets: List[int] = [nl.flops[f].d_net for f in failing_flops]
        obs_nets += [nl.primary_outputs[p] for p in failing_pos]
        if not obs_nets:
            return DiagnosisResult(frozenset(), frozenset(), 0)
        candidates = self._fanin_gates(obs_nets[0]).copy()
        for net in obs_nets[1:]:
            candidates &= self._fanin_gates(net)
        if strict and passing_flops:
            for f in passing_flops:
                candidates -= self._fanin_gates(nl.flops[f].d_net)
        components = frozenset(
            block_of(nl.gates[g].component)
            for g in candidates
            if nl.gates[g].component
        )
        return DiagnosisResult(
            candidate_gates=frozenset(candidates),
            candidate_components=components,
            n_failing_observations=len(obs_nets),
        )
