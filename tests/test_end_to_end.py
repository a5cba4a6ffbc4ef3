"""End-to-end integration: tester → isolation → fault map → degraded run.

One test drives the full deployment story across every layer of the
library, the way a chip would experience it:

1. gate-level Rescue model, scan insertion, ATPG vectors;
2. a fault injected in a known block, detected and isolated by scan-bit
   lookup;
3. the isolated block programmed into the fault-map register;
4. the register's degraded configuration handed to the performance
   simulator;
5. the degraded core still runs, and the yield model prices exactly this
   configuration.
"""

import numpy as np
import pytest

from repro.atpg.faults import component_of_fault, full_fault_universe
from repro.core import FaultMapRegister
from repro.cpu import Core, MachineConfig
from repro.rtl import RtlParams, build_rescue_rtl
from repro.rtl.experiment import generate_tests
from repro.scan import ScanTester
from repro.workloads import generate_trace, profile
from repro.yieldmodel.configs import CoreCounts

#: RTL blocks → (fault-map field for the 2-wide RTL model,
#:               surviving counts for the 4-wide machine).
_BLOCK_INFO = {
    "iq_old": ("iq_old", {"iq_int": 1}),
    "iq_new": ("iq_new", {"iq_int": 1}),
    "lsq0": ("lsq0", {"lsq": 1}),
    "backend1": ("backend1", {"int_backend": 1}),
    "frontend1": ("frontend1", {"frontend": 1}),
}


@pytest.fixture(scope="module")
def setup():
    model = build_rescue_rtl(RtlParams.tiny())
    return generate_tests(model, seed=0, max_deterministic=0)


def _first_detected_fault_in(setup, block):
    nl = setup.model.netlist
    q_nets = {f.q_net for f in nl.flops}
    for fault in full_fault_universe(nl):
        if fault.is_stem and fault.net in q_nets:
            continue
        comp = component_of_fault(nl, fault)
        if not comp.startswith(block + "/") and comp != block:
            continue
        bits, pos = setup.tester.failing_bits(fault)
        if bits or pos:
            return fault, bits, pos
    pytest.skip(f"no detected fault found in {block}")


@pytest.mark.parametrize("block", sorted(_BLOCK_INFO))
def test_fault_to_degraded_operation(setup, block):
    fault, bits, pos = _first_detected_fault_in(setup, block)

    # Isolation: a single table lookup attributes the failure.
    result = setup.table.isolate(bits, pos)
    assert result.isolated
    assert result.block == block

    # Fault map: program the blown block, derive the configuration.
    reg = FaultMapRegister(width=2)
    field, degraded = _BLOCK_INFO[block]
    reg.mark_faulty(field)
    counts = reg.degraded_config()
    assert counts.ok, "a single block fault must never kill the core"

    # Yield model: the configuration exists in the priced space.
    cc = CoreCounts(**degraded)
    assert not cc.is_full

    # Performance: the degraded machine still commits instructions.
    trace = generate_trace(profile("gzip"), 4_000)
    cfg = MachineConfig(rescue=True, counts=cc)
    run = Core(cfg, iter(trace)).run(4_000)
    assert run.instructions == 4_000
    assert run.ipc > 0.05


def test_healthy_chip_passes_clean(setup):
    """A fault-free chip shows no failing bits: nothing to map out."""
    tester = setup.tester
    again = ScanTester(setup.model.netlist, setup.chain, setup.atpg.patterns)
    po, state = tester.sim.capture(tester.values)
    po2, state2 = again.sim.capture(again.values)
    assert np.array_equal(po, po2)
    assert np.array_equal(state, state2)
    reg = FaultMapRegister(width=2)
    assert reg.degraded_config().is_full


def test_chipkill_fault_scraps_core(setup):
    """Failures isolating to the chipkill block leave no salvage path."""
    fault, bits, pos = _first_detected_fault_in(setup, "chipkill")
    result = setup.table.isolate(bits, pos)
    assert "chipkill" in result.blocks
    # There is no fault-map field for chipkill: the flow must scrap.
    reg = FaultMapRegister(width=2)
    with pytest.raises(ValueError):
        reg.mark_faulty("chipkill")
