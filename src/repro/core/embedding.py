"""Embedding watermark circuits into a host design's netlist.

The structural (netlist-level) counterpart of the behavioural architectures
in :mod:`repro.core.architectures`.  Embedding adds the watermark's
instances to the host netlist with role ``"watermark"``, under the host's
name (``soc/wm_wgc/lfsr``), and wires them in; the robustness analysis of
Section VI operates on the result:

* the baseline watermark is added as a *stand-alone* sub-circuit whose only
  connection to the host is the clock -- which is what makes it easy to
  locate and remove;
* the clock-modulation watermark inserts the WGC output into the enable
  path of the host's existing integrated clock gates, so removing the
  watermark logic severs the clock-enable cone of functional registers.
"""

from __future__ import annotations

from typing import List

from repro.core.config import WatermarkConfig
from repro.rtl.components import ClockGate, CombinationalBlock, Register, ShiftRegister
from repro.rtl.netlist import Netlist


def _add_wgc(host: Netlist, config: WatermarkConfig) -> str:
    """Add the WGC (LFSR register plus feedback/control logic); return its output."""
    wgc = f"{host.name}/wm_wgc"
    for component in (
        Register(f"{wgc}/lfsr", width=config.lfsr_width, reset_value=config.lfsr_seed),
        CombinationalBlock(f"{wgc}/feedback", gate_count=4, activity_factor=0.3),
        CombinationalBlock(f"{wgc}/control", gate_count=4, activity_factor=0.1),
        CombinationalBlock(f"{wgc}/wmark_out", gate_count=1, activity_factor=0.5),
    ):
        host.add_component(component, role="watermark")
    wiring = (("lfsr", "feedback"), ("feedback", "lfsr"), ("control", "lfsr"), ("lfsr", "wmark_out"))
    for source, target in wiring:
        host.connect(f"{wgc}/{source}", f"{wgc}/{target}")
    return f"{wgc}/wmark_out"


def embed_baseline(host: Netlist, config: WatermarkConfig) -> None:
    """Embed the state-of-the-art WGC + load-circuit watermark into ``host``.

    The load circuit is a chain of shift registers of at most 8 bits.  The
    only wiring between the WGC and the load is the shift-enable net, and
    neither touches the host's logic, so structurally the watermark is an
    isolated cluster.
    """
    wmark_out = _add_wgc(host, config)
    bits = config.load_registers
    stages = [f"{host.name}/wm_load/sr{index}" for index in range((bits + 7) // 8)]
    for index, stage in enumerate(stages):
        host.add_component(ShiftRegister(stage, width=min(8, bits - 8 * index)), role="watermark")
    host.connect(wmark_out, stages[0], net="wmark_shift_en")
    for source, target in zip(stages, stages[1:]):
        host.connect(source, target)


def embed_clock_modulation(host: Netlist, target_gates: List[str], config: WatermarkConfig) -> None:
    """Embed the proposed clock-modulation watermark into ``host``.

    ``target_gates`` are instance paths of existing integrated clock gates
    whose enables are modulated.  The WGC output is wired into each target
    gate's enable cone, together with the original clock-gate control
    (Fig. 1(b)).

    Raises
    ------
    KeyError
        If a target path does not exist in the host.
    ValueError
        If a target path does not name a clock gate.
    """
    if not target_gates:
        raise ValueError("clock-modulation embedding needs at least one target clock gate")
    for path in target_gates:
        if not isinstance(host.component(path), ClockGate):
            raise ValueError(f"embedding target {path!r} is not a clock gate")
    wmark_out = _add_wgc(host, config)
    for path in target_gates:
        host.connect(wmark_out, path, net="wmark_clk_en")
