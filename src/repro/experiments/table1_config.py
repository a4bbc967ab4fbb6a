"""Table 1 — baseline configuration of the simulated processor.

This module renders the live :data:`~repro.core.config.BASELINE`
configuration in the paper's Table 1 layout, so the benchmark harness
can assert that the machine under test is the machine the paper
describes.
"""

from __future__ import annotations

from repro.core.config import BASELINE, MachineConfig
from repro.exec.jobs import Job
from repro.experiments.registry import Experiment, register


def rows(config: MachineConfig = BASELINE) -> list[tuple[str, str]]:
    """(parameter, value) pairs in Table 1's order."""
    h = config.hierarchy
    return [
        ("RUU size", f"{config.ruu_size} instructions"),
        ("LSQ (ld/store queue) size", str(config.lsq_size)),
        ("Fetch queue size", f"{config.fetch_queue_size} instructions"),
        ("Fetch width", f"{config.fetch_width} instructions/cycle"),
        ("Decode width", f"{config.decode_width} instructions/cycle"),
        ("Issue width",
         f"{config.issue_width} instructions/cycle (out-of-order)"),
        ("Commit width",
         f"{config.commit_width} instructions/cycle (in-order)"),
        ("Functional units",
         f"{config.int_alus} integer ALUs, "
         f"{config.int_mult_div} integer multiply/divide"),
        ("Branch predictor", config.predictor),
        ("BTB", f"{config.btb_entries}-entry, {config.btb_assoc}-way"),
        ("Return-address stack", f"{config.ras_entries}-entry"),
        ("Mispredict penalty", f"{config.mispredict_penalty} cycles"),
        ("L1 data-cache",
         f"{h.l1d_size // 1024}K, {h.l1d_assoc}-way (LRU), "
         f"{h.block_bytes}B blocks, {h.l1_latency} cycle latency"),
        ("L1 instruction-cache",
         f"{h.l1i_size // 1024}K, {h.l1i_assoc}-way (LRU), "
         f"{h.block_bytes}B blocks, {h.l1_latency} cycle latency"),
        ("L2",
         f"Unified, {h.l2_size // (1024 * 1024)}M, {h.l2_assoc}-way (LRU), "
         f"{h.block_bytes}B blocks, {h.l2_latency}-cycle latency"),
        ("Memory", f"{h.memory_latency} cycles"),
        ("TLBs",
         f"{h.tlb_entries} entry, fully associative, "
         f"{h.tlb_miss_latency}-cycle miss latency"),
    ]


def report(config: MachineConfig = BASELINE) -> str:
    lines = ["Table 1 — baseline configuration of simulated processor"]
    for parameter, value in rows(config):
        lines.append(f"  {parameter:28s} {value}")
    return "\n".join(lines)


def jobs(scale: int = 1) -> list[Job]:
    """Pure configuration rendering: no simulations needed."""
    return []


register(Experiment(
    name="table1",
    description="Table 1 — baseline configuration of the simulated "
                "processor",
    jobs=jobs,
    render=lambda scale, result: report(),
))


if __name__ == "__main__":
    print(report())
