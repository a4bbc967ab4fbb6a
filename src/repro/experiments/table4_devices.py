"""Table 4 — estimated power consumption of functional units.

Renders the device power model at the paper's three column widths,
verifying that the linear width scaling reproduces the published
values (mW at 3.3 V and 500 MHz).
"""

from __future__ import annotations

from repro.exec.jobs import Job
from repro.experiments.base import format_table
from repro.experiments.registry import Experiment, register
from repro.power.devices import (
    MUX_OVERHEAD_MW,
    ZERO_DETECT_MW,
    Device,
    device_power,
)

#: (device, paper row name) in Table 4's order.
DEVICE_ROWS = (
    (Device.ADDER, "Adder (CLA)"),
    (Device.MULTIPLIER, "Booth Multiplier"),
    (Device.LOGIC, "Bit-Wise Logic"),
    (Device.SHIFTER, "Shifter"),
)

#: The paper's published values for cross-checking.
PAPER_VALUES = {
    Device.ADDER: (105.0, 158.0, 210.0),
    Device.MULTIPLIER: (1050.0, 1580.0, 2100.0),
    Device.LOGIC: (5.8, 8.7, 11.7),
    Device.SHIFTER: (4.4, 6.6, 8.8),
}


def rows() -> list[list[object]]:
    out: list[list[object]] = []
    for device, label in DEVICE_ROWS:
        out.append([label] + [device_power(device, w) for w in (32, 48, 64)])
    out.append(["Zero-Detect", "", ZERO_DETECT_MW, ""])
    out.append(["Additional Muxes", "", MUX_OVERHEAD_MW, ""])
    return out


def report() -> str:
    headers = ["Device", "32-bit", "48-bit", "64-bit"]
    return ("Table 4 — estimated power of functional units at 3.3V / "
            "500MHz (mW)\n" + format_table(headers, rows(), precision=1))


def jobs(scale: int = 1) -> list[Job]:
    """Pure device-model rendering: no simulations needed."""
    return []


register(Experiment(
    name="table4",
    description="Table 4 — estimated power of the functional units",
    jobs=jobs,
    render=lambda scale, result: report(),
))


if __name__ == "__main__":
    print(report())
