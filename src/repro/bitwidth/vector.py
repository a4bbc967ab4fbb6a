"""Vectorized twins of the width-detection primitives.

The trace-replay backend (:mod:`repro.fastsim`) measures widths over
whole numpy columns at once instead of per instruction.  Every function
here is an element-wise twin of a scalar path in
:mod:`repro.bitwidth.detect` / :mod:`repro.bitwidth.tags` /
:mod:`repro.power.gating`; phase 2 of the fast backend is built on
them, so every fast-versus-reference comparison checks them against
the scalar versions.
"""

from __future__ import annotations

import numpy as np

from repro.bitwidth.detect import CUT_ADDRESS, CUT_NARROW
from repro.bitwidth.tags import TAG_NARROW16, TAG_NARROW33
from repro.power.gating import GatingPolicy

_U64 = np.uint64


def effective_widths(values: np.ndarray) -> np.ndarray:
    """Element-wise :func:`repro.bitwidth.detect.effective_width`.

    ``values`` must be uint64.  Returns int64 widths in [1, 64]:
    negative values (sign bit set) measure the bit length of their
    complement, exactly like the scalar path.
    """
    v = np.asarray(values, dtype=_U64)
    negative = (v >> _U64(63)) != 0
    v = np.where(negative, ~v, v)
    # Branchless bit_length via conditional shifts (binary search).
    widths = np.zeros(v.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        high = (v >> _U64(shift)) != 0
        widths += np.where(high, shift, 0)
        v = np.where(high, v >> _U64(shift), v)
    widths += (v != 0).astype(np.int64)
    return np.maximum(widths, 1)


def pair_widths(a_values: np.ndarray, b_values: np.ndarray) -> np.ndarray:
    """Element-wise :func:`repro.bitwidth.detect.operand_pair_width`."""
    return np.maximum(effective_widths(a_values), effective_widths(b_values))


def gate_widths(policy: GatingPolicy, tag_a_codes: np.ndarray,
                tag_b_codes: np.ndarray) -> np.ndarray:
    """Element-wise :func:`repro.power.gating.gate_width` over tag-code
    columns.  Returns int64 widths drawn from {16, 33, 64}."""
    ta = np.asarray(tag_a_codes)
    tb = np.asarray(tag_b_codes)
    widths = np.full(ta.shape, 64, dtype=np.int64)
    if not policy.enabled:
        return widths
    pair = np.minimum(ta, tb)   # combine(): both signals AND together
    if policy.gate33:
        widths[pair >= TAG_NARROW33] = CUT_ADDRESS
    if policy.gate16:
        widths[pair == TAG_NARROW16] = CUT_NARROW
    return widths
