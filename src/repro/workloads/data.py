"""Deterministic input-data generation for the workload stand-ins.

The paper runs SPECint95 with reference inputs and MediaBench with its
shipped audio/video samples; we cannot run Alpha binaries, so each
stand-in kernel consumes synthetic data drawn from this deterministic
PRNG.  Determinism matters twice over: results are reproducible, and
the *baseline vs optimized* comparisons of Figures 10/11 see identical
dynamic instruction streams.

:meth:`Xorshift64.next64` and :meth:`Xorshift64.next_below` are the
reference step.  The generators that draw a value per byte or sample
run the same step inline, with the state in a local, and draw the same
values.
"""

from __future__ import annotations

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_MULT = 0x2545F4914F6CDD1D   # xorshift64* output multiplier


class Xorshift64:
    """xorshift64* PRNG — tiny, fast, and stable across platforms."""

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        if seed == 0:
            raise ValueError("seed must be nonzero")
        self._state = seed & _MASK64

    def next64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * _MULT) & _MASK64

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next64() % bound

    def draws_below(self, bound: int, count: int) -> list[int]:
        """``count`` successive :meth:`next_below` draws, stepped inline."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        x = self._state
        out = []
        append = out.append
        for _ in range(count):
            x ^= x >> 12
            x ^= (x << 25) & _MASK64
            x ^= x >> 27
            append(((x * _MULT) & _MASK64) % bound)
        self._state = x
        return out


def audio_samples(count: int, seed: int = 0xACED_5EED) -> list[int]:
    """16-bit signed samples with a smooth (speech-like) component so
    GSM/ADPCM stand-ins see realistic small sample-to-sample deltas."""
    x = Xorshift64(seed)._state
    samples = []
    append = samples.append
    level = 0
    for _ in range(count):
        # Random walk with mean reversion: mostly small values, the
        # occasional wider excursion — like a speech envelope.  The
        # step is next_below(257) - 128, inlined.
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        level += ((x * _MULT) & _MASK64) % 257 - 128
        level -= level // 8
        if level < -32768:
            level = -32768
        elif level > 32767:
            level = 32767
        append(level)
    return samples


def image_block(width: int, height: int, seed: int = 0x1234_5678) -> bytes:
    """8-bit pixels with local smoothness (photographic-ish), for the
    ijpeg / mpeg2 stand-ins."""
    x = Xorshift64(seed)._state
    pixels = bytearray(width * height)
    value = 128
    for i in range(width * height):   # row-major
        # next_below(33) - 16, inlined
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        value += ((x * _MULT) & _MASK64) % 33 - 16
        if value < 0:
            value = 0
        elif value > 255:
            value = 255
        pixels[i] = value
    return bytes(pixels)


def text_bytes(count: int, seed: int = 0x7E57_DA7A) -> bytes:
    """ASCII-ish text with realistic letter skew, for compress/perl."""
    alphabet = b"etaoinshrdlucmfwypvbgkjqxz     \n"
    draws = Xorshift64(seed).draws_below(len(alphabet), count)
    return bytes(map(alphabet.__getitem__, draws))
