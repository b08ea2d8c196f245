"""Deterministic counter-based random streams.

Every random quantity in the package is a pure function of a 64-bit seed
and a counter, so a run is reproducible bit-for-bit from its seed in any
language.  The scheme (also documented in docs/FORMATS.md):

* ``word(seed, i)`` is the splitmix64 output at counter ``i``::

      state  = (seed + (i + 1) * 0x9E3779B97F4A7C15)  mod 2^64
      z = state
      z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9)      mod 2^64
      z = ((z ^ (z >> 27)) * 0x94D049BB133111EB)      mod 2^64
      word = z ^ (z >> 31)

* uniform doubles in (0, 1]: ``((word >> 11) + 1) * 2^-53``
* standard complex normals use Box-Muller on consecutive uniform pairs:
  value ``k`` reads counters ``2k`` and ``2k + 1`` and is
  ``r*cos(2*pi*u2) + 1j*r*sin(2*pi*u2)`` with ``r = sqrt(-2*ln(u1))``,
  giving independent N(0, 1) real and imaginary parts.
* matrices are filled in column-major order: entry ``(i, j)`` of an
  ``rows x cols`` matrix is complex normal number ``j*rows + i``.  The fill
  runs in chunks of consecutive numbers (``start_index``), which changes
  no bit, since each number depends on its index alone.
* child streams: ``substream(seed, tag) = word(seed, tag)``.  Consumers
  never draw data from a parent seed directly, only from tagged children,
  so counters cannot collide across purposes.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def word(seed: int, counter: int) -> int:
    """Reference scalar definition of the stream (normative)."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def substream(seed: int, tag: int) -> int:
    """Derive a child seed for an independent, documented purpose."""
    return word(int(seed) & _MASK, tag)


def _words(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized ``word`` for counters start .. start+count-1."""
    with np.errstate(over="ignore"):
        ctr = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        z = np.uint64(int(seed) & _MASK) + ctr * np.uint64(_GOLDEN)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles in (0, 1] at the given counter range."""
    w = _words(seed, start, count)
    return ((w >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def complex_normals(seed: int, count: int, start_index: int = 0) -> np.ndarray:
    """Standard complex normals ``start_index .. start_index+count-1``."""
    u = uniforms(seed, 2 * start_index, 2 * count)
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * np.pi * u2
    return r * np.cos(ang) + 1j * (r * np.sin(ang))


#: Values per chunk of `complex_normal_matrix`; bounds its temporaries.
_CHUNK = 1 << 14


def complex_normal_matrix(seed: int, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix of standard complex normals, column-major fill.

    Filled _CHUNK values at a time through ``start_index``, so the
    temporaries of the stream stay chunk-sized; value k depends on k alone,
    so the chunks change no bit.
    """
    out = np.empty((rows, cols), dtype=np.complex128, order="F")
    flat = out.reshape(-1, order="F")  # a view: out is F-contiguous
    for start in range(0, flat.size, _CHUNK):
        count = min(_CHUNK, flat.size - start)
        flat[start:start + count] = complex_normals(seed, count, start)
    return out
