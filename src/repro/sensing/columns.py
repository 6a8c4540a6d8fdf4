"""The column backend and the counter-based cell hash.

Whole-column math runs on numpy when it is importable and on plain
Python lists when it is not (bare deployments, the CI job that
uninstalls numpy). Both backends produce bit-identical columns: the
vectorized ops used here (elementwise add / multiply / min / max and
uint64 hashing) are IEEE-754 and two's-complement identical to their
scalar equivalents. :func:`force_python_backend` pins the fallback for
tests even when numpy is installed.

This module sits in the sensing layer because the field generators
(:mod:`repro.sensing.generators`) are its first clients; the columnar
epoch kernel (:mod:`repro.network.columnar`) builds its filter and
readings columns on the same backend.

Uniform per-cell jitter comes from :func:`cell_hash01`, a counter-based
splitmix64 hash: the cell coordinates *are* the state, so there is no
sequential stream to advance and :func:`hash01_column` hashes a whole
id column at once, bit-identical to the scalar form
(``tests/test_generators.py`` pins the two together cell by cell).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

try:  # pragma: no cover - exercised via both CI environments
    import numpy as _np
except ImportError:  # pragma: no cover - the no-numpy environment
    _np = None

#: Test override: True pins the pure-python backend even when numpy
#: is importable (see :func:`force_python_backend`).
_force_python = False


def numpy_module():
    """The active numpy module, or None when the pure-python backend
    is in effect (numpy missing, or a :func:`force_python_backend`
    block)."""
    return None if _force_python else _np


def backend() -> str:
    """``"numpy"`` or ``"python"`` — the active column backend."""
    return "python" if numpy_module() is None else "numpy"


@contextmanager
def force_python_backend() -> Iterator[None]:
    """Run the enclosed block on the pure-python column backend.

    The equivalence suite uses this to prove the fallback produces the
    same bytes as numpy even on hosts where numpy is installed; the
    real numpy-absent environment is additionally exercised by the CI
    job that uninstalls numpy.
    """
    global _force_python
    previous = _force_python
    _force_python = True
    try:
        yield
    finally:
        _force_python = previous


def clamp_values(values: Sequence[float], lo: float, hi: float
                 ) -> list[float]:
    """Elementwise ``min(hi, max(lo, v))`` — the field generators'
    range clamp, vectorized; IEEE-identical to the scalar form."""
    np = numpy_module()
    if np is None:
        return [min(hi, max(lo, value)) for value in values]
    column = np.asarray(values, dtype=np.float64)
    return np.minimum(hi, np.maximum(lo, column)).tolist()


_MASK64 = (1 << 64) - 1


def cell_hash01(seed: int, node_id: int, epoch: int) -> float:
    """A uniform float in ``[0, 1)`` from one splitmix64 finalizer.

    Fields that need exactly one uniform per cell
    (:class:`~repro.sensing.generators.ZipfEventField` jitter) use
    this instead of seeding a Mersenne Twister per cell — full-state
    MT seeding costs ~6µs per cell, ~300x the hash. Gaussian draws
    (:class:`~repro.sensing.generators.RoomField` noise) keep the
    per-cell Mersenne stream: ``gauss`` consumes a variable number of
    uniforms plus ``log``/``sqrt``, which does not vectorize
    byte-identically.
    """
    h = ((seed * 1_000_003 + node_id) * 1_000_033 + epoch) & _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    h ^= h >> 31
    return (h >> 11) * 2.0 ** -53


def hash01_column(seed: int, node_ids: Sequence[int], epoch: int):
    """One :func:`cell_hash01` uniform per (node, epoch) cell.

    The vectorized twin: same linear cell seed, same finalizer
    constants, wrapped mod 2**64 (numpy's uint64 wraparound equals the
    scalar path's explicit masking), and the ``(h >> 11) * 2**-53``
    float conversion is exact in both (the mantissa fits 53 bits).

    Returns a numpy float64 array, or a plain list on the pure-python
    backend (one scalar hash per cell).
    """
    np = numpy_module()
    if np is None:
        return [cell_hash01(seed, node_id, epoch) for node_id in node_ids]
    ids = np.asarray(node_ids, dtype=np.uint64)
    h = ((np.uint64((seed * 1_000_003) & _MASK64) + ids)
         * np.uint64(1_000_033) + np.uint64(epoch & _MASK64))
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
