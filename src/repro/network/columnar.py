"""Columnar epoch kernel: structure-of-arrays batch sensing and masks.

The hot path's data layout: readings, filter intervals and liveness
live in parallel *columns* (one slot per node, aligned to the
deployment's sorted alive-id tuple), so the per-epoch inner loops
become a handful of whole-column operations plus sparse scalar work on
the rows a mask singles out:

* **batch sensing** — :meth:`repro.network.simulator.Network.read_many`
  samples a whole id tuple through one
  :meth:`~repro.sensing.generators.FieldGenerator.batch_values` call
  per board channel (grouped by a sampling plan cached per id-tuple
  value and topology version, shared by every session), vectorizing
  the clamp + ADC quantization — and, for hash-jittered fields, the
  per-cell uniform draw itself via
  :func:`~repro.sensing.columns.hash01_column` — over the column; and
* **mask-driven passes** — FILA's monitor / answer / filter-install
  loops (:mod:`repro.core.fila`) ask the column helpers below which
  rows actually need Python-level work this epoch and skip the rest.

**Switch-and-prove discipline.** The kernel is part of the hot path
and runs exactly when :mod:`repro.network.hotpath` is enabled; it is
*semantically invisible*. Every reading, message, byte, joule, counter
and RNG draw is byte-identical to the first-principles oracle that
``hotpath.reference_path()`` restores;
``tests/test_hotpath_equivalence.py`` proves it by driving random
workloads through both paths — under both column backends — and
comparing every observable.

**Backends.** Columns are numpy arrays when numpy is importable and
pure-python ``array``/list columns when it is not; the selection lives
in :mod:`repro.sensing.columns`. Both backends produce bit-identical
columns: the vectorized ops used here (elementwise add / min / max and
``np.rint``-based ADC quantization) are IEEE-754 identical to their
scalar equivalents, and anything that is *not* order-safe (windowed
``sum`` folds, per-cell Mersenne draws) stays scalar on purpose.

What deliberately stays scalar, and why:

* per-cell *Mersenne* draws — Gaussian readings
  (:class:`~repro.sensing.generators.RoomField`) are pinned to
  ``random.Random(cell_seed)``'s Mersenne Twister output, which cannot
  be vectorized without changing bytes; the batch path only amortizes
  the object allocation by reusing one instance (``seed()`` resets
  ``gauss_next``, so draws match a fresh instance exactly). Uniform
  jitter (:class:`~repro.sensing.generators.ZipfEventField`) escaped
  this trap by moving to the counter-based splitmix64 hash, whose
  scalar and column forms are bit-identical by construction —
  ``tests/test_generators.py`` pins them cell by cell;
* float accumulations (windowed AVG/SUM) — ``sum()`` is a left fold,
  numpy reductions are pairwise; not byte-identical, so not batched;
* message construction and transport — every shipped message must keep
  its exact order (the loss process draws from a shared stream), so
  masked passes visit violator rows in ascending id order and ship
  scalar.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Sequence

from ..sensing.columns import numpy_module

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..sensing.modalities import Modality


# --------------------------------------------------------------------
# Column constructors (backend-polymorphic: ndarray or list/array)
# --------------------------------------------------------------------

def float_column(values: Sequence[float]):
    """A float64 column from per-row values (ndarray, or ``array('d')``
    on the fallback backend — both index and mutate the same way)."""
    np = numpy_module()
    if np is not None:
        return np.asarray(values, dtype=np.float64)
    return array("d", values)


def bool_column(n: int, fill: bool = False):
    """A boolean column of ``n`` rows (ndarray or list)."""
    np = numpy_module()
    if np is not None:
        return np.full(n, fill, dtype=bool)
    return [fill] * n


def nan() -> float:
    """The column encoding for "no value" (missing filter, unknown
    reading): NaN compares False against everything, exactly like the
    scalar paths' ``None`` guards."""
    return float("nan")


# --------------------------------------------------------------------
# Batch sensing helpers
# --------------------------------------------------------------------

def quantize_column(values: Sequence[float], modality: "Modality"
                    ) -> list[float]:
    """Vectorized :meth:`~repro.sensing.modalities.Modality.quantize`
    over a raw-readings column; bit-identical to the scalar method.

    Scalar ``round()`` and ``np.rint`` both round half-to-even, and
    the clamp / scale arithmetic is elementwise IEEE-754, so every row
    equals ``modality.quantize(row)`` exactly (asserted by
    ``tests/test_generators.py`` and the equivalence suite).
    """
    np = numpy_module()
    if np is None:
        quantize = modality.quantize
        return [quantize(value) for value in values]
    steps = (1 << modality.adc_bits) - 1
    lo, span = modality.lo, modality.span
    column = np.asarray(values, dtype=np.float64)
    clamped = np.minimum(modality.hi, np.maximum(lo, column))
    index = np.rint((clamped - lo) / span * steps)
    return (lo + index * span / steps).tolist()


def clamp_column(values: Sequence[float], modality: "Modality"
                 ) -> list[float]:
    """Vectorized :meth:`~repro.sensing.modalities.Modality.clamp`
    (the ``quantize=False`` board configuration)."""
    np = numpy_module()
    if np is None:
        clamp = modality.clamp
        return [clamp(value) for value in values]
    column = np.asarray(values, dtype=np.float64)
    return np.minimum(modality.hi,
                      np.maximum(modality.lo, column)).tolist()


# --------------------------------------------------------------------
# Mask helpers for FILA's fused passes
# --------------------------------------------------------------------
#
# Columns use NaN filter bounds for "no filter installed" and NaN known
# for "never reported": every comparison against NaN is False, which
# routes exactly the rows the scalar loops would special-case into the
# sparse scalar visit list. All helpers return ascending row indices —
# message order (and therefore the shared loss-RNG stream) must match
# the scalar iteration order byte for byte.

def pending_monitor_rows(values, flt_lo, flt_hi, synced) -> list[int]:
    """Rows the monitor pass must visit in Python.

    A row may be skipped iff its reading sits inside its installed
    filter AND the session's view bound is already that filter
    interval (``synced``): the scalar pass would call
    ``view.ensure(node, lo, hi)`` which is a proven no-op there
    (two float compares, no state change — see TopKView.ensure).
    """
    np = numpy_module()
    if np is not None and type(values) is np.ndarray:
        inside = (flt_lo <= values) & (values <= flt_hi)
        return np.nonzero(~(inside & synced))[0].tolist()
    return [row for row in range(len(values))
            if not (synced[row]
                    and flt_lo[row] <= values[row] <= flt_hi[row])]


def pending_answer_rows(values, known, flt_lo, synced) -> list[int]:
    """Rows the answer-time convergence pass must visit in Python.

    Skippable rows are non-exact (``known != value``), have a filter
    installed (``flt_lo`` not NaN) and are ``synced`` — the scalar
    pass would re-``ensure`` the filter interval, a no-op. Exact rows,
    filterless rows and unsynced rows keep their scalar handling.
    """
    np = numpy_module()
    if np is not None and type(values) is np.ndarray:
        need = (values == known) | ~synced | np.isnan(flt_lo)
        return np.nonzero(need)[0].tolist()
    return [row for row in range(len(values))
            if values[row] == known[row] or not synced[row]
            or flt_lo[row] != flt_lo[row]]  # NaN != NaN: no filter


def acceptable_filters(flt_lo, flt_hi, chosen, boundary: float,
                       agg_lo: float, agg_hi: float):
    """The repartition acceptability column.

    Mirrors ``Fila._install_filters``: a chosen row keeps its filter
    when it already sits at/above the cut with the full upper range; a
    non-chosen row when at/below the cut with the full lower range.
    NaN bounds (no filter) are never acceptable. The caller still
    applies the sparse exact-value containment fix-up before acting.
    """
    np = numpy_module()
    if np is not None and type(chosen) is np.ndarray:
        keep_chosen = (flt_lo >= boundary) & (flt_hi == agg_hi)
        keep_other = (flt_hi <= boundary) & (flt_lo == agg_lo)
        return np.where(chosen, keep_chosen, keep_other)
    return [((flt_lo[row] >= boundary and flt_hi[row] == agg_hi)
             if chosen[row]
             else (flt_hi[row] <= boundary and flt_lo[row] == agg_lo))
            for row in range(len(chosen))]


def pending_install_rows(flt_lo, flt_hi, chosen, acceptable,
                         boundary: float, agg_lo: float, agg_hi: float
                         ) -> list[int]:
    """Rows whose filter must actually be reinstalled, ascending.

    A row needs work when it has a filter, is not acceptable, and its
    current interval differs from the target interval for its side of
    the cut (the scalar pass's ``current == new_filter`` skip).
    """
    np = numpy_module()
    if np is not None and type(chosen) is np.ndarray:
        has_filter = ~np.isnan(flt_lo)
        already = np.where(chosen,
                           (flt_lo == boundary) & (flt_hi == agg_hi),
                           (flt_lo == agg_lo) & (flt_hi == boundary))
        need = has_filter & ~acceptable & ~already
        return np.nonzero(need)[0].tolist()
    rows = []
    for row in range(len(chosen)):
        lo, hi = flt_lo[row], flt_hi[row]
        if lo != lo or acceptable[row]:  # NaN lo: no filter installed
            continue
        if chosen[row]:
            if lo == boundary and hi == agg_hi:
                continue
        elif lo == agg_lo and hi == boundary:
            continue
        rows.append(row)
    return rows


def exact_rows(flt_lo, flt_hi, synced) -> list[int]:
    """Rows whose certification bound is exact (``lb == ub``).

    Post-monitor every unsynced row's bound is a point (its freshly
    reported or probed value); a synced row is exact only when its
    filter interval is degenerate. These are the rows the repartition's
    exact-value containment fix-up inspects.
    """
    np = numpy_module()
    if np is not None and type(synced) is np.ndarray:
        return np.nonzero(~synced | (flt_lo == flt_hi))[0].tolist()
    return [row for row in range(len(synced))
            if not synced[row] or flt_lo[row] == flt_hi[row]]


def masked_ceiling(values, flt_hi, synced, chosen_rows: Sequence[int]
                   ) -> float | None:
    """``max`` upper bound over every row not in ``chosen_rows``.

    Post-monitor each row's view bound is either its filter interval
    (``synced``) or exactly its reading, so the upper bound column is
    ``where(synced, flt_hi, value)``. Float ``max`` is reduction-order
    safe, so the column maximum equals the scalar ``max()`` over the
    view's bounds mapping byte for byte. None when every row is
    chosen (the scalar ``others`` list is empty).
    """
    n = len(values)
    if len(chosen_rows) >= n:
        chosen = set(chosen_rows)
        if all(row in chosen for row in range(n)):
            return None
    np = numpy_module()
    if np is not None and type(values) is np.ndarray:
        upper = np.where(synced, flt_hi, values)
        keep = np.ones(n, dtype=bool)
        for row in chosen_rows:
            keep[row] = False
        if not keep.any():
            return None
        return float(upper[keep].max())
    chosen = set(chosen_rows)
    best = None
    for row in range(n):
        if row in chosen:
            continue
        upper = flt_hi[row] if synced[row] else values[row]
        if best is None or upper > best:
            best = upper
    return best


# --------------------------------------------------------------------
# Per-deployment columnar state
# --------------------------------------------------------------------

class ColumnarState:
    """Structure-of-arrays caches one :class:`Network` owns.

    Holds the current epoch's per-attribute *readings rows* — the value
    dict (in ascending-id order) plus its lazily built aligned column —
    and the per-attribute *sampling plans*. Both are keyed on the id
    tuple's *value*, so every session that asks for the same ids (the
    network's alive tuple, an engine's participant tuple, a freshly
    filtered list) shares one plan per topology version and one row
    per epoch: N concurrent sessions pay for one batch acquisition
    instead of N scans of the per-node sample caches.

    Staleness is impossible by construction: :meth:`sync` drops the
    rows whenever the epoch or the topology version moves and the
    plans whenever the topology version moves, so a row or plan is
    only ever served for the (epoch, topology) it was built under.
    That also bounds memory: rows never outlive their epoch.
    """

    __slots__ = ("_rows", "_plans", "_epoch", "_version")

    def __init__(self) -> None:
        #: attribute -> {ids: [readings, column-or-None]} for the
        #: current epoch and topology version.
        self._rows: dict[str, dict[tuple, list]] = {}
        #: attribute -> {ids: plan} for the current topology version
        #: (see :meth:`plan`).
        self._plans: dict[str, dict[tuple, tuple]] = {}
        self._epoch: int | None = None
        self._version: int | None = None

    def sync(self, epoch: int, version: int) -> None:
        """Drop what the clock or the topology has invalidated: rows
        belong to one (epoch, topology version), plans to one topology
        version. Call before any lookup."""
        if version != self._version:
            self._version = version
            self._plans.clear()
            self._rows.clear()
        if epoch != self._epoch:
            self._epoch = epoch
            self._rows.clear()

    def cached(self, attribute: str, ids: tuple[int, ...]):
        """The readings dict already built for these ids (by value)
        this epoch, or None."""
        entry = self._rows.get(attribute, {}).get(ids)
        return None if entry is None else entry[0]

    def has_row(self, attribute: str) -> bool:
        """Whether *any* readings row (whatever its ids) has been
        stored for this attribute this epoch and topology version.

        False means no batch read has run yet since the epoch or the
        topology last moved, so the batch may skip the per-row
        freshness probe: :meth:`~repro.network.node.SensorNode.book_sample`
        still re-checks per node, covering stragglers sampled by a
        scalar ``read`` or by a batch before a mid-epoch kill or join."""
        return attribute in self._rows

    def store(self, attribute: str, ids: tuple[int, ...],
              readings: dict[int, float]) -> None:
        """Remember this epoch's readings row for an id tuple."""
        self._rows.setdefault(attribute, {})[ids] = [readings, None]

    def plan(self, attribute: str, ids: tuple[int, ...]):
        """The memoized sampling plan for these ids (by value), or None.

        A plan is the id tuple's partition into board channels —
        ``((field, modality, quantize, ids_list, (row, node) pairs),
        ...)`` — everything about the grouping walk of
        :meth:`~repro.network.simulator.Network.read_many` that is a
        pure function of the ids and the nodes' boards. Node deaths and
        joins bump the network's topology version, which drops every
        plan (see :meth:`sync`), so a plan never names a dead or
        replaced node. Per-epoch freshness (the same-epoch sample
        cache) is *not* baked in —
        :meth:`~repro.network.node.SensorNode.book_sample` re-checks it
        per node each epoch."""
        return self._plans.get(attribute, {}).get(ids)

    def store_plan(self, attribute: str, ids: tuple[int, ...],
                   plan) -> None:
        """Remember the sampling plan for an id tuple."""
        per_attribute = self._plans.setdefault(attribute, {})
        if len(per_attribute) > 16:
            # Readers cycling through fresh id sets within one topology
            # version must not grow the plan table without bound.
            per_attribute.clear()
        per_attribute[ids] = plan

    def column(self, attribute: str, ids: tuple[int, ...]):
        """The readings row as a backend column aligned to ``ids``
        (built lazily, cached beside the dict); None when the row is
        not cached."""
        entry = self._rows.get(attribute, {}).get(ids)
        if entry is None:
            return None
        if entry[1] is None:
            entry[1] = float_column(list(entry[0].values()))
        return entry[1]
