"""Ground-truth checks for every session answer.

Truth comes from the scenario's field generator and the sensing
modality (the reading a live node's board takes at an epoch), never
from what the program buffered or shipped:

* MINT answers (cluster rankings) must be certified exact and pass
  :func:`repro.core.results.is_valid_top_k` against
  :func:`repro.core.results.oracle_scores` over the sensors live at
  that epoch.
* FILA answers certify *set membership*: silent nodes report their
  filter interval, not their reading. The answer must hold ``k`` nodes
  whose true readings are a valid top-k, and each claimed interval must
  contain its node's true reading.
* TJA answers (the ``k`` epochs of the history window with the highest
  aggregate) are checked against a windowed series oracle over the
  sensors live both when the query was submitted and when it answered.
"""

from __future__ import annotations

from repro.core.aggregates import make_aggregate
from repro.core.results import EpochResult, is_valid_top_k, oracle_scores
from repro.sensing.modalities import get_modality

TOLERANCE = 1e-6


#: Epochs of truth readings kept; answers arrive in epoch order and a
#: history window looks back at most this far.
_CACHED_EPOCHS = 32


class Oracle:
    """Checks a run's answers, caching the truth of recent epochs."""

    def __init__(self, run):
        self.field = run.scenario.field
        self.modality = get_modality(run.scenario.attribute)
        self.groups = run.groups
        self._readings: dict[int, dict[int, float]] = {}

    def reading(self, node_id: int, epoch: int) -> float:
        row = self._readings.get(epoch)
        if row is None:
            row = self._readings[epoch] = {}
            for old in [e for e in self._readings
                        if e <= epoch - _CACHED_EPOCHS]:
                del self._readings[old]
        value = row.get(node_id)
        if value is None:
            value = row[node_id] = self.modality.quantize(
                self.field.value(node_id, epoch))
        return value

    def check(self, answer) -> str | None:
        """None when the answer is correct, else why it is not."""
        spec = answer.spec
        aggregate = make_aggregate(spec.agg, 0.0, 100.0)
        if spec.window is not None:
            return self._check_historic(answer, aggregate)
        if not isinstance(answer.outcome, EpochResult):
            return f"expected an EpochResult, got {answer.outcome!r}"
        result = answer.outcome
        readings = {n: self.reading(n, result.epoch) for n in answer.alive}
        if spec.algorithm is not None:  # FILA: group by nodeid
            return self._check_set(result, readings, spec.k)
        groups = {n: self.groups[n] for n in answer.alive}
        truth = oracle_scores(readings, groups, aggregate)
        if not result.exact:
            return f"epoch {result.epoch}: answer not certified exact"
        if not is_valid_top_k(result.items, truth, spec.k, TOLERANCE):
            return (f"epoch {result.epoch}: {spec.agg} top-{spec.k} "
                    f"{[(i.key, i.score) for i in result.items]} is not a "
                    f"valid top-k of the truth")
        return None

    @staticmethod
    def _check_set(result, readings, k) -> str | None:
        items = result.items
        if len(items) != min(k, len(readings)):
            return f"epoch {result.epoch}: {len(items)} rows, expected {k}"
        for item in items:
            true = readings.get(item.key)
            if true is None:
                return f"epoch {result.epoch}: node {item.key} is not live"
            if not item.lb - TOLERANCE <= true <= item.ub + TOLERANCE:
                return (f"epoch {result.epoch}: node {item.key} reads "
                        f"{true}, outside its claimed [{item.lb}, {item.ub}]")
        chosen = sorted(readings[item.key] for item in items)
        best = sorted(sorted(readings.values(), reverse=True)[:len(items)])
        if any(abs(a - b) > TOLERANCE for a, b in zip(chosen, best)):
            return f"epoch {result.epoch}: the chosen set is not a top-{k}"
        return None

    def _check_historic(self, answer, aggregate) -> str | None:
        spec = answer.spec
        epochs = range(answer.epoch - spec.window + 1, answer.epoch + 1)
        nodes = sorted(answer.alive & answer.submitted_alive)
        scores = {}
        for epoch in epochs:
            readings = {n: self.reading(n, epoch) for n in nodes}
            scores.update(oracle_scores(readings, dict.fromkeys(nodes, epoch),
                                        aggregate))
        items = getattr(answer.outcome, "items", None)
        if items is None or not is_valid_top_k(items, scores, spec.k,
                                               TOLERANCE):
            got = [(i.key, i.score) for i in items or ()]
            return (f"epoch {answer.epoch}: historic top-{spec.k} {got} is "
                    f"not a valid top-k of the window {list(epochs)}")
        return None


def check_answers(run) -> list[str]:
    """Every failure message for the run's logged answers."""
    oracle = Oracle(run)
    failures = []
    for answer in run.answers:
        problem = oracle.check(answer)
        if problem is not None:
            failures.append(problem)
    return failures
