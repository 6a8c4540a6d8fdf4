"""Epoch drivers: the shared clock and step loop of the public API.

An :class:`EpochDriver` advances a :class:`~repro.api.Deployment` one
shared epoch at a time: it holds the deployment clock while every
active session executes, so the per-engine ``advance_epoch`` calls
coalesce into a single real tick and each sensor board samples at most
once per epoch no matter how many sessions consume the reading.

Driving policy lives here, not on the deployment:

* **interventions** — pluggable :class:`~repro.api.Intervention`
  objects (node churn, fault injection) hooked around every epoch;
* **max_epochs** — a lifetime budget after which the driver refuses to
  step (a runaway-loop guard for service-style callers);
* **stop_when_idle** — :meth:`stream` / :meth:`run` end as soon as no
  session remains active (on by default);
* **per-step hooks** — ``on_step(driver, outcomes)`` observers for
  dashboards and logging.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..errors import ConfigurationError, SessionError
from .interventions import Intervention

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.results import EpochResult
    from ..core.tja import TjaResult
    from ..core.tput import TputResult
    from .deployment import Deployment

    #: What one shared epoch yields per session: the epoch result for
    #: monitoring sessions, None for still-acquiring historic sessions,
    #: and the one-shot answer on a historic session's completing epoch.
    Outcome = EpochResult | TjaResult | TputResult | None


class EpochDriver:
    """Drives every active session of one deployment in lock-step."""

    def __init__(self, deployment: "Deployment",
                 interventions: Iterable[Intervention] = (),
                 max_epochs: int | None = None,
                 stop_when_idle: bool = True,
                 on_step: "Callable[[EpochDriver, dict], None] | None" = None):
        """Args:
            deployment: The deployment whose sessions to drive.
            interventions: Hooked around every epoch, in order.
            max_epochs: Lifetime step budget; :meth:`step` raises
                :class:`~repro.errors.SessionError` once exhausted
                (None: unlimited).
            stop_when_idle: End :meth:`stream`/:meth:`run` once no
                session remains active.
            on_step: Observer called as ``on_step(driver, outcomes)``
                after every epoch (more via :meth:`add_hook`).
        """
        self.deployment = deployment
        self.interventions = list(interventions)
        self.max_epochs = max_epochs
        self.stop_when_idle = stop_when_idle
        self._hooks: "list[Callable[[EpochDriver, dict], None]]" = []
        if on_step is not None:
            self._hooks.append(on_step)
        #: Epochs this driver has driven (the network clock counts all
        #: drivers; this counts ours, for the max_epochs policy).
        self.epochs_driven = 0

    @property
    def epoch(self) -> int:
        """The deployment's current shared-clock epoch."""
        return self.deployment.network.epoch

    def add_hook(self, hook: "Callable[[EpochDriver, dict], None]") -> None:
        """Register one more per-step observer."""
        self._hooks.append(hook)

    def add_intervention(self, intervention: Intervention) -> None:
        """Register one more intervention (applies from the next step)."""
        self.interventions.append(intervention)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(self) -> "dict[int, Outcome]":
        """Run one shared epoch across every active session.

        Interventions' ``before_epoch`` hooks run first (churn due now
        is applied, sessions will detect and recover), then the clock
        is held while the sessions execute, then ``after_epoch`` hooks
        and per-step observers fire. Returns ``{session_id: outcome}``.

        Raises :class:`~repro.errors.SessionError` when no session is
        active or the ``max_epochs`` budget is spent.
        """
        if self.max_epochs is not None and self.epochs_driven >= self.max_epochs:
            raise SessionError(
                f"driver exhausted its max_epochs budget ({self.max_epochs})")
        deployment = self.deployment
        network = deployment.network
        # Validate before intervening: a refused step must not mutate
        # the world (churn applied with nobody listening would kill
        # nodes no session ever detects or recovers from).
        if not deployment.active_sessions():
            raise SessionError("no active sessions (nothing submitted?)")
        for intervention in self.interventions:
            intervention.before_epoch(deployment, network.epoch)
        active = deployment.active_sessions()
        outcomes: "dict[int, Outcome]" = {}
        shadows: "list" = []
        seen: set[int] = set()
        for session in active:
            shadow = session.baseline_network
            if shadow is not None and id(shadow) not in seen:
                seen.add(id(shadow))
                shadows.append(shadow)
        with ExitStack() as stack:
            stack.enter_context(network.shared_epoch())
            for shadow in shadows:
                stack.enter_context(shadow.shared_epoch())
            for session in active:
                outcomes[session.session_id] = session.step()
        self.epochs_driven += 1
        for intervention in self.interventions:
            intervention.after_epoch(deployment, network.epoch, outcomes)
        for hook in self._hooks:
            hook(self, outcomes)
        return outcomes

    def stream(self, epochs: int | None = None
               ) -> "Iterator[dict[int, Outcome]]":
        """Yield :meth:`step` outcomes for up to ``epochs`` epochs.

        Stops early once no session remains active (with
        ``stop_when_idle``, the default) or the ``max_epochs`` budget
        is spent. ``epochs=None`` streams until one of those policies
        ends the loop — so it requires at least one bound, or an
        all-historic workload that *will* go idle; see :meth:`run`.
        The bound check raises at the call site, not at the first
        ``next()``.
        """
        self._check_bounded(epochs)
        return self._stream(epochs)

    def _stream(self, epochs: int | None
                ) -> "Iterator[dict[int, Outcome]]":
        driven = 0
        while epochs is None or driven < epochs:
            if self.max_epochs is not None \
                    and self.epochs_driven >= self.max_epochs:
                return
            if self.stop_when_idle \
                    and not self.deployment.active_sessions():
                return
            yield self.step()
            driven += 1

    def run(self, epochs: int | None = None
            ) -> "dict[int, tuple[EpochResult, ...]]":
        """Drive up to ``epochs`` shared epochs and collect every
        session's result stream, keyed by session id (historic answers
        land on the handles' ``historic_result``).

        ``epochs=None`` runs until idle — valid only when something
        bounds the loop (``max_epochs``, or a workload of historic
        sessions, which finish by themselves); a continuous monitoring
        session with no bound raises
        :class:`~repro.errors.ConfigurationError` instead of spinning
        forever.
        """
        for _ in self.stream(epochs):
            pass
        return {handle.id: handle.results
                for handle in self.deployment.sessions()}

    def _check_bounded(self, epochs: int | None) -> None:
        if epochs is not None and epochs < 0:
            raise ConfigurationError(
                f"epoch count must be non-negative, got {epochs}")
        if epochs is not None or self.max_epochs is not None:
            return
        if not self.stop_when_idle:
            raise ConfigurationError(
                "unbounded drive: give stream()/run() an epoch count, "
                "set max_epochs, or enable stop_when_idle")
        if any(not s.is_historic for s in self.deployment.active_sessions()):
            raise ConfigurationError(
                "unbounded drive: continuous monitoring sessions never "
                "go idle — give stream()/run() an epoch count or set "
                "max_epochs")

    def __repr__(self) -> str:
        return (f"EpochDriver(epoch {self.epoch}, "
                f"driven {self.epochs_driven}, "
                f"{len(self.interventions)} interventions)")
