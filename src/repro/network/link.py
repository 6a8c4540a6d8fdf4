"""Radio link model (MICA2 CC1000).

Captures what the cost accounting needs from the physical layer: the
bit-rate (38.4 kbit/s on MICA2, §IV-A), the communication range, and an
optional Bernoulli per-packet loss process with ARQ retransmissions.
Loss is drawn from a seeded RNG owned by the simulator so runs stay
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ConfigurationError, RoutingError


@dataclass(frozen=True)
class RadioModel:
    """Link-layer parameters.

    Attributes:
        bitrate_bps: Air data rate; MICA2 ships 38.4 kbit/s.
        range_m: Maximum link distance (150 m outdoors per the paper;
            indoor experiments use smaller values via the topology).
        loss_probability: Independent per-packet loss probability.
        max_retries: ARQ retransmissions before a packet is declared
            lost. With the default loss of 0 every packet takes exactly
            one attempt.
    """

    bitrate_bps: float = 38_400.0
    range_m: float = 150.0
    loss_probability: float = 0.0
    max_retries: int = 5

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ConfigurationError("bitrate must be positive")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError("loss probability must be in [0, 1)")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")

    def airtime_seconds(self, air_bytes: int) -> float:
        """Time on the air for ``air_bytes`` (one attempt)."""
        return air_bytes * 8.0 / self.bitrate_bps

    def attempts_needed(self, rng: random.Random) -> int:
        """Transmissions until success, honouring the retry budget.

        Returns the number of attempts actually transmitted (all are
        paid for by the energy model). Raises :class:`RoutingError`
        when the packet is lost even after ``max_retries`` retries —
        callers treat that as a link-layer drop.
        """
        if self.loss_probability == 0.0:
            return 1
        for attempt in range(1, self.max_retries + 2):
            if rng.random() >= self.loss_probability:
                return attempt
        raise RoutingError(
            f"packet lost after {self.max_retries + 1} attempts "
            f"(loss probability {self.loss_probability})"
        )
