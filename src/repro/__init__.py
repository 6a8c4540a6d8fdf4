"""KSpot reproduction: in-network top-k query processing for WSNs.

A from-scratch Python rebuild of *KSpot: Effectively Monitoring the K
Most Important Events in a Wireless Sensor Network* (ICDE 2009): the
MINT and TJA top-k algorithms, their baselines, the SQL-like query
language, a TinyOS-style epoch simulator with MICA2 cost models, local
storage, and the server/GUI tier — everything the demo runs on.

The ninety-second tour::

    from repro.api import Deployment, EpochDriver
    from repro.scenarios import conference_scenario

    deployment = Deployment.from_scenario(conference_scenario())
    driver = EpochDriver(deployment)
    handle = deployment.submit(\"\"\"
        SELECT TOP 3 roomid, AVERAGE(sound)
        FROM sensors GROUP BY roomid EPOCH DURATION 1 min
    \"\"\")
    for result in handle.watch(driver, epochs=10):
        print(result.epoch, result.keys, result.exact)

Package map: :mod:`repro.api` (public facade), :mod:`repro.core`
(algorithms), :mod:`repro.query` (language), :mod:`repro.network`
(simulator), :mod:`repro.sensing`, :mod:`repro.storage`,
:mod:`repro.gui`, :mod:`repro.server` (engine room),
:mod:`repro.scenarios`.
"""

from .api import (
    ChurnIntervention,
    Deployment,
    EpochDriver,
    Intervention,
    SessionHandle,
    SessionState,
)
from .core import KSpotEngine, Mint, MintConfig, Tag, Tja, Tput
from .core.results import EpochResult, RankedItem
from .errors import KSpotError
from .query import Algorithm, Schema, compile_query, parse
from .scenarios import (
    Scenario,
    conference_scenario,
    figure1_scenario,
    grid_rooms_scenario,
)
from .server import QuerySession

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "KSpotError",
    "Deployment",
    "EpochDriver",
    "SessionHandle",
    "SessionState",
    "Intervention",
    "ChurnIntervention",
    "QuerySession",
    "KSpotEngine",
    "Mint",
    "MintConfig",
    "Tja",
    "Tput",
    "Tag",
    "EpochResult",
    "RankedItem",
    "parse",
    "compile_query",
    "Schema",
    "Algorithm",
    "Scenario",
    "figure1_scenario",
    "conference_scenario",
    "grid_rooms_scenario",
]
