"""Request populations and deterministic request-stream generation.

The load generator replays the experiment grid itself against the
serving tier: the request *population* is the full paper grid — every
``(workload, os) x configuration x mechanism`` evaluate point, plus
optionally the experiment modules — and the request *stream* is a
deterministic, seeded walk over that population with configurable
popularity skew.

Two abstractions (hopperkv-style):

* :class:`ReqGenEngine` — turns ``(population size, skew, seed)`` into
  an infinite deterministic index stream.  ``skew="zipf"`` ranks the
  population by a seeded shuffle and draws ranks Zipf(theta);
  ``skew="uniform"`` draws uniformly.  The same seed always replays the
  identical sequence — that is what makes a load run reproducible and
  lets an overload investigation re-fire the exact offending stream.
* :class:`Workload` — binds an engine to a population of
  :class:`Request` templates and stamps each emitted request with its
  stream index and a derived trace id (``lg-<seed>-<index>``), so every
  generated request is traceable end to end through the server's
  obs layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import CONFIG_NAMES
from repro.core.study import MECHANISMS
from repro.workloads.registry import list_workloads

__all__ = [
    "GRID_CONFIGS",
    "Request",
    "ReqGenEngine",
    "Workload",
    "grid_population",
]

#: Named memory-system configurations in the evaluate grid.
GRID_CONFIGS = CONFIG_NAMES

#: Popularity skews the engine understands.
SKEWS = ("zipf", "uniform")


@dataclass(frozen=True)
class Request:
    """One HTTP request template (or stamped instance) in a stream."""

    method: str
    path: str
    body: dict
    label: str
    index: int = -1
    trace_id: str = ""

    def stamped(self, index: int, trace_id: str) -> "Request":
        """A copy carrying its stream position and trace id."""
        return replace(self, index=index, trace_id=trace_id)


def grid_population(
    *,
    suite_pairs: list[tuple[str, str]] | None = None,
    configs: tuple[str, ...] = GRID_CONFIGS,
    mechanisms: tuple[str, ...] = MECHANISMS,
    n_instructions: int = 20_000,
    seed: int = 0,
    wait: bool = True,
) -> list[Request]:
    """The full evaluate grid as a request population.

    One template per ``(workload, os, config, mechanism)`` cell — the
    same cells ``repro warm`` pre-computes, so a warmed server answers
    every one of these from the result store.
    """
    pairs = suite_pairs if suite_pairs is not None else list_workloads()
    population = []
    for name, os_name in pairs:
        for config in configs:
            for mechanism in mechanisms:
                population.append(
                    Request(
                        method="POST",
                        path="/v1/evaluate",
                        body={
                            "workload": name,
                            "os": os_name,
                            "config": config,
                            "mechanism": mechanism,
                            "instructions": n_instructions,
                            "seed": seed,
                            "wait": wait,
                        },
                        label=f"{name}@{os_name}/{config}/{mechanism}",
                    )
                )
    return population


class ReqGenEngine:
    """Deterministic seeded index stream with Zipf/uniform popularity.

    Zipf: population slots are ranked by a seeded shuffle (so the "hot"
    cells are a reproducible pseudo-random subset of the grid, not the
    grid's first rows) and rank ``r`` (1-based) carries weight
    ``1/r**theta``.  ``theta=0`` degenerates to uniform.
    """

    def __init__(
        self,
        population_size: int,
        *,
        skew: str = "zipf",
        theta: float = 0.99,
        seed: int = 0,
        batch: int = 1024,
    ):
        if population_size <= 0:
            raise ValueError(
                f"population_size must be positive, got {population_size}"
            )
        if skew not in SKEWS:
            raise ValueError(
                f"unknown skew {skew!r}; expected one of {SKEWS}"
            )
        if theta < 0:
            raise ValueError(f"theta must be >= 0, got {theta}")
        self.population_size = population_size
        self.skew = skew
        self.theta = theta
        self.seed = seed
        self._batch = max(1, batch)
        self._rng = np.random.default_rng(seed)
        if skew == "zipf" and theta > 0:
            ranks = np.arange(1, population_size + 1, dtype=np.float64)
            weights = ranks ** -theta
            probabilities = weights / weights.sum()
            # Seeded shuffle: which slot gets which rank is part of the
            # deterministic stream identity.
            slots = self._rng.permutation(population_size)
            self._probabilities = np.empty(population_size)
            self._probabilities[slots] = probabilities
        else:
            self._probabilities = None
        self._buffer: np.ndarray = np.empty(0, dtype=np.int64)
        self._cursor = 0
        self._emitted = 0

    def _refill(self) -> None:
        if self._probabilities is None:
            self._buffer = self._rng.integers(
                0, self.population_size, size=self._batch, dtype=np.int64
            )
        else:
            self._buffer = self._rng.choice(
                self.population_size, size=self._batch, p=self._probabilities
            ).astype(np.int64)
        self._cursor = 0

    def next_index(self) -> int:
        """The next population index of the stream."""
        if self._cursor >= len(self._buffer):
            self._refill()
        value = int(self._buffer[self._cursor])
        self._cursor += 1
        self._emitted += 1
        return value

    def sample(self, n: int) -> list[int]:
        """The next ``n`` indices (continues the stream)."""
        return [self.next_index() for _ in range(n)]

    @property
    def emitted(self) -> int:
        """Indices drawn from the stream so far."""
        return self._emitted


@dataclass
class Workload:
    """A request population bound to a deterministic generation engine."""

    population: list[Request]
    engine: ReqGenEngine = field(repr=False)

    @classmethod
    def grid(
        cls,
        *,
        skew: str = "zipf",
        theta: float = 0.99,
        seed: int = 0,
        n_instructions: int = 20_000,
        trace_seed: int = 0,
        suite_pairs: list[tuple[str, str]] | None = None,
        mechanisms: tuple[str, ...] = MECHANISMS,
        configs: tuple[str, ...] = GRID_CONFIGS,
        wait: bool = True,
    ) -> "Workload":
        """The paper-grid workload with the given popularity skew."""
        population = grid_population(
            suite_pairs=suite_pairs,
            configs=configs,
            mechanisms=mechanisms,
            n_instructions=n_instructions,
            seed=trace_seed,
            wait=wait,
        )
        engine = ReqGenEngine(
            len(population), skew=skew, theta=theta, seed=seed
        )
        return cls(population=population, engine=engine)

    def next_request(self) -> Request:
        """The next stamped request of the stream."""
        index = self.engine.emitted
        slot = self.engine.next_index()
        trace_id = f"lg-{self.engine.seed}-{index:08d}"
        return self.population[slot].stamped(index, trace_id)

    def take(self, n: int) -> list[Request]:
        """The next ``n`` stamped requests (continues the stream)."""
        return [self.next_request() for _ in range(n)]

    def describe(self) -> dict:
        """Stream identity for trajectory records and replay."""
        return {
            "population": len(self.population),
            "skew": self.engine.skew,
            "theta": self.engine.theta,
            "stream_seed": self.engine.seed,
        }
