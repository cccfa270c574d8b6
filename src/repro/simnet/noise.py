"""Operating-system / background-load noise model.

The paper attributes the residual variance between its predictions and the
measured run times "largely to background processes, network load and minor
fluctuations in the actual run time of the application".  The simulated
cluster reproduces that effect so that the validation experiment is not a
tautology: compute blocks and message transfers are perturbed by a small
multiplicative jitter plus occasional longer daemon interruptions.

A run's noise is a pure function of its seed and its ordered list of draw
sites (the compute blocks and message transfers, in the order the engine
reaches them).  A site is *live* when its base duration is positive.  Each
seed owns three independent streams, spawned from
``np.random.SeedSequence(seed)``:

* **jitter** — one log-normal factor per live site, with the compute or
  network sigma chosen by the site's kind (drawn even when that sigma is
  0, so how much of the stream a run consumes never depends on a
  parameter being zero);
* **daemon hits** — with daemon noise on, one Poisson count per live
  compute site, mean ``duration / daemon_interval``;
* **daemon time** — one ``Gamma(hits, daemon_duration)`` draw (the sum of
  ``hits`` exponential interruptions) per site with at least one hit.

The noisy duration is ``base * factor + daemon_time``.  No stream's
consumption interleaves with another's, so the batch entry points draw
each stream with one sized numpy call per seed, and the engine's scalar
cursor (:meth:`NoiseModel.draws`) walks the same streams site by site.
numpy fills an array with per-element parameters exactly as the same
sequence of scalar calls would, so the engine, trace replay and batched
replay agree bit for bit at equal seeds.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


#: Names how noise is drawn from a seed.  Cache keys of noisy results
#: carry it, so results drawn under an earlier scheme miss.
NOISE_SCHEME = "per-site-streams"


def derive_seed(*components: object) -> int:
    """Derive a stable 32-bit seed from arbitrary hashable components.

    Used to give every scenario of a simulation sweep its own reproducible
    noise stream: the seed depends only on the scenario's identity (machine
    base seed, processor array, deck shape, ...), never on the order the
    grid is evaluated in, the shard that holds the scenario or the fleet
    worker that runs it, so every placement of a grid gives bit-identical
    results.  The hash is ``zlib.crc32`` over the ``repr`` of the
    components — stable across processes and Python invocations (unlike
    ``hash()``, which is salted for strings).
    """
    text = "\x1f".join(repr(component) for component in components)
    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF


def _streams(seed: int) -> list[np.random.Generator]:
    """The jitter, daemon-hit and daemon-time generators of ``seed``."""
    import numpy as np

    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(3)]


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic perturbation of compute and communication durations.

    A frozen value: the same model and seed always produce the same noise,
    however often and in whatever order it is used.

    Parameters
    ----------
    seed:
        Seed of the model's three noise streams.
    compute_jitter:
        Standard deviation of the log-normal multiplicative jitter applied
        to compute durations (e.g. 0.01 = ~1 % noise).
    network_jitter:
        Same, for message wire times.
    daemon_interval:
        Mean virtual-time interval between background daemon interruptions
        on a rank, in seconds.  ``0`` disables daemon noise.
    daemon_duration:
        Mean duration of one interruption, in seconds.
    """

    seed: int = 0
    compute_jitter: float = 0.008
    network_jitter: float = 0.02
    daemon_interval: float = 0.25
    daemon_duration: float = 200e-6

    #: Draw-site kinds accepted by :meth:`perturb_batch`.
    COMPUTE = 1
    NETWORK = 2

    def __post_init__(self) -> None:
        for attr in ("compute_jitter", "network_jitter", "daemon_interval",
                     "daemon_duration"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be >= 0")

    def reseeded(self, seed: int) -> "NoiseModel":
        """A copy of this model at ``seed``, every other parameter kept.

        Simulation plans thread one of these per scenario so that every grid
        point sees an independent, reproducible noise stream regardless of
        evaluation order, shard or fleet worker.
        """
        return replace(self, seed=seed)

    def _has_daemons(self) -> bool:
        return self.daemon_interval > 0 and self.daemon_duration > 0

    def draws(self) -> "NoiseDraws":
        """A fresh scalar cursor over this model's streams, for one run."""
        return NoiseDraws(self)

    def perturb_batch(self, durations: np.ndarray,
                      kinds: np.ndarray) -> np.ndarray:
        """Perturb a mixed sequence of compute/network durations at once.

        ``kinds[i]`` (:attr:`COMPUTE` or :attr:`NETWORK`) is the kind of
        draw site ``i``.  The result is **bit-identical** to feeding the
        sites, in order, to the compute/network methods of a fresh
        :meth:`draws` cursor — which is what trace replay
        (:mod:`repro.simmpi.trace`) relies on to reproduce a
        :class:`~repro.simmpi.engine.ClusterEngine` run exactly.
        """
        import numpy as np

        out = np.array(durations, dtype=float)
        kinds = np.asarray(kinds)
        if out.shape != kinds.shape:
            raise ValueError("durations and kinds must have the same length")
        if not self.is_disabled():
            self._perturb(out.reshape(-1), kinds.reshape(-1), self.seed)
        return out

    def perturb_batch_multi(self, durations: np.ndarray, kinds: np.ndarray,
                            seeds) -> np.ndarray:
        """Perturb one duration vector under many independent seeds at once.

        Returns an ``(S, n)`` matrix whose row ``s`` is **bit-identical**
        to ``self.reseeded(seeds[s]).perturb_batch(durations, kinds)``, so
        a batched multi-sample replay reproduces ``S`` sequential
        single-seed replays sample for sample.
        """
        import numpy as np

        base = np.asarray(durations, dtype=float).reshape(-1)
        kinds = np.asarray(kinds).reshape(-1)
        if base.shape != kinds.shape:
            raise ValueError("durations and kinds must have the same length")
        seeds = [int(seed) for seed in seeds]
        out = np.empty((len(seeds), base.size))
        out[:] = base
        if not self.is_disabled():
            for row, seed in zip(out, seeds):
                self._perturb(row, kinds, seed)
        return out

    def _perturb(self, flat: np.ndarray, kinds: np.ndarray,
                 seed: int) -> None:
        """Perturb the 1-D ``flat`` in place with the streams of ``seed``."""
        import numpy as np

        live = np.flatnonzero(flat > 0)
        if live.size == 0:
            return
        jitter, hit_stream, time_stream = _streams(seed)
        base = flat[live]
        compute = kinds[live] == self.COMPUTE
        sigma = np.where(compute, self.compute_jitter, self.network_jitter)
        noisy = base * jitter.lognormal(0.0, sigma)
        if self._has_daemons():
            sites = np.flatnonzero(compute)
            hits = hit_stream.poisson(base[sites] / self.daemon_interval)
            hit = np.flatnonzero(hits)
            noisy[sites[hit]] += time_stream.gamma(hits[hit],
                                                   self.daemon_duration)
        flat[live] = noisy

    @classmethod
    def disabled(cls) -> "NoiseModel":
        """A noise model that never perturbs anything (deterministic runs)."""
        return cls(seed=0, compute_jitter=0.0, network_jitter=0.0,
                   daemon_interval=0.0, daemon_duration=0.0)

    def is_disabled(self) -> bool:
        return (self.compute_jitter == 0.0 and self.network_jitter == 0.0
                and not self._has_daemons())


class NoiseDraws:
    """One run's scalar cursor over a :class:`NoiseModel`'s streams.

    The engine calls :meth:`compute` or :meth:`network` at each draw site
    as it reaches it; the values equal :meth:`NoiseModel.perturb_batch`
    over the same sites, element by element.
    """

    __slots__ = ("_model", "_daemons", "_lognormal", "_poisson", "_gamma")

    def __init__(self, model: NoiseModel):
        self._model = None if model.is_disabled() else model
        if self._model is not None:
            self._daemons = model._has_daemons()
            jitter, hit_stream, time_stream = _streams(model.seed)
            self._lognormal = jitter.lognormal
            self._poisson = hit_stream.poisson
            self._gamma = time_stream.gamma

    def compute(self, duration: float) -> float:
        """The noisy duration of the next compute block."""
        model = self._model
        if duration <= 0 or model is None:
            return duration
        noisy = duration * self._lognormal(0.0, model.compute_jitter)
        if self._daemons:
            hits = self._poisson(duration / model.daemon_interval)
            if hits:
                noisy += self._gamma(hits, model.daemon_duration)
        return noisy

    def network(self, duration: float) -> float:
        """The noisy wire time of the next message transfer."""
        model = self._model
        if duration <= 0 or model is None:
            return duration
        return duration * self._lognormal(0.0, model.network_jitter)
