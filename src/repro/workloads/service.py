"""Service-time distributions with controllable variability.

Section 4 of the paper: "The combination of PS scheduling with
thread-per-request will actually provide superior performance for
server workloads with high execution-time variability [46, 80]."
Experiment E12 sweeps that variability; these distributions provide it
with known means and squared coefficients of variation (SCV).
"""

from __future__ import annotations

import abc
import math
import random

from repro.errors import ConfigError


class ServiceDistribution(abc.ABC):
    """A positive service-time distribution (cycles)."""

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one service time in cycles."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected service time in cycles."""

    @abc.abstractmethod
    def variance(self) -> float:
        """Variance of the service time."""

    def scv(self) -> float:
        """Squared coefficient of variation (variance / mean^2)."""
        mu = self.mean()
        return self.variance() / (mu * mu)


class Constant(ServiceDistribution):
    """Deterministic service time (SCV = 0)."""

    def __init__(self, cycles: float):
        if cycles <= 0:
            raise ConfigError(f"service time must be positive, got {cycles}")
        self.cycles = float(cycles)

    def sample(self, rng: random.Random) -> float:
        return self.cycles

    def mean(self) -> float:
        return self.cycles

    def variance(self) -> float:
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Constant({self.cycles:.0f})"


class Exponential(ServiceDistribution):
    """Exponential service time (SCV = 1) -- the M/M/1 reference point."""

    def __init__(self, mean_cycles: float):
        if mean_cycles <= 0:
            raise ConfigError(f"mean must be positive, got {mean_cycles}")
        self._mean = float(mean_cycles)

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self._mean)

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._mean * self._mean

    def __repr__(self) -> str:  # pragma: no cover
        return f"Exponential(mean={self._mean:.0f})"


class Bimodal(ServiceDistribution):
    """Short requests with occasional long ones.

    The canonical high-variability server workload (Shinjuku [46] uses
    exactly this shape): probability ``p_long`` of a ``long_cycles``
    request, otherwise ``short_cycles``.
    """

    def __init__(self, short_cycles: float, long_cycles: float,
                 p_long: float = 0.01):
        if short_cycles <= 0 or long_cycles <= 0:
            raise ConfigError("service times must be positive")
        if short_cycles >= long_cycles:
            raise ConfigError("short must be strictly less than long")
        if not 0.0 < p_long < 1.0:
            raise ConfigError(f"p_long must be in (0,1), got {p_long}")
        self.short = float(short_cycles)
        self.long = float(long_cycles)
        self.p_long = float(p_long)

    def sample(self, rng: random.Random) -> float:
        return self.long if rng.random() < self.p_long else self.short

    def mean(self) -> float:
        return self.p_long * self.long + (1.0 - self.p_long) * self.short

    def variance(self) -> float:
        mu = self.mean()
        second = (self.p_long * self.long ** 2
                  + (1.0 - self.p_long) * self.short ** 2)
        return second - mu * mu

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Bimodal(short={self.short:.0f}, long={self.long:.0f},"
                f" p={self.p_long})")


class BoundedPareto(ServiceDistribution):
    """Heavy-tailed service times truncated at ``upper``.

    The "high execution-time variability" regime taken to its extreme;
    bounding keeps the simulation finite and the mean well-defined for
    any shape parameter.
    """

    def __init__(self, lower: float, upper: float, shape: float = 1.1):
        if lower <= 0 or upper <= lower:
            raise ConfigError("need 0 < lower < upper")
        if shape <= 0:
            raise ConfigError(f"shape must be positive, got {shape}")
        self.lower = float(lower)
        self.upper = float(upper)
        self.shape = float(shape)

    def sample(self, rng: random.Random) -> float:
        # inverse-CDF sampling of the truncated Pareto
        a, l, h = self.shape, self.lower, self.upper
        u = rng.random()
        denom = 1.0 - u * (1.0 - (l / h) ** a)
        return l / denom ** (1.0 / a)

    def _raw_moment(self, k: int) -> float:
        a, l, h = self.shape, self.lower, self.upper
        norm = 1.0 - (l / h) ** a
        if abs(a - k) < 1e-12:
            return a * l ** a * math.log(h / l) / norm
        return (a * l ** a / (a - k)
                * (l ** (k - a) - h ** (k - a)) / norm)

    def mean(self) -> float:
        return self._raw_moment(1)

    def variance(self) -> float:
        mu = self.mean()
        return self._raw_moment(2) - mu * mu

    def __repr__(self) -> str:  # pragma: no cover
        return (f"BoundedPareto({self.lower:.0f}, {self.upper:.0f},"
                f" shape={self.shape})")


class LogNormal(ServiceDistribution):
    """Lognormal service time parameterized by mean and SCV.

    Convenient for sweeping variability at a fixed mean: E12 holds the
    mean constant and walks SCV from 0.25 to 16.
    """

    def __init__(self, mean_cycles: float, scv: float = 1.0):
        if mean_cycles <= 0:
            raise ConfigError(f"mean must be positive, got {mean_cycles}")
        if scv <= 0:
            raise ConfigError(f"scv must be positive, got {scv}")
        self._mean = float(mean_cycles)
        self._scv = float(scv)
        self._sigma2 = math.log(1.0 + scv)
        self._mu = math.log(mean_cycles) - self._sigma2 / 2.0

    def sample(self, rng: random.Random) -> float:
        return rng.lognormvariate(self._mu, math.sqrt(self._sigma2))

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._scv * self._mean * self._mean

    def __repr__(self) -> str:  # pragma: no cover
        return f"LogNormal(mean={self._mean:.0f}, scv={self._scv})"
