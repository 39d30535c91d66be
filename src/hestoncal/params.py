"""Parameter vectors, admissible boxes and payoff helpers for the Heston model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Numerical margin used when the Feller condition is enforced.
FELLER_EPS = 1e-8

#: |rho| is kept strictly below this to preserve a positive definite diffusion.
RHO_CAP = 0.9999


def feller_margin(xi: float, gamma: float, kappa: float) -> float:
    """Return 2*kappa*gamma - xi**2; positive iff the Feller condition holds."""
    return 2.0 * kappa * gamma - xi * xi


def put_payoff_log(x) -> np.ndarray:
    """The unit-strike put payoff max(1 - exp(x), 0) at log-moneyness x."""
    return np.maximum(1.0 - np.exp(x), 0.0)


def _check_finite_positive(name: str, value: float) -> None:
    # written as a negated test so that NaN, for which every comparison is
    # false, is rejected too
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """PDE parameter vector mu = (xi, rho, gamma, kappa, r).

    xi: volatility of volatility (finite, > 0)
    rho: correlation between asset and variance noise, in (-1, 1)
    gamma: long-run variance (finite, > 0)
    kappa: mean-reversion rate (finite, > 0)
    r: risk-free rate (any finite value, per year)
    """

    xi: float
    rho: float
    gamma: float
    kappa: float
    r: float

    def __post_init__(self):
        for name in ("xi", "gamma", "kappa"):
            _check_finite_positive(name, getattr(self, name))
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie strictly in (-1, 1), got {self.rho}")
        if not np.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.xi, self.rho, self.gamma, self.kappa, self.r])


@dataclass(frozen=True)
class CalibParams:
    """Calibration vector Theta = (xi, rho, gamma, kappa, nu0)."""

    xi: float
    rho: float
    gamma: float
    kappa: float
    nu0: float

    def __post_init__(self):
        _check_finite_positive("nu0", self.nu0)

    def to_model(self, r: float) -> ModelParams:
        """Drop nu0 and attach the (externally fixed) interest rate."""
        return ModelParams(self.xi, self.rho, self.gamma, self.kappa, r)

    @staticmethod
    def from_array(theta) -> "CalibParams":
        xi, rho, gamma, kappa, nu0 = (float(v) for v in theta)
        return CalibParams(xi, rho, gamma, kappa, nu0)


@dataclass(frozen=True)
class ParamBox:
    """Componentwise box for a 5-dimensional parameter vector.

    Correlation bounds reaching +-1 are shrunk to +-RHO_CAP so the diffusion
    matrix stays positive definite everywhere in the box.
    """

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != (5,) or hi.shape != (5,):
            raise ValueError("box bounds must have 5 entries each")
        lo = lo.copy()
        hi = hi.copy()
        lo[1] = max(lo[1], -RHO_CAP)
        hi[1] = min(hi[1], RHO_CAP)
        if not np.all(lo < hi):
            raise ValueError("box requires lower < upper componentwise")
        object.__setattr__(self, "lower", tuple(lo))
        object.__setattr__(self, "upper", tuple(hi))

    @property
    def lo(self) -> np.ndarray:
        return np.asarray(self.lower)

    @property
    def hi(self) -> np.ndarray:
        return np.asarray(self.upper)

    def contains(self, theta) -> bool:
        t = np.asarray(theta, dtype=float)
        return bool(np.all(t >= self.lo) and np.all(t <= self.hi))

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


#: Box used for the PDE parameter mu during reduced-basis training.
DEFAULT_PARAM_BOX = ParamBox(
    lower=(0.1, -0.95, 0.01, 0.1, 0.0001),
    upper=(0.9, 0.95, 0.5, 5.0, 0.8),
)

#: Box used for the calibration vector Theta.
DEFAULT_CALIB_BOX = ParamBox(
    lower=(0.1, -0.95, 0.01, 0.1, 1e-5),
    upper=(0.9, 0.3, 0.5, 5.0, 1.0),
)


def clamp_to_box(theta, box: ParamBox) -> np.ndarray:
    """Componentwise projection of theta onto the box."""
    return np.clip(np.asarray(theta, dtype=float), box.lo, box.hi)
