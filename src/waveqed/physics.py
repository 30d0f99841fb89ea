"""Core conventions and single-emitter response of a waveguide-coupled atom array.

Everything internal runs in natural units: the intrinsic decay rate Gamma0
equals 1, times are measured in 1/Gamma0 and angular detunings in Gamma0.
SI values cross the boundary only through :class:`Units`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAMMA0_HZ = 5.2e6       # intrinsic linewidth Gamma0/2pi of the probed transition
BETA_DEFAULT = 0.55e-2  # mean guided-mode coupling ratio per atom


@dataclass(frozen=True)
class Units:
    """Conversions between natural units (Gamma0 = 1) and SI.

    A time of 1 in natural units is 1/Gamma0 = 1/(2 pi gamma0_hz) seconds;
    an angular rate of 1 in natural units oscillates at gamma0_hz cycles
    per second.
    """

    gamma0_hz: float = GAMMA0_HZ

    def __post_init__(self):
        if not 0 < self.gamma0_hz < math.inf:
            raise ValueError(f"gamma0_hz must be finite and positive, got {self.gamma0_hz}")

    @property
    def gamma0_rad_per_s(self) -> float:
        return 2.0 * math.pi * self.gamma0_hz

    def time_to_si(self, t_natural):
        """Time in 1/Gamma0 -> seconds."""
        return t_natural / self.gamma0_rad_per_s

    def time_from_si(self, t_seconds):
        """Seconds -> time in 1/Gamma0."""
        return t_seconds * self.gamma0_rad_per_s


@dataclass(frozen=True)
class EnsembleSpec:
    """A discrete chain of identical two-level emitters on one guided mode.

    beta  : ratio of each atom's guided-mode emission rate to the total rate
            Gamma0, one number in (0, 0.5]; 0.5 means fully waveguide
            coupled (one half per propagation direction).
    phase : theta_n = 2 k x_n mod 2pi, one per atom.  Only the bidirectional
            model reads it; the forward cascade is position independent.
    """

    beta: float
    phase: np.ndarray

    def __post_init__(self):
        if np.ndim(self.beta) != 0 or not 0.0 < self.beta <= 0.5:
            raise ValueError(f"coupling ratio beta must be one number in (0, 0.5], "
                             f"got {self.beta!r}")
        phase = np.asarray(self.phase, dtype=float)
        if phase.ndim != 1 or phase.size < 1:
            raise ValueError("phase must hold one value per atom, at least one atom")
        if not np.all(np.isfinite(phase)):
            raise ValueError("phase must be finite")
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "phase", np.mod(phase, 2.0 * math.pi))

    @property
    def n_atoms(self) -> int:
        return self.phase.size

    @classmethod
    def uniform(cls, n_atoms, beta=BETA_DEFAULT):
        """Ensemble of n_atoms identical emitters at zero phase."""
        return cls(beta=beta, phase=np.zeros(_require_count("n_atoms", n_atoms)))

    @classmethod
    def from_od(cls, od, beta=BETA_DEFAULT):
        """Uniform ensemble sized to a resonant optical depth."""
        return cls.uniform(od_to_atom_number(od, beta), beta=beta)


def _require_integer(name, value) -> int:
    """int(value), or a ValueError naming name unless value is a Python or
    numpy integer (a bool, a float and a NaN are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_count(name, value) -> int:
    """_require_integer(name, value), which must also be at least 1."""
    value = _require_integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return value


def single_atom_coefficients(delta, beta=BETA_DEFAULT):
    """Amplitude transmission and reflection of one emitter.

    t(delta) = 1 - beta / (1/2 + i delta)
    r(delta) = -beta / (1/2 + i delta)

    with Gamma0 = 1, so t - r = 1 identically.  Accepts scalar or array
    detunings.
    """
    beta = np.asarray(beta, dtype=float)
    if not np.all((beta > 0.0) & (beta <= 0.5)):
        raise ValueError("coupling ratio beta must lie in (0, 0.5]")
    r = -beta / (0.5 + 1j * np.asarray(delta, dtype=float))
    return 1.0 + r, r


def od_to_atom_number(od, beta=BETA_DEFAULT) -> int:
    """Number of atoms giving resonant power transmission exp(-od).

    Calibrated through |t(0)|^(2N) = (1 - 2 beta)^(2N) = exp(-od), i.e.
    N = round(-od / (2 ln(1 - 2 beta))).  beta = 0.5 is rejected (the
    logarithm is singular there).
    """
    od = float(od)
    beta = float(beta)
    if not 0.0 <= od < math.inf:
        raise ValueError(f"optical depth od must be finite and non-negative, got {od}")
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 0.5) for the OD calibration")
    return int(round(-od / (2.0 * math.log1p(-2.0 * beta))))


def resonant_od(n_atoms, beta=BETA_DEFAULT) -> float:
    """Resonant optical depth of n_atoms identical emitters, -2N ln(1-2beta)."""
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 0.5) for the OD calibration")
    return -2.0 * _require_count("n_atoms", n_atoms) * math.log1p(-2.0 * beta)
