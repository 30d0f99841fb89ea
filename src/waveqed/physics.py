"""Core conventions and single-emitter response of a waveguide-coupled atom array.

Everything internal runs in natural units: the intrinsic decay rate Gamma0
equals 1, times are measured in 1/Gamma0 and angular detunings in Gamma0.
SI values cross the boundary only through :class:`Units`.  The input rules
live here too, each stated once and raising :class:`InputError`.
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
        _require_positive("gamma0_hz", self.gamma0_hz)

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
        beta = _require_beta(self.beta)
        phase = np.asarray(self.phase, dtype=float)
        if phase.ndim != 1 or phase.size < 1:
            raise InputError("phase", "phase must hold one value per atom, at least one atom")
        if not np.all(np.isfinite(phase)):
            raise InputError("phase", "phase must be finite")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "phase", np.mod(phase, 2.0 * math.pi))

    @property
    def n_atoms(self) -> int:
        return self.phase.size

    @classmethod
    def uniform(cls, n_atoms, beta=BETA_DEFAULT):
        """Ensemble of n_atoms identical emitters at zero phase."""
        return cls(beta=beta, phase=np.zeros(_require_integer("n_atoms", n_atoms, least=1)))

    @classmethod
    def from_od(cls, od, beta=BETA_DEFAULT):
        """Uniform ensemble sized to a resonant optical depth."""
        return cls.uniform(od_to_atom_number(od, beta), beta=beta)


@dataclass(frozen=True)
class CavitySpec:
    """Fiber ring resonator enclosing the medium.

    t_rt   : roundtrip amplitude transmission of the passive ring, in (0, 1].
    t_c    : coupler through-transmission amplitude, |t_c| <= 1 (to 1e-12).
             The printed ring response is passive only for real t_c.
    tau_rt : roundtrip delay in 1/Gamma0.
    phi0   : static roundtrip phase at zero detuning, radians.
    """

    t_rt: float
    t_c: complex
    tau_rt: float
    phi0: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.t_rt <= 1.0:
            raise InputError("t_rt", f"t_rt must lie in (0, 1], got {self.t_rt}")
        if not abs(self.t_c) <= 1.0 + 1e-12:
            raise InputError("t_c", f"|t_c| must not exceed 1, got {abs(self.t_c)}")
        _require_positive("tau_rt", self.tau_rt)
        _require_finite(phi0=self.phi0)


class InputError(ValueError):
    """An argument that breaks an input rule.  parameter names it as the rule
    does, so a config can name its own field (scenarios maps each in one table)."""

    def __init__(self, parameter, message):
        self.parameter = parameter
        super().__init__(message)


# The input rules, each stated once; every one raises an InputError naming
# its parameter.  CavitySpec and pulses.pulse_edges state their own.

def _require_integer(name, value, least=None) -> int:
    """int(value) of a Python or numpy integer (a bool, a float or a NaN is not),
    at least least if given: 1 for a count, 0 for an index or a seed."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(name, f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InputError(name, f"{name} must be at least {least}, got {value}")
    return int(value)


def _require_finite(**values):
    """Each of values, which must not be NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(float(value)):
            raise InputError(name, f"{name} must be finite, got {value}")


def _require_positive(name, value) -> float:
    """float(value), which must be finite and positive (NaN is not)."""
    value = float(value)
    if not 0 < value < math.inf:
        raise InputError(name, f"{name} must be finite and positive, got {value}")
    return value


def _require_beta(beta, name="beta") -> float:
    """float(beta), one coupling ratio in (0, 1/2] (1/2: fully waveguide coupled)."""
    if np.ndim(beta) != 0 or not 0.0 < beta <= 0.5:
        raise InputError(name, f"{name} must be one number in (0, 0.5], got {beta!r}")
    return float(beta)


def _calibration_beta(beta) -> float:
    """_require_beta(beta), below 1/2: the OD calibration's log(1 - 2 beta) is singular there."""
    beta = _require_beta(beta)
    if beta == 0.5:
        raise InputError("beta", "beta must lie below 0.5 for the OD calibration")
    return beta


def _grid_length(n, name="grid length") -> int:
    """_require_integer(name, n), which must also be a power of two (an FFT grid)."""
    n = _require_integer(name, n, least=1)
    if n & (n - 1):
        raise InputError(name, f"{name} must be a power of two, got {n}")
    return n


def _uniform_grid(values, name="detuning grid"):
    """values as a one-dimensional float array, uniform and increasing."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise InputError(name, f"{name} must be one-dimensional")
    if values.size > 1:
        steps = np.diff(values)
        # every step within 1e-9 of the first, written so that NaN and Inf fail
        if not (0 < steps[0] < math.inf and np.abs(steps - steps[0]).max() <= 1e-9 * steps[0]):
            raise InputError(name, f"{name} must be uniform and increasing")
    return values


def _validate_grid(values, name="detuning grid"):
    """A uniform increasing grid whose length is a power of two (an FFT grid)."""
    values = _uniform_grid(values, name)
    _grid_length(values.size, f"{name} length")
    return values


def single_atom_coefficients(delta, beta=BETA_DEFAULT):
    """Amplitude transmission and reflection of one emitter.

    t(delta) = 1 - beta / (1/2 + i delta)
    r(delta) = -beta / (1/2 + i delta)

    with Gamma0 = 1, so t - r = 1 identically.  Accepts scalar or array
    detunings and one coupling ratio beta, as EnsembleSpec holds.
    """
    r = -_require_beta(beta) / (0.5 + 1j * np.asarray(delta, dtype=float))
    return 1.0 + r, r


def od_to_atom_number(od, beta=BETA_DEFAULT) -> int:
    """Number of atoms giving resonant power transmission exp(-od).

    Calibrated through |t(0)|^(2N) = (1 - 2 beta)^(2N) = exp(-od), i.e.
    N = round(-od / (2 ln(1 - 2 beta))).  beta = 0.5 is rejected (the
    logarithm is singular there).
    """
    od = float(od)
    if not 0.0 <= od < math.inf:
        raise InputError("od", f"optical depth od must be finite and non-negative, got {od}")
    return int(round(-od / (2.0 * math.log1p(-2.0 * _calibration_beta(beta)))))


def resonant_od(n_atoms, beta=BETA_DEFAULT) -> float:
    """Resonant optical depth of n_atoms identical emitters, -2N ln(1-2beta)."""
    beta = _calibration_beta(beta)
    return -2.0 * _require_integer("n_atoms", n_atoms, least=1) * math.log1p(-2.0 * beta)
