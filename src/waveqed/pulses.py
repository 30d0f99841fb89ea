"""Pulse synthesis and FFT propagation through a transfer spectrum.

Field envelopes are complex baseband amplitudes relative to a carrier at
detuning Delta_c from the atomic resonance; |envelope|^2 is a photon flux
in natural time, so the envelope energy integral counts photons.  The
transform convention pairs u(delta) = integral u(t) exp(-i delta t) dt with
its inverse, which makes the Lorentzian 1/(1/2 + i delta) a causal decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; load it at import, not in a run)

from .physics import EnsembleSpec
from .spectra import (
    TransferSpectrum,
    _cascade_amplitudes,
    _grid_length,
    _validate_grid,
    transfer_unidirectional,
)

# Raised-cosine (cos^2 amplitude) edge geometry: fractions of the full ramp
# at which the instantaneous power crosses 10%, 50% and 90%.
_EDGE_X10 = math.asin(0.1 ** 0.25) / (math.pi / 2)
_EDGE_X50 = math.asin(0.5 ** 0.25) / (math.pi / 2)
_EDGE_X90 = math.asin(0.9 ** 0.25) / (math.pi / 2)
_EDGE_1090 = _EDGE_X90 - _EDGE_X10

MIN_EDGE_SAMPLES = 8          # grid samples required across a nonzero rise_fall
PADDING_FACTOR = 4.0          # time window must cover this many pulse durations
PADDING_TAIL = 20.0           # plus this much decay tail, in 1/Gamma0
ALIAS_BAND = 0.01             # outermost fraction of the frequency window
ALIAS_TOL = 1e-6              # spectral energy fraction allowed in that band
ENERGY_FLOOR = 1e-6           # stored-energy fraction below which rates are masked;
                              # above the ~3e-8 error of the flux-balance solve


def time_grid(span, n):
    """Uniform time grid of n samples whose conjugate detunings span [-span, span).

    The sample step is pi/span, so pulses on this grid pair with media
    evaluated on ``PulseWaveform.detunings()``.
    """
    n = _grid_length(n)
    if not 0 < float(span) < math.inf:
        raise ValueError(f"span must be finite and positive, got {span}")
    return np.arange(n) * (math.pi / float(span))


@dataclass(frozen=True)
class PulseWaveform:
    """Complex baseband field envelope on a uniform time grid.

    photon_number is the pulse energy in units of hbar*omega; the envelope
    is normalized so that sum(|envelope|^2) * dt reproduces it.  switch_off
    marks the instant the trailing edge completes (None if unknown).
    """

    t: np.ndarray
    envelope: np.ndarray
    carrier_detuning: float
    photon_number: float
    switch_off: float | None = None

    def __post_init__(self):
        t = _validate_grid(self.t, name="time grid")
        envelope = np.asarray(self.envelope, dtype=complex)
        if envelope.shape != t.shape:
            raise ValueError("time grid and envelope must have matching shapes")
        if not 0 <= self.photon_number < math.inf:
            raise ValueError(f"photon_number must be finite and non-negative, "
                             f"got {self.photon_number}")
        if not math.isfinite(self.carrier_detuning):
            raise ValueError(f"carrier_detuning must be finite, got {self.carrier_detuning}")
        if self.switch_off is not None and not math.isfinite(self.switch_off):
            raise ValueError(f"switch_off must be finite or None, got {self.switch_off}")
        dt = t[1] - t[0]
        energy = float(np.sum(np.abs(envelope) ** 2) * dt)
        if abs(energy - self.photon_number) > 1e-9 * max(self.photon_number, 1e-300):
            raise ValueError(
                f"envelope energy {energy} inconsistent with photon_number {self.photon_number}"
            )
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "envelope", envelope)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def omega(self):
        """Angular baseband frequency of each FFT bin, in FFT order."""
        return 2.0 * math.pi * np.fft.fftfreq(self.t.size, d=self.dt)

    @cached_property
    def spectrum(self):
        """FFT of the envelope, passed through the aliasing guard (read-only).

        Computed once per pulse, like the detunings: every propagation,
        atom_dynamics and atom_spectra call on the pulse shares them.
        """
        spectrum = np.fft.fft(self.envelope)
        _check_alias(self, spectrum)
        return _read_only(spectrum)

    @cached_property
    def _detunings(self):
        return _read_only(self.carrier_detuning + np.fft.fftshift(self.omega))

    def detunings(self):
        """Ascending absolute detunings conjugate to the time grid (read-only)."""
        return self._detunings

    def at_carrier(self, carrier_detuning) -> PulseWaveform:
        """This envelope at another carrier detuning.

        The spectrum depends on the envelope alone, so the new pulse shares
        this pulse's (computed here if it was not yet).
        """
        pulse = replace(self, carrier_detuning=float(carrier_detuning))
        pulse.__dict__["spectrum"] = self.spectrum
        return pulse

    def power(self):
        """Instantaneous photon flux |envelope|^2."""
        return np.abs(self.envelope) ** 2

    def energy(self) -> float:
        return float(np.sum(self.power()) * self.dt)


def synthesize_pulse(t_grid, duration, rise_fall, carrier_detuning=0.0,
                     photon_number=1.0, start=1.0) -> PulseWaveform:
    """Boxcar pulse with raised-cosine edges, normalized to a photon number.

    duration is the separation of the 50% power points; rise_fall is the
    10-90% width of the power ramps (the full cos^2 amplitude ramp is about
    2.11x longer).  rise_fall = 0 gives an ideal boxcar; a nonzero
    rise_fall must be resolved by at least MIN_EDGE_SAMPLES grid steps.
    The grid must also cover PADDING_FACTOR * duration + PADDING_TAIL so
    slow decays do not wrap around in the transforms.
    """
    t = _validate_grid(t_grid, name="time grid")
    duration = float(duration)
    rise_fall = float(rise_fall)
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if not rise_fall >= 0:
        raise ValueError(f"rise_fall must be non-negative, got {rise_fall}")
    if rise_fall >= duration:
        raise ValueError(f"rise_fall {rise_fall} must be shorter than duration {duration}")
    if not 0 <= float(photon_number) < math.inf:
        raise ValueError(f"photon_number must be finite and non-negative, got {photon_number}")
    _require_finite(start=start)
    dt = t[1] - t[0]
    if rise_fall > 0 and rise_fall < MIN_EDGE_SAMPLES * dt:
        raise ValueError(
            f"rise_fall {rise_fall} under-resolved: needs >= {MIN_EDGE_SAMPLES} samples "
            f"of dt = {dt:.3e}"
        )
    window = t[-1] - t[0] + dt
    needed = PADDING_FACTOR * duration + PADDING_TAIL
    if window < needed:
        raise ValueError(
            f"time window {window:.3g} too short; need >= {needed:.3g} "
            f"({PADDING_FACTOR}x duration + {PADDING_TAIL} tail)"
        )

    if rise_fall > 0:
        ramp = rise_fall / _EDGE_1090
        on = start - _EDGE_X50 * ramp                      # leading ramp begins
        off = start + duration - (1.0 - _EDGE_X50) * ramp  # trailing ramp begins
        if off < on + ramp:
            raise ValueError("edges overlap: duration too short for rise_fall")
        env = np.zeros(t.size)
        rising = (t >= on) & (t < on + ramp)
        env[rising] = np.sin(0.5 * math.pi * (t[rising] - on) / ramp) ** 2
        env[(t >= on + ramp) & (t < off)] = 1.0
        falling = (t >= off) & (t < off + ramp)
        env[falling] = np.cos(0.5 * math.pi * (t[falling] - off) / ramp) ** 2
        footprint = (on, off + ramp)
    else:
        env = ((t >= start) & (t < start + duration)).astype(float)
        footprint = (start, start + duration)
    if footprint[0] < t[0] or footprint[1] > t[-1]:
        raise ValueError("pulse footprint does not fit inside the time grid")

    energy = float(np.sum(env ** 2) * dt)
    if energy <= 0:
        raise ValueError("pulse footprint contains no grid samples")
    env = env.astype(complex) * math.sqrt(photon_number / energy)
    return PulseWaveform(t, env, float(carrier_detuning), float(photon_number),
                         switch_off=float(footprint[1]))


def _require_finite(**values):
    """Raise a ValueError naming the first of values that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(float(value)):
            raise ValueError(f"{name} must be finite, got {value}")


def _read_only(array):
    array.flags.writeable = False
    return array


def _check_alias(pulse: PulseWaveform, spectrum):
    power = np.abs(spectrum) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return
    outer = np.abs(pulse.omega) >= (1.0 - ALIAS_BAND) * (math.pi / pulse.dt)
    fraction = float(np.sum(power[outer]) / total)
    if fraction > ALIAS_TOL:
        raise ValueError(
            f"aliasing guard: {fraction:.3e} of the spectral energy sits in the "
            f"outermost {ALIAS_BAND:.0%} of the frequency window (limit {ALIAS_TOL:g})"
        )


def propagate_pulse(pulse: PulseWaveform, medium: TransferSpectrum) -> PulseWaveform:
    """Transmit a pulse through a medium response.

    out(t) = F^{-1}[ u(delta) * T(delta) ] with the pulse spectrum centered
    at its carrier detuning, so the medium must be sampled exactly on
    ``pulse.detunings()``.  The operation is linear and grid-exact: scaling
    the input scales the output, and circular time shifts commute with it.
    """
    _check_grid(pulse, medium.delta)
    out = _propagate(pulse, medium.amplitude)
    energy = float(np.sum(np.abs(out) ** 2) * pulse.dt)
    return PulseWaveform(pulse.t, out, pulse.carrier_detuning, energy,
                         switch_off=pulse.switch_off)


def _check_grid(pulse: PulseWaveform, delta):
    """Raise unless delta is pulse.detunings() to 1e-9 of the grid's extent."""
    expected = pulse.detunings()
    if delta.shape != expected.shape or not np.allclose(
        delta, expected, rtol=0.0, atol=1e-9 * (abs(expected[0]) + abs(expected[-1]) + 1.0)
    ):
        raise ValueError(
            "grid mismatch: medium must be sampled on pulse.detunings() "
            f"(medium spans [{delta[0]:.6g}, {delta[-1]:.6g}], "
            f"pulse expects [{expected[0]:.6g}, {expected[-1]:.6g}])"
        )


def _propagate(pulse: PulseWaveform, amplitude):
    """The output field of propagate_pulse, unchecked: amplitude must be
    sampled on pulse.detunings() (_check_grid) and passive."""
    # in place on the shifted copy, the spectrum still the first operand:
    # numpy's complex product rounds some last bits differently swapped
    field = np.fft.ifftshift(amplitude)
    np.multiply(pulse.spectrum, field, out=field)
    return np.fft.ifft(field)


@dataclass(frozen=True)
class AtomTrajectorySet:
    """Ensemble traces of a pulse driving the forward cascade.

    energy is the total stored excitation E(t) = sum_n p_n(t) over all
    atoms of the ensemble, and gamma_coll = -dE/dt / E the collective rate,
    exact from the cascade's flux balance (see atom_dynamics).  gamma_coll
    is NaN wherever E falls below ENERGY_FLOOR of its maximum (mask in
    ``valid``).  transmitted_power is the output flux P_out(t) of the
    cascade, as propagate_pulse gives it.  The per-atom p_n(t) come from
    atom_spectra.
    """

    t: np.ndarray
    transmitted_power: np.ndarray
    energy: np.ndarray
    gamma_coll: np.ndarray
    valid: np.ndarray


def atom_spectra(pulse: PulseWaveform, ensemble: EnsembleSpec):
    """Yield u(delta) * phi_n(delta) for each atom n = 1..N, in FFT order.

    phi_n = i t^(n-1) (t - 1) / sqrt(beta) are the cascade amplitudes,
    normalized so that p_n(t) = |ifft(u phi_n)|^2 is the atom's
    excited-state probability on pulse.t for the pulse photon number
    (linear regime).  It is spectra._cascade_amplitudes weighted by the
    pulse spectrum: one grid-sized multiply per atom, each atom yielded
    as the same array (copy one to keep it).
    """
    yield from _cascade_amplitudes(pulse.carrier_detuning + pulse.omega, ensemble, pulse.spectrum)


def _strided_power(spectrum, stride):
    """|ifft(spectrum)|^2 at every stride-th sample.

    When the stride divides the grid, folding the spectrum onto G/stride
    bins first gives the same samples from a stride-times shorter FFT:
    ifft(X)[::s] = ifft(X.reshape(s, -1).sum(axis=0)) / s.
    """
    if spectrum.size % stride:
        return np.abs(np.fft.ifft(spectrum)[::stride]) ** 2
    folded = spectrum.reshape(stride, -1).sum(axis=0)
    return np.abs(np.fft.ifft(folded)) ** 2 / stride ** 2


def atom_dynamics(pulse: PulseWaveform, ensemble: EnsembleSpec) -> AtomTrajectorySet:
    """Stored excitation, collective rate and output flux of a pulse
    driving the forward cascade.

    The stored energy E = sum_n p_n obeys the cascade's input-output balance
    dE/dt = P_in - P_out - (1 - beta) E (Gardiner 1993; Carmichael 1993),
    the per-atom balances telescoped, so gamma_coll = -dE/dt / E is exact
    and E is one FFT solve of the balance: no per-atom transform runs.
    """
    return _atom_dynamics(pulse, ensemble,
                          transfer_unidirectional(pulse.detunings(), ensemble).amplitude)


def _atom_dynamics(pulse: PulseWaveform, ensemble: EnsembleSpec,
                   transmission) -> AtomTrajectorySet:
    """atom_dynamics given the cascade's transmission t^N, unchecked: it must
    be sampled on pulse.detunings() and passive.  It is only read, so a
    caller may reuse its buffer once this returns."""
    omega = pulse.omega
    transmitted = np.abs(_propagate(pulse, transmission)) ** 2
    # atom_dynamics passes t^N in the call, so this frees it before the
    # energy solve: fewer fresh pages on large grids
    del transmission
    flux = pulse.power()
    flux -= transmitted
    loss_rate = 1.0 - ensemble.beta
    # the balance in frequency, fft(flux) / (i omega + loss_rate)
    energy = np.fft.fft(flux)
    energy /= 1j * omega + loss_rate
    energy = np.fft.ifft(energy).real
    de_dt = flux
    de_dt -= loss_rate * energy
    valid = energy >= ENERGY_FLOOR * float(np.max(energy))
    gamma = np.full(pulse.t.size, np.nan)
    np.divide(np.negative(de_dt, out=de_dt), energy, out=gamma, where=valid)
    return AtomTrajectorySet(pulse.t, transmitted, energy, gamma, valid)


def collective_rate_at_switchoff(traj: AtomTrajectorySet, t_off, settle_delay=0.02) -> float:
    """Collective decay rate -dE/E evaluated at t_off + settle_delay.

    The small settle delay skips the switch-off edge transient; it must be
    short against the fastest collective decay of interest.
    """
    _require_finite(t_off=t_off, settle_delay=settle_delay)
    target = float(t_off) + float(settle_delay)
    if target < traj.t[0] or target > traj.t[-1]:
        raise ValueError(f"evaluation time {target} outside the trace window")
    idx = int(np.searchsorted(traj.t, target))
    idx = min(idx, traj.t.size - 1)
    if not traj.valid[idx]:
        raise ValueError("stored energy below floor at the requested time")
    return float(traj.gamma_coll[idx])
