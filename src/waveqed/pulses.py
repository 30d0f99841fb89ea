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

from .physics import (
    EnsembleSpec,
    InputError,
    _grid_length,
    _require_finite,
    _require_positive,
    _validate_grid,
)
from .spectra import TransferSpectrum, _cascade_amplitudes, transfer_unidirectional

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
    return np.arange(n) * (math.pi / _require_positive("span", span))


@dataclass(frozen=True)
class PulseWaveform:
    """Complex baseband field envelope on a uniform time grid.

    |envelope|^2 is a photon flux, so the photon number (the pulse energy in
    units of hbar*omega) is sum(|envelope|^2) * dt, which must be finite.
    switch_off marks the instant the trailing edge completes (None if unknown).
    """

    t: np.ndarray
    envelope: np.ndarray
    carrier_detuning: float
    switch_off: float | None = None

    def __post_init__(self):
        t = _validate_grid(self.t, name="time grid")
        _require_finite(carrier_detuning=self.carrier_detuning)
        if self.switch_off is not None:
            _require_finite(switch_off=self.switch_off)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "envelope", _envelope_on(t, self.envelope))

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

    def with_envelope(self, envelope) -> PulseWaveform:
        """Another envelope on this pulse's time grid, carrier and switch_off.

        The grid was checked when this pulse was built, so only the
        envelope is.
        """
        pulse = object.__new__(PulseWaveform)
        vars(pulse).update(t=self.t, envelope=_envelope_on(self.t, envelope),
                           carrier_detuning=self.carrier_detuning, switch_off=self.switch_off)
        return pulse

    def power(self):
        """Instantaneous photon flux |envelope|^2."""
        return np.abs(self.envelope) ** 2

    def energy(self) -> float:
        return _energy(self.envelope, self.dt)

    @property
    def photon_number(self) -> float:
        """The pulse energy in units of hbar*omega, which the envelope fixes."""
        return self.energy()


def pulse_edges(t_first, t_last, dt, duration, rise_fall, start, photon_number):
    """(on, off, ramp) of synthesize_pulse's envelope, once its scalar rules hold.

    The leading cos^2 ramp begins at on and the trailing one at off, each
    lasting ramp (0 for a boxcar); the pulse switches off at off + ramp.
    The grid enters by its first and last sample and its step, so a config
    is checked before any array exists.  Raises InputError.  Two rules
    need the pulse's arrays: a boxcar must hold a grid sample
    (synthesize_pulse), and the aliasing guard, which needs the pulse's
    FFT, runs when its spectrum is first read.
    """
    duration = _require_positive("duration", duration)
    rise_fall = float(rise_fall)
    if not rise_fall >= 0:
        raise InputError("rise_fall", f"rise_fall must be non-negative, got {rise_fall}")
    if rise_fall >= duration:
        raise InputError("rise_fall",
                         f"rise_fall {rise_fall} must be shorter than duration {duration}")
    if not 0 <= float(photon_number) < math.inf:
        raise InputError("photon_number", f"photon_number must be finite and "
                                          f"non-negative, got {photon_number}")
    _require_finite(start=start)
    if rise_fall > 0 and rise_fall < MIN_EDGE_SAMPLES * dt:
        raise InputError(
            "rise_fall", f"rise_fall {rise_fall} under-resolved: needs >= {MIN_EDGE_SAMPLES} "
                         f"samples of dt = {dt:.3e}")
    window = t_last - t_first + dt
    needed = PADDING_FACTOR * duration + PADDING_TAIL
    if window < needed:
        raise InputError(
            "t_grid", f"time window {window:.3g} too short; need >= {needed:.3g} "
                      f"({PADDING_FACTOR}x duration + {PADDING_TAIL} tail)")
    ramp = rise_fall / _EDGE_1090
    on = start - _EDGE_X50 * ramp                      # leading ramp begins
    off = start + duration - (1.0 - _EDGE_X50) * ramp  # trailing ramp begins
    if off < on + ramp:
        raise InputError("rise_fall", "edges overlap: duration too short for rise_fall")
    if on < t_first or off + ramp > t_last:
        raise InputError("start", "pulse footprint does not fit inside the time grid")
    return on, off, ramp


def synthesize_pulse(t_grid, duration, rise_fall, carrier_detuning=0.0,
                     photon_number=1.0, start=1.0) -> PulseWaveform:
    """Boxcar pulse with raised-cosine edges, normalized to a photon number.

    duration is the separation of the 50% power points; rise_fall is the
    10-90% width of the power ramps (the full cos^2 amplitude ramp is about
    2.11x longer).  rise_fall = 0 gives an ideal boxcar; a nonzero
    rise_fall must be resolved by at least MIN_EDGE_SAMPLES grid steps.
    The grid must also cover PADDING_FACTOR * duration + PADDING_TAIL so
    slow decays do not wrap around in the transforms.  pulse_edges states
    these rules.
    """
    t = _validate_grid(t_grid, name="time grid")
    dt = t[1] - t[0]
    on, off, ramp = pulse_edges(t[0], t[-1], dt, duration, rise_fall, start, photon_number)
    # a boxcar's ramps hold no sample
    env = np.zeros(t.size)
    rising = (t >= on) & (t < on + ramp)
    env[rising] = np.sin(0.5 * math.pi * (t[rising] - on) / ramp) ** 2
    env[(t >= on + ramp) & (t < off)] = 1.0
    falling = (t >= off) & (t < off + ramp)
    env[falling] = np.cos(0.5 * math.pi * (t[falling] - off) / ramp) ** 2

    energy = float(np.sum(env ** 2) * dt)
    if energy <= 0:
        raise InputError("duration", "the boxcar holds no grid sample: duration too short")
    env = env.astype(complex) * math.sqrt(photon_number / energy)
    return PulseWaveform(t, env, float(carrier_detuning), switch_off=float(off + ramp))


def _energy(envelope, dt) -> float:
    """The photon number sum |envelope|^2 dt, in one pass."""
    return float(np.vdot(envelope, envelope).real) * float(dt)


def _envelope_on(t, envelope):
    """envelope as a complex array on the checked grid t, of finite energy."""
    envelope = np.asarray(envelope, dtype=complex)
    if envelope.shape != t.shape:
        raise ValueError("time grid and envelope must have matching shapes")
    energy = _energy(envelope, t[1] - t[0])
    if not energy < math.inf:  # NaN fails too
        raise InputError("envelope", f"envelope energy must be finite, got {energy}")
    return envelope


def _read_only(array):
    array.flags.writeable = False
    return array


def _check_alias(pulse: PulseWaveform, spectrum):
    """The aliasing guard.  The edges set a pulse's spectral tails, so a
    break names rise_fall (an ideal boxcar, rise_fall 0, breaks it)."""
    power = np.abs(spectrum) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return
    outer = np.abs(pulse.omega) >= (1.0 - ALIAS_BAND) * (math.pi / pulse.dt)
    fraction = float(np.sum(power[outer]) / total)
    if fraction > ALIAS_TOL:
        raise InputError(
            "rise_fall", f"aliasing guard: {fraction:.3e} of the spectral energy sits in "
                         f"the outermost {ALIAS_BAND:.0%} of the frequency window "
                         f"(limit {ALIAS_TOL:g})")


def propagate_pulse(pulse: PulseWaveform, medium: TransferSpectrum) -> PulseWaveform:
    """Transmit a pulse through a medium response.

    out(t) = F^{-1}[ u(delta) * T(delta) ] with the pulse spectrum centered
    at its carrier detuning, so the medium must hold ``pulse.detunings()``:
    as its grid, or as G consecutive points of a longer grid, such as a
    union grid that serves several carriers (see _window).  The operation
    is linear and grid-exact: scaling the input scales the output, and
    circular time shifts commute with it.
    """
    amplitude = medium.amplitude[_window(pulse, medium.delta)]
    # in place on the shifted copy, the spectrum still the first operand:
    # numpy's complex product rounds some last bits differently swapped
    field = np.fft.ifftshift(amplitude)
    np.multiply(pulse.spectrum, field, out=field)
    return pulse.with_envelope(np.fft.ifft(field))


def _window(pulse: PulseWaveform, delta):
    """The slice of delta that is pulse.detunings(), to 1e-9 of the grid's extent.

    In O(1): delta is the detunings array itself, or, both grids being
    uniform (checked when each was built), its slice is the one whose end
    points match theirs.
    """
    expected = pulse.detunings()
    if delta is expected:
        return slice(None)
    n = expected.size
    start = 0
    if delta.size > n:  # expected[0]'s index in delta, by delta's mean step
        start = round((expected[0] - delta[0]) * (delta.size - 1) / (delta[-1] - delta[0]))
    stop = start + n
    tol = 1e-9 * (abs(expected[0]) + abs(expected[-1]) + 1.0)
    if not (0 <= start and stop <= delta.size and abs(delta[start] - expected[0]) <= tol
            and abs(delta[stop - 1] - expected[-1]) <= tol):
        raise ValueError(
            "grid mismatch: medium must hold pulse.detunings() "
            f"(medium spans [{delta[0]:.6g}, {delta[-1]:.6g}] in {delta.size} points, "
            f"pulse expects [{expected[0]:.6g}, {expected[-1]:.6g}] in {n})"
        )
    return slice(start, stop)


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


def strided_power(spectrum, stride):
    """|ifft(spectrum)|^2 at every stride-th sample.

    When the stride divides the grid, folding the spectrum onto G/stride
    bins first gives the same samples from a stride-times shorter FFT:
    ifft(X)[::s] = ifft(X.reshape(s, -1).sum(axis=0)) / s.
    """
    if spectrum.size % stride:
        return np.abs(np.fft.ifft(spectrum)[::stride]) ** 2
    folded = spectrum.reshape(stride, -1).sum(axis=0)
    return np.abs(np.fft.ifft(folded)) ** 2 / stride ** 2


def atom_dynamics(pulse: PulseWaveform, ensemble: EnsembleSpec,
                  medium: TransferSpectrum | None = None) -> AtomTrajectorySet:
    """Stored excitation, collective rate and output flux of a pulse
    driving the forward cascade.

    The stored energy E = sum_n p_n obeys the cascade's input-output balance
    dE/dt = P_in - P_out - (1 - beta) E (Gardiner 1993; Carmichael 1993),
    the per-atom balances telescoped, so gamma_coll = -dE/dt / E is exact
    and E is one FFT solve of the balance: no per-atom transform runs.
    medium is the cascade's transmission on pulse.detunings(), that of
    transfer_unidirectional (computed here when None); an OD sweep passes
    each OD's as a power of one single-atom response.
    """
    if medium is None:
        medium = transfer_unidirectional(pulse.detunings(), ensemble)
    omega = pulse.omega
    transmitted = propagate_pulse(pulse, medium).power()
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
