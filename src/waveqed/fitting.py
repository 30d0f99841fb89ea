"""Decay-rate extraction and the pipelines built on it.

Rates come from weighted least squares on the log of a power trace, with
weights proportional to the trace (shot-noise-like weighting).  The
residual periodogram exposes small oscillations riding on a fitted decay.
The figure pipelines live here too, so scenarios and acceptance tests share them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderModel, average_observable
from .physics import EnsembleSpec, Units, single_atom_coefficients
from .pulses import (
    _atom_dynamics,
    _check_grid,
    _propagate,
    _require_finite,
    collective_rate_at_switchoff,
)
from .spectra import (
    RECURSION_EPS,
    _check_passive,
    _integer_power,
    _power_log,
    _recursion,
    transfer_unidirectional,
)

SETTLE_DELAY = Units().time_from_si(1e-9)      # skip the switch-off transient
FLASH_WINDOW = 0.1                             # fit window (1/Gamma0) for the initial flash
FIT_CYCLES = 2.0                               # initial-decay window, in decay times
FIT_PASSES = 3                                 # bootstrap fit, then refits at the adapted window
BOOTSTRAP_WINDOW = 0.3                         # first-pass window (1/Gamma0) of the initial decay
MIN_INITIAL_POINTS = 20                        # fewest samples in an initial-decay window


@dataclass(frozen=True)
class DecayFit:
    """Exponential fit A exp(-rate (t - window[0])) of a power trace.

    amplitude is the model value at the window start; residuals are on the
    original power scale, sampled on t.
    """

    rate: float
    amplitude: float
    window: tuple
    rms_residual: float
    t: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        # written so that NaN fails each check
        if not 0 < self.rate < math.inf:
            raise ValueError(f"fitted rate must lie in (0, inf), got {self.rate}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"fitted amplitude must be finite, got {self.amplitude}")
        if not self.window[1] > self.window[0]:
            raise ValueError("fit window must be increasing")
        if not 0 <= self.rms_residual < math.inf:
            raise ValueError(f"rms_residual must lie in [0, inf), got {self.rms_residual}")

    def model(self, t):
        return self.amplitude * np.exp(-self.rate * (np.asarray(t) - self.window[0]))


def fit_pulse_decay(t, power, t_off, window_len, settle_delay=SETTLE_DELAY,
                    min_points=8) -> DecayFit:
    """Fit A exp(-rate t) to a power trace after switch-off.

    The window starts at the first sample after t_off + settle_delay and
    runs for window_len.  The fit is linear in log(power) with weights
    proportional to the trace; non-positive samples inside the window are
    rejected (shorten the window instead).
    """
    t = np.asarray(t, dtype=float)
    power = np.asarray(power, dtype=float)
    if t.shape != power.shape:
        raise ValueError("time and power traces must have matching shapes")
    _require_finite(t_off=t_off, settle_delay=settle_delay)
    if not 0 < float(window_len) < math.inf:
        raise ValueError(f"window_len must be finite and positive, got {window_len}")
    start = float(t_off) + float(settle_delay)
    i0 = int(np.searchsorted(t, start, side="right"))
    i1 = int(np.searchsorted(t, start + float(window_len), side="right"))
    if i1 - i0 < min_points:
        raise ValueError(
            f"fit window [{start:.4g}, {start + window_len:.4g}] holds "
            f"{i1 - i0} samples; need >= {min_points}"
        )
    x = t[i0:i1]
    y = power[i0:i1]
    if np.any(y <= 0):
        raise ValueError("non-positive samples in the fit window; shorten the window")
    xs = x - x[0]
    slope, intercept = np.polyfit(xs, np.log(y), 1, w=np.sqrt(y))
    rate = -float(slope)
    if rate <= 0:
        raise ValueError(f"trace does not decay over the window (fitted rate {rate:.3g})")
    amplitude = float(math.exp(intercept))
    residuals = y - amplitude * np.exp(-rate * xs)
    rms = float(np.sqrt(np.mean(residuals ** 2)))
    return DecayFit(rate, amplitude, (float(x[0]), float(x[-1])), rms, x.copy(), residuals)


@dataclass(frozen=True)
class ResidualSpectrum:
    """Hann-windowed periodogram of fit residuals.

    frequency is angular, in Gamma0; peak_frequency is NaN when no peak is
    found above min_frequency.
    """

    frequency: np.ndarray
    psd: np.ndarray
    peak_frequency: float
    peak_prominence: float
    min_frequency: float


def residual_spectrum(fit: DecayFit, min_frequency=None) -> ResidualSpectrum:
    """Power spectral density of the fit residuals, with peak finding.

    The fit window must hold at least four periods of min_frequency
    (default: exactly the four-period limit of the window).  scipy is
    imported here, on the first call, so that waveqed imports numpy only.
    """
    from scipy.signal import find_peaks

    res = fit.residuals
    t = fit.t
    n = res.size
    window = float(t[-1] - t[0])
    if window <= 0 or n < 8:
        raise ValueError("residual trace too short for a periodogram")
    limit = 4.0 * 2.0 * math.pi / window
    if min_frequency is None:
        min_frequency = limit
    elif min_frequency < limit:
        raise ValueError(
            f"window holds fewer than 4 periods of min_frequency {min_frequency:.4g} "
            f"(limit {limit:.4g})"
        )
    dt = float(t[1] - t[0])
    taper = np.hanning(n)
    spec = np.fft.rfft(res * taper)
    freq = 2.0 * math.pi * np.fft.rfftfreq(n, d=dt)
    psd = (np.abs(spec) ** 2) * (2.0 * dt / np.sum(taper ** 2))

    band = freq >= min_frequency
    peak_freq, prominence = math.nan, 0.0
    if np.any(band):
        peaks, props = find_peaks(psd[band], prominence=0.0)
        if peaks.size:
            best = int(np.argmax(props["prominences"]))
            peak_freq = float(freq[band][peaks[best]])
            prominence = float(props["prominences"][best])
    return ResidualSpectrum(freq, psd, peak_freq, prominence, float(min_frequency))


@dataclass(frozen=True)
class DirectionalDecay:
    """Forward and backward decay fits at one carrier detuning."""

    detuning: float
    forward: DecayFit
    backward: DecayFit


GRID_MATCH_TOL = 1e-9  # fraction of a grid step within which carriers count as step-aligned


def _shared_grids(pulses):
    """Union detuning grids, each serving pulses whose grids are whole-step shifts.

    The pulses share one time grid, so their detuning grids c + k h
    (k = -G/2 .. G/2-1, h = 2 pi / (G dt)) differ only in the carrier c.  A
    pulse joins the first group whose reference carrier lies a whole number
    of steps away (to GRID_MATCH_TOL of a step) and whose union grid its own
    grid overlaps; otherwise it starts a group of its own.  Returns one
    (union grid, [(pulse index, start of its G-point slice)]) per group; the
    grid follows the arithmetic of PulseWaveform.detunings with k extended.
    """
    n = pulses[0].t.size
    inv_span = 1.0 / (n * pulses[0].dt)  # 1/(G dt), as numpy's fftfreq computes it
    step = 2.0 * math.pi * inv_span
    groups = []  # [reference carrier, first k, end k, [(pulse index, offset in steps)]]
    for i, pulse in enumerate(pulses):
        for group in groups:
            shift = (pulse.carrier_detuning - group[0]) / step
            offset = round(shift)
            if (abs(shift - offset) <= GRID_MATCH_TOL
                    and offset - n // 2 < group[2] and offset + n // 2 > group[1]):
                group[1] = min(group[1], offset - n // 2)
                group[2] = max(group[2], offset + n // 2)
                group[3].append((i, offset))
                break
        else:
            groups.append([pulse.carrier_detuning, -(n // 2), n // 2, [(i, 0)]])
    return [(carrier + 2.0 * math.pi * (np.arange(lo, hi) * inv_span),
             [(i, offset - n // 2 - lo) for i, offset in members])
            for carrier, lo, hi, members in groups]


def _directional_powers(pulses):
    """Observable: forward and backward output power of every pulse, (n_pulses, 2, G).

    Each configuration costs one two-way recursion per union grid of
    _shared_grids; every pulse then reads its G-point slice of the
    transmission and reflection.  Each slice is checked against its
    pulse's grid once, here, and each configuration's response for
    passivity once per union grid.
    """
    groups = _shared_grids(pulses)
    n = pulses[0].t.size
    # each pulse's aliasing guard, spectrum and detunings run once, here, so
    # the arrays it keeps sit below the configurations' temporaries on the heap
    for pulse in pulses:
        _ = pulse.spectrum, pulse.detunings()
    for grid, members in groups:
        for i, start in members:
            _check_grid(pulses[i], grid[start:start + n])

    def observable(ens):
        out = np.empty((len(pulses), 2, n))
        for grid, members in groups:
            t_prod, s = _recursion(grid, ens, RECURSION_EPS)
            _check_passive(t_prod)
            _check_passive(s)
            for i, start in members:
                window = slice(start, start + n)
                for row, amplitude in enumerate((t_prod, s)):
                    out[i, row] = np.abs(_propagate(pulses[i], amplitude[window])) ** 2
        return out

    return observable


def backward_decay_sweep(pulse, n_atoms, detunings, beta, n_configs, seed, forward_window,
                         backward_window, settle_delay, n_workers=1):
    """Disorder-averaged forward/backward decay rates versus detuning.

    For each carrier detuning, the pulse (its envelope; the carrier is
    replaced) is propagated through the two-way transmission and
    reflection of each of n_configs random configurations of n_atoms,
    the power traces are averaged, and each direction is fitted with the
    initial-rate protocol under its own window cap (forward decays are
    collective and fast, backward light decays near the intrinsic rate).
    Carriers a whole number of detuning-grid steps apart share one
    recursion per configuration on their union grid.  Power
    traces are symmetric under detuning sign flip, so sweeping positive
    detunings covers |delta|.
    """
    model = DisorderModel(n_atoms=n_atoms, beta_mean=beta, seed=seed)
    pulses = [pulse.at_carrier(carrier) for carrier in detunings]
    mean, _ = average_observable(model, n_configs, _directional_powers(pulses),
                                 n_workers=n_workers)
    results = []
    for pulse, (forward, backward) in zip(pulses, mean):
        fwd = fit_initial_decay(pulse.t, forward, pulse.switch_off, forward_window,
                                settle_delay)
        bwd = fit_initial_decay(pulse.t, backward, pulse.switch_off, backward_window,
                                settle_delay)
        results.append(DirectionalDecay(pulse.carrier_detuning, fwd, bwd))
    return results


def disorder_averaged_forward(pulse, n_atoms, beta, n_configs, seed, n_workers=1):
    """Forward output power of the cascade and of the disorder-averaged chain.

    Returns (cascade, mean, stderr): the output power of the uniform
    forward cascade of n_atoms, and the mean and standard error over
    n_configs random-phase configurations of the output power through the
    two-way transmission.  Back-scattering between atoms averages out, so
    the two agree within the Monte Carlo error.
    """
    delta = pulse.detunings()
    uniform = EnsembleSpec.uniform(n_atoms, beta)
    cascade = np.abs(_propagate(pulse, transfer_unidirectional(delta, uniform).amplitude)) ** 2
    model = DisorderModel(n_atoms=n_atoms, beta_mean=beta, seed=seed)

    def forward_power(sample):
        # on the pulse's own grid: only passivity is left to check
        t_prod, _ = _recursion(delta, sample, RECURSION_EPS)
        _check_passive(t_prod)
        return np.abs(_propagate(pulse, t_prod)) ** 2

    mean, stderr = average_observable(model, n_configs, forward_power, n_workers=n_workers)
    return cascade, mean, stderr


@dataclass(frozen=True)
class RingMultipass:
    """Ring run: out-coupled power with and without the medium, per roundtrip.

    The roundtrip lasts period samples (tau).  cavity_power and no_atom_power
    cover the samples of the window the run reads (at least up to
    start + (roundtrips + 1) tau).  Row m-1 of each per-roundtrip array is
    roundtrip m: the cavity flash rate, the rate of one pass at
    OD_tot = m * OD, the flash peak over the no-atom level, and the raw
    cavity and single-pass power over the roundtrip, at local_time.
    """

    cavity_power: np.ndarray
    no_atom_power: np.ndarray
    period: int
    tau: float
    local_time: np.ndarray
    cavity_rate: np.ndarray
    single_pass_rate: np.ndarray
    flash_ratio: np.ndarray
    cavity_segments: np.ndarray
    single_pass_segments: np.ndarray


def roundtrip_samples(tau_rt, dt) -> int:
    """The ring roundtrip delay snapped to a whole number (at least one) of grid steps."""
    return max(1, round(tau_rt / dt))


def ring_multipass(pulse, ensemble, cavity, roundtrips, start, settle_delay) -> RingMultipass:
    """Ring multi-pass build-up compared with single passes at OD_tot = m * OD.

    The cavity's tau_rt is snapped to whole grid samples, so the ring
    response (L - t_c)/(t_c L - 1), L = t_rt T e^{i(phi0 - delta tau)},
    expands exactly into echoes: t_c u plus, for k >= 1, the k-pass field
    ifft(u T^k) times -(1 - t_c^2) t_c^(k-1) (t_rt e^{i(phi0 - Delta_c tau)})^k,
    delayed by k tau.  The sum keeps every echo that arrives inside the
    window the run reads, so the grid need only hold that window, not the
    ring's slow leak-out; the no-atom reference is the same sum with T = 1.
    Roundtrip m opens half a time unit before start + m * tau; the m-pass
    cascade is read in the window m * tau earlier.
    """
    t, delta = pulse.t, pulse.detunings()
    shift = roundtrip_samples(cavity.tau_rt, pulse.dt)
    tau = shift * pulse.dt
    # the window ends with the output table or with the last flash fit
    t_end = max(start + (roundtrips + 1) * tau,
                pulse.switch_off + roundtrips * tau + settle_delay + FLASH_WINDOW)
    if t_end > t[-1]:
        raise ValueError(f"time grid ends at {t[-1]:.4g}, before the ring window ends "
                         f"at {t_end:.4g}")
    end = int(np.searchsorted(t, t_end, side="right"))
    envelope = pulse.envelope[:end]
    onset = int(np.argmax(envelope != 0))  # echo k is zero before onset + k shift
    loop = cavity.t_rt * cmath.exp(1j * (cavity.phi0 - pulse.carrier_detuning * tau))
    field = cavity.t_c * envelope
    no_atom = field.copy()

    lo0 = int(np.searchsorted(t, start - 0.5))
    single = transfer_unidirectional(delta, ensemble).amplitude
    cumulative = np.ones(delta.size, dtype=complex)
    rate_sp, seg_sp = [], []
    for k in range(1, max(roundtrips, (end - 1 - onset) // shift) + 1):
        cumulative = cumulative * single
        # passive as the single pass is, which transfer_unidirectional checked
        passes = _propagate(pulse, cumulative)
        echo = -(1.0 - cavity.t_c ** 2) * cavity.t_c ** (k - 1) * loop ** k
        field[k * shift:] += echo * passes[:end - k * shift]
        no_atom[k * shift:] += echo * envelope[:end - k * shift]
        if k <= roundtrips:
            p_sp = np.abs(passes) ** 2
            rate_sp.append(fit_pulse_decay(t, p_sp, pulse.switch_off, FLASH_WINDOW,
                                           settle_delay, min_points=6).rate)
            seg_sp.append(p_sp[lo0:lo0 + shift].copy())  # a view would keep all of p_sp alive
    power = np.abs(field) ** 2
    reference = np.abs(no_atom) ** 2

    rate_cav, flash, seg_cav = [], [], []
    for m in range(1, roundtrips + 1):
        lo = lo0 + m * shift
        t_off = pulse.switch_off + m * tau
        rate_cav.append(fit_pulse_decay(t[:end], power, t_off, FLASH_WINDOW, settle_delay,
                                        min_points=6).rate)
        post = power[int(np.searchsorted(t, t_off)):lo + shift]
        flash.append(float(post.max() / reference[lo:lo + shift].max()))
        seg_cav.append(power[lo:lo + shift])
    return RingMultipass(power, reference, shift, tau, t[lo0:lo0 + shift] - start,
                         np.array(rate_cav), np.array(rate_sp), np.array(flash),
                         np.array(seg_cav), np.array(seg_sp))


@dataclass(frozen=True)
class CollectiveDecayPoint:
    """Pulse decay fit and collective rate at switch-off for one OD."""

    od: float
    n_atoms: int
    pulse_fit: DecayFit
    gamma_coll: float


def fit_initial_decay(t, power, t_off, window_cap, settle_delay=SETTLE_DELAY) -> DecayFit:
    """Initial decay rate: the fit window adapts to ~FIT_CYCLES decay times.

    A short bootstrap window pins the flash decay first, then the window
    is refitted at FIT_CYCLES / rate, FIT_PASSES fits in all (never longer
    than window_cap, never shorter than MIN_INITIAL_POINTS samples).  For
    slow decays the cap binds and this reduces to a plain windowed fit; for
    fast collective decays it keeps the window on the initial flash instead
    of the later ringing structure.
    """
    if not 0 < float(window_cap) < math.inf:
        raise ValueError(f"window_cap must be finite and positive, got {window_cap}")
    dt = float(np.asarray(t)[1] - np.asarray(t)[0])
    floor = MIN_INITIAL_POINTS * dt
    window = min(float(window_cap), max(BOOTSTRAP_WINDOW, floor))
    fit = fit_pulse_decay(t, power, t_off, window, settle_delay, min_points=MIN_INITIAL_POINTS)
    for _ in range(FIT_PASSES - 1):
        window = min(float(window_cap), max(FIT_CYCLES / fit.rate, floor))
        fit = fit_pulse_decay(t, power, t_off, window, settle_delay,
                              min_points=MIN_INITIAL_POINTS)
    return fit


def collective_decay_vs_od(pulse, od_values, beta, window_long, window_short, window_short_od,
                           settle_delay):
    """Forward pulse decay rate and collective rate across an OD sweep.

    Fits the transmitted power that atom_dynamics computes for the forward
    cascade (position independent) of a uniform ensemble at each OD, so
    each OD propagates the pulse once.  The fit window is capped at
    window_long (window_short above window_short_od, where the decays are
    much faster) and then adapted by fit_initial_decay so the fit tracks
    the initial flash decay.  Gamma_coll is read at the default settle
    delay of collective_rate_at_switchoff.

    Every OD raises the same single-atom transmission t to its own atom
    number N, so log t is taken once per sweep and each OD's t ** N comes
    from spectra._integer_power, written into one buffer and checked for
    passivity as transfer_unidirectional checks it.
    """
    t = single_atom_coefficients(pulse.detunings(), beta)[0]
    log_t = _power_log(t)
    buffer = np.empty_like(log_t)
    points = []
    for od in od_values:
        ens = EnsembleSpec.from_od(od, beta)
        transmission = _integer_power(t, ens.n_atoms, log_t, out=buffer)
        _check_passive(transmission)
        traj = _atom_dynamics(pulse, ens, transmission)
        cap = window_long if od <= window_short_od else window_short
        fit = fit_initial_decay(pulse.t, traj.transmitted_power, pulse.switch_off, cap,
                                settle_delay)
        gamma = collective_rate_at_switchoff(traj, pulse.switch_off)
        points.append(CollectiveDecayPoint(float(od), ens.n_atoms, fit, gamma))
    return points
