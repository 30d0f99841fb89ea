"""Frequency-domain ensemble response.

Forward cascade product, bidirectional scattering recursion with positional
phases, per-atom excitation amplitudes, and the fiber-ring dressing of a
medium response.  All detunings are angular, in units of Gamma0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .physics import (
    CavitySpec,
    EnsembleSpec,
    _grid_length,
    _require_integer,
    _require_positive,
    _uniform_grid,
    single_atom_coefficients,
)

RECURSION_EPS = 1e-12  # denominator-modulus floor flagged as degenerate


class DegenerateDenominatorWarning(UserWarning):
    """A scattering denominator dropped below the configured epsilon.

    The value is still computed in complex arithmetic; the warning flags
    Bragg-ordered near-resonant configurations (or unphysical ring-gain
    parameters) where the formulas become numerically singular.
    """


def detuning_grid(span, n):
    """Uniform FFT-style grid of n detunings covering [-span, span).

    n must be a power of two; the grid contains 0 and has spacing 2*span/n.
    """
    n = _grid_length(n)
    step = 2.0 * _require_positive("span", span) / n
    return (np.arange(n) - n // 2) * step


def _passive(amplitude, shape):
    """amplitude as a complex array of the grid's shape, with |amplitude| <= 1."""
    amplitude = np.asarray(amplitude, dtype=complex)
    if amplitude.shape != shape:
        raise ValueError("delta and amplitude must have matching shapes")
    peak = float(np.max(np.abs(amplitude)))
    if peak > 1.0 + 1e-9:
        raise ValueError(f"passive response requires |amplitude| <= 1, got max {peak}")
    return amplitude


# numpy raises a complex array to an integer power n by repeated
# multiplication when |n| is below this, and by libm's cpow, which is
# exp(n log t), from it on
_LOG_POWER_MIN = 100


@dataclass(frozen=True)
class TransferSpectrum:
    """Complex amplitude response sampled on a uniform detuning grid.

    Any uniform increasing grid will do: only a pulse's FFT grid needs a
    power-of-two length, and propagate_pulse reads a pulse's window out
    of a longer grid.  The grid is checked once, here, and the response
    for passivity.
    """

    delta: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        delta = _uniform_grid(self.delta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "amplitude", _passive(self.amplitude, delta.shape))

    def power(self):
        return np.abs(self.amplitude) ** 2

    @cached_property
    def _log(self):
        # a zero amplitude (beta = 1/2 on resonance) has log -inf, quietly
        with np.errstate(divide="ignore"):
            return np.log(self.amplitude)

    def __pow__(self, n) -> TransferSpectrum:
        """The response to an integer power n >= 0, bitwise as numpy's amplitude ** n.

        From n = _LOG_POWER_MIN on numpy computes exp(n log t), so the log
        is taken once per response and shared by every such n (an OD sweep
        raises one single-atom response to each OD's atom number).
        """
        n = _require_integer("exponent", n, least=0)
        if n < _LOG_POWER_MIN:
            return _response(self.delta, self.amplitude ** n)
        with np.errstate(invalid="ignore"):  # n (-inf + 0j) has a NaN imaginary part
            power = self._log * n
        np.exp(power, out=power)
        # numpy's 0 ** n is +0 + 0j; exp(-inf + NaN j) may carry -0j
        power[self.amplitude == 0] = 0
        return _response(self.delta, power)


def _response(delta, amplitude) -> TransferSpectrum:
    """A TransferSpectrum on delta, a grid checked before: only the amplitude is."""
    spectrum = object.__new__(TransferSpectrum)
    object.__setattr__(spectrum, "delta", delta)
    object.__setattr__(spectrum, "amplitude", _passive(amplitude, delta.shape))
    return spectrum


def transfer_unidirectional(delta, ensemble: EnsembleSpec) -> TransferSpectrum:
    """Forward amplitude transmission of the cascade.

    t_N(delta) = (1 - beta / (1/2 + i delta))^N

    Independent of the positional phases: the single-atom response to the
    power N (TransferSpectrum.__pow__, bitwise numpy's t ** N).
    """
    single = single_atom_coefficients(delta, ensemble.beta)[0]
    return TransferSpectrum(delta, single) ** ensemble.n_atoms


def _cascade_amplitudes(delta, ensemble: EnsembleSpec, weight=None):
    """Yield weight * phi_n(delta) for each atom n = 1..N, as one running product.

    phi_n = i t^(n-1) (t - 1) / sqrt(beta), so q_1 = weight i (t - 1) / sqrt(beta)
    and q_{n+1} = q_n t: one grid-sized multiply per atom.  weight (1 if
    None) is sampled on delta, such as a pulse spectrum.  Every atom's q is
    the same array, multiplied in place when the generator resumes: a caller
    that keeps an amplitude copies it, and none holds N grid-sized rows.
    """
    t = single_atom_coefficients(delta, ensemble.beta)[0]
    q = (t - 1.0) * (1j / math.sqrt(ensemble.beta))
    if weight is not None:
        q *= weight
    for n in range(ensemble.n_atoms):
        if n:
            q *= t
        yield q


def excitation_amplitudes(delta, ensemble: EnsembleSpec):
    """Steady-state excitation amplitude of each atom in the forward cascade.

    phi_n(delta) = i t^(n-1) (t - 1) / sqrt(beta)

    normalized so that |phi_n|^2 maps an input photon flux onto an
    excited-state probability (see pulses.atom_spectra).  Successive
    amplitudes satisfy phi_{n+1}/phi_n = t.

    Returns an array of shape (n_atoms,) for scalar detuning, otherwise
    (n_atoms, len(delta)).
    """
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    out = np.empty((ensemble.n_atoms, d.size), dtype=complex)
    for j, phi in enumerate(_cascade_amplitudes(d, ensemble)):
        out[j] = phi
    return out[:, 0] if np.ndim(delta) == 0 else out


# The polynomial form of the homogeneous recursion.  Coefficient j of x
# and y is bounded by (2 N a_max)^j / j!, so for 2 N a_max (about the OD)
# up to _POLY_CAP the coefficients stay below ~e^64; a larger 2 N a_max
# runs the homogeneous recursion on the whole grid.  The coefficients run
# to the degree D whose tail at |z| = 1 is below _POLY_TAIL, and Horner
# at each point only to the degree whose tail at the point's |z| is (a
# mean of 10.5 against D = 106 on fig4's grid).  A point whose rounding
# bound exceeds _POLY_TOL runs the homogeneous recursion alone.  Measured
# against a long-double recursion (2048 points in +-40, 3 seeds, beta
# 0.0055), max relative |dT| of the polynomial / homogeneous form:
#   OD 5: 2.8e-15 / 4.1e-15     OD 19.3: 1.9e-14 / 7.4e-15
#   OD 26: 3.0e-14 / 8.8e-15    OD 40: 6.2e-14 / 1.0e-14
#   OD 60: 5.2e-13 / 1.4e-14
# The bound held at every point, at 37x to 96x the larger of the errors
# of T and s.  It peaks at 1.2e-13 (OD 5), 2.5e-12 (19.3), 7.7e-12 (26),
# 6.8e-11 (40) and 1.2e-9 (60, where 5% of those points fall back).  Over
# fig4's 64, s1's 1000 and C3's 1000 configurations it stays below 7.9e-12,
# so none of them runs a point of the fallback.
_POLY_CAP = 64.0
_POLY_TOL = 1e-10
_POLY_TAIL = 1e-20


def _recursion(delta, ensemble):
    """(prod_n t_n, s_1) of the two-way recursion on a checked uniform grid.

    Every atom is passive (beta <= 1/2), so the reflection carried from
    the far end keeps |s| <= 1 (to ~1e-12 in floating point) and every
    denominator has Re den >= 1/2 - beta.  The one place that picks a path:
    where 1/2 - beta is at most 2 RECURSION_EPS (beta at or next to 1/2) a
    point can be degenerate, and the screened recursion counts those and
    warns.  Otherwise the division-free recursion runs: the homogeneous
    pair on the whole grid when 2 N a_max exceeds _POLY_CAP, else the
    certified polynomial, with the homogeneous pair on the points whose
    bound exceeds _POLY_TOL (it works point by point, so no other point
    changes).
    """
    margin = 0.5 - ensemble.beta
    if margin <= 2.0 * RECURSION_EPS:
        return _screened_recursion(delta, ensemble)
    if 2 * ensemble.n_atoms * ensemble.beta / margin > _POLY_CAP:
        return _homogeneous_recursion(delta, ensemble)
    t_prod, s, bound = _certified_polynomial(delta, ensemble)
    bad = bound > _POLY_TOL
    if np.any(bad):
        t_prod[bad], s[bad] = _homogeneous_recursion(delta[bad], ensemble)
    return t_prod, s


def _truncation_degree(bound, n_atoms):
    """Smallest D (at most n_atoms) with sum_{j > D} bound^j / j! below _POLY_TAIL."""
    term = 1.0  # bound^degree / degree!
    for degree in range(n_atoms):
        term *= bound / (degree + 1)
        # the terms past degree + 1 shrink at least as fast as a geometric series
        ratio = bound / (degree + 2)
        if ratio < 1.0 and term / (1.0 - ratio) < _POLY_TAIL:
            return degree
    return n_atoms


def _polynomial_coefficients(phase, a_max, degree):
    """(2, degree + 1) coefficients in z of the pair (x, y), far end first.

    Atom n maps (x, y) to (x, y) + a_max z P_n (x, y) with the rank-one
    P_n = (-1, e^{-i theta_n})^T (1, e^{i theta_n}), so coefficient j after
    the first k atoms is the sum over the atoms m < k of
    a_max (X_{j-1} + e_m Y_{j-1}) (-1, e^{-i theta_m}), each term taken
    with coefficient j - 1 after the atoms before m: one exclusive prefix
    sum over the chain per degree, added in atom order.  (P_n^2 = 0, so
    reading the coefficients after m instead changes only the rounding.)
    """
    e = np.exp(1j * phase[::-1])
    turn = np.empty((2, e.size), dtype=complex)
    turn[0] = -1.0
    turn[1] = e.conj()
    # column k: coefficient j - 1 after the first k atoms (degree 0 is (0, 1))
    prefix = np.zeros((2, e.size + 1), dtype=complex)
    prefix[1] = 1.0
    coef = np.empty((2, degree + 1), dtype=complex)
    coef[:, 0] = prefix[:, -1]
    before = prefix[:, :-1]  # what each atom's step reads
    w = np.empty(e.size, dtype=complex)
    terms = np.empty((2, e.size), dtype=complex)
    for j in range(1, degree + 1):
        np.multiply(before[1], e, out=w)
        w += before[0]
        w *= a_max
        np.multiply(turn, w, out=terms)
        np.cumsum(terms, axis=1, out=prefix[:, 1:])
        prefix[:, 0] = 0.0  # before the first atom only degree 0 is nonzero
        coef[:, j] = prefix[:, -1]
    return coef


def _point_degrees(abs_z, bound, n_atoms):
    """Each point's truncation degree, from the top of the power-of-two bin of its |z|.

    With r >= |z| the tail of coefficients j > d at the point is below
    sum_{j > d} (bound r)^j / j!, so d = _truncation_degree(bound r,
    n_atoms) keeps it under _POLY_TAIL; |z| <= 1 caps r at 1.
    """
    _, exponent = np.frexp(abs_z)  # 2^(exponent - 1) <= |z| < 2^exponent
    shift = -np.minimum(exponent, 0)  # r = 2^-shift
    table = [_truncation_degree(math.ldexp(bound, -k), n_atoms)
             for k in range(int(shift.max(initial=0)) + 1)]
    return np.array(table)[shift]


def _certified_polynomial(delta, ensemble):
    """(prod_n t_n, s_1, bound): the homogeneous recursion as a polynomial in z.

    With margin = 1/2 - beta, a = beta / (margin + i delta) = a_max z for
    a_max = beta / margin and z = margin / (margin + i delta), |z| <= 1.
    Starting from (0, 1) at the far end, x and y are polynomials in z
    whose coefficients depend on the phases alone (_polynomial_coefficients),
    truncated at the degree D where the rigorous tail bound at |z| = 1
    drops below _POLY_TAIL.  Each point runs Horner only to its own degree
    d_p <= D, where the same tail bound at its |z| does (_point_degrees);
    T = 1/y and s = x/y.  |y| = 1/|T| >= 1, so bound = eps (N + D)
    sum_{j <= d_p} (|X_j| + |Y_j|) |z|^j |T| covers the relative error of
    T and the absolute error of s: D for Horner, N for the coefficient
    recurrence.
    """
    n_atoms = ensemble.n_atoms
    margin = 0.5 - ensemble.beta
    a_max = ensemble.beta / margin
    degree = _truncation_degree(2 * n_atoms * a_max, n_atoms)
    coef = _polynomial_coefficients(ensemble.phase, a_max, degree)
    size = np.abs(coef).sum(axis=0)
    z = margin / (margin + 1j * delta)
    abs_z = np.abs(z)
    degrees = _point_degrees(abs_z, 2 * n_atoms * a_max, n_atoms)
    # |z| peaks at delta = 0, so the points of degree >= j are one span of
    # the grid; a point inside the span at a lower degree (none on an
    # increasing grid) just runs Horner further
    top = int(degrees.max(initial=0))
    levels = np.arange(top + 1)
    starts = np.searchsorted(np.maximum.accumulate(degrees), levels)
    stops = delta.size - np.searchsorted(np.maximum.accumulate(degrees[::-1]), levels)
    # Horner, each point starting from 0 at its own degree; the running
    # bound is Horner once more, on |z| and |X_j| + |Y_j|
    pair = np.zeros((2, delta.size), dtype=complex)
    bound = np.zeros(delta.size)
    for j in range(top, -1, -1):
        span = slice(starts[j], stops[j])
        pair_at, bound_at = pair[:, span], bound[span]
        pair_at *= z[span]
        pair_at += coef[:, j, None]
        bound_at *= abs_z[span]
        bound_at += size[j]
    t_prod = 1.0 / pair[1]
    s = pair[0] * t_prod
    bound *= np.finfo(float).eps * (n_atoms + degree) * np.abs(t_prod)
    return t_prod, s, bound


def _homogeneous_recursion(delta, ensemble):
    """(prod_n t_n, s_1) with the reflection carried as the pair s = x / y.

    Dividing the Moebius step s_n = ((num - beta) s - beta e) / (num + beta
    + beta s / e), num = 1/2 - beta + i delta and e = e^{i theta}, through
    by num gives, with a = beta / num (one array for the whole chain),

        p = a (x + e y),  x <- x - p,  y <- y + p / e,

    and t_n = y_old / y_new telescopes.  Every 16 atoms, and after the
    last, the pair is rescaled to y = 1 and 1/y folded into the
    transmission: the only divisions.  With |s| <= 1 each atom scales y by
    a factor in [(1/2-beta)/(1/2+beta), (1/2+beta)/(1/2-beta)], so a block
    of 16 atoms stays inside float range for any 1/2 - beta above 2e-12,
    the least with which _recursion runs it.
    """
    x = np.zeros(delta.size, dtype=complex)
    y = np.ones(delta.size, dtype=complex)
    t_prod = np.ones(delta.size, dtype=complex)
    p = np.empty(delta.size, dtype=complex)
    beta = ensemble.beta
    a = beta / ((0.5 - beta) + 1j * delta)
    for count, n in enumerate(range(ensemble.n_atoms - 1, -1, -1), start=1):
        e_plus = complex(np.exp(1j * ensemble.phase[n]))
        np.multiply(y, e_plus, out=p)
        p += x
        p *= a
        x -= p
        p *= e_plus.conjugate()
        y += p
        if count % 16 == 0 or n == 0:
            t_prod /= y
            x /= y
            y.fill(1.0)
    return t_prod, x


def _screened_recursion(delta, ensemble):
    """(prod_n t_n, s_1) by the direct step, one division per atom.

    Screens every denominator against RECURSION_EPS, counts the
    degenerate points and warns at the caller of transfer_bidirectional;
    the path for beta at or near 1/2.
    """
    base = 0.5 + 1j * delta
    s = np.zeros(delta.size, dtype=complex)
    t_prod = np.ones(delta.size, dtype=complex)
    degenerate = 0
    min_den = math.inf
    b = ensemble.beta
    for n in range(ensemble.n_atoms - 1, -1, -1):
        e_plus = complex(np.exp(1j * ensemble.phase[n]))
        # ratio = (beta + beta s e^{-i theta}) / (1/2 + i delta + ...)
        ratio = (b * e_plus.conjugate()) * s
        den = ratio + base
        # |den| >= |Re den|, so a passing screen proves no point is degenerate;
        # only a failing one pays for the exact moduli.
        if float(np.abs(den.real).min()) < RECURSION_EPS:
            den_mod = np.abs(den)
            small_min = float(den_mod.min())
            if small_min < RECURSION_EPS:
                degenerate += int(np.count_nonzero(den_mod < RECURSION_EPS))
                min_den = min(min_den, small_min)
        ratio += b
        ratio /= den
        t_n = 1.0 - ratio
        # s_n = (t_n - 1) e^{i theta} + s_{n+1} t_n, and (t_n - 1) = -ratio
        s *= t_n
        ratio *= e_plus
        s -= ratio
        t_prod *= t_n
    if degenerate:
        warnings.warn(
            f"{degenerate} grid point(s) with scattering denominator below "
            f"{RECURSION_EPS:g} (min |den| = {min_den:.3e})",
            DegenerateDenominatorWarning,
            stacklevel=4,
        )
    return t_prod, s


def transfer_bidirectional(delta, ensemble: EnsembleSpec):
    """Ensemble transmission and reflection from the two-way recursion.

    Solving from the far end (open boundary, excitation from one side)
    down to the first atom:

        t_n = 1 - (beta + beta s_{n+1} e^{-i theta_n})
                  / (1/2 + i delta + beta s_{n+1} e^{-i theta_n})
        s_n = (t_n - 1) e^{i theta_n} + s_{n+1} t_n

    with theta_n the stored positional phase.  Returns the pair
    (transmission, reflection) = (prod_n t_n, s_1) as TransferSpectrum on
    delta, any uniform grid, checked once for both.  Degenerate denominators
    (modulus < RECURSION_EPS) trigger a DegenerateDenominatorWarning; the
    values are still computed.
    """
    delta = _uniform_grid(delta)
    t_prod, s = _recursion(delta, ensemble)
    return _response(delta, t_prod), _response(delta, s)


def transfer_cavity(t_medium: TransferSpectrum, cavity: CavitySpec) -> TransferSpectrum:
    """Ring-resonator dressing of a medium response.

    amplitude(delta) = (t_rt t_N e^{i Phi} - t_c) / (t_rt t_c t_N e^{i Phi} - 1)

    with the frequency-dependent roundtrip phase Phi = phi0 - delta * tau_rt.
    The sign of the delta term follows this package's transform convention
    (the one that makes the atomic Lorentzian causal), so the time-domain
    response carries echoes delayed by multiples of tau_rt.  Denominator
    moduli below RECURSION_EPS raise a diagnostic warning (unphysical gain
    configuration); passive parameters keep |amplitude| at or below one.
    """
    loop = cavity.t_rt * t_medium.amplitude * np.exp(
        1j * (cavity.phi0 - t_medium.delta * cavity.tau_rt)
    )
    den = cavity.t_c * loop - 1.0
    small = np.abs(den) < RECURSION_EPS
    if np.any(small):
        warnings.warn(
            f"{int(np.count_nonzero(small))} grid point(s) with ring denominator "
            f"below {RECURSION_EPS:g}; parameters are at or past the gain threshold",
            DegenerateDenominatorWarning,
            stacklevel=2,
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        amplitude = (loop - cavity.t_c) / den
    return _response(t_medium.delta, amplitude)
