"""Independent reference implementations used only by the tests.

Each oracle solves the same physics as the package through a different
route: a 2x2 transfer-matrix product, a dense linear solve of the full
scattering system, a time-stepped integration of the cascaded driven
dipoles, and the closed-form impulse response of a uniform cascade.  None
of them share code with the package internals.
"""

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import eval_genlaguerre


def single_scatterer(delta, beta):
    r = -beta / (0.5 + 1j * np.asarray(delta, dtype=float))
    return 1.0 + r, r


def transfer_matrix_solution(delta, beta, phase, shift=0.0):
    """Ensemble (t_N, r_N) from a 2x2 transfer-matrix product.

    Works in the plane-wave prefactor gauge (propagation phases carried by
    exp(+-ikx), positions entering only through theta = 2 k x), so the
    transmission carries no free-propagation phase.  shift offsets each
    atom's resonance (scalar or one per atom).
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    beta = np.atleast_1d(beta)
    shift = np.broadcast_to(np.asarray(shift, dtype=float), beta.shape)
    m11 = np.ones(delta.size, dtype=complex)
    m12 = np.zeros(delta.size, dtype=complex)
    m21 = np.zeros(delta.size, dtype=complex)
    m22 = np.ones(delta.size, dtype=complex)
    for b, th, sh in zip(beta, np.atleast_1d(phase), shift):
        t, r = single_scatterer(delta - sh, b)
        a11 = (t * t - r * r) / t
        a12 = r * np.exp(-1j * th) / t
        a21 = -r * np.exp(1j * th) / t
        a22 = 1.0 / t
        m11, m12, m21, m22 = (
            a11 * m11 + a12 * m21,
            a11 * m12 + a12 * m22,
            a21 * m11 + a22 * m21,
            a21 * m12 + a22 * m22,
        )
    # every factor has a11 a22 - a12 a21 = 1, so t_N = m11 + m12 r_N equals
    # det M / m22 = 1 / m22; the sum cancels away ~9 digits near resonance at
    # beta -> 1/2, the quotient does not
    r_n = -m21 / m22
    return 1.0 / m22, r_n


def linear_system_solution(delta, beta, phase):
    """Ensemble (t_N, r_N) from a dense solve of the 2N-unknown system.

    Unknowns are the forward amplitudes in regions 2..N+1 and the backward
    amplitudes in regions 1..N, with unit forward input and no backward
    input.  Scalar detuning only; intended for small N.
    """
    beta = np.atleast_1d(beta)
    phase = np.atleast_1d(phase)
    n = beta.size
    # unknown layout: x[0:n] = A+_{2..N+1}, x[n:2n] = A-_{1..N}
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    rhs = np.zeros(2 * n, dtype=complex)

    def a_plus(region):  # region index 1..N+1
        if region == 1:
            return None, 1.0  # fixed input
        return region - 2, None

    def a_minus(region):
        if region == n + 1:
            return None, 0.0  # open boundary
        return n + region - 1, None

    row = 0
    for k in range(n):  # atom k sits between regions k+1 and k+2
        t, r = single_scatterer(float(delta), beta[k])
        em = np.exp(-1j * phase[k])
        ep = np.exp(1j * phase[k])
        # A+_{k+2} = t A+_{k+1} + r e^{-i theta} A-_{k+2}
        for (idx, val), coeff in (
            (a_plus(k + 2), 1.0),
            (a_plus(k + 1), -t),
            (a_minus(k + 2), -r * em),
        ):
            if idx is None:
                rhs[row] -= coeff * val
            else:
                mat[row, idx] += coeff
        row += 1
        # A-_{k+1} = t A-_{k+2} + r e^{+i theta} A+_{k+1}
        for (idx, val), coeff in (
            (a_minus(k + 1), 1.0),
            (a_minus(k + 2), -t),
            (a_plus(k + 1), -r * ep),
        ):
            if idx is None:
                rhs[row] -= coeff * val
            else:
                mat[row, idx] += coeff
        row += 1
    x = np.linalg.solve(mat, rhs)
    t_n = x[n - 1]  # A+_{N+1}
    r_n = x[n]      # A-_1
    return t_n, r_n


def ode_cascade_populations(pulse, beta, n_atoms):
    """Per-atom excited-state probabilities from RK4 on the cascade ODEs.

    c_n' = -(1/2 + i Delta_c) c_n - i sqrt(beta) u_n(t) with the drive
    chain u_n = u_{n-1} - i sqrt(beta) c_{n-1} and u_1 the pulse envelope.
    """
    t = pulse.t
    dt = pulse.dt
    u = pulse.envelope
    a = -(0.5 + 1j * pulse.carrier_detuning)
    sb = np.sqrt(beta)
    c = np.zeros(n_atoms, dtype=complex)
    out = np.zeros((n_atoms, t.size))

    def rhs(cvec, drive):
        drives = np.empty(n_atoms, dtype=complex)
        f = drive
        for n in range(n_atoms):
            drives[n] = f
            f = f - 1j * sb * cvec[n]
        return a * cvec - 1j * sb * drives

    for k in range(t.size):
        out[:, k] = np.abs(c) ** 2
        if k == t.size - 1:
            break
        mid = 0.5 * (u[k] + u[k + 1])
        k1 = rhs(c, u[k])
        k2 = rhs(c + 0.5 * dt * k1, mid)
        k3 = rhs(c + 0.5 * dt * k2, mid)
        k4 = rhs(c + dt * k3, u[k + 1])
        c = c + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return out


def uniform_cascade_output(pulse, beta, n_atoms):
    """Transmitted envelope of N identical atoms by time-domain convolution.

    t^N with t = 1 - beta/(1/2 + i delta) has the impulse response
    h_N(t) = delta(t) - beta exp(-(1/2 + i Delta_c) t) L^(1)_{N-1}(beta t) Theta(t)
    (binomial expansion; (beta/(1/2 + i delta))^k <-> beta^k t^(k-1)
    e^(-t/2) / (k-1)!).  The smooth part is convolved with the envelope by
    the trapezoid rule, so the result converges at second order in dt.
    """
    tau = pulse.t - pulse.t[0]
    kernel = (-beta * np.exp(-(0.5 + 1j * pulse.carrier_detuning) * tau)
              * eval_genlaguerre(int(n_atoms) - 1, 1.0, beta * tau))
    u = pulse.envelope
    # trapezoid: halve the weights of the two end points tau = 0 and tau = t
    conv = fftconvolve(kernel, u)[:u.size] - 0.5 * (kernel[0] * u + kernel * u[0])
    return u + pulse.dt * conv
