"""Sensitivity of the extracted rates to the pulse edge shape.

The solver invariants live in ``waveqed.selfcheck`` and run as the
acceptance criterion C8.
"""

from waveqed import (
    EnsembleSpec,
    Units,
    atom_dynamics,
    collective_rate_at_switchoff,
    fit_initial_decay,
    propagate_pulse,
    synthesize_pulse,
    time_grid,
    transfer_unidirectional,
)
from waveqed.fitting import SETTLE_DELAY


def test_edge_shape_sensitivity_is_small():
    # the measured edge duration constrains the ramp only loosely; quantify
    # how much the extracted rates move when the 10-90% width is halved or
    # doubled around its nominal 850 ps
    units = Units()
    duration = units.time_from_si(150e-9)
    window = units.time_from_si(15e-9)
    t = time_grid(2048.0, 2 ** 16)
    ens = EnsembleSpec.from_od(19.3)
    rates, gammas = [], []
    for rise_ps in (425.0, 850.0, 1700.0):
        pulse = synthesize_pulse(t, duration, units.time_from_si(rise_ps * 1e-12),
                                 carrier_detuning=3.8, photon_number=2.0)
        out = propagate_pulse(pulse, transfer_unidirectional(pulse.detunings(), ens))
        fit = fit_initial_decay(out.t, out.power(), pulse.switch_off,
                                window, SETTLE_DELAY)
        traj = atom_dynamics(pulse, ens)
        rates.append(fit.rate)
        gammas.append(collective_rate_at_switchoff(traj, pulse.switch_off))
    assert (max(rates) - min(rates)) / rates[1] < 0.06
    assert (max(gammas) - min(gammas)) / gammas[1] < 0.06
