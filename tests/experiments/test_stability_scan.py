"""The convergence experiment's stability scan equals the per-mode scan bit for bit.

``_max_amplification`` forms each von Neumann symbol from per-axis
factors evaluated once; the reference below is the literal scan, one
:func:`amplification_factor` call per Fourier mode.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.convergence import VELOCITY, _max_amplification
from repro.stencil.coefficients import amplification_factor, max_stable_nu

components = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
velocities = st.tuples(components, components, components).filter(
    lambda v: any(v)
)


def _per_mode_scan(nu_fraction, n_theta, velocity):
    nu = nu_fraction * max_stable_nu(velocity)
    thetas = np.linspace(0.0, np.pi, n_theta)
    return max(
        abs(amplification_factor(velocity, nu, (tx, ty, tz)))
        for tx in thetas
        for ty in thetas
        for tz in thetas
    )


def test_the_experiments_fractions_match():
    for frac in (0.5, 0.9, 1.0, 1.1, 1.25):
        fast = _max_amplification(frac)
        assert fast.hex() == _per_mode_scan(frac, 9, VELOCITY).hex()


@settings(max_examples=200, deadline=None)
@example(velocity=(0.0, 0.0, -1.0), nu_fraction=1.0, n_theta=2)
# Forming the symbol as gx * (fy * fz) changes this one's max |g|.
@example(velocity=(0.25, 0.25, 0.3), nu_fraction=1.25, n_theta=9)
@example(velocity=(1e-300, 3.0, 0.0), nu_fraction=0.0, n_theta=1)
@given(
    velocity=velocities,
    nu_fraction=st.floats(min_value=0.0, max_value=2.0),
    n_theta=st.integers(min_value=1, max_value=9),
)
def test_equals_the_per_mode_scan(velocity, nu_fraction, n_theta):
    fast = _max_amplification(nu_fraction, n_theta, velocity)
    slow = _per_mode_scan(nu_fraction, n_theta, velocity)
    assert type(fast) is float
    assert fast.hex() == slow.hex()
