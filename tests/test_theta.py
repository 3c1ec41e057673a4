"""Jacobi theta_3: series oracle, modular identity, derivative."""

import math

import mpmath
import numpy as np
import pytest

from groupquant.theta import theta3, theta3_dz


def brute_theta3(z, tau, nmax=60):
    ns = np.arange(-nmax, nmax + 1)
    return np.exp(1j * math.pi * tau * ns ** 2 + 2j * math.pi * ns * z).sum()


def test_value_at_origin():
    oracle = sum(math.exp(-math.pi * n * n) for n in range(-50, 51))
    assert abs(theta3(0, 1j) - oracle) < 1e-15
    assert abs(oracle - 1.0864348112133080) < 1e-13


def test_series_oracle_random_points():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-0.3, 0.3)
        tau = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.8, 3.0)
        ref = brute_theta3(z, tau)
        assert abs(theta3(z, tau) - ref) < 1e-12 * max(1.0, abs(ref))


def test_modular_identity_grid():
    # theta3(i l/pi | i t/pi) = sqrt(pi/t) e^{l^2/t} theta3(l/t | i pi/t)
    worst = 0.0
    for l in np.linspace(0.05, 3.0, 10):
        for t in np.linspace(0.1, 4.0, 10):
            lhs = theta3(1j * l / math.pi, 1j * t / math.pi)
            rhs = math.sqrt(math.pi / t) * math.exp(l * l / t) \
                * theta3(l / t, 1j * math.pi / t)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-10


def test_periodicity():
    z, tau = 0.37 + 0.21j, 0.9j
    assert abs(theta3(z + 1, tau) - theta3(z, tau)) < 1e-13
    assert abs(theta3_dz(z + 1, tau) - theta3_dz(z, tau)) < 1e-12
    # quasi-periodicity in tau direction
    lhs = theta3(z + tau, tau)
    rhs = np.exp(-1j * math.pi * tau - 2j * math.pi * z) * theta3(z, tau)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_dz_finite_difference():
    h = 1e-6
    for (z, tau) in [(0.2 + 0.1j, 0.5j), (0.17 + 0.23j, 0.3j),
                     (-0.4 + 0.05j, 0.05 + 0.4j)]:
        fd = (theta3(z + h, tau) - theta3(z - h, tau)) / (2 * h)
        assert abs(theta3_dz(z, tau) - fd) < 1e-8


def test_dz_even_at_origin():
    assert abs(theta3_dz(0, 1j)) < 1e-14


def test_frame_agreement():
    # both modular frames agree where both converge
    z, tau = 0.31 + 0.12j, 0.69j   # just below the switch
    direct = brute_theta3(z, tau, nmax=200)
    assert abs(theta3(z, tau) - direct) < 1e-12 * abs(direct)


def test_invalid_tau():
    with pytest.raises(ValueError):
        theta3(0.0, -1j)
    with pytest.raises(ValueError):
        theta3_dz(0.0, 1.0)


def _jtheta_mp(z, tau, derivative=0):
    """Oracle: mpmath's theta_3 at 30 digits; its convention is
    jtheta(3, pi z, e^{i pi tau}) = theta3(z | tau)."""
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.real, tau.imag))
        return np.array([complex(mpmath.pi ** derivative * mpmath.jtheta(
            3, mpmath.pi * mpmath.mpc(x.real, x.imag), q, derivative))
            for x in np.ravel(z)]).reshape(np.shape(z))


@pytest.mark.parametrize("tau_im", [0.25, 0.6, 0.8, 1.7])
def test_array_against_mpmath(tau_im):
    # Im tau on both sides of the 0.7 frame switch; |Im z| up to 4 Im tau,
    # so the quasi-period reduction shifts by up to 4 periods
    rng = np.random.default_rng(int(tau_im * 100))
    tau = complex(rng.uniform(-0.5, 0.5), tau_im)
    z = (rng.uniform(-1.5, 1.5, (3, 4))
         + 1j * tau_im * rng.uniform(-4.0, 4.0, (3, 4)))
    for f, der in ((theta3, 0), (theta3_dz, 1)):
        val, ref = f(z, tau), _jtheta_mp(z, tau, der)
        assert val.shape == z.shape
        assert np.max(np.abs(val - ref) / np.abs(ref)) < 5e-14


def test_scalar_in_scalar_out():
    for z in (0.3, 0.3 + 0.1j, np.float64(0.3), np.array(0.3 + 0.1j)):
        for f in (theta3, theta3_dz):
            val = f(z, 0.4j)
            assert np.ndim(val) == 0 and isinstance(val, complex)
    assert theta3(np.array(0.3 + 0.1j), 0.4j) == theta3(0.3 + 0.1j, 0.4j)
    assert theta3([0.3 + 0.1j], 0.4j)[0] == theta3(0.3 + 0.1j, 0.4j)


def test_overflow_raises():
    # mpmath: log|theta3(0.5 + 3i | 0.3 + 0.01i)| = 2828.6, beyond the
    # double range (709.8); no inf or nan comes back, also not from an
    # array in which that element is the only one out of range
    with pytest.raises(OverflowError):
        theta3(0.5 + 3j, 0.3 + 0.01j)
    with pytest.raises(OverflowError):
        theta3_dz(0.5 + 3j, 0.3 + 0.01j)
    z = np.array([0.1, 0.2 + 0.01j, 0.5 + 3j, -0.3])
    assert np.all(np.isfinite(theta3(z[[0, 1, 3]], 0.3 + 0.01j)))
    with pytest.raises(OverflowError):
        theta3(z, 0.3 + 0.01j)
    with pytest.raises(OverflowError):
        theta3_dz(z, 0.3 + 0.01j)
