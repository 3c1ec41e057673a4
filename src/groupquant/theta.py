"""Jacobi theta_3 and its z-derivative, for a scalar or an array of z.

theta3(z, tau) = sum_n q^{n^2} e^{2 pi i n z},  q = e^{i pi tau}, Im(tau) > 0.

Both functions go through one routine. It evaluates the series in the frame
tau if Im(tau) >= 0.7 and otherwise in the frame -1/tau (modular
transformation), and reduces each z elementwise by its unit period and by
the quasi-period to w0 with |Im w0| <= Im(tau')/2, tau' the frame's
parameter. Every term is then at most 1 in modulus, so one series length,
which drops terms below 1e-18 at that bound, serves the whole array, and one
table of terms gives the value and the derivative. The frame prefactor and
the quasi-period multiplier are carried as one logarithm and exponentiated
once.

A scalar z (or a 0-d array) gives a scalar; an array gives an array of its
shape. A value beyond the double range raises OverflowError, for an array
if any element does; none comes back as inf or nan.
"""

import cmath
import math

import numpy as np

_TAIL = 1e-18
_FRAME_SWITCH = 0.7  # below this Im(tau), evaluate in the -1/tau frame


def _theta(z, tau, dz):
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("theta3 requires Im(tau) > 0, got %r" % (tau,))
    z = np.asarray(z, complex)
    try:
        with np.errstate(over="raise", invalid="raise"):
            if tau.imag >= _FRAME_SWITCH:
                tw, w, log_pref, dlog_pref, dw = tau, z, 0.0, 0.0, 1.0
            else:
                # theta3(z|tau) = (-i tau)^(-1/2) e^{-i pi z^2/tau}
                #                 theta3(z/tau | -1/tau)
                tw, w = -1.0 / tau, z / tau
                log_pref = (-0.5 * cmath.log(-1j * tau)
                            - 1j * math.pi * z * z / tau)
                dlog_pref, dw = -2j * math.pi * z / tau, 1.0 / tau
            # theta3(w0 + m tw + k | tw)
            #     = e^{-i pi m^2 tw - 2 pi i m w0} theta3(w0 | tw)
            m = np.rint(w.imag / tw.imag)
            w0 = w - m * tw
            w0 = w0 - np.rint(w0.real)
            # |term n| <= exp(-pi Im(tw) (n^2 - n)) at |Im w0| = Im(tw)/2
            n = int(math.ceil(0.5 + math.sqrt(
                0.25 - math.log(_TAIL) / (math.pi * tw.imag)))) + 4
            ns = np.arange(-n, n + 1)
            terms = np.exp(ns * ((1j * math.pi * tw) * ns
                                 + (2j * math.pi) * w0[..., None]))
            s = terms.sum(-1)
            mul = np.exp(log_pref - 1j * math.pi * m * m * tw
                         - 2j * math.pi * m * w0)
            if not dz:
                return (mul * s)[()]
            ds = terms @ (2j * math.pi * ns) - 2j * math.pi * m * s
            return (mul * (dlog_pref * s + dw * ds))[()]
    except FloatingPointError:
        raise OverflowError("theta3 exceeds the double range") from None


def theta3(z, tau):
    """theta_3(z | tau), elementwise over z."""
    return _theta(z, tau, False)


def theta3_dz(z, tau):
    """d/dz theta_3(z | tau), elementwise over z."""
    return _theta(z, tau, True)
