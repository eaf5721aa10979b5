"""Stack kernel: transfer matrices of a layer stack over a k array, in numpy.

For each wavenumber k the field propagator P = [[cos(kw), sin(kw)/kappa], [-kappa^2 sin(kw)/kappa, cos(kw)]]
is accumulated across the layers and converted once to the plane-wave basis
referenced to x = 0, i.e. M = W(k, x_right)^-1 P W(k, x_left) with
W(k, x) = [[e^{ikx}, e^{-ikx}], [ik e^{ikx}, -ik e^{-ikx}]].
"""
import numpy as np

_SMALL = 1e-6


def stack_transfer(values, widths, x_left, ks):
    """Transfer matrices for a piecewise-constant potential.

    Args:
        values: complex layer values, left to right.
        widths: positive layer widths (same length as values).
        x_left: position of the left face of the first layer.
        ks: real nonzero wavenumbers.

    Returns:
        Array of shape (len(ks), 2, 2), complex.
    """
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=complex)
    widths = np.asarray(widths, dtype=float)
    n = ks.size
    p11 = np.ones(n, dtype=complex)
    p12 = np.zeros(n, dtype=complex)
    p21 = np.zeros(n, dtype=complex)
    p22 = np.ones(n, dtype=complex)
    k2 = ks * ks
    for v0, w in zip(values, widths):
        kap2 = k2 - v0
        kap = np.sqrt(kap2.astype(complex))
        z = kap * w
        c = np.cos(z)
        small = np.abs(z) < _SMALL
        kap_safe = np.where(small, 1.0, kap)
        # sin(kap w)/kap; even in kap, so the sqrt branch is irrelevant
        s = np.where(small, w * (1.0 - z * z / 6.0), np.sin(z) / kap_safe)
        q11 = c * p11 + s * p21
        q12 = c * p12 + s * p22
        q21 = -kap2 * s * p11 + c * p21
        q22 = -kap2 * s * p12 + c * p22
        p11, p12, p21, p22 = q11, q12, q21, q22
    x_right = x_left + float(np.sum(widths))
    el = np.exp(1j * ks * x_left)
    er = np.exp(1j * ks * x_right)
    ik = 1j * ks
    # column action of W(k, x_left) on (1, 0) and (0, 1)
    a11 = p11 * el + p12 * ik * el
    a21 = p21 * el + p22 * ik * el
    a12 = p11 / el - p12 * ik / el
    a22 = p21 / el - p22 * ik / el
    # rows of W(k, x_right)^-1: [1/(2 er), 1/(2 ik er)], [er/2, -er/(2 ik)]
    out = np.empty((n, 2, 2), dtype=complex)
    out[:, 0, 0] = 0.5 * (a11 / er + a21 / (ik * er))
    out[:, 0, 1] = 0.5 * (a12 / er + a22 / (ik * er))
    out[:, 1, 0] = 0.5 * (a11 * er - a21 * er / ik)
    out[:, 1, 1] = 0.5 * (a12 * er - a22 * er / ik)
    return out
