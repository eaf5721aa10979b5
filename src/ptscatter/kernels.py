"""Stack kernel: transfer matrices of a layer stack over a k array, in numpy.

For each wavenumber k the field propagator P = [[cos(kw), sin(kw)/kappa], [-kappa^2 sin(kw)/kappa, cos(kw)]]
is accumulated across the layers and converted once to the plane-wave basis
referenced to x = 0, i.e. M = W(k, x_right)^-1 P W(k, x_left) with
W(k, x) = [[e^{ikx}, e^{-ikx}], [ik e^{ikx}, -ik e^{-ikx}]].

Each layer's factor entries (cos z, sin(z)/kappa and -kappa^2 sin(z)/kappa) are
computed before the product, for a block of layers at a time, as (layers, n)
arrays; the product loop keeps only the ordered 2x2 recurrence. Every element
goes through the same operations in the same order whatever the block, so a
k's matrix does not depend on the other k of the call. A block holds about
_BLOCK = 4096 elements: a single-k refinement call takes all its layers in one
block, and a sweep of 4096 k or more takes one layer per block. At 32768,
calls of 2,000-6,000 k ran 10-20% slower, because the block temporaries no
longer stayed in cache; 1024 and 4096 were both neutral there.
"""
import numpy as np

_SMALL = 1e-6
_BLOCK = 4096


def layer_edges(widths, x_left):
    """Layer boundary positions: x_left, then x_left plus each running sum of the widths."""
    return x_left + np.concatenate([[0.0], np.cumsum(widths)])


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
    step = max(1, _BLOCK // max(n, 1))
    for b in range(0, len(values), step):
        v0 = values[b:b + step, None]
        w = widths[b:b + step, None]
        kap2 = k2 - v0
        kap = np.sqrt(kap2)
        z = kap * w
        small = np.abs(z) < _SMALL
        kap_safe = np.where(small, 1.0, kap)
        # sin(kap w)/kap; even in kap, so the sqrt branch is irrelevant
        s = np.where(small, w * (1.0 - z * z / 6.0), np.sin(z) / kap_safe)
        for c, s_j, m in zip(np.cos(z), s, -kap2 * s):
            p11, p12, p21, p22 = (c * p11 + s_j * p21, c * p12 + s_j * p22,
                                  m * p11 + c * p21, m * p12 + c * p22)
    x_right = layer_edges(widths, x_left)[-1]
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
