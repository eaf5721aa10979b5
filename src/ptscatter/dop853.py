"""Embedded Dormand-Prince 8(5,3) steps for the ODE backend's batched systems.

One call integrates psi'' = (v(x) - k^2) psi for both columns of n
wavenumbers, 4 blocks of n components (column, (psi, psi'), k), across one
piece of the support. The method, its 12-stage tableau and its step control
are those of Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I*, Sec. II.10, as scipy's DOP853 implements them: safety 0.9,
step factors 0.2 to 10, exponent -1/8, the same initial-step rule (its
norms taken over all components), and a smallest step of 10 ulp(x). Three
things differ:

- the error norm is each k's RMS over its own 4 components, maxed over k,
  so every k meets rtol = atol = tol however many share the system; a NaN
  or inf in that norm rejects the step;
- only the last accepted state is kept: there is no dense output;
- the equation is linear and the x of every stage is known before the
  first runs, so v - k^2 is read once per step attempt, at all its nodes,
  and each stage's derivative is one product written in place.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# stage nodes C, stage rows A[s][:s] for s = 1..11, weights B; scipy's
# dop853_coefficients holds the same numbers
C = (
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
)
A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
# the 3rd- and 5th-order error estimators, over the 12 stages (the 13th
# stage, f at the new state, has weight 0 in both)
E3 = list(B)
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1
E3 = tuple(E3)
E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1 / 8
RTOL_FLOOR = 100 * np.finfo(float).eps  # a smaller rtol is raised to this, with a warning
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# the whole step as one matrix over (y, K_0, ..., K_11): row s < 12 gives stage
# s's state once its columns 1.. are scaled by h, row 12 the new state, rows 13
# and 14 the 5th- and 3rd-order error estimates
_STEP = np.zeros((15, 13))
_STEP[:13, 0] = 1.0
for _s, _row in enumerate(A):
    _STEP[_s, 1:_s + 1] = _row
_STEP[12:, 1:] = B, E5, E3


@dataclass
class Solution:
    """End of one piece: the state y there, derivatives spent (nfev), and whether it got there."""

    y: np.ndarray
    nfev: int
    success: bool
    message: str | None = None


def _rms(z: np.ndarray) -> float:
    return float(np.linalg.norm(z)) / math.sqrt(z.size)


def _initial_step(fun, t, t_end, y, f, rtol, atol) -> float:
    """scipy's select_initial_step for an 8th-order method with 7th-order error estimate."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_end - t)


def solve_ivp(coef, t_span, y0, tol: float) -> Solution:
    """Integrate psi'' = coef(x) psi from t_span[0] up to t_span[1] with rtol = atol = tol per k.

    coef takes a 1-D float array of x, which it must not keep, and returns
    v(x) - k^2 there, shape (len(x), n) or (1, n). It is called at the 11
    stage nodes and the end of each step attempt, and at each of the
    initial-step rule's two points; nfev counts derivatives: 2, 11 per
    attempt and 1 per accepted step that ends inside the piece. A step is
    accepted when, for every k, the RMS over its 4 components of the error
    scaled by atol + rtol * |y| is below 1. A tol under RTOL_FLOOR keeps
    atol = tol and raises rtol to the floor, with a warning.
    """
    t, t_end = map(float, t_span)
    atol, rtol = tol, tol
    if rtol < RTOL_FLOOR:
        warnings.warn(f"ode_tol {tol} is below 100 eps: rtol is raised to {RTOL_FLOOR}",
                      stacklevel=2)
        rtol = RTOL_FLOOR
    n = y0.size // 4
    # y' = g * (psi', psi) per column, g = (1, v - k^2) at the 11 stage nodes and the end
    g = np.ones((12, 2, n), dtype=complex)

    def derivative(x, y):
        g[:1, 1] = coef(np.array([x]))
        return np.multiply(g[0], y.reshape(2, 2, n)[:, ::-1]).reshape(-1)

    y = y0
    ys = np.empty((13, y.size), dtype=complex)  # y, then stage K_s in row s + 1
    ys[1] = f = derivative(t, y)
    h_abs = _initial_step(derivative, t, t_end, y, f, rtol, atol)
    nfev = 2
    scaled = _STEP.copy()  # columns 1.. times h
    by_h, unscaled = scaled[:, 1:], _STEP[:, 1:]
    real = ys.view(float)  # the tableau is real: products run on re and im parts alike
    stages = [(scaled[s, :s + 1], real[:s + 1], g[s - 1], ys[s + 1].reshape(2, 2, n))
              for s in range(1, 12)]
    nodes, c = np.empty(12), np.array(C[1:])
    abs_y = np.abs(y)
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        ys[0] = y
        while True:
            if not h_abs >= min_step:  # NaN too
                return Solution(y, nfev, False, TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            np.multiply(unscaled, h, out=by_h)
            # t + 1.0 * h may differ from t_new, so the end is a node of its own
            np.add(np.multiply(c, h, out=nodes[:11]), t, out=nodes[:11])
            nodes[11] = t_new
            g[:, 1] = coef(nodes)
            for row, known, g_s, k_s in stages:
                np.multiply(g_s, np.dot(row, known).view(complex).reshape(2, 2, n)[:, ::-1],
                            out=k_s)
            nfev += 11
            out = np.dot(scaled[12:], real).view(complex)
            y_new = out[0]
            abs_new = np.abs(y_new)
            err = out[1:] / (atol + rtol * np.maximum(abs_y, abs_new))
            e5, e3 = np.square(err.view(float)).reshape(2, 4, -1, 2).sum(axis=(1, 3))
            # scipy's DOP853 norm |h| |e5|^2 / sqrt((|e5|^2 + |e3|^2 / 100) N), per k with N = 4;
            # the estimates already carry h
            den = e5 + 0.01 * e3
            den[den == 0] = 1.0  # both estimates zero: a zero norm, not 0/0
            error_norm = float(np.max(e5 / np.sqrt(4 * den)))  # NaN if any k's is
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else \
                    min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t, y, abs_y = t_new, y_new, abs_new
        if t < t_end:  # f at the piece's end would go unused
            np.multiply(g[11], y.reshape(2, 2, n)[:, ::-1], out=ys[1].reshape(2, 2, n))
            nfev += 1
    return Solution(y, nfev, True)
