"""The explicit ODE stepper of the flow drivers.

Provides the Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett, Wanner,
Solving ODEs I, II.10) with standard step-size control, the one method of
every flow. The flows run at tolerances near 1e-9, where an eighth-order
method takes far fewer field evaluations than a fifth-order one. The flow
drivers need to project the state and probe domain boundaries between
accepted steps, which is why stepping is exposed one step at a time
instead of wrapping a whole-interval integrator.

The field of ``advance`` and ``dopri_step`` maps (t, y) to (dy/dt, q) with q
a scalar rate. Each step also returns the integral of q over the step under
the eighth-order weights: a quadrature carried along with the ODE (Hairer,
Norsett, Wanner, Solving ODEs I, II.4-5). q never enters the error norm, so
it does not change the steps taken.

A DOP853 trial is table driven: its twelve stages fill the rows of a
(12, N) array k, and its rates a (12,) array q. Stage s is evaluated at
y + h * sum_j A[s, j] k_j over the first s rows; the eighth-order solution
and the fifth- and third-order error estimates are sums over all twelve
rows, the zero coefficients included. Each sum is one np.add.reduce over the
stage axis from 0.0: it adds its at most twelve terms in order, so a trial
is bit for bit the term-by-term sum of the textbook formula. No stage is
evaluated at the new point: the error estimate needs none, so a trial costs
eleven field evaluations, and the first stage of the next step is the
caller's evaluation of the accepted point.
"""

import numpy as np

from .errors import PackflowsError, StepFailureError

# DOP853 coefficients, from Hairer's dop853.f: the nodes c, the stage
# matrix A (stage s reads the row _A[s, :s]), the eighth-order weights b,
# the weights er of the fifth-order error estimate, and those of the
# third-order estimate, b - bhh
_C = np.array([
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
])
_A = np.zeros((12, 12))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, :2] = [1.97250569845378994544595329183e-2,
             5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2,
                 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1,
                    -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1]
_A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2,
                    1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1]
_A[6, [0, 3, 4, 5]] = [3.7109375e-2,
                       1.70252211019544039314978060272e-1,
                       6.02165389804559606850219397283e-2,
                       -1.7578125e-2]
_A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2,
                          1.70383925712239993810214054705e-1,
                          1.07262030446373284651809199168e-1,
                          -1.53194377486244017527936158236e-2,
                          8.27378916381402288758473766002e-3]
_A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
                             -3.36089262944694129406857109825,
                             -8.68219346841726006818189891453e-1,
                             2.75920996994467083049415600797e1,
                             2.01540675504778934086186788979e1,
                             -4.34898841810699588477366255144e1]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
                                -2.48811461997166764192642586468,
                                -5.90290826836842996371446475743e-1,
                                2.12300514481811942347288949897e1,
                                1.52792336328824235832596922938e1,
                                -3.32882109689848629194453265587e1,
                                -2.03312017085086261358222928593e-2]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
                                    5.18637242884406370830023853209,
                                    1.09143734899672957818500254654,
                                    -8.14978701074692612513997267357,
                                    -1.85200656599969598641566180701e1,
                                    2.27394870993505042818970056734e1,
                                    2.49360555267965238987089396762,
                                    -3.0467644718982195003823669022]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449,
                                       -1.05344954667372501984066689879e1,
                                       -2.00087205822486249909675718444,
                                       -1.79589318631187989172765950534e1,
                                       2.79488845294199600508499808837e1,
                                       -2.85899827713502369474065508674,
                                       -8.87285693353062954433549289258,
                                       1.23605671757943030647266201528e1,
                                       6.43392746015763530355970484046e-1]
_B8 = np.zeros(12)
_B8[[0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
                                   4.45031289275240888144113950566,
                                   1.89151789931450038304281599044,
                                   -5.8012039600105847814672114227,
                                   3.1116436695781989440891606237e-1,
                                   -1.52160949662516078556178806805e-1,
                                   2.01365400804030348374776537501e-1,
                                   4.47106157277725905176885569043e-2]
_E5 = np.zeros(12)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1,
                                   -0.1225156446376204440720569753e+1,
                                   -0.4957589496572501915214079952,
                                   0.1664377182454986536961530415e+1,
                                   -0.3503288487499736816886487290,
                                   0.3341791187130174790297318841,
                                   0.8192320648511571246570742613e-1,
                                   -0.2235530786388629525884427845e-1]
_E3 = _B8.copy()
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                    0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
# (12, 3): the stage axis first, so that the three sums share it and never
# reduce to a single number
_B = np.column_stack([_B8, _E5, _E3])

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
# the step-size exponent of an error estimate of order 7 (the eighth-order
# solution against the 5(3) estimate)
ERROR_EXPONENT = -1.0 / 8.0


class DomainError(PackflowsError):
    """Raised by a field callback when a stage leaves the admissible domain."""


def _dopri_stages(field, t, y, h, first):
    """The twelve stage derivatives as the rows of a (12, N) array k and the
    twelve stage rates as a (12,) array q, given the first stage (dy/dt, q)
    at (t, y)."""
    n = len(y)
    # numpy adds eight or more terms pairwise when they reduce to a single
    # number, so the stage array keeps a second column when N = 1
    k = np.zeros((12, max(n, 2)))
    q = np.empty(12)
    k[0, :n], q[0] = first
    for s in range(1, 12):
        ys = y + h * np.add.reduce(_A[s, :s, None] * k[:s], axis=0,
                                   initial=0.0)[:n]
        k[s, :n], q[s] = field(t + _C[s] * h, ys)
    return k[:, :n], q


def dopri_step(field, t, y, h, rtol, atol, first):
    """One trial DOP853 step of a field (t, y) -> (dy/dt, q), with first the
    field's value at (t, y).

    The error norm is Hairer's combination of the fifth- and third-order
    estimates e5 and e3, scaled componentwise by atol + rtol max(|y|,
    |y_new|): |h| ||e5||^2 / sqrt((||e5||^2 + 0.01 ||e3||^2) N).
    Returns (accepted, t_new, y_new, err_norm, quad) with quad the
    eighth-order integral of q over the step. Raises DomainError through
    from the field.
    """
    k, q = _dopri_stages(field, t, y, h, first)
    dy, e5, e3 = np.add.reduce(_B[:, :, None] * k[:, None], axis=0,
                               initial=0.0)
    y8 = y + h * dy
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y8))
    n5 = np.add.reduce((e5 / scale) ** 2)
    n3 = np.add.reduce((e3 / scale) ** 2)
    err = 0.0 if n5 == 0.0 else float(
        abs(h) * n5 / np.sqrt((n5 + 0.01 * n3) * len(y)))
    return err <= 1.0, t + h, y8, err, h * float(_B8 @ q)


def advance(field, t, y, h, rtol, atol, min_step, max_step, first):
    """Advance one accepted DOP853 step of a field (t, y) -> (dy/dt, q),
    retrying with smaller h. first is the field's value at (t, y), the first
    stage, which every trial shares.

    Returns (t_new, y_new, quad, h_next, rejected) where quad is the
    integral of q over the accepted step and rejected counts the failed
    trials. DomainError from the field is treated like an oversized step:
    halve and retry. StepFailureError when no acceptable step at or above
    min_step exists.
    """
    rejected = 0
    while True:
        if h < min_step:
            raise StepFailureError(f"step size {h:.3g} fell below {min_step:.3g}")
        try:
            ok, t2, y2, err, quad = dopri_step(field, t, y, h, rtol, atol,
                                               first)
        except DomainError:
            h *= 0.5
            rejected += 1
            continue
        if ok:
            factor = MAX_FACTOR if err == 0.0 else min(
                MAX_FACTOR, max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT))
            h_next = min(h * factor, max_step)
            return t2, y2, quad, h_next, rejected
        h *= max(MIN_FACTOR, min(SAFETY * err ** ERROR_EXPONENT, 0.9))
        rejected += 1
