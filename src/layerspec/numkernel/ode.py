"""Adaptive ODE integration with dense output and one stop condition.

An in-house DOP853 stepper: the explicit Runge-Kutta 8(5,3) pair of Prince
& Dormand (J. Comput. Appl. Math. 7, 1981; Hairer, Nørsett & Wanner,
*Solving ODEs I*, §II.10), 12 stages plus the FSAL derivative, with the
7-term dense output that three extra stages give.  At the charts' tolerance
of 1e-10 it takes about 3.4 times fewer steps than the 5(4) pair, and its
interpolant is more accurate between the nodes.  It performs the arithmetic
of scipy's ``solve_ivp(method="DOP853")`` expression for expression
(initial step selection at order 7, the E5/E3 error norm with exponent
-1/8, step-size control, dense output and stop location), so trajectories
are bitwise those of scipy; the tableau is copied in, as importing
``scipy.integrate`` costs start-up time.  Integration ends early at the
first fall of a scalar ``stop(s, y)`` through zero, where scipy would stop
at a terminal event with direction -1.  Only the tests import scipy's
integrators, to check exactly that; ``scipy.optimize.brentq`` is imported
only when the stop brackets a root.  The trajectory object offers dense
evaluation, and solver stalls become a typed error that records the last
abscissa reached.  Dense evaluation reads the per-step interpolants and can
be restricted to some state rows (``rows=``), so a caller that needs a few
components of a large batched system pays only for those.  The interpolant
is nested in x and 1 - x elementwise, so a value depends only on its own
point and state row: how the points are split among calls changes no bit.

A trajectory keeps every accepted step's start state (the array the
stepper made for it, so nothing is copied) and the end state, from which
``states`` is built on read.  Each step's interpolant is either built as
the step is taken or, with ``keep_interpolants=False``, on its first read:
the step is taken again from its start with the stepper's arithmetic and
its recorded ``(t_old, h, t_f)``, which gives the interpolant bitwise
as the default builds it, and kept.  A large system read in a few steps
then holds only the interpolants it reads.
"""

import numpy as np

from ..errors import IntegrationFailureError, InvalidInputError

_EPS = np.finfo(float).eps
_SAFETY = 0.9  # multiplies steps predicted from the asymptotic error
_MIN_FACTOR = 0.2  # largest decrease of a step size
_MAX_FACTOR = 10  # largest increase of a step size
_ERROR_EXPONENT = -1 / 8  # the error estimate is of order 7
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# DOP853 tableau (Hairer's Fortran code, as scipy's dop853_coefficients holds
# it).  Rows 1-11 of _A are the stages, row 12 the weights _B; the stage at
# t + h is the FSAL derivative; rows 13-15 are the extra stages of the dense
# output.  _E5 and _E3 are the two error estimators (with the FSAL stage),
# _D the last four rows of the dense output F.
_N_STAGES = 12
_N_STAGES_EXTENDED = 16
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
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])
_A = np.zeros((_N_STAGES_EXTENDED, _N_STAGES_EXTENDED))
_A[1, [0]] = [5.26001519587677318785587544488e-2]
_A[2, [0, 1]] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1]
_A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1]
_A[6, [0, 3, 4, 5]] = [
    3.7109375e-2, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
    -1.7578125e-2]
_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1]
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3]
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138]
_B = _A[_N_STAGES, :_N_STAGES]
_E3 = np.zeros(_N_STAGES + 1)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = np.zeros(_N_STAGES + 1)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
_D = np.zeros((4, _N_STAGES_EXTENDED))
_D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
]


class _DenseSteps:
    """The accepted steps of one integration, one :class:`_Step` each."""

    __slots__ = ("interpolants",)

    def __init__(self, interpolants):
        self.interpolants = interpolants


class _Step:
    """Dense output of one accepted step: ``Q`` holds the rows of F (7, dim),
    and the state at the step fraction x is ``_nested(Q, x, y_old)``.

    ``y_old`` is the step's start state.  ``Q`` is either stored at
    integration or built on its first read, by taking the step again from
    ``y_old`` with the stepper's arithmetic, and kept; both give the same
    bits.  The rebuild needs the wrapped RHS ``fun``, the step's start
    ``t_old``, its full size ``h`` (also when a stop root cut it short), and
    ``t_f``, the abscissa at which the stepper evaluated the step's first
    stage (the previous step's ``t_old + h``, not always bitwise ``t_old``).
    """

    __slots__ = ("fun", "t_old", "h", "y_old", "t_f", "_Q")

    def __init__(self, fun, t_old, h, y_old, t_f, Q=None):
        self.fun = fun
        self.t_old = t_old
        self.h = h
        self.y_old = y_old
        self.t_f = t_f
        self._Q = Q

    @property
    def Q(self):
        if self._Q is None:
            fun, y = self.fun, self.y_old
            K = np.empty((_N_STAGES_EXTENDED, y.size))
            y_next, f_next = _stages(fun, self.t_old, y, fun(self.t_f, y), self.h, K)
            self._Q = _dense(fun, self.t_old, y, y_next, f_next, self.h, K)
        return self._Q

    def __call__(self, t):
        """State at the scalar ``t`` (stop location)."""
        return _nested(self.Q, (t - self.t_old) / self.h, self.y_old)


class OdeTrajectory:
    """Dense solution of an initial value problem on [s0, s1].

    ``abscissae`` are the accepted step endpoints (monotone increasing);
    ``states`` has shape ``(len(abscissae), dim)``.  Dense evaluation between
    samples uses the solver's 7th-degree interpolant and reproduces the
    samples exactly at the nodes.  ``stopped_at`` is the abscissa where the
    stop condition ended integration (then also ``s_end``), or None.
    """

    def __init__(self, abscissae, steps, end, stopped_at=None):
        self.abscissae = abscissae
        self.stopped_at = stopped_at
        self._sol = steps
        self._end = end  # the state at s_end

    @property
    def s_end(self):
        return float(self.abscissae[-1])

    @property
    def states(self):
        """The state at every abscissa, shape ``(len(abscissae), dim)``: each
        step's start and the end state, copied into a new array on each read."""
        return np.array([*(step.y_old for step in self._sol.interpolants), self._end])

    def _node_state(self, i):
        steps = self._sol.interpolants
        return steps[i].y_old if i < len(steps) else self._end

    def eval(self, s, rows=None):
        """Evaluate the dense solution; returns shape (n,) or (n, m).

        ``rows`` selects state components (default: all ``dim``), and only
        those rows of each stored interpolant are evaluated, so ``n`` is
        ``len(rows)``.  Points are sorted once and grouped by step; a point
        on a step boundary takes the lower step, as scipy's OdeSolution does.
        """
        s = np.asarray(s, dtype=float)
        lo, hi = self.abscissae[0], self.abscissae[-1]
        if np.any(s < lo - 1e-12 * max(1.0, abs(lo))) or np.any(
            s > hi + 1e-12 * max(1.0, abs(hi))
        ):
            raise InvalidInputError(
                f"dense evaluation outside [{lo:.6g}, {hi:.6g}] requested"
            )
        pts = np.atleast_1d(np.clip(s, lo, hi))
        rows = np.arange(self._end.size) if rows is None else np.asarray(rows)
        pieces = self._sol.interpolants
        # column-major, as scipy's OdeSolution returns it: each point's
        # column is written in one piece, and callers' reductions keep their
        # summation order
        out = np.empty((rows.size, pts.size), order="F")

        order = np.argsort(pts)
        seg = np.searchsorted(self.abscissae, pts[order], side="left") - 1
        np.clip(seg, 0, len(pieces) - 1, out=seg)
        starts = np.flatnonzero(np.diff(seg, prepend=-1))  # none for no points
        for a, b in zip(starts, np.r_[starts[1:], pts.size]):
            piece = pieces[seg[a]]
            idx = order[a:b]
            x = (pts[idx] - piece.t_old) / piece.h
            out.T[idx] = _nested(piece.Q[:, rows], x[:, None], piece.y_old[rows])

        # reproduce the samples exactly where s coincides with a node, reading
        # the states of those nodes only
        req = np.atleast_1d(s)
        pos = np.clip(np.searchsorted(self.abscissae, req), 0, self.abscissae.size - 1)
        hit = self.abscissae[pos] == req
        if hit.any():
            out[:, hit] = np.array([self._node_state(i)[rows] for i in pos[hit]]).T
        return out[:, 0] if s.ndim == 0 else out


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """First step size from two RHS values (Hairer, Nørsett & Wanner, §II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _stages(fun, t, y, f, h, K):
    """The DOP853 stages of the step of size ``h`` from ``(t, y)``, ``f = rhs(t, y)``.

    Writes the twelve stages and the FSAL derivative at ``t + h`` into the
    first 13 rows of ``K`` and returns ``(y_new, f_new)``.
    """
    K[0] = f
    for s in range(1, _N_STAGES):
        K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
    y_new = y + h * np.dot(K[:_N_STAGES].T, _B)
    f_new = fun(t + h, y_new)
    K[_N_STAGES] = f_new
    return y_new, f_new


def _error_norm(K, h, scale):
    """The DOP853 error norm: the fifth-order estimate, damped by the third."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dense(fun, t, y, y_new, f_new, h, K):
    """The dense output ``F`` (7, dim) of the step ``(t, y) -> (t + h, y_new)``.

    ``K`` holds the step's stages (see :func:`_stages`); the three extra
    stages are written into its last rows.
    """
    for s in range(_N_STAGES + 1, _N_STAGES_EXTENDED):
        K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
    F = np.empty((7, y.size))
    delta_y = y_new - y
    F[0] = delta_y
    F[1] = h * K[0] - delta_y
    F[2] = 2 * delta_y - h * (f_new + K[0])
    F[3:] = h * np.dot(_D, K)
    return F


def _nested(F, x, y_old):
    """``y_old`` plus the dense output ``F`` at the step fraction ``x``:

        y_old + x (F0 + (1 - x) (F1 + x (F2 + (1 - x) (F3 + x (F4 + (1 - x) (F5 + x F6))))))

    summed onto zeros from ``F[6]`` outwards, elementwise, so each value
    depends only on its own state row and point.  ``x`` is a scalar (shape
    ``(dim,)`` out) or a column ``(n, 1)`` (shape ``(n, dim)`` out).
    """
    y = np.zeros(np.broadcast_shapes(np.shape(x), y_old.shape))
    one_minus_x = 1 - x
    for i, f in enumerate(F[::-1]):
        y += f
        y *= one_minus_x if i % 2 else x
    y += y_old
    return y


def _advance(fun, t, y, f, h_abs, K, t_bound, rtol, atol):
    """Take one accepted DOP853 step from ``(t, y)`` with ``f = rhs(t, y)``.

    Returns ``(t_new, y_new, f_new, h_abs_next)`` with the stages in ``K``,
    or None when the step size falls below ten ulps of ``t``.
    """
    min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    rejected = False
    while h_abs >= min_step:
        t_new = min(t + h_abs, t_bound)
        h = t_new - t
        h_abs = np.abs(h)
        y_new, f_new = _stages(fun, t, y, f, h, K)

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _error_norm(K[: _N_STAGES + 1], h, scale)
        if error_norm < 1:
            if error_norm == 0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            if rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h_abs * factor
        h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        rejected = True
    return None


def integrate_ode(rhs, initial, span, tol=1e-10, stop=None, keep_interpolants=True):
    """Integrate ``y' = rhs(s, y)`` over ``span`` with local tolerance ``tol``.

    Step sizes are left to the controller: the first one is chosen from the
    RHS, and no step is capped in length.

    Parameters
    ----------
    rhs : callable
        Vector field ``rhs(s, y) -> array``.
    initial : array_like
        State at ``span[0]``.
    span : tuple
        Finite ``(s0, s1)`` with ``s1 > s0``.
    tol : float
        Relative and absolute local error target (finite, > 0); the relative target
        is at least 100 machine epsilons.
    stop : callable, optional
        Scalar ``stop(s, y)``.  Integration ends where it first falls from
        >= 0 to <= 0 over a step, at the root of ``stop`` on the step's
        interpolant (Brent's method), as at scipy's terminal event with
        direction -1; a rise through zero is ignored.  The root is recorded
        as the trajectory's ``stopped_at``.
    keep_interpolants : bool
        Build every step's interpolant as the step is taken (the default).
        When False, a step builds its interpolant on its first read, from
        its start state, and keeps it: for a large system read in a few
        steps only, this trades 16 RHS calls per read step for the
        ``7 * dim`` floats of every step not read.  The values are the same
        bits either way.

    Raises
    ------
    InvalidInputError
        If ``tol`` or an end of ``span`` is not finite, ``tol <= 0``,
        ``s1 <= s0``, or the initial state is not finite.
    IntegrationFailureError
        If the step size controller underflows (stiff blow-up); the error
        carries the last successfully integrated abscissa.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"tol must be finite and > 0, got {tol!r}")
    s0, s1 = float(span[0]), float(span[1])
    if not (np.isfinite(s0) and np.isfinite(s1)):
        raise InvalidInputError(f"span must be finite, got ({s0!r}, {s1!r})")
    if not s1 > s0:
        raise InvalidInputError("span must satisfy s1 > s0")
    y = np.atleast_1d(np.array(initial, dtype=float))
    if not np.isfinite(y).all():
        raise InvalidInputError("initial state must be finite")
    rtol, atol = max(tol, 100 * _EPS), tol

    def fun(s, state):
        return np.asarray(rhs(s, state), dtype=float)

    f = fun(s0, y)
    h_abs = _initial_step(fun, s0, y, f, s1, rtol, atol)
    K = np.empty((_N_STAGES_EXTENDED, y.size))

    g = None if stop is None else stop(s0, y)
    stopped_at = None

    t = t_f = s0  # t_f: where the next step's first stage was evaluated
    ts, steps = [t], []
    while t < s1 and stopped_at is None:
        taken = _advance(fun, t, y, f, h_abs, K, s1, rtol, atol)
        if taken is None:
            raise IntegrationFailureError(_TOO_SMALL_STEP, last_s=t)
        t_old, y_old = t, y
        t, y, f, h_abs = taken
        h = t - t_old
        Q = _dense(fun, t_old, y_old, y, f, h, K) if keep_interpolants else None
        step = _Step(fun, t_old, h, y_old, t_f, Q)
        t_f = t_old + h
        steps.append(step)

        if stop is not None:
            g_new = stop(t, y)
            if g >= 0 >= g_new:
                from scipy.optimize import brentq

                t = brentq(lambda s: stop(s, step(s)), t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
                y = step(t)
                stopped_at = float(t)
            g = g_new

        if len(ts) > 1 and ts[-1] == t:  # a stop root on the previous node
            steps.pop()
            y = y_old
        else:
            ts.append(t)

    return OdeTrajectory(np.array(ts), _DenseSteps(steps), y, stopped_at=stopped_at)
