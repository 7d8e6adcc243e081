"""Adaptive ODE integration with dense output and one stop condition.

An in-house Dormand-Prince 5(4) stepper (Dormand & Prince 1980; Hairer,
Nørsett & Wanner, *Solving ODEs I*, §II.4-5) with Shampine's quartic dense
output.  It performs the arithmetic of scipy's ``solve_ivp(method="RK45")``
expression for expression (initial step selection, step-size control, dense
coefficients and stop location), so trajectories are bitwise those of
scipy.  Integration ends early at the first fall of a scalar ``stop(s, y)``
through zero, where scipy would stop at a terminal event with direction -1.
Only the tests import scipy's integrators, to check exactly that;
``scipy.optimize.brentq`` is imported only when the stop brackets a root.
The trajectory object offers dense evaluation, and solver stalls become a
typed error that records the last abscissa reached.  Dense evaluation reads
the per-step interpolants and can be restricted to some state rows
(``rows=``), so a caller that needs a few components of a large batched
system pays only for those.

A trajectory either stores every step's interpolant and start state as the
steps are taken, or, with ``keep_interpolants=False``, is checkpointed: it
stores the start state of every ``_CHECKPOINT_SPACING``-th step (8), of its
last step and the end state, and no interpolant.  A read of another step's
start walks forward from the nearest earlier start held, taking the
accepted steps again with the stepper's arithmetic and their recorded
``(t_old, h, t_f)``, and keeps the start it reads; a step's interpolant is
built the same way from its start on its first read, and keeps the next
step's start, which the same stages give, so reads in increasing order walk
once per gap.  What is built is bitwise what the stored trajectory holds,
and is kept.  This is the checkpoint/recompute trade of Griewank & Walther
(*Algorithm 799: revolve*, ACM TOMS 26, 2000) at one fixed spacing: a large
system read in a few steps holds about an eighth of its starts and none of
the other interpolants, and pays a walk of 3.5 steps on average per read
step.  ``states`` stays the full array; a checkpointed trajectory builds it
on first access, and the exact node reads in :meth:`OdeTrajectory.eval`
read the hit nodes only.
"""

import numpy as np

from ..errors import IntegrationFailureError, InvalidInputError

_EPS = np.finfo(float).eps
_SAFETY = 0.9  # multiplies steps predicted from the asymptotic error
_MIN_FACTOR = 0.2  # largest decrease of a step size
_MAX_FACTOR = 10  # largest increase of a step size
_ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# Dormand-Prince 5(4) tableau; _E is the difference of the embedded weights
# (with the FSAL stage), _P the quartic dense output with Shampine's optimum c6
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])

# a checkpointed trajectory stores the start state of every 8th step (and of
# its last one), so a read of any other start walks at most 7 steps.  On the
# monkey-saddle totals chart's fine level (190 steps of a 13 824-dim state)
# total_gauss's 8 reads walk 16 steps in all, about 0.6 ms each, and leave 37
# starts held (3.9 MiB) where storing them all takes 20.0 MiB
_CHECKPOINT_SPACING = 8


class _DenseSteps:
    """The accepted steps of one integration: abscissae ``ts``, one
    :class:`_Step` per step in ``interpolants``, and the wrapped RHS ``fun``
    that takes a step again."""

    __slots__ = ("ts", "interpolants", "fun")

    def __init__(self, fun):
        self.ts = None
        self.interpolants = []
        self.fun = fun

    def walk_to(self, j):
        """Hold the start state of step ``j``.

        Walks from the nearest earlier step that holds its start, taking
        each step again with the stepper's arithmetic and ``(t_old, h,
        t_f)``, so the start comes out bitwise the integrated one.  Only
        step ``j``'s start is kept: the starts passed on the way are not.
        """
        steps = self.interpolants
        c = j
        while steps[c]._y_old is None:
            c -= 1
        y = steps[c]._y_old
        f = self.fun(steps[c].t_f, y)
        K = np.empty((_C.size + 1, y.size))
        for step in steps[c:j]:
            y, f = _stages(self.fun, step.t_old, y, f, step.h, K)
        steps[j]._y_old = y


class _Step:
    """Quartic interpolant of one accepted step: y_old + h Q [x, x², x³, x⁴].

    ``Q`` and the start state ``y_old`` are either stored at integration or
    built on their first read and kept.  ``y_old`` is built by a walk (see
    :meth:`_DenseSteps.walk_to`); ``Q`` by taking the step again from
    ``y_old`` with the same arithmetic, so both are bitwise the stored ones,
    and the same stages give the next step's start, which is kept too.  The
    rebuild needs the step's start ``t_old``, its full size ``h`` (also
    when a stop root cut it short), and ``t_f``, the abscissa at which the
    stepper evaluated the step's first stage (the previous step's ``t_old +
    h``, not always bitwise ``t_old``).
    """

    __slots__ = ("t_old", "h", "t_f", "_y_old", "_Q", "_steps", "_index")

    def __init__(self, t_old, h, y_old, t_f, steps, Q=None):
        self.t_old = t_old
        self.h = h
        self.t_f = t_f
        self._y_old = y_old
        self._Q = Q
        self._steps = steps
        self._index = len(steps.interpolants)

    @property
    def y_old(self):
        if self._y_old is None:
            self._steps.walk_to(self._index)
        return self._y_old

    @property
    def Q(self):
        if self._Q is None:
            fun, y = self._steps.fun, self.y_old
            K = np.empty((_C.size + 1, y.size))
            y_next, _ = _stages(fun, self.t_old, y, fun(self.t_f, y), self.h, K)
            self._Q = K.T.dot(_P)
            steps, following = self._steps.interpolants, self._index + 1
            if following < len(steps) and steps[following]._y_old is None:
                steps[following]._y_old = y_next
        return self._Q

    def __call__(self, t):
        """State at the scalar ``t`` (stop location)."""
        Q = self.Q
        x = (t - self.t_old) / self.h
        return self.h * np.dot(Q, np.cumprod(np.tile(x, Q.shape[1]))) + self.y_old


class OdeTrajectory:
    """Dense solution of an initial value problem on [s0, s1].

    ``abscissae`` are the accepted step endpoints (monotone increasing);
    ``states`` has shape ``(len(abscissae), dim)``.  Dense evaluation between
    samples uses the solver's quartic interpolant and reproduces the
    samples exactly at the nodes.  ``stopped_at`` is the abscissa where the
    stop condition ended integration (then also ``s_end``), or None.
    """

    def __init__(self, abscissae, steps, end, stopped_at=None, states=None):
        self.abscissae = abscissae
        self.stopped_at = stopped_at
        self._sol = steps
        self._end = end  # the state at s_end
        self._states = states

    @property
    def s_end(self):
        return float(self.abscissae[-1])

    @property
    def states(self):
        """The state at every abscissa, shape ``(len(abscissae), dim)``.

        A checkpointed trajectory builds it on the first access, walking to
        every start it does not hold; each step's start then becomes a view
        of its row.
        """
        if self._states is None:
            states = np.empty((self.abscissae.size, self._end.size))
            for step, row in zip(self._sol.interpolants, states):
                row[:] = step.y_old
                step._y_old = row
            states[-1] = self._end
            self._states = states
        return self._states

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
        seg = np.searchsorted(self._sol.ts, pts[order], side="left") - 1
        np.clip(seg, 0, len(pieces) - 1, out=seg)
        starts = np.flatnonzero(np.diff(seg, prepend=-1))  # none for no points
        for a, b in zip(starts, np.r_[starts[1:], pts.size]):
            piece = pieces[seg[a]]
            idx = order[a:b]
            x = (pts[idx] - piece.t_old) / piece.h
            powers = np.cumprod(np.tile(x, (piece.Q.shape[1], 1)), axis=0)
            out[:, idx] = piece.h * np.dot(piece.Q[rows], powers) + piece.y_old[rows, None]

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
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _stages(fun, t, y, f, h, K):
    """The DP5 stages of the step of size ``h`` from ``(t, y)``, ``f = rhs(t, y)``.

    Writes the seven stages into ``K`` (the last is the FSAL derivative at
    ``t + h``) and returns ``(y_new, f_new)``.
    """
    K[0] = f
    for s in range(1, 6):
        K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
    y_new = y + h * np.dot(K[:-1].T, _B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _advance(fun, t, y, f, h_abs, K, t_bound, rtol, atol):
    """Take one accepted DP5(4) step from ``(t, y)`` with ``f = rhs(t, y)``.

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
        error_norm = _rms(np.dot(K.T, _E) * h / scale)
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
        ``(s0, s1)`` with ``s1 > s0``.
    tol : float
        Relative and absolute local error target (> 0); the relative target
        is at least 100 machine epsilons.
    stop : callable, optional
        Scalar ``stop(s, y)``.  Integration ends where it first falls from
        >= 0 to <= 0 over a step, at the root of ``stop`` on the step's
        interpolant (Brent's method), as at scipy's terminal event with
        direction -1; a rise through zero is ignored.  The root is recorded
        as the trajectory's ``stopped_at``.
    keep_interpolants : bool
        Store every step's interpolant and start state (the default).  When
        False the trajectory is checkpointed: it stores no interpolant and
        the start state of every 8th step only, and builds what a read needs
        (a step's interpolant, a walk to its start) on that read and keeps
        it.  For a large system read in a few steps only, this trades 7 RHS
        calls per read step, plus 6 per step walked (at most 7, 3.5 on
        average), for the ``5 * dim`` floats of every step.

    Raises
    ------
    IntegrationFailureError
        If the step size controller underflows (stiff blow-up); the error
        carries the last successfully integrated abscissa.
    """
    if tol <= 0:
        raise InvalidInputError("tol must be > 0")
    s0, s1 = float(span[0]), float(span[1])
    if not s1 > s0:
        raise InvalidInputError("span must satisfy s1 > s0")
    y = np.atleast_1d(np.asarray(initial, dtype=float))
    if not np.isfinite(y).all():
        raise InvalidInputError("initial state must be finite")
    rtol, atol = max(tol, 100 * _EPS), tol

    def fun(s, state):
        return np.asarray(rhs(s, state), dtype=float)

    f = fun(s0, y)
    h_abs = _initial_step(fun, s0, y, f, s1, rtol, atol)
    K = np.empty((_C.size + 1, y.size))

    g = None if stop is None else stop(s0, y)
    stopped_at = None

    t = t_f = s0  # t_f: where the next step's first stage was evaluated
    ts, dense = [t], _DenseSteps(fun)
    steps = dense.interpolants
    if keep_interpolants:
        # each state is written once into an array grown by doubling, and
        # each step's y_old is a view of its row, so no list of rows is kept
        # or copied at the end; freeing the outgrown arrays also lets malloc
        # keep later multi-MB temporaries on its heap instead of mapping
        # fresh pages (monkey-saddle totals: 5k page faults after the build,
        # 50k with a list of rows)
        states = np.empty((16, y.size))
        states[0] = y
    while t < s1 and stopped_at is None:
        taken = _advance(fun, t, y, f, h_abs, K, s1, rtol, atol)
        if taken is None:
            raise IntegrationFailureError(_TOO_SMALL_STEP, last_s=t)
        t_old, y_old = t, y
        t, y, f, h_abs = taken
        h = t - t_old
        if keep_interpolants:
            step = _Step(t_old, h, states[len(ts) - 1], t_f, dense, K.T.dot(_P))
        else:
            step = _Step(t_old, h, y_old, t_f, dense)
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
            if keep_interpolants:
                if len(ts) == len(states):
                    grown = np.empty((2 * len(states), y.size))
                    grown[: len(ts)] = states
                    states = grown
                    for step, row in zip(steps, states):
                        step._y_old = row
                states[len(ts)] = y
            elif len(steps) > 1 and (len(steps) - 2) % _CHECKPOINT_SPACING:
                # the newest step holds its start until the next one is kept,
                # so a stop root on it walks nowhere and the last step holds
                # its own
                steps[-2]._y_old = None
            ts.append(t)

    dense.ts = np.array(ts)
    return OdeTrajectory(dense.ts, dense, y, stopped_at=stopped_at,
                         states=states[: len(ts)] if keep_interpolants else None)
