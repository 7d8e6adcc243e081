"""Sparse symmetric generalized eigensolver.

Shift-invert Lanczos for ``A x = lam B x`` with symmetric ``A`` and
symmetric positive-definite ``B``.  The Krylov recurrence runs in the
B-inner product with full reorthogonalization, so the eigenvalues nearest
the shift come out with near-machine residuals after a modest number of
steps.  Each solve factors ``A - sigma B`` once, by a sparse LU with columns
in minimum-degree order on the pattern of ``A^T + A`` (SuperLU's
``MMD_AT_PLUS_A`` in symmetric mode; the default COLAMD fills L and U with
about 40 % more nonzeros on the 2-d strips), and with panels one column
wide.  SuperLU's supernode-panel factorization (Demmel, Eisenstat, Gilbert,
Li & Liu, SIAM J. Matrix Anal. Appl. 20, 1999) holds dense workspace of n
times the panel width, and scipy passes SuperLU's default width of 20; on
these narrow-band pencils wide panels cost time and memory and gain
nothing.  On the counterexample's largest strip (62 372 unknowns, 2-vCPU
host, best of 7) width 1 factors in 78 ms against 139 ms at width 20, with
the same fill, and the factorization's peak growth falls from 44.7 MB to
26.7 MB, the size of the factor it keeps.  Solves are not faster: on a
203 200-unknown hyperboloid pencil they took about 5 % longer at width 1.

Pivots stay on the diagonal, so the LU is an L D L^T, and with B positive
definite its negative pivots number the eigenvalues below sigma (Sylvester's
law of inertia; Parlett, The Symmetric Eigenvalue Problem, ch. 3; Grimes,
Lewis & Simon, SIAM J. Matrix Anal. Appl. 15, 1994).  The count is exact
for eigenvalues further from sigma than the factorization's rounding,
about eps |A - sigma B| times the pivot growth.  A zero pivot that SuperLU
must take off the diagonal raises EigenSolveError.

With c eigenvalues below sigma, a run wants the c Ritz pairs with theta < 0
and the k - c of largest theta > 0 (lam = sigma + 1/theta).  It stops at the
first step at which T_j has exactly c negative Ritz values and each wanted
pair has residual bound beta_j |y_{j,i}| <= 1e-13 |theta_i| (ARPACK's test;
Parlett, ch. 13), or at its step cap.  A solve is one factorization and one
run, which must return exactly c values below sigma (the inertia and the
Krylov space are two routes to the count) and its k lowest within _TOL;
else, as on an exactly singular A - sigma B, it raises EigenSolveError.

Deterministic: the start vector comes from a fixed-seed generator and the
algorithm is serial, so repeated runs on identical inputs are bitwise
identical.

Each solve returns its freed memory to the operating system (glibc's
``malloc_trim``, where the C library has it) twice: after the
factorization, once A - sigma B and its CSC copy are freed, and after the
run, once the factor and the Krylov basis are.  glibc keeps freed heap
mapped up to a threshold that rises with the largest block it has freed,
so without the trims a solve carries what a larger one before it left and
the order of the solves sets the peak; with them callers solve in any order.
"""

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from ..errors import EigenSolveError, InvalidInputError

_SEED = 20080601
_TOL = 1e-9  # bound on the scale-free residual of every returned pair

# Early-stop level of the Lanczos recurrence.  After j steps,
# Op V_j = V_j T_j + beta_j v_{j+1} e_j^T with Op = (A - sigma B)^{-1} B, so a
# Ritz pair (theta, x = V_j y) of T_j with B-normalized x has a residual
# r = Op x - theta x of B-norm beta_j |y_j| (Parlett, The Symmetric
# Eigenvalue Problem, 13.2).  With lam = sigma + 1/theta this reads
# A x - lam B x = -(A - sigma B) r / theta, so beta_j |y_j| <= c |theta|
# bounds |A x - lam B x| by about c (|A| + |sigma| |B|) |x|, up to the
# conditioning of the diagonal mass: a backward error of order c on the
# scale-free residual that lowest_eigenpairs tests against _TOL.  The Ritz
# value errs by the square of the residual over the gap.  c = 1e-13 (about
# 450 ulps) stays four orders under _TOL = 1e-9, and on the
# counterexample's strips and cap (a = 0.28 to 0.32) it moves eigenvalues by
# at most 2.2e-16 relative against runs of a fixed 48 steps.
_RITZ_TOL = 1e-13

# largest relative asymmetry |M - M^T| / max|M| a stiffness or mass may carry
_SYM_TOL = 1e-13

try:  # the C library's malloc_trim (module docstring), where it has one
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


def _symmetric(M):
    """Whether |M - M^T| <= _SYM_TOL max|M| for a CSR matrix M, which stays unmodified.

    A canonical M whose transpose has its sparsity pattern is compared entry
    by entry against one transposed copy; any other M through the sparse
    difference.
    """
    MT = M.T.tocsr()  # new arrays, never M's
    if (M.has_canonical_format and np.array_equal(M.indptr, MT.indptr)
            and np.array_equal(M.indices, MT.indices)):
        gap = np.subtract(M.data, MT.data, out=MT.data)
        scale = max(M.data.max(initial=0.0), -M.data.min(initial=0.0))
    else:
        gap = (M - MT).data
        scale = abs(M.copy()).max()
    return np.abs(gap, out=gap).max(initial=0.0) <= _SYM_TOL * max(scale, 1e-300)


@dataclass(frozen=True)
class SparseSymmetricPair:
    """A symmetric stiffness/mass pair defining ``A x = lam B x``."""

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    dimension: int

    @staticmethod
    def build(stiffness, mass):
        A = sp.csr_matrix(stiffness)
        B = sp.csr_matrix(mass)
        if A.shape[0] != A.shape[1] or A.shape != B.shape:
            raise InvalidInputError("stiffness and mass must be square and congruent")
        for name, M in (("stiffness", A), ("mass", B)):
            if not _symmetric(M):
                raise InvalidInputError(f"{name} is not symmetric to {_SYM_TOL:g} relative")
        if np.any(B.diagonal() <= 0.0):
            raise InvalidInputError("mass must have strictly positive diagonal")
        return SparseSymmetricPair(stiffness=A, mass=B, dimension=A.shape[0])


@dataclass(frozen=True)
class EigenPair:
    """One converged eigenpair: value, B-normalized vector, residual.

    The residual is the scale-free backward error
    |A v - lam B v| / ((|A|_1 + |lam| |B|_1) |v|), the quantity that stays
    meaningful when the operators carry large mesh-dependent norms.
    """

    value: float
    vector: np.ndarray
    residual: float


def _make_solver(C):
    """Return x -> C^{-1} x and the number of negative pivots of C = A - sigma B.

    With perm_r == perm_c the LU of P C P^T has U = D L^T, so the negative
    entries of U's diagonal are the eigenvalues below sigma.  ``splu``'s
    RuntimeError on an exactly singular C passes to the caller.  The panel
    width is 1 (module docstring): at scipy's default of 20 the panel
    workspace, about 18 MB on the largest strip, lies on top of the factor
    while it is built.

    Reading ``lu.U`` costs more than the diagonal: scipy (1.17) builds CSC
    copies of both L and U and keeps them on the SuperLU object for its
    lifetime (``lu.U is lu.U``).  On the counterexample's largest strip
    (62 372 unknowns) that is about 22 MB held through the whole Lanczos
    run, which with one-column panels is what sets its memory peak; the
    SuperLU object offers no other way to read the pivots.
    """
    lu = spla.splu(
        sp.csc_matrix(C), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        panel_size=1, options={"SymmetricMode": True},
    )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigenSolveError("the LU of A - sigma B pivoted off its diagonal: inertia unknown")
    return lu.solve, int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _wanted(theta, count, k):
    """Indices into the ascending theta of every theta < 0 and the k - count largest theta > 0."""
    below = np.flatnonzero(theta < 0.0)
    above = np.flatnonzero(theta > 0.0)[::-1][: max(k - count, 0)]
    return np.concatenate([below, above])


def _lanczos_shift_invert(A, B, sigma, solve, count, k, cap):
    """B-Lanczos on (A - sigma B)^{-1} B; return the wanted Ritz values and vectors, ascending.

    ``solve`` applies (A - sigma B)^{-1}, whose inertia is ``count``.  Runs
    until T_j has ``count`` negative Ritz values and every _wanted pair
    passes the _RITZ_TOL test, or until ``cap`` steps.
    """
    n = A.shape[0]
    v = np.random.default_rng(_SEED).standard_normal(n)
    v /= np.sqrt(v @ (B @ v))
    V = np.zeros((min(48, cap), n))
    alphas = np.zeros(cap)
    betas = np.zeros(max(cap - 1, 0))
    V[0] = v
    v_prev = np.zeros(n)
    beta_prev = 0.0
    steps = cap
    for j in range(cap):
        BV = B @ V[j]
        w = solve(BV)
        w -= beta_prev * v_prev
        alphas[j] = w @ BV
        w -= alphas[j] * V[j]
        # full reorthogonalization (twice) in the B-inner product
        for _ in range(2):
            w -= V[: j + 1].T @ (V[: j + 1] @ (B @ w))
        if j == cap - 1:
            break
        beta = np.sqrt(max(w @ (B @ w), 0.0))
        if beta < 1e-14 * max(1.0, abs(alphas[j])):
            steps = j + 1
            break
        if j + 1 >= max(k, count):
            # the Ritz residual of pair i is beta |y_{j,i}|; stop once the
            # count values below the shift are all present and every wanted
            # pair is converged
            theta, y = eigh_tridiagonal(alphas[: j + 1], betas[:j])
            wanted = _wanted(theta, count, k)
            if np.count_nonzero(theta < 0.0) == count and np.all(
                    beta * np.abs(y[-1, wanted]) <= _RITZ_TOL * np.abs(theta[wanted])):
                steps = j + 1
                break
        betas[j] = beta
        v_prev = V[j]
        beta_prev = beta
        if j + 1 == len(V):  # double the basis: a run holds about the steps it takes
            V = np.concatenate([V, np.zeros((min(len(V), cap - len(V)), n))])
        V[j + 1] = w / beta

    theta, y = eigh_tridiagonal(alphas[:steps], betas[: max(steps - 1, 0)])
    wanted = _wanted(theta, count, k)
    lams = sigma + 1.0 / theta[wanted]
    vecs = []
    for idx in wanted:
        x = V[:steps].T @ y[:, idx]
        Bx = B @ x
        x /= np.sqrt(x @ Bx)
        vecs.append(x)
    order = np.argsort(lams)
    return [lams[i] for i in order], [vecs[i] for i in order]


def lowest_eigenpairs(pair, k, shift):
    """k smallest generalized eigenvalues of a SparseSymmetricPair, and the count below the shift.

    One factorization of A - sigma B counts the eigenvalues below sigma, and
    one Lanczos run on it finds the k lowest, or EigenSolveError is raised;
    the heap is trimmed after each, so the order of solves is free (module
    docstring).

    Parameters
    ----------
    pair : SparseSymmetricPair
    k : int
        Number of eigenpairs, 1 <= k < dimension.
    shift : float
        Where to factor and count; runs are shortest with few eigenvalues
        below it and the k lowest near it.  It must not be an eigenvalue.

    Returns
    -------
    (list of EigenPair, int)
        The k lowest pairs, ascending, and the count below the shift.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if k >= pair.dimension:
        raise InvalidInputError("k must be smaller than the pair dimension")
    A, B = pair.stiffness, pair.mass
    sigma = float(shift)
    try:
        solve, count = _make_solver(A - sigma * B)
    except RuntimeError:
        # splu: A - sigma B is exactly singular, so sigma is an eigenvalue
        raise EigenSolveError(f"A - sigma B is singular at sigma = {sigma:g}") from None
    if _MALLOC_TRIM is not None:  # the pencil and its CSC copy are freed
        _MALLOC_TRIM(0)

    cap = min(max(8 * max(k, count) + 80, 320), pair.dimension)
    lams, vecs = _lanczos_shift_invert(A, B, sigma, solve, count, k, cap)
    del solve  # frees the factor before the trim
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    below = sum(lam < sigma for lam in lams)
    if below != count or len(lams) < k:
        raise EigenSolveError(f"Lanczos found {len(lams)} values, {below} below the shift "
                              f"{sigma:g} where the inertia counts {count}")
    norm_A = abs(A).sum(axis=0).max()
    norm_B = abs(B).sum(axis=0).max()
    pairs = []
    for lam, x in zip(lams[:k], vecs[:k]):
        res = np.linalg.norm(A @ x - lam * (B @ x)) / (
            (norm_A + abs(lam) * norm_B) * np.linalg.norm(x)
        )
        if res > _TOL:
            raise EigenSolveError(f"Lanczos residual {res:.2e} above {_TOL:g} "
                                  f"for eigenvalue {lam:.6g}")
        pairs.append(EigenPair(value=float(lam), vector=x, residual=float(res)))
    return pairs, count
