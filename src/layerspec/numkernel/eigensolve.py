"""Sparse symmetric generalized eigensolver.

Shift-invert Lanczos for ``A x = lam B x`` with symmetric ``A`` and
symmetric positive-definite ``B``.  The Krylov recurrence runs in the
B-inner product with full reorthogonalization, so the smallest eigenvalues
come out with near-machine residuals after a modest number of steps when
the shift sits below them.  The inner solves use one sparse LU factorization
of ``A - sigma B`` per Lanczos run.  Its columns are ordered by minimum
degree on the pattern of ``A^T + A`` (SuperLU's ``MMD_AT_PLUS_A`` in
symmetric mode): every pencil here is symmetric, so the symmetric ordering
models the fill of the factorization, whereas the default COLAMD orders
for ``A^T A`` and fills L and U with about 40 % more nonzeros on the 2-d
strips.  Partial pivoting keeps its default threshold, so a shift inside
the spectrum (``A - sigma B`` indefinite) is still factored stably.

A run stops at the first step j >= k at which each of the k Ritz pairs
nearest the shift (largest |theta| of the tridiagonal T_j) has residual
bound beta_j |y_{j,i}| <= 1e-13 |theta_i| (the convergence test of ARPACK;
Parlett, The Symmetric Eigenvalue Problem, ch. 13), and otherwise at a cap
of m steps.  The true residual of each returned pair is then checked
against ``tol``.

The shift moves in one place, the attempt loop of ``lowest_eigenpairs``.
It reruns a run just below its lowest Ritz value, with a larger step cap,
for three reasons: a residual fails its check; the lowest Ritz value lies
at or below the shift, where it may shadow deeper eigenvalues; or ``splu``
finds ``A - sigma B`` exactly singular, and then sigma steps down by
1e-3 max(1, |sigma|).  The reruns only move down from what a run found, so
the caller must still place the shift below the sought eigenvalues: from a
shift inside the spectrum the k values returned need not be the k smallest.

Deterministic: the start vector comes from a fixed-seed generator and the
algorithm is serial, so repeated runs on identical inputs are bitwise
identical.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from ..errors import EigenSolveError, InvalidInputError

_SEED = 20080601

# Early-stop level of the Lanczos recurrence.  After j steps,
# Op V_j = V_j T_j + beta_j v_{j+1} e_j^T with Op = (A - sigma B)^{-1} B, so a
# Ritz pair (theta, x = V_j y) of T_j with B-normalized x has a residual
# r = Op x - theta x of B-norm beta_j |y_j| (Parlett, The Symmetric
# Eigenvalue Problem, 13.2).  With lam = sigma + 1/theta this reads
# A x - lam B x = -(A - sigma B) r / theta, so beta_j |y_j| <= c |theta|
# bounds |A x - lam B x| by about c (|A| + |sigma| |B|) |x|, up to the
# conditioning of the diagonal mass: a backward error of order c on the
# scale-free residual that lowest_eigenpairs tests against tol.  The Ritz
# value errs by the square of the residual over the gap.  c = 1e-13 (about
# 450 ulps) stays four orders under the default tol = 1e-9, and on the
# counterexample's strips and intervals it moves eigenvalues by at most
# 1.1e-14 relative against runs of the full m steps.
_RITZ_TOL = 1e-13

# largest relative asymmetry |M - M^T| / max|M| a stiffness or mass may carry
_SYM_TOL = 1e-13


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
            gap = abs(M - M.T)
            scale = max(abs(M).max(), 1e-300)
            if gap.nnz and gap.max() > _SYM_TOL * scale:
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
    """Return x -> C^{-1} x from a sparse LU of the symmetric matrix C."""
    lu = spla.splu(
        sp.csc_matrix(C), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
    )
    return lu.solve


def _lanczos_shift_invert(A, B, sigma, k, m, rng):
    """B-Lanczos on (A - sigma B)^{-1} B; return Ritz values and vectors, ascending.

    Runs until the k Ritz pairs of largest |theta| pass the _RITZ_TOL test,
    or until m steps.  Factors A - sigma B once; ``splu``'s RuntimeError on
    an exactly singular matrix passes to the caller.
    """
    n = A.shape[0]
    solve = _make_solver(A - sigma * B)

    v = rng.standard_normal(n)
    Bv = B @ v
    nrm = np.sqrt(v @ Bv)
    v /= nrm
    V = np.zeros((m, n))
    alphas = np.zeros(m)
    betas = np.zeros(max(m - 1, 0))
    V[0] = v
    v_prev = np.zeros(n)
    beta_prev = 0.0
    steps = m
    for j in range(m):
        BV = B @ V[j]
        w = solve(BV)
        w -= beta_prev * v_prev
        alphas[j] = w @ BV
        w -= alphas[j] * V[j]
        # full reorthogonalization (twice) in the B-inner product
        for _ in range(2):
            w -= V[: j + 1].T @ (V[: j + 1] @ (B @ w))
        if j == m - 1:
            break
        beta = np.sqrt(max(w @ (B @ w), 0.0))
        if beta < 1e-14 * max(1.0, abs(alphas[j])):
            steps = j + 1
            break
        if j + 1 >= k:
            # the Ritz residual of pair i is beta |y_{j,i}|; stop once the k
            # pairs nearest the shift (largest |theta|) are all converged
            theta, y = eigh_tridiagonal(alphas[: j + 1], betas[:j])
            wanted = np.argsort(-np.abs(theta))[:k]
            if np.all(beta * np.abs(y[-1, wanted]) <= _RITZ_TOL * np.abs(theta[wanted])):
                steps = j + 1
                break
        betas[j] = beta
        v_prev = V[j]
        beta_prev = beta
        V[j + 1] = w / beta

    alphas = alphas[:steps]
    betas = betas[: max(steps - 1, 0)]
    theta, y = eigh_tridiagonal(alphas, betas)
    # lam = sigma + 1/theta; |theta| ranks proximity to the shift, and
    # negative theta (eigenvalues below the shift) are kept so a shift that
    # lands inside the spectrum cannot hide anything beneath it
    order = np.argsort(-np.abs(theta))
    lams, vecs = [], []
    for idx in order[: min(k + 4, steps)]:
        if theta[idx] == 0:
            continue
        lam = sigma + 1.0 / theta[idx]
        x = V[:steps].T @ y[:, idx]
        Bx = B @ x
        x /= np.sqrt(x @ Bx)
        lams.append(lam)
        vecs.append(x)
    order = np.argsort(lams)
    return [lams[i] for i in order], [vecs[i] for i in order]


def lowest_eigenpairs(pair, k, shift, tol=1e-9):
    """k smallest generalized eigenvalues of a SparseSymmetricPair, ascending.

    At most 8 Lanczos runs in one loop, rerun below the lowest Ritz value
    for the three reasons of the module docstring.  From a shift inside the
    spectrum the values returned need not be the k smallest.

    Parameters
    ----------
    pair : SparseSymmetricPair
    k : int
        Number of eigenpairs, 1 <= k < dimension.
    shift : float
        A value below the sought eigenvalues, which the caller derives from
        what it knows of the spectrum (a threshold, a floor, a bound).
    tol : float
        Target for the scale-free backward error
        ``|A v - lam B v| / ((|A|_1 + |lam| |B|_1) |v|)`` of every returned
        pair, the ``EigenPair.residual``.

    Returns
    -------
    list of EigenPair
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if k >= pair.dimension:
        raise InvalidInputError("k must be smaller than the pair dimension")
    A, B = pair.stiffness, pair.mass
    sigma = float(shift)

    m = min(max(2 * k + 24, 48), pair.dimension)
    m_cap = min(max(8 * k + 80, 320), pair.dimension)
    norm_A = abs(A).sum(axis=0).max()
    norm_B = abs(B).sum(axis=0).max()
    for _ in range(8):
        try:
            lams, vecs = _lanczos_shift_invert(A, B, sigma, k, m, np.random.default_rng(_SEED))
            last_err = f"only {len(lams)} Ritz values converged"
        except RuntimeError:
            # splu: A - sigma B is exactly singular, so sigma is an eigenvalue
            lams, vecs = [], []
            last_err = f"A - sigma B is singular at shift {sigma:g}"
        pairs = []
        for lam, x in zip(lams[:k], vecs[:k]):
            res = np.linalg.norm(A @ x - lam * (B @ x)) / (
                (norm_A + abs(lam) * norm_B) * np.linalg.norm(x)
            )
            if res > tol:
                last_err = f"residual {res:.2e} above tol for eigenvalue {lam:.6g}"
                break
            pairs.append(EigenPair(value=float(lam), vector=x, residual=float(res)))
        if len(pairs) == k:
            if lams[0] > sigma + 1e-12 * max(1.0, abs(sigma)):
                return pairs
            # a value at or below the shift may shadow deeper ones
            last_err = f"eigenvalue {lams[0]:.6g} at or below the shift {sigma:g}"
        # move the shift right below the lowest Ritz value: proximity is
        # what makes shift-invert Lanczos separate clustered eigenvalues
        if lams:
            gap = max(abs(lams[0] - sigma), 1e-8 * max(1.0, abs(lams[0])))
            sigma = lams[0] - 0.05 * gap
        else:
            sigma -= 1e-3 * max(1.0, abs(sigma))
        m = min(int(1.5 * m) + 8, m_cap)
    raise EigenSolveError(f"Lanczos failed to converge: {last_err}")
