import pytest

from layerspec.numkernel import eigensolve


@pytest.fixture
def lu_solves(monkeypatch):
    """Solves made with each LU factorization, one list entry per factorization.

    A Lanczos step makes one solve, so each entry is the step count of one run.
    """
    counts = []
    make_solver = eigensolve._make_solver

    def counted(C):
        solve = make_solver(C)
        counts.append(0)

        def counted_solve(x):
            counts[-1] += 1
            return solve(x)
        return counted_solve

    monkeypatch.setattr(eigensolve, "_make_solver", counted)
    return counts
