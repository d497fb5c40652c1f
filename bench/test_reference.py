"""The reference on the scalar two-layer cascade, whose answers are known in
closed form: L_1 = 0.5, L_2 = 0.9, unit coupling.

    P = [[1, 0], [2.5, 1]]             (0.5 p + 1 = 0.9 p)
    (A^t x)_2 = 0.9^t x_2 + 2.5 (0.9^t - 0.5^t) x_1
    (N^t P x)_2 = 0.9^t (2.5 x_1 + x_2), so abs_err_2(t) = 2.5 * 0.5^t |x_1|

Run with: python3 -m pytest bench/test_reference.py
"""

import numpy as np
import pytest

from checks import check_error_series, check_perturbation
from reference import UNIT_ROUNDOFF, Reference


@pytest.fixture
def pair():
    return Reference([np.array([[0.5]]), np.array([[0.9]])], [None, np.array([[1.0]])])


def test_sylvester_perturbation(pair):
    assert np.allclose(pair.P, [[1, 0], [2.5, 1]], rtol=0, atol=1e-15)
    assert pair.tol == pytest.approx(UNIT_ROUNDOFF * np.linalg.cond([[1, 0], [2.5, 1]]))


def test_orbits_and_error_series(pair):
    x = np.array([0.3 - 0.4j, 1.0 + 0.2j])
    t = np.arange(31)
    X = pair.orbit(pair.A, x, 30)
    assert np.allclose(X[:, 0], 0.5**t * x[0], rtol=1e-14, atol=0)
    assert np.allclose(
        X[:, 1], 0.9**t * x[1] + 2.5 * (0.9**t - 0.5**t) * x[0], rtol=1e-13, atol=1e-16
    )
    D, scale = pair.error_series(x, 30)
    assert np.all(D[:, 0] == 0)
    assert np.allclose(D[:, 1], 2.5 * 0.5**t * abs(x[0]), rtol=1e-12, atol=1e-16)
    assert np.all(scale >= D)


def test_eigenfunctions(pair):
    W = pair.P.copy()  # V_i = 1 for scalar layers
    assert pair.eigenfunction_residual(W, np.array([0.5, 0.9])) < 1e-16
    assert pair.match_eigenvalues(1, np.array([0.9])) == 0
    assert pair.eigenfunction_residual(np.eye(2), np.array([0.5, 0.9])) > 0.1


def test_laplace_bound(pair):
    # raw functional e_2 = W_2 - 2.5 W_1; the kept mode 0.5 gives the exact
    # Cesaro error 2.5 (1 - r^N) / (N (1 - r)) with r = 5/9.
    x = np.array([1.0, 1.0])
    limit, bounds = pair.laplace_bounds(1, np.array([1.0]), 0.9, x, [10, 1000])
    assert limit == pytest.approx(3.5, abs=1e-14)
    r = 0.5 / 0.9
    for N, bound in bounds.items():
        exact_err = 2.5 * (1 - r**N) / (N * (1 - r))
        assert exact_err <= bound <= 11.25 / N + 1e-9


def test_checks_reject_wrong_results(pair):
    x = np.array([1.0, 1.0])
    assert check_perturbation(pair, pair.P) == []
    assert check_perturbation(pair, np.array([[1, 0], [2.5 + 1e-6, 1]]))
    D, _ = pair.error_series(x, 10)
    assert check_error_series(pair, x, D, D) == []
    assert check_error_series(pair, x, D * (1 + 1e-6), D * 2)
    assert check_error_series(pair, x, D, D * 0.5)
