import numpy as np
import pytest

from layerspec.errors import InvalidInputError
from layerspec.numkernel import bessel_k, gauss_legendre


def k_integral_oracle(order, x):
    """K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt by composite quadrature.

    Independent of the series/continued-fraction implementation under test.
    """
    # integrand is negligible once x*(cosh t - 1) > 60 ln(10)
    t_max = np.arccosh(1.0 + 140.0 / x)
    grid = gauss_legendre(24, np.linspace(0.0, t_max, 24))
    t = grid.nodes
    vals = np.exp(-x * np.cosh(t)) * np.cosh(order * t)
    return grid.integrate_samples(vals)


def test_k0_at_one_frozen_value():
    # oracle value, frozen: quadrature of the integral representation
    oracle = k_integral_oracle(0, 1.0)
    assert abs(oracle - 0.42102443824070834) < 1e-12
    assert abs(bessel_k(0, 1.0) - 0.42102443824070834) <= 1e-10


@pytest.mark.parametrize("order", [0, 1])
def test_against_integral_representation(order):
    xs = np.concatenate(
        [
            np.logspace(-8, 0, 13),
            np.linspace(1.0, 3.0, 9),  # straddles the regime switch at 2
            np.logspace(np.log10(3.0), np.log10(700.0), 13),
        ]
    )
    for x in xs:
        ours = bessel_k(order, x)
        ref = k_integral_oracle(order, x)
        assert abs(ours / ref - 1.0) <= 1e-10, f"x={x}"


def test_leading_asymptotics_at_20():
    lead = np.sqrt(np.pi / 40.0) * np.exp(-20.0)
    assert abs(bessel_k(0, 20.0) / lead - 1.0) <= 0.02


def test_derivative_identity_k0_prime_is_minus_k1():
    h = 1e-5
    fd = (bessel_k(0, 2.0 + h) - bessel_k(0, 2.0 - h)) / (2 * h)
    assert abs(fd + bessel_k(1, 2.0)) <= 1e-8


def test_product_positive_and_monotone_decrease():
    xs = np.logspace(-4, 2, 200)
    k0 = bessel_k(0, xs)
    k1 = bessel_k(1, xs)
    assert np.all(k0 * k1 > 0)
    assert np.all(np.diff(k0) < 0)
    assert np.all(np.diff(k1) < 0)


def test_underflow():
    # e^-x leaves the double range past x ~ 746
    assert bessel_k(0, 760.0) == 0.0


def test_domain_errors():
    with pytest.raises(InvalidInputError):
        bessel_k(0, 0.0)
    with pytest.raises(InvalidInputError):
        bessel_k(1, -3.0)
    with pytest.raises(InvalidInputError):
        bessel_k(2, 1.0)


def test_array_input_matches_scalars():
    xs = np.array([0.5, 2.0, 7.0])
    arr = bessel_k(1, xs)
    assert arr.shape == (3,)
    for x, v in zip(xs, arr):
        assert v == bessel_k(1, float(x))
