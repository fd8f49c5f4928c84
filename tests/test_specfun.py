import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kslayers import specfun as sf
from kslayers.errors import DomainError

import oracles


def test_point_values_match_series_oracle():
    # frozen from the ascending-series oracle, cross-checked against cephes
    i0, _, k0, _ = sf.bessel_table(1.0)
    assert i0 == pytest.approx(1.2660658777520084, rel=1e-14)
    assert k0 == pytest.approx(0.4210244382407083, rel=1e-14)
    assert i0 == pytest.approx(oracles.i0_series(1.0), rel=1e-14)
    assert k0 == pytest.approx(oracles.k0_series(1.0), rel=1e-13)


def test_against_oracle_over_range():
    radii = np.concatenate([np.logspace(-8, 0, 60), np.linspace(0.1, 1.0, 60)])
    i0, i1, k0, k1 = sf.bessel_table(radii)
    ref = np.array([oracles.scipy_bessel_reference(x) for x in radii])
    assert np.max(np.abs(i0 / ref[:, 0] - 1)) < 5e-15
    assert np.max(np.abs(i1 / ref[:, 1] - 1)) < 5e-15
    assert np.max(np.abs(k0 / ref[:, 2] - 1)) < 2e-14
    assert np.max(np.abs(k1 / ref[:, 3] - 1)) < 2e-14


@pytest.fixture(scope="module")
def mpmath_grid():
    """800 radii in [1e-6, 1] and their 40-digit mpmath (I0, I1, K0, K1),
    computed once for the module: the reference costs seconds."""
    x = np.concatenate([np.geomspace(1e-6, 1.0, 400, endpoint=False),
                        np.linspace(0.1, 1.0, 400)])
    return x, np.array([oracles.mpmath_bessel_reference(v) for v in x])


def ulps(got, ref):
    """Distance in units of the last place of the reference."""
    return np.abs(got - ref) / np.spacing(np.abs(ref))


def test_against_mpmath_in_ulps(mpmath_grid):
    # errors in units of the last place of the reference.  Measured maxima
    # on (0, 1]: I0 3, I1 4, K0 3, K1 3 ulp.  K0 grows past 1, where
    # -(ln(x/2) + gamma) I0 cancels against the series sum: 65 ulp near
    # x = 1.96, outside the kernels' domain.
    x, ref = mpmath_grid
    worst = np.max(ulps(np.column_stack(sf.bessel_table(x)), ref), axis=0)
    assert np.all(worst <= [8.0, 8.0, 32.0, 8.0]), worst


def test_power_table_sums_match_the_separate_loops_in_ulps():
    # the oracle loops run 41 I terms and 25 K terms, each term from the
    # last; the library sums 10 powers of q times coefficients, so the two
    # round differently.  Measured maxima over these grids: I0 0, I1 1,
    # K0 1 and K1 2 ulp.
    bound = [10.0, 10.0, 32.0, 8.0]
    x = np.concatenate([np.geomspace(1e-8, 1.0, 300),
                        [np.nextafter(1.0, 0.0), 1.0],
                        np.linspace(0.9, 1.0, 300),
                        np.geomspace(1e-8, 1.0, 50_000),
                        np.linspace(1e-8, 1.0, 50_000)])
    got = sf.bessel_table(x)
    ref = oracles.bessel_series_loops(x)
    for i in range(4):
        assert np.max(ulps(got[i], ref[i])) <= bound[i]
    for v in (1e-6, 0.1, 0.5, 0.9, 0.99, np.nextafter(1.0, 0.0), 1.0):
        one = sf.bessel_table(v)
        assert all(a.shape == () for a in one)
        ref = oracles.bessel_series_loops(v)
        for i in range(4):
            assert ulps(one[i], ref[i]) <= bound[i]


def test_bits_do_not_depend_on_the_shape_of_the_call():
    # a radius gets the bits of one 1-D call over all radii whether it
    # comes as a scalar, in a short slice, or in a row of an (m, K) stack;
    # K = 1 is the stack of k = 0 dirichlet configurations
    x = np.concatenate([np.geomspace(1e-8, 1.0, 400),
                        np.linspace(0.9, 1.0, 41)])
    full = np.array(sf.bessel_table(x))
    for j in range(0, x.size, 11):
        assert np.array_equal(sf.bessel_table(x[j]), full[:, j]), x[j]
    for n in range(1, 18):
        for j in range(0, x.size - n, 13):
            assert np.array_equal(sf.bessel_table(x[j:j + n]),
                                  full[:, j:j + n]), (n, j)
    for K in (1, 2, 3, 7):
        m = x.size // K
        stack = np.array(sf.bessel_table(x[:m * K].reshape(m, K)))
        assert np.array_equal(stack.reshape(4, -1), full[:, :m * K]), K
        # the rows of a column-major stack
        flipped = np.asfortranarray(x[:m * K].reshape(m, K))
        assert np.array_equal(sf.bessel_table(flipped), stack), K


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, np.nextafter(1.0, 2.0),
                                 2.0000001, 10.0, np.inf, np.nan])
def test_radii_outside_the_disk_raise(bad):
    # every radius the program forms lies in (0, 1]; anything else, NaN
    # included, is rejected instead of summed into warnings or wrong values
    for table in (sf.bessel_table, sf.xi_zeta_table):
        for r in (bad, np.array([0.5, bad]), np.array([[1.0], [bad]])):
            with pytest.raises(DomainError):
                table(r)


def test_wronskian_identity():
    r = np.logspace(-8, 0, 500)
    i0, i1, k0, k1 = sf.bessel_table(r)
    w = r * (i1 * k0 + i0 * k1)
    assert np.max(np.abs(w - 1.0)) < 1e-12
    # the scalar path, with I0' = I1 and K0' = -K1
    i0, i0p, k0, k1 = sf.bessel_table(0.5)
    k0p = -k1
    assert abs(0.5 * (i0p * k0 - i0 * k0p) - 1.0) < 1e-12


def test_small_radius_asymptotics():
    i0, _, k0, _ = sf.bessel_table(1e-7)
    assert i0 == pytest.approx(1.0, abs=1e-12)
    assert abs(k0 + np.log(0.5e-7) + sf.EULER_MASCHERONI) < 1e-12


def test_pair_normalization():
    zetap1 = sf.xi_zeta_table(1.0)[3]
    assert abs(zetap1) < 1e-12
    assert sf.C_MIX == pytest.approx(1.0650226209666405, rel=1e-12)
    # c_mix = -K0'(1)/I0'(1)
    _, i0p, _, k1 = sf.bessel_table(1.0)
    assert sf.C_MIX == pytest.approx(k1 / i0p, rel=1e-14)

    assert sf.xi_zeta_table(0.5)[2] == pytest.approx(2.0570529180890276, rel=1e-12)

    xi, xip, zeta, _ = sf.xi_zeta_table(1e-8)
    assert abs(zeta / (-np.log(1e-8)) - 1.0) < 0.08
    assert xi == pytest.approx(1.0, abs=1e-12)
    assert abs(xip) < 1e-8


def test_pair_wronskian_on_log_grid():
    r = np.logspace(-8, 0, 1000)
    xi, xip, zeta, zetap = sf.xi_zeta_table(r)
    w = r * (xip * zeta - xi * zetap)
    assert np.max(np.abs(w - 1.0)) <= 1e-10


def test_ode_residual_by_finite_differences():
    # h = 1e-4: below that the second difference of O(1) values is
    # dominated by rounding, not truncation; radii start at 0.3 so the
    # log-mode's fourth derivative keeps the truncation under tolerance
    h = 1e-4
    radii = np.linspace(0.3, 0.95, 100)

    def xi_val(r):
        return sf.xi_zeta_table(np.atleast_1d(r))[0]

    def zeta_val(r):
        return sf.xi_zeta_table(np.atleast_1d(r))[2]

    for f in (xi_val, zeta_val):
        upp = (f(radii + h) - 2 * f(radii) + f(radii - h)) / h**2
        up = (f(radii + h) - f(radii - h)) / (2 * h)
        res = -upp - up / radii + f(radii)
        assert np.max(np.abs(res)) < 1e-6


def test_small_r_expansion_constant():
    # zeta(r) + ln r -> ln 2 - gamma + c_mix with O(r^2 |ln r|) error
    c_inf = np.log(2.0) - sf.EULER_MASCHERONI + sf.C_MIX
    r_fit = 1e-2
    zeta = sf.xi_zeta_table(r_fit)[2]
    c_fit = abs(zeta + np.log(r_fit) - c_inf) / (r_fit**2 * abs(np.log(r_fit)))
    for r in (3e-3, 1e-3):
        zeta = sf.xi_zeta_table(r)[2]
        err = abs(zeta + np.log(r) - c_inf)
        assert err <= 2.0 * c_fit * r**2 * abs(np.log(r))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-8, max_value=1.0))
def test_wronskian_property(r):
    xi, xip, zeta, zetap = sf.xi_zeta_table(r)
    assert abs(r * (xip * zeta - xi * zetap) - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.1),
       st.floats(min_value=1e-4, max_value=0.9))
def test_monotonicity_property(r, step):
    a_i0, _, a_k0, _ = sf.bessel_table(r)
    b_i0, _, b_k0, _ = sf.bessel_table(r + step)
    assert b_i0 >= a_i0 >= 1.0
    assert 0.0 < b_k0 < a_k0
