import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kslayers import specfun as sf

import oracles


def test_point_values_match_series_oracle():
    # frozen from the ascending-series oracle, cross-checked against cephes
    i0, _, k0, _ = sf.bessel_table(1.0)
    assert i0 == pytest.approx(1.2660658777520084, rel=1e-14)
    assert k0 == pytest.approx(0.4210244382407083, rel=1e-14)
    assert i0 == pytest.approx(oracles.i0_series(1.0), rel=1e-14)
    assert k0 == pytest.approx(oracles.k0_series(1.0), rel=1e-13)


def test_against_oracle_over_range():
    radii = np.concatenate([np.logspace(-8, 0, 60), np.linspace(1.1, 10.0, 60)])
    i0, i1, k0, k1 = sf.bessel_table(radii)
    ref = np.array([oracles.scipy_bessel_reference(x) for x in radii])
    assert np.max(np.abs(i0 / ref[:, 0] - 1)) < 5e-15
    assert np.max(np.abs(i1 / ref[:, 1] - 1)) < 5e-15
    assert np.max(np.abs(k0 / ref[:, 2] - 1)) < 2e-14
    assert np.max(np.abs(k1 / ref[:, 3] - 1)) < 2e-14


def test_against_mpmath_in_ulps():
    # 800 points in [1e-6, 10]; errors in units of the last place of the
    # reference.  Measured maxima: I0 6, I1 7, K0 22 (x = 1.947), K1 4 ulp.
    # K0 is worst just below the series/Chebyshev switch at x = 2, where
    # -(ln(x/2) + gamma) I0 cancels against the series sum.
    x = np.concatenate([np.geomspace(1e-6, 1.0, 400, endpoint=False),
                        np.linspace(1.0, 10.0, 400)])
    ref = np.array([oracles.mpmath_bessel_reference(v) for v in x])
    got = np.column_stack(sf.bessel_table(x))
    ulps = np.max(np.abs(got - ref) / np.spacing(np.abs(ref)), axis=0)
    assert np.all(ulps <= [8.0, 8.0, 32.0, 8.0]), ulps


def test_fused_series_match_the_separate_loops_to_the_bit():
    # the oracle loops run 41 I terms and 25 K terms; the library stops
    # where later terms change no sum, so dense grids out to the end of the
    # Chebyshev range (10.6) must still give the same bits
    x = np.concatenate([np.geomspace(1e-8, 2.0, 300),
                        np.nextafter(2.0, [0.0, 3.0]),
                        np.linspace(2.0, 10.0, 300),
                        np.geomspace(1e-8, 10.6, 50_000),
                        np.linspace(1e-8, 10.6, 50_000)])
    got = sf.bessel_table(x)
    ref = oracles.bessel_series_loops(x)
    small = x <= 2.0
    for i in (0, 1):
        assert np.array_equal(got[i], ref[i])
    for i in (2, 3):
        assert np.array_equal(got[i][small], ref[i][small])
    for v in (1e-6, 0.5, 1.0, 2.0, np.nextafter(2.0, 3.0), 7.3, 10.0):
        one = sf.bessel_table(v)
        assert all(a.shape == () for a in one)
        ref = oracles.bessel_series_loops(v)
        for i in ((0, 1, 2, 3) if v <= 2.0 else (0, 1)):
            assert np.array_equal(one[i], ref[i])


def test_wronskian_identity():
    r = np.logspace(-8, 1, 500)
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
@given(st.floats(min_value=1e-6, max_value=9.0),
       st.floats(min_value=1e-4, max_value=0.9))
def test_monotonicity_property(r, step):
    a_i0, _, a_k0, _ = sf.bessel_table(r)
    b_i0, _, b_k0, _ = sf.bessel_table(r + step)
    assert b_i0 >= a_i0 >= 1.0
    assert 0.0 < b_k0 < a_k0
