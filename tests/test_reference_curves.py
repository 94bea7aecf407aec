"""Regression anchors: frozen reference values for the worst-case baselines.

Both baselines depend on the scenario only through the worst-case
displacement W, so the published benchmark curves pin the implementation
without needing the raw datasets (W = 2, 2.2, and 5 for the three
benchmark scenarios).
"""

import pytest

from puffercal import PrivacySpec, calibrate_pair

from conftest import point_mass

# (W, alpha, epsilon) -> reference scale for the worst-case Laplace baseline.
LAPLACE_REFERENCE = [
    (2.0, 1.2, 0.5, 1.8286722344542),
    (2.0, 1.5, 0.5, 2.03173853583164),
    (2.0, 2.0, 0.5, 2.30075183984945),
    (2.0, 2.5, 0.5, 2.50929265840026),
    (2.0, 3.0, 0.5, 2.67544632267433),
    (2.0, 5.0, 0.5, 3.09428836467606),
    (2.0, 1.2, 1.0, 1.18096861103095),
    (2.0, 2.0, 1.0, 1.4306669817387),
    (2.0, 5.0, 1.0, 1.74377024486103),
    (2.0, 10.0, 0.5, 3.50069473586707),
    (2.0, 20.0, 0.5, 3.73727750640228),
    (2.0, 100.0, 0.5, 3.94515559156046),
    (2.0, 10000.0, 0.5, 3.99944554366934),
    (2.2, 1.2, 0.5, 2.01153945789962),
    (2.2, 2.0, 0.5, 2.5308270238344),
    (2.2, 5.0, 0.5, 3.40371720114367),
    (2.2, 2.0, 1.0, 1.57373367991257),
    (2.2, 10.0, 0.5, 3.85076420945378),
    (5.0, 1.2, 0.5, 4.57168058613549),
    (5.0, 2.0, 0.5, 5.75187959962364),
    (5.0, 5.0, 0.5, 7.73572091169016),
    (5.0, 2.0, 1.0, 3.57666745434674),
    (5.0, 10.0, 0.5, 8.75173683966768),
]

# (W, alpha, epsilon) -> reference sigma for the worst-case Gaussian baseline.
GAUSSIAN_REFERENCE = [
    (2.0, 1.2, 0.5, 2.19089023002066),
    (2.0, 2.0, 0.5, 2.82842712474619),
    (2.0, 5.0, 0.5, 4.47213595499958),
    (2.0, 2.0, 1.0, 2.0),
    (2.2, 2.0, 0.5, 3.11126983722081),
    (2.2, 5.0, 0.5, 4.91934955049954),
    (5.0, 2.0, 0.5, 7.07106781186548),
    (5.0, 3.0, 1.0, 6.12372435695795),
]


@pytest.mark.parametrize("w,alpha,eps,expected", LAPLACE_REFERENCE)
def test_baseline_laplace_reference_curves(w, alpha, eps, expected):
    pair = (point_mass(0.0), point_mass(w))
    got = calibrate_pair(pair, "baseline-laplace", PrivacySpec(alpha=alpha, epsilon=eps)).parameter
    assert got == pytest.approx(expected, rel=2e-9)


@pytest.mark.parametrize("w,alpha,eps,expected", GAUSSIAN_REFERENCE)
def test_baseline_gaussian_reference_curves(w, alpha, eps, expected):
    pair = (point_mass(0.0), point_mass(w))
    got = calibrate_pair(pair, "baseline-gaussian", PrivacySpec(alpha=alpha, epsilon=eps)).parameter
    assert got == pytest.approx(expected, rel=1e-12)
