"""Canonical coin parameterization, tails and field assembly."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import haar_unitary, random_coin
from qwscatter import CoinField, CoinMatrix, DomainError, hadamard_coin, wrap_angle
from qwscatter.coin import TailRule, nearest_unitary

ANGLES = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(ANGLES)
def test_wrap_angle_matches_complex_phase(x: float):
    w = wrap_angle(x)
    assert -math.pi < w <= math.pi
    assert abs(np.angle(np.exp(1j * x)) - w) < 1e-9 or abs(abs(w) - math.pi) < 1e-9


def test_wrap_angle_negative_pi_maps_to_pi():
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3.0 * math.pi) == math.pi


def test_hadamard_entries_frozen():
    h = hadamard_coin()
    r = 1.0 / math.sqrt(2.0)
    assert (h.alpha, h.beta, h.delta) == (0.0, 0.0, math.pi)
    assert abs(h.a - r) < 1e-15 and abs(h.b - r) < 1e-15
    assert np.allclose(h.matrix(), np.array([[r, r], [r, -r]]), atol=1e-15)


@given(
    a=st.floats(min_value=0.0, max_value=1.0),
    alpha=ANGLES,
    beta=ANGLES,
    delta=ANGLES,
)
def test_parameter_matrix_round_trip(a: float, alpha: float, beta: float, delta: float):
    coin = CoinMatrix(a, math.sqrt(max(1.0 - a * a, 0.0)), alpha, beta, delta)
    back = CoinMatrix.from_matrix(coin.matrix())
    assert np.abs(back.matrix() - coin.matrix()).max() < 1e-12


def test_haar_matrices_round_trip(rng):
    for _ in range(300):
        m = haar_unitary(rng)
        coin = CoinMatrix.from_matrix(m)
        assert np.abs(coin.matrix() - m).max() < 1e-12
        assert 0.0 <= coin.a <= 1.0 and 0.0 <= coin.b <= 1.0
        assert abs(coin.a**2 + coin.b**2 - 1.0) < 1e-12
        for angle in (coin.alpha, coin.beta, coin.delta):
            assert -math.pi < angle <= math.pi


def test_determinant_phase_is_delta(rng):
    for _ in range(50):
        coin = random_coin(rng)
        det = np.linalg.det(coin.matrix())
        assert abs(det - np.exp(1j * coin.delta)) < 1e-12


def test_from_matrix_rejects_nonunitary():
    with pytest.raises(DomainError):
        CoinMatrix.from_matrix(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        CoinMatrix.from_matrix(np.eye(3))
    with pytest.raises(DomainError):
        CoinMatrix.from_matrix(np.diag([math.nan, 1.0]))


def test_constructor_rejects_bad_moduli():
    with pytest.raises(DomainError):
        CoinMatrix(0.5, 0.5, 0.0, 0.0, 0.0)  # a^2 + b^2 != 1
    with pytest.raises(DomainError):
        CoinMatrix(-0.3, math.sqrt(1 - 0.09), 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        CoinMatrix(math.nan, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        CoinMatrix(0.6, 0.8, 0.0, 0.0, math.nan)  # angles too


def test_degenerate_moduli_pin_phases():
    off = CoinMatrix(1e-18, 1.0, 0.4, 0.7, 1.1)
    assert off.a == 0.0 and off.b == 1.0 and off.alpha == 0.0
    diag = CoinMatrix(1.0, 1e-18, 0.4, 0.7, 1.1)
    assert diag.a == 1.0 and diag.b == 0.0 and diag.beta == 0.0


def test_nearest_unitary_projects_and_fixes_unitaries(rng):
    m = haar_unitary(rng)
    noise = 1e-3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    u = nearest_unitary(m + noise)
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
    assert np.abs(u - m).max() < 1e-2
    assert np.abs(nearest_unitary(m) - m).max() < 1e-14
    with pytest.raises(DomainError):
        nearest_unitary(np.zeros((2, 2)))


def test_tail_rule_validation_and_bound():
    rule = TailRule(kappa=0.4, epsilon=0.7)
    assert rule.deviation_bound(2) == pytest.approx(0.4 * 2.0 ** (-1.7))
    with pytest.raises(DomainError):
        TailRule(kappa=-0.1, epsilon=0.5)
    with pytest.raises(DomainError):
        TailRule(kappa=0.1, epsilon=0.0)


def test_tail_field_obeys_declared_decay():
    coin = hadamard_coin()
    rule = TailRule(kappa=0.5, epsilon=0.6)
    fld = CoinField(left=coin, right=coin, tail_left=rule, tail_right=rule)
    for x in (1, 2, 7, 40, -1, -3, -100):
        c = fld.at(x)
        assert np.abs(c.conj().T @ c - np.eye(2)).max() < 1e-12
        dev = np.linalg.norm(c - coin.matrix(), ord=2)
        assert dev <= rule.deviation_bound(x) + 1e-12
        assert dev > 0.0
    # the tail never touches the origin
    assert np.abs(fld.at(0) - coin.matrix()).max() < 1e-15


def test_field_sides_overrides_and_block(rng):
    left, right = random_coin(rng), random_coin(rng)
    defect = haar_unitary(rng)
    fld = CoinField(left=left, right=right, overrides={0: defect, -3: defect})
    assert fld.override_radius == 3
    assert np.abs(fld.at(0) - defect).max() < 1e-15
    assert np.abs(fld.at(-3) - defect).max() < 1e-15
    assert np.abs(fld.at(-1) - left.matrix()).max() < 1e-15
    assert np.abs(fld.at(1) - right.matrix()).max() < 1e-15
    block = fld.block(-5, 5)
    for i, x in enumerate(range(-5, 5)):
        assert np.abs(block[i] - fld.at(x)).max() < 1e-15


def test_field_rejects_nonunitary_override():
    coin = hadamard_coin()
    with pytest.raises(DomainError):
        CoinField(left=coin, right=coin, overrides={2: np.array([[1.0, 0.2], [0.0, 1.0]])})
    # NaN fails every comparison, so it must not slip past the deviation test
    with pytest.raises(DomainError):
        CoinField(left=coin, right=coin, overrides={0: np.diag([math.nan, 1.0])})


def test_tail_applies_beyond_override_radius_only():
    coin = hadamard_coin()
    rule = TailRule(kappa=0.3, epsilon=0.5)
    other = CoinMatrix(0.6, 0.8, 0.0, 0.0, 0.0).matrix()
    fld = CoinField(left=coin, right=coin, overrides={2: other}, tail_right=rule)
    assert np.abs(fld.at(1) - coin.matrix()).max() < 1e-15  # inside radius, no tail
    assert np.abs(fld.at(2) - other).max() < 1e-15
    assert np.linalg.norm(fld.at(3) - coin.matrix(), ord=2) > 0.0
