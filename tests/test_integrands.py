"""Integrand norms, primitives, tail transforms; measure specifications."""
import numpy as np
import pytest

from penalab.integrands import DensityPiece, Integrand, MeasureSpec


def test_step_values_and_norms():
    f = Integrand.step([0.0, 0.5, 1.0, 1.5], [1.0, -0.5, 0.25])
    assert f.support_end == 1.5
    np.testing.assert_array_equal(f.breaks, [0.0, 0.5, 1.0, 1.5])
    np.testing.assert_array_equal(f.levels, [1.0, -0.5, 0.25])
    assert f.l1 == pytest.approx(0.5 + 0.25 + 0.125)
    assert f.l2_sq == pytest.approx(0.5 + 0.125 + 0.03125)


def test_primitive_exact_for_steps():
    f = Integrand.step([0.0, 1.0], [1.0])
    assert f.primitive(0.5) == pytest.approx(0.5)
    assert f.primitive(2.0) == pytest.approx(1.0)       # no trapezoid smearing
    assert f.primitive(1.0) == pytest.approx(1.0)
    np.testing.assert_allclose(f.primitive(np.array([0.25, 3.0])), [0.25, 1.0])


def test_zero_and_indicator_constructors():
    assert Integrand.zero().is_zero
    g = Integrand.step([0.0, 0.5, 1.0], [0.0, 2.0])
    assert g.support_end == 1.0 and g.l1 == pytest.approx(1.0)


def test_tail_quantities():
    f = Integrand.step([0.0, 1.0], [1.0])
    assert f.tail_l2(0.0) == pytest.approx(1.0)
    assert f.tail_l2(0.75) == pytest.approx(0.5)
    assert f.tail_l2(2.0) == 0.0


def test_f_tilde_exact_and_zero_tail():
    f = Integrand.step([0.0, 1.0], [1.0])
    assert f.f_tilde(1.0) == 0.0
    assert f.f_tilde(2.0) == 0.0
    assert f.f_tilde(0.0) == pytest.approx(2.0)         # int_0^1 s^{-1/2}
    assert f.f_tilde(0.75) == pytest.approx(2.0 * np.sqrt(0.25))


_F_TILDE_CASES = (
    Integrand.step([0.0, 1.0], [1.0]),                                 # F_UNIT
    Integrand.step([0.0, 0.5, 1.0, 1.5], [1.0, -0.5, 0.25]),           # F_STEP3
    Integrand.step([0.0, 1.0, 2.0], [0.6, -0.6]),                      # F_SIGNED
    Integrand.step([0.0, 0.5, 1.0, 1.5], [1.0, -0.5, 0.25]).shifted(0.3),
    Integrand.step([0.0, 0.5, 1.0, 2.0], [0.0, 2.0, 0.0]),             # zero pieces
)


def _f_tilde_loop(f, t):
    """The per-piece scalar loop f_tilde once was: the bitwise oracle."""
    if t >= f.support_end:
        return 0.0
    tot = 0.0
    for k, c in enumerate(f.levels):
        if c == 0.0:
            continue
        a, b = f.breaks[k], f.breaks[k + 1]
        if b <= t:
            continue
        tot += abs(c) * 2.0 * (np.sqrt(b - t) - np.sqrt(max(a, t) - t))
    return float(tot)


@pytest.mark.parametrize("f", _F_TILDE_CASES)
def test_f_tilde_on_an_array_equals_its_scalar_calls(f):
    # a grid of step 1/8 hits every break of these integrands, t = 0 and
    # times beyond the support; the extra points sit just off the breaks
    ts = np.concatenate([np.linspace(0.0, 3.0, 25), f.breaks, f.breaks + 1e-12,
                         [f.support_end, f.support_end + 5.0]])
    got = f.f_tilde(ts)
    assert got.shape == ts.shape and got.dtype == np.float64
    want = np.array([f.f_tilde(float(t)) for t in ts])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    oracle = np.array([_f_tilde_loop(f, float(t)) for t in ts])
    np.testing.assert_array_equal(got.view(np.uint64), oracle.view(np.uint64))
    assert type(f.f_tilde(0.25)) is float and type(f.f_tilde(np.float64(0.25))) is float
    assert f.f_tilde(f.support_end) == 0.0 and np.all(got[ts >= f.support_end] == 0.0)
    np.testing.assert_array_equal(f.f_tilde(ts.reshape(-1, 1))[:, 0], got)


def test_shifted_step():
    f = Integrand.step([0.0, 0.5, 1.0], [1.0, -2.0])
    g = f.shifted(0.25)
    np.testing.assert_array_equal(g.breaks, [0.0, 0.25, 0.75])
    np.testing.assert_array_equal(g.levels, [1.0, -2.0])
    assert f.shifted(5.0).is_zero
    assert f.shifted(0.0) is f


def test_measure_spec_masses():
    V = MeasureSpec.points([(0.0, 2.0), (1.0, 0.5)])
    assert V.total_mass() == pytest.approx(2.5)
    assert V.weighted_total() == pytest.approx(2.0 + 0.5 * 2.0)
    assert V.support_radius() == 1.0
    box = MeasureSpec.box(-1.0, 1.0, 1.0)
    assert box.total_mass() == pytest.approx(2.0)
    # int (1+|x|) 1_[-1,1] dx = 2 + 1
    assert box.weighted_total() == pytest.approx(3.0)


def test_density_evaluation():
    box = MeasureSpec.box(-1.0, 1.0, 1.0)
    np.testing.assert_allclose(box.density([-1.5, -1.0, 0.0, 1.0, 1.5]),
                               [0.0, 1.0, 1.0, 1.0, 0.0])
    bump = MeasureSpec.bump()
    np.testing.assert_allclose(bump.density([-3.0, -2.5, -2.0, 0.0, 2.5, 3.0]),
                               [0.0, 0.5, 1.0, 1.0, 0.5, 0.0])
    assert np.all(bump.density(np.linspace(-5, 5, 101)) >= 0)


def test_bump_dominates_box_plus_one():
    # v0 = 1 on |x| <= 2 covers the unit box shifted by up to 1
    bump, box = MeasureSpec.bump(), MeasureSpec.box()
    xs = np.linspace(-1, 1, 201)
    shifts = np.linspace(-1, 1, 41)
    for s in shifts:
        assert np.all(bump.density(xs + s) >= box.density(xs) - 1e-15)


def test_invalid_measures():
    with pytest.raises(ValueError):
        MeasureSpec.point(0.0, -1.0)
    with pytest.raises(ValueError):
        MeasureSpec.point(0.0, 0.0)
    with pytest.raises(ValueError):
        MeasureSpec(pieces=(DensityPiece(0.0, 1.0, 1.0, -0.5),))
    # empty measure allowed as trivial kernel
    assert MeasureSpec().total_mass() == 0.0
    # a plateau of zero width touches its neighbours without overlapping them
    assert MeasureSpec.bump(0.0, 1.0, 1.0).total_mass() == pytest.approx(1.0)


def test_density_piece_weighted_mass():
    # (1+|x|) against a symmetric box: 2 * int_0^1 (1+x) dx = 3
    p = DensityPiece(-1.0, 1.0, 1.0, 1.0)
    assert p.weighted_mass() == pytest.approx(3.0)
    # triangle on [0,2]: int (1+x)(x/2) dx = [x^2/4 + x^3/6] = 1 + 8/6
    tri = DensityPiece(0.0, 2.0, 0.0, 1.0)
    assert tri.weighted_mass() == pytest.approx(1.0 + 8.0 / 6.0)


_MEMO_TS = (0.0, 0.25, 0.5, 1.5, 7.0, np.float64(0.75))   # 0, inside, break, beyond


def test_l2sq_partial_memo_equals_fresh_primitive():
    f = Integrand.step([0.0, 0.5, 1.0, 1.5], [1.0, -0.5, 0.25])
    for _ in range(2):                  # second pass is served from the memo
        for t in _MEMO_TS:
            assert f.l2sq_partial(t) == float(
                Integrand.step(f.breaks, f.levels ** 2).primitive(t))
    assert type(f.l2sq_partial(np.float64(0.75))) is float


def test_l2sq_partial_memo_stays_on_its_instance():
    f = Integrand.step([0.0, 1.0, 2.0], [0.6, -0.6])
    assert f.l2sq_partial(2.0) == pytest.approx(0.72)
    g, h = f.shifted(0.5), Integrand.step(f.breaks, 2.0 * f.levels)
    assert g.l2sq_partial(2.0) == pytest.approx(0.18 + 0.36)
    assert h.l2sq_partial(2.0) == pytest.approx(4 * 0.72)
    assert g._l2sq is not f._l2sq and h._l2sq is not f._l2sq
    assert f.l2sq_partial(2.0) == pytest.approx(0.72)
