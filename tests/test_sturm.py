"""Two-point boundary solver for the penalisation normalizer."""
import numpy as np
import pytest

from penalab import sturm
from penalab.functionals import fk_log_weight
from penalab.integrands import MeasureSpec
from penalab.paths import SamplePath, make_grid
from penalab.samplers import sample_bm, substream
from penalab.sturm import SolverError, atomic_phi_oracle, scale_gamma, solve_phi


def test_single_atom_closed_form():
    for lam in (0.5, 1.0, 2.0):
        sol = solve_phi(MeasureSpec.point(0.0, lam), L=50.0, dx=1e-3)
        err = np.max(np.abs(sol.phi - (1.0 / lam + np.abs(sol.xs))))
        assert err <= 1e-6
        assert sol.C_V == pytest.approx(1.0 / lam, abs=1e-9)
        assert sol.phi_at(1.0) == pytest.approx(1.0 / lam + 1.0, abs=1e-8)


def test_boundary_slopes_exact():
    sol = solve_phi(MeasureSpec.box(-1, 1, 1), L=50.0, dx=2e-3)
    assert sol.dphi[0] == pytest.approx(-1.0, abs=1e-12)
    assert sol.dphi[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(sol.dphi) <= 1.0 + 1e-8)
    # linear growth far out
    assert sol.phi_at(40.0) / 40.0 == pytest.approx(1.0, rel=0.05)


def test_atom_jump_residuals():
    atoms = [(-1.0, 1.0), (0.5, 2.0)]
    sol = solve_phi(MeasureSpec.points(atoms), L=50.0, dx=1e-3)
    # derivative jump observed in the tabulated left-derivatives
    for loc, lam in atoms:
        k = int(round((loc + 50.0) / 1e-3))
        observed = sol.dphi[k + 1] - sol.dphi[k]
        assert observed == pytest.approx(2.0 * lam * sol.phi[k], abs=1e-6)


def test_oracle_agreement_two_and_three_atoms():
    for atoms in ([(-1.0, 1.0), (1.0, 1.0)],
                  [(-1.5, 0.5), (0.0, 1.0), (2.0, 2.0)]):
        sol = solve_phi(MeasureSpec.points(atoms), L=50.0, dx=1e-3)
        oracle = atomic_phi_oracle(atoms)
        xs = np.linspace(-20, 20, 4001)
        assert np.max(np.abs(sol.phi_at(xs) - oracle(xs))) <= 1e-7
        assert sol.C_V == pytest.approx(oracle.C_V, abs=1e-8)


def test_box_density_residual_second_order():
    errs = []
    for dx in (4e-3, 2e-3, 1e-3):
        sol = solve_phi(MeasureSpec.box(-1, 1, 1), L=50.0, dx=dx)
        inner = slice(1, len(sol.xs) - 1)
        second = (sol.phi[2:] - 2 * sol.phi[1:-1] + sol.phi[:-2]) / dx ** 2
        target = 2.0 * MeasureSpec.box(-1, 1, 1).density(sol.xs[inner]) * sol.phi[inner]
        mask = np.abs(np.abs(sol.xs[inner]) - 1.0) > 2 * dx
        errs.append(np.max(np.abs((second - target)[mask])))
    assert errs[-1] <= 1e-3
    assert errs[-1] <= errs[0]


def test_scale_function():
    sol = solve_phi(MeasureSpec.point(0.0, 1.0))
    assert scale_gamma(sol, 0.0) == 0.0
    assert scale_gamma(sol, 1.0) == pytest.approx(0.5, abs=1e-6)
    xs = np.linspace(0, 10, 100)
    np.testing.assert_allclose(scale_gamma(sol, xs), -scale_gamma(sol, -xs),
                               atol=1e-9)


def test_solver_rejections():
    with pytest.raises(SolverError):
        solve_phi(MeasureSpec.point(30.0, 1.0), L=50.0)    # support too wide
    with pytest.raises(SolverError):
        solve_phi(MeasureSpec(), L=50.0)             # V = 0 inconsistent


def martingale_density(sol, V, path: SamplePath, t: float) -> float:
    """M_t = phi(X_t)/phi(X_0) * K_t(V; X), the density of the penalised law
    against Wiener measure on F_t."""
    k = path.grid.index(t)
    kt = np.exp(fk_log_weight(V, path.values, path.dt, upto=k))
    return float(sol.phi_at(path.values[k]) / sol.phi_at(path.values[0]) * kt)


def test_martingale_density_unit_start_and_mean():
    V = MeasureSpec.point(0.0, 1.0)
    sol = solve_phi(V, L=50.0, dx=1e-3)
    g = make_grid(1.0, 1e-3)
    p = sample_bm(0.3, g, substream(77, 0))
    assert martingale_density(sol, V, p, 0.0) == pytest.approx(1.0, rel=1e-9)
    N = 3000
    vals = np.empty(N)
    for i in range(N):
        q = sample_bm(0.3, g, substream(78, i))
        vals[i] = martingale_density(sol, V, q, 1.0)
    se = vals.std() / np.sqrt(N)
    assert abs(vals.mean() - 1.0) <= 4 * se + 0.5 * np.sqrt(1e-3)


def test_martingale_density_median_decays():
    # almost-sure convergence to 0 shows up in the median (the mean stays 1)
    V = MeasureSpec.point(0.0, 1.0)
    sol = solve_phi(V, L=50.0, dx=1e-3)
    g = make_grid(16.0, 4e-3)
    N = 400
    med = []
    for t in (1.0, 4.0, 16.0):
        vals = [martingale_density(sol, V, sample_bm(0.0, g, substream(79, i)), t)
                for i in range(N)]
        med.append(np.median(vals))
    assert med[0] > med[1] > med[2]


def test_penalised_drift_is_dphi_over_phi():
    # the penalised process has drift phi'/phi = sgn(x) / (1/lambda + |x|)
    # for V = lambda delta_0, Bessel-like far out
    sol = solve_phi(MeasureSpec.point(0.0, 2.0), L=50.0, dx=1e-3)
    for x in (-2.0, -0.5, 0.5, 2.0):
        want = np.sign(x) / (0.5 + abs(x))
        assert sol.dphi_at(x) / sol.phi_at(x) == pytest.approx(want, abs=1e-5)
    assert abs(sol.dphi_at(20.0) / sol.phi_at(20.0) - 1.0 / 20.5) < 1e-6


def test_phi_interpolation_beyond_box():
    sol = solve_phi(MeasureSpec.point(0.0, 2.0), L=50.0, dx=1e-3)
    # linear continuation with unit slope outside [-L, L]
    assert sol.phi_at(60.0) == pytest.approx(sol.phi_at(50.0) + 10.0, rel=1e-12)
    assert sol.dphi_at(-70.0) == -1.0


def _whole_grid_integrate(g, jump_at, dx, y0, p0):
    """The Heun loop over every node, as solve_phi ran it before free runs
    were filled in closed form: the oracle for bit-exactness."""
    m = len(g) - 1
    y = np.empty(m + 1)
    p = np.empty(m + 1)
    y[0], p[0] = y0, p0
    pr = p0 + jump_at[0] * y0
    yc = y0
    for i in range(m):
        ye = yc + dx * pr
        pe = pr + dx * g[i] * yc
        y[i + 1] = yc + 0.5 * dx * (pr + pe)
        p[i + 1] = pr + 0.5 * dx * (g[i] * yc + g[i + 1] * ye)
        yc = y[i + 1]
        pr = p[i + 1] + jump_at[i + 1] * yc
    return y, p


_ORACLE_MEASURES = {
    "atom-0.5": MeasureSpec.point(0.0, 0.5),
    "atom-1": MeasureSpec.point(0.0, 1.0),
    "atom-2": MeasureSpec.point(0.0, 2.0),
    "two-atom": MeasureSpec.points([(-1.0, 1.0), (1.0, 1.0)]),
    "three-atom": MeasureSpec.points([(-1.5, 0.5), (0.0, 1.0), (2.0, 2.0)]),
    "box": MeasureSpec.box(-1.0, 1.0, 1.0),
    "bump": MeasureSpec.bump(),
    "atoms+box": MeasureSpec(atoms=((-3.0, 0.5), (0.25, 1.0)),
                             pieces=MeasureSpec.box(-1.0, 1.0, 1.0).pieces),
    "atom-on-box-edge": MeasureSpec(atoms=((1.0, 0.75),),
                                    pieces=MeasureSpec.box(-1.0, 1.0, 0.5).pieces),
}


@pytest.mark.parametrize("L,dx", [(50.0, 1e-3), (20.0, 0.01), (50.0, 0.003)])
@pytest.mark.parametrize("name", sorted(_ORACLE_MEASURES))
def test_free_run_solver_is_bit_exact(monkeypatch, name, L, dx):
    V = _ORACLE_MEASURES[name]
    got = solve_phi(V, L=L, dx=dx)
    monkeypatch.setattr(sturm, "_integrate", _whole_grid_integrate)
    want = solve_phi(V, L=L, dx=dx)
    for field in ("phi", "dphi", "gamma_table"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), field
    assert got.C_V == want.C_V
