"""The quadratic evolution, its conservation laws and decay reports."""

import math

import numpy as np
import pytest

from spinkac import collision, core, dynamics
from spinkac.collision import CollisionContext
from spinkac.errors import ConvergenceError, DegenerateProfileError, FitError


def make_ctx(J, kind="mean-field", blocks=None):
    n = np.asarray(J).shape[0]
    K = collision.build_transport_kernel(kind, n, blocks=blocks)
    return CollisionContext(J, K)


def interior_density(rng, n):
    return rng.dirichlet(np.full(1 << n, 2.0))


class TestEvolve:
    def test_stationary_start_stays_put(self):
        J = np.array([[0.0, 0.25], [0.25, 0.0]])
        ctx = make_ctx(J)
        h = core.solve_field(J, ctx.blocks, np.array([0.2]))
        mu = core.gibbs(J, h)
        traj = dynamics.evolve(ctx, mu, 2.0, 0.01)
        assert np.abs(traj.states - mu).max() < 1e-10
        rep = dynamics.decay_report(traj, J)
        assert rep.entropy_identically_zero
        assert rep.alpha_fit == math.inf

    def test_free_single_site_marginals_frozen(self):
        # zero coupling with the identity kernel: every site marginal is conserved
        rng = np.random.default_rng(41)
        ctx = make_ctx(np.zeros((3, 3)), "single-site")
        p0 = interior_density(rng, 3)
        traj = dynamics.evolve(ctx, p0, 1.0, 0.01)
        want = core.site_means(p0)
        for p in traj.states:
            assert np.abs(core.site_means(p) - want).max() < 1e-10

    def test_conservation_and_monotonicity(self):
        rng = np.random.default_rng(42)
        J = np.array([[0.1, 0.15, 0.0], [0.15, 0.1, 0.1], [0.0, 0.1, 0.2]])
        ctx = make_ctx(J, "blocks", blocks=((0, 1), (2,)))
        p0 = interior_density(rng, 3)
        traj = dynamics.evolve(ctx, p0, 5.0, 0.01, store_every=10)
        m0 = core.magnetization_profile(p0, ctx.blocks)
        for p in traj.states:
            assert abs(p.sum() - 1.0) < 1e-10
            assert np.abs(core.magnetization_profile(p, ctx.blocks) - m0).max() < 1e-10
        H = traj.entropies()
        assert np.all(np.diff(H) <= 1e-12)

    def test_rk4_order(self):
        rng = np.random.default_rng(43)
        ctx = make_ctx(np.array([[0.0, 0.2], [0.2, 0.0]]))
        p0 = interior_density(rng, 2)
        ref = dynamics.evolve(ctx, p0, 1.0, 0.0125).final
        e_coarse = np.abs(dynamics.evolve(ctx, p0, 1.0, 0.1).final - ref).max()
        e_fine = np.abs(dynamics.evolve(ctx, p0, 1.0, 0.05).final - ref).max()
        assert 10.0 < e_coarse / e_fine < 24.0

    def test_stream_route_flow(self):
        # n = 8 is past the tensor route, so every product here streams
        rng = np.random.default_rng(50)
        J = np.full((8, 8), 0.1 / 8)
        ctx = make_ctx(J)
        p0 = interior_density(rng, 8)
        traj = dynamics.evolve(ctx, p0, 0.2, 0.05)
        assert len(traj.times) == 5
        assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-12
        m = np.array([core.magnetization_profile(p, ctx.blocks) for p in traj.states])
        assert np.abs(m - m[0]).max() <= 1e-10

    def test_flux_route_flow(self):
        # n = 7 takes the flux route; a two-block kernel conserves the
        # magnetization of each block
        rng = np.random.default_rng(51)
        J = np.full((7, 7), 0.1 / 7)
        ctx = make_ctx(J, "blocks", blocks=((0, 1, 2, 3), (4, 5, 6)))
        assert len(ctx.blocks) == 2
        p0 = interior_density(rng, 7)
        traj = dynamics.evolve(ctx, p0, 0.25, 0.05)
        assert len(traj.times) == 6
        assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-12
        m = np.array([core.magnetization_profile(p, ctx.blocks) for p in traj.states])
        assert np.abs(m - m[0]).max() <= 1e-12

    def test_stream_route_gibbs_is_stationary(self):
        J = np.full((9, 9), 0.04)
        np.fill_diagonal(J, 0.06)
        ctx = make_ctx(J, "blocks", blocks=(tuple(range(5)), tuple(range(5, 9))))
        h = np.array([0.2] * 5 + [-0.3] * 4)
        assert dynamics.stationarity_residual(ctx, core.gibbs(J, h)) <= 1e-12

    def test_input_validation(self):
        ctx = make_ctx(np.zeros((2, 2)))
        uniform = np.full(4, 0.25)
        with pytest.raises(ValueError):
            dynamics.evolve(ctx, uniform, -1.0, 0.01)
        with pytest.raises(ValueError):
            dynamics.evolve(ctx, uniform, 1.0, 0.3)
        pinned = np.zeros(4)
        pinned[0b11] = 1.0
        with pytest.raises(DegenerateProfileError):
            dynamics.evolve(ctx, pinned, 1.0, 0.01)

    def test_start_near_the_boundary_is_rejected_up_front(self):
        # m = 1 - 1e-13 is inside (-1, 1) but closer to 1 than the field
        # solve can reach; the profile check names the block before it
        ctx = make_ctx(np.zeros((1, 1)), "single-site")
        with pytest.raises(DegenerateProfileError, match=r"block \(1,\) has magnetization"):
            dynamics.evolve(ctx, np.array([5e-14, 1.0 - 5e-14]), 1.0, 0.01)


class TestDissipation:
    def test_trivial_density(self):
        ctx = make_ctx(np.array([[0.0, 0.2], [0.2, 0.0]]))
        mu = core.gibbs(ctx.J, np.array([0.1, 0.1]))
        assert dynamics.dissipation(ctx, np.ones(4), mu) == 0.0

    def test_stationary_ratio(self):
        # the density between two admissible equilibria dissipates nothing
        J = np.array([[0.0, 0.2], [0.2, 0.0]])
        ctx = make_ctx(J)
        mu = core.gibbs(J, np.array([0.1, 0.1]))
        mu_p = core.gibbs(J, np.array([-0.3, -0.3]))
        f = mu_p / mu
        f /= mu @ f
        assert abs(dynamics.dissipation(ctx, f, mu)) < 1e-13

    def test_nonnegative(self):
        rng = np.random.default_rng(44)
        ctx = make_ctx(np.array([[0.1, 0.2], [0.2, 0.1]]))
        mu = core.gibbs(ctx.J)
        for _ in range(10):
            f = np.exp(rng.standard_normal(4))
            f /= mu @ f
            assert dynamics.dissipation(ctx, f, mu) >= 0.0

    def test_matches_entropy_slope(self):
        # centered difference of H against the production functional
        rng = np.random.default_rng(45)
        ctx = make_ctx(np.array([[0.0, 0.3], [0.3, 0.0]]))
        p0 = interior_density(rng, 2)
        warm = dynamics.evolve(ctx, p0, 0.5, 0.01).final
        traj = dynamics.evolve(ctx, warm, 0.002, 0.001)
        H = traj.entropies()
        slope = (H[2] - H[0]) / 0.002
        D = dynamics.dissipation_at(ctx, traj.states[1], traj.mu_eq)
        assert abs(slope + D) < 1e-6


class TestAlphaBound:
    def test_free_values(self):
        assert core.weak_coupling(np.zeros((1, 1))).alpha == pytest.approx(0.25)
        assert core.weak_coupling(np.zeros((4, 4))).alpha == pytest.approx(1.0 / 16.0)

    def test_plug_in_value(self):
        # lam = 0.25 (nonnegative), row norm 0.25
        J = np.full((2, 2), 0.125)
        bd = core.weak_coupling(J)
        assert bd.applicable
        assert bd.lam == pytest.approx(0.25)
        assert bd.alpha == pytest.approx(0.125 * 0.25 * math.exp(-4.0))

    def test_inapplicable_is_tagged_not_raised(self):
        bd = core.weak_coupling(np.array([[0.0, 0.3], [0.3, 0.0]]))
        assert not bd.applicable and bd.alpha is None
        assert "negative eigenvalue" in bd.reason
        hot = core.weak_coupling(np.full((2, 2), 0.3))
        assert not hot.applicable and "1/2" in hot.reason


class TestDecay:
    def test_free_single_site_is_vacuous(self):
        # one free spin: the conserved profile pins the whole law, so the
        # entropy to its matched equilibrium is identically zero and every
        # decay rate is certified
        ctx = make_ctx(np.zeros((1, 1)), "single-site")
        traj = dynamics.evolve(ctx, np.array([0.3, 0.7]), 2.0, 0.01)
        rep = dynamics.decay_report(traj, ctx.J)
        assert rep.entropy_identically_zero
        assert rep.alpha_fit == math.inf
        assert rep.alpha_fit >= 0.25

    def test_fitted_rate_beats_bound(self):
        rng = np.random.default_rng(46)
        J = np.full((2, 2), 0.08)
        ctx = make_ctx(J)
        traj = dynamics.evolve(ctx, interior_density(rng, 2), 20.0, 0.01, store_every=5)
        rep = dynamics.decay_report(traj, J)
        assert rep.bound.applicable
        assert rep.alpha_fit >= rep.bound.alpha
        assert rep.fit_points >= 5

    def test_tv_stays_under_certificate(self):
        rng = np.random.default_rng(47)
        J = np.full((2, 2), 0.08)
        ctx = make_ctx(J)
        traj = dynamics.evolve(ctx, interior_density(rng, 2), 20.0, 0.01, store_every=5)
        rep = dynamics.decay_report(traj, J)
        assert rep.tv_bound is not None
        assert np.all(rep.tv <= rep.tv_bound + 1e-12)


class TestScan:
    def test_field_must_be_constant_on_each_block(self):
        ctx = make_ctx(np.array([[0.0, 0.1], [0.1, 0.0]]))
        with pytest.raises(ValueError, match=r"block \(1, 2\): 0\.5 vs -0\.3"):
            dynamics.nonlinear_mlsi_scan(ctx, np.array([0.5, -0.3]), 10, np.random.default_rng(50))

    def test_single_free_spin_has_no_test_densities(self):
        # the conserved profile determines the 2-state law completely, so the
        # projection collapses every candidate to the constant density
        ctx = make_ctx(np.zeros((1, 1)), "single-site")
        with pytest.raises(FitError):
            dynamics.nonlinear_mlsi_scan(ctx, np.zeros(1), 30, np.random.default_rng(48))

    # its two warnings come from match_block_means inside the projection (ROADMAP item 12)
    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_blocked_scan_beats_bound(self):
        J = np.full((3, 3), 0.04)
        np.fill_diagonal(J, 0.06)
        ctx = make_ctx(J, "blocks", blocks=((0, 1), (2,)))
        h = core.solve_field(J, ctx.blocks, np.array([0.1, -0.2]))
        rep = dynamics.nonlinear_mlsi_scan(ctx, h, 120, np.random.default_rng(49))
        bound = core.weak_coupling(J)
        assert bound.applicable
        assert rep.min_ratio >= bound.alpha
        assert rep.samples + rep.discarded == 120
        assert rep.median_ratio >= rep.min_ratio

    def test_failed_projections_are_discarded(self, monkeypatch):
        J = np.full((2, 2), 0.08)
        ctx = make_ctx(J)
        h = core.solve_field(J, ctx.blocks, np.array([0.1]))
        solve = core.match_block_means
        calls = []

        def every_other_fails(logw, blocks, target):
            calls.append(None)
            if len(calls) % 2 == 0:
                raise ConvergenceError("injected failure", residual=1.0)
            return solve(logw, blocks, target)

        monkeypatch.setattr(dynamics, "match_block_means", every_other_fails)
        rep = dynamics.nonlinear_mlsi_scan(ctx, h, 40, np.random.default_rng(50))
        assert len(calls) == 40
        assert rep.discarded >= 20
        assert rep.samples + rep.discarded == 40
        assert rep.min_ratio > 0.0
