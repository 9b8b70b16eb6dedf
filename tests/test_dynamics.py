"""The quadratic evolution, its conservation laws and decay reports."""

import math

import numpy as np
import pytest

from spinkac import collision, core, dynamics, verify
from spinkac.collision import CollisionContext
from spinkac.errors import CapacityError, ConvergenceError, DegenerateProfileError, FitError


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

    @pytest.mark.parametrize("t_end, dt, store_every", [
        (math.inf, 0.01, 1), (math.nan, 0.01, 1), (-1.0, 0.01, 1),
        (1.0, math.nan, 1), (1.0, math.inf, 1), (1.0, 0.0, 1), (1.0, -0.1, 1),
        (1.0, 0.01, 0), (1.0, 0.01, -5), (1.0, 0.01, 2.5),
        (1e300, 1e-300, 1),  # t_end / dt overflows to inf
    ])
    def test_grid_must_be_finite_and_positive(self, t_end, dt, store_every):
        ctx = make_ctx(np.zeros((2, 2)))
        uniform = np.full(4, 0.25)
        for run in (lambda: dynamics.evolve(ctx, uniform, t_end, dt, store_every),
                    lambda: dynamics.evolve_many([ctx], [uniform], t_end, dt, store_every)):
            with pytest.raises(ValueError, match="t_end"):
                run()

    def test_start_near_the_boundary_is_rejected_up_front(self):
        # m = 1 - 1e-13 is inside (-1, 1) but closer to 1 than the field
        # solve can reach; the profile check names the block before it
        ctx = make_ctx(np.zeros((1, 1)), "single-site")
        with pytest.raises(DegenerateProfileError, match=r"block \(1,\) has magnetization"):
            dynamics.evolve(ctx, np.array([5e-14, 1.0 - 5e-14]), 1.0, 0.01)


def one_row_flow(ctx, p0, t_end, dt, store_every=1, stop_below_entropy=None, force=None):
    """(times, states, stopped) of the flow from p0 advanced one 1-D state
    at a time, through `ctx.square_stage()`, with the step test of
    `dynamics._advance` written for one state: the oracle each row of
    `evolve_many` must match bit for bit. `force(p_new, dt)` may edit
    each raw RK4 step in place before its test."""
    stage = ctx.square_stage()

    def advance(p, dt, depth=0):
        assert depth <= 24
        k1 = stage(p) - p
        y = p + (0.5 * dt) * k1
        k2 = stage(y) - y
        y = p + (0.5 * dt) * k2
        k3 = stage(y) - y
        y = p + dt * k3
        k4 = stage(y) - y
        p_new = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if force is not None:
            force(p_new, dt)
        if abs(float(p_new.sum()) - 1.0) < dynamics.RENORM_TOL and float(p_new.min()) > -1e-12:
            np.maximum(p_new, 0.0, out=p_new)
            p_new /= p_new.sum()
            return p_new
        return advance(advance(p, 0.5 * dt, depth + 1), 0.5 * dt, depth + 1)

    m0 = core.magnetization_profile(p0, ctx.blocks)
    mu_eq = core.gibbs(ctx.J, core.solve_field(ctx.J, ctx.blocks, m0))
    nsteps = int(round(t_end / dt))
    times, states, p = [0.0], [p0.copy()], p0.copy()
    for i in range(1, nsteps + 1):
        p = advance(p, dt)
        if i % store_every == 0 or i == nsteps:
            times.append(i * dt)
            states.append(p.copy())
            if stop_below_entropy is not None and core.relative_entropy(p, mu_eq) < stop_below_entropy:
                return np.array(times), np.array(states), True
    return np.array(times), np.array(states), False


def assert_rows_are_one_row_flows(ctxs, p0s, t_end, dt, force=None, **kwargs):
    trajs = dynamics.evolve_many(ctxs, p0s, t_end, dt, **kwargs)
    assert len(trajs) == len(ctxs)
    for ctx, p0, traj in zip(ctxs, p0s, trajs):
        times, states, stopped = one_row_flow(ctx, p0, t_end, dt, force=force, **kwargs)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        assert traj.states.flags.c_contiguous
        assert traj.stopped_early == stopped
        one = dynamics.evolve(ctx, p0, t_end, dt, **kwargs)
        assert np.array_equal(one.states, states)
        assert np.array_equal(one.mu_eq, traj.mu_eq)
    return trajs


def stack_sizes(monkeypatch):
    """Record the (rows, dt) of every `_rk4_step` call."""
    seen = []
    step = dynamics._rk4_step

    def recorded(stage, p, dt):
        seen.append((len(p), dt))
        return step(stage, p, dt)

    monkeypatch.setattr(dynamics, "_rk4_step", recorded)
    return seen


class TestEvolveMany:
    def test_mixed_kernels_and_sizes_match_their_one_row_flows(self, monkeypatch):
        # rows of n = 2..5 under every kernel kind, interleaved: each size
        # is one stack, and the trajectories come back in input order
        rng = np.random.default_rng(70)
        ctxs, p0s = [], []
        for i in range(10):
            n = 2 + i % 4
            kind = collision.KERNEL_KINDS[i % 3]
            blocks = ((0,), tuple(range(1, n))) if kind == "blocks" else None
            ctxs.append(make_ctx(verify._random_coupling(rng, n, 0.4), kind, blocks))
            p0s.append(interior_density(rng, n))
        seen = stack_sizes(monkeypatch)
        trajs = assert_rows_are_one_row_flows(ctxs, p0s, 0.5, 0.05, store_every=3)
        assert [len(t.times) for t in trajs] == [5] * 10
        assert seen[:10] == [(3, 0.05)] * 10  # n = 2: rows 0, 4 and 8

    def test_a_row_that_halves_does_so_alone(self, monkeypatch):
        # no flow here halves on its own, so every full step of a state
        # whose first entry exceeds 0.2 is made to fail the negativity
        # test: those rows are redone as a sub-stack of half steps while
        # the others go on, and every row keeps the bits of its own
        # one-row flow
        def force(p_new, dt):
            if dt == 0.1:
                rows = p_new.reshape(-1, p_new.shape[-1])
                rows[rows[:, 0] > 0.2, 0] = -1.0

        step = dynamics._rk4_step

        def forced(stage, p, dt):
            p_new = step(stage, p, dt)
            force(p_new, dt)
            return p_new

        rng = np.random.default_rng(71)
        ctxs = [make_ctx(verify._random_coupling(rng, 3, 0.5)) for _ in range(4)]
        p0s = [interior_density(rng, 3) for _ in ctxs]
        for p0, first in zip(p0s, (0.4, 0.02, 0.5, 0.03)):
            p0 *= (1.0 - first) / (1.0 - p0[0])
            p0[0] = first
        monkeypatch.setattr(dynamics, "_rk4_step", forced)
        seen = stack_sizes(monkeypatch)
        assert_rows_are_one_row_flows(ctxs, p0s, 0.4, 0.1, force=force)
        assert seen[:3] == [(4, 0.1), (2, 0.05), (2, 0.05)]

    def test_rows_stop_at_their_own_steps(self, monkeypatch):
        # rows nearer their equilibrium fall below the entropy floor
        # sooner; each ends its trajectory at its own stored step, in
        # place: the stage sees all four rows until the last row ends
        rng = np.random.default_rng(72)
        ctx = make_ctx(np.array([[0.0, 0.2], [0.2, 0.0]]))
        mu = core.gibbs(ctx.J, np.zeros(2))
        p0s = [mu + eps * np.array([1.0, -1.0, -1.0, 1.0]) for eps in (1e-2, 1e-4, 3e-2)]
        p0s.append(interior_density(rng, 2))
        seen = stack_sizes(monkeypatch)
        trajs = assert_rows_are_one_row_flows([ctx] * 4, p0s, 20.0, 0.05, store_every=4,
                                              stop_below_entropy=1e-9)
        lengths = [len(t.times) for t in trajs]
        assert all(t.stopped_early for t in trajs[:3])
        assert len(set(lengths)) == 4
        # the one-row `evolve` calls of the helper follow the stacked steps
        steps = round(max(t.times[-1] for t in trajs) / 0.05)
        assert seen[:steps] == [(4, 0.05)] * steps
        assert seen[steps] == (1, 0.05)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_flux_and_stream_rows(self, n):
        # n = 6, 7 take the flux route and n = 8 the stream route, whose
        # stage keeps its acceptance blocks after its first call
        rng = np.random.default_rng(73 + n)
        ctx = make_ctx(verify._random_coupling(rng, n, 0.1))
        p0 = interior_density(rng, n)
        assert_rows_are_one_row_flows([ctx], [p0], 0.1, 0.05)

    def test_two_flux_rows_share_one_loop(self):
        rng = np.random.default_rng(76)
        ctxs = [make_ctx(verify._random_coupling(rng, 6, 0.1)) for _ in range(2)]
        assert_rows_are_one_row_flows(ctxs, [interior_density(rng, 6) for _ in ctxs], 0.1, 0.05)

    def test_every_input_is_checked_before_any_row_advances(self, monkeypatch):
        ctx = make_ctx(np.zeros((2, 2)))
        pinned = np.zeros(4)
        pinned[0b11] = 1.0
        seen = stack_sizes(monkeypatch)
        with pytest.raises(DegenerateProfileError):
            dynamics.evolve_many([ctx, ctx], [np.full(4, 0.25), pinned], 1.0, 0.01)
        with pytest.raises(ValueError, match="2 contexts but 1 initial states"):
            dynamics.evolve_many([ctx, ctx], [np.full(4, 0.25)], 1.0, 0.01)
        assert seen == []
        assert dynamics.evolve_many([], [], 1.0, 0.01) == []

    def test_a_context_past_the_product_gate_raises_before_any_field_solve(self, monkeypatch):
        n = collision.PRODUCT_N_MAX + 1
        ctx = make_ctx(np.zeros((n, n)))
        solves = []
        monkeypatch.setattr(dynamics, "solve_field", lambda *args: solves.append(args))
        with pytest.raises(CapacityError):
            dynamics.evolve(ctx, np.full(1 << n, 1.0 / (1 << n)), 0.1, 0.05)
        assert solves == []


class TestTrajectoryDiagnostics:
    def test_stacked_diagnostics_are_the_per_state_calls(self):
        # a trajectory from a point mass: its first state holds exact zeros
        ctx = make_ctx(np.array([[0.0, 0.1, 0.05], [0.1, 0.0, 0.2], [0.05, 0.2, 0.0]]))
        p0 = np.full(8, 0.1)
        p0[0b101] = 0.0
        p0[0b010] = 0.4
        traj = dynamics.evolve(ctx, p0, 1.0, 0.05)
        H, tv = traj.entropies(), traj.tv_to_equilibrium()
        assert np.array_equal(H, [core.relative_entropy(p, traj.mu_eq) for p in traj.states])
        assert np.array_equal(tv, [core.tv_distance(p, traj.mu_eq) for p in traj.states])


def dissipation_per_density(ctx, f, mu):
    """The one-density pair sum that `dynamics.dissipation` stacks: every
    row of a stacked call must give its bits."""
    total = 0.0
    mu_pair = np.multiply.outer(mu, mu)
    a = np.multiply.outer(f, f)
    for w, P, tau, tau_p in ctx.moves():
        b = f[tau] * f[tau_p]
        good = (a > 0.0) & (b > 0.0) & (a != b)
        if not np.any(good):
            continue
        diff = a[good] - b[good]
        total += w * float(np.sum(mu_pair[good] * P[good] * diff * np.log(a[good] / b[good])))
    return 0.25 * total


def dissipation_rows(rng, mu, rows):
    """Densities f with mu @ f = 1: log-normal, some with zero entries,
    some with tied values, and the constant one."""
    size = mu.size
    f = np.exp(rng.standard_normal((rows, size)))
    f[1::4][rng.uniform(size=f[1::4].shape) < 0.3] = 0.0
    f[2::4] = rng.choice([0.5, 1.0, 2.0], size=f[2::4].shape)
    f[3] = 1.0
    return f / (f @ mu)[:, None]


class TestDissipation:
    @pytest.mark.parametrize("n, kind", [(2, "mean-field"), (3, "blocks"), (4, "mean-field"), (5, "blocks")])
    def test_stacked_rows_equal_the_per_density_sum(self, n, kind):
        rng = np.random.default_rng(60 + n)
        a = rng.standard_normal((n, n))
        ctx = make_ctx(0.1 * (a + a.T), kind, blocks=((0,), tuple(range(1, n))) if kind == "blocks" else None)
        mu = core.gibbs(ctx.J, rng.uniform(-0.5, 0.5, n))
        f = dissipation_rows(rng, mu, 24)
        stacked = dynamics.dissipation(ctx, f, mu)
        assert stacked.shape == (24,)
        want = [dissipation_per_density(ctx, row, mu) for row in f]
        assert stacked.tolist() == want
        assert stacked[3] == 0.0
        one = dynamics.dissipation(ctx, f[5], mu)
        assert type(one) is float and one == want[5]

    @pytest.mark.parametrize("chunk_rows", [0, 1, 3])
    def test_chunks_keep_every_row(self, monkeypatch, chunk_rows):
        # a chunk of 0 rows: the limit is below one row's grid, so each
        # row goes alone
        rng = np.random.default_rng(64)
        ctx = make_ctx(np.full((3, 3), 0.05))
        mu = core.gibbs(ctx.J, np.full(3, 0.2))
        f = dissipation_rows(rng, mu, 11)
        monkeypatch.setattr(dynamics, "_CHUNK", chunk_rows * mu.size**2 + 5)
        assert dynamics.dissipation(ctx, f, mu).tolist() == [
            dissipation_per_density(ctx, row, mu) for row in f]

    def test_stack_validation(self):
        ctx = make_ctx(np.zeros((2, 2)))
        mu = np.full(4, 0.25)
        with pytest.raises(ValueError, match="average to 1"):
            dynamics.dissipation(ctx, np.array([np.ones(4), np.full(4, 2.0)]), mu)
        with pytest.raises(ValueError, match="nonnegative"):
            dynamics.dissipation(ctx, np.array([np.ones(4), [2.0, -1.0, 2.0, 1.0]]), mu)
        with pytest.raises(ValueError, match="nonnegative"):
            dynamics.dissipation(ctx, np.ones((2, 2, 4)), mu)

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
        stacks = []

        def every_other_fails(logw, blocks, target):
            stacks.append(logw.shape)
            c, nu, converged = core.match_block_means(logw, blocks, target)
            converged[1::2] = False
            return c, nu, converged

        monkeypatch.setattr(dynamics, "match_block_means", every_other_fails)
        rep = dynamics.nonlinear_mlsi_scan(ctx, h, 40, np.random.default_rng(50))
        assert stacks == [(40, 4)]
        assert rep.discarded >= 20
        assert rep.samples + rep.discarded == 40
        assert rep.min_ratio > 0.0

    @pytest.mark.parametrize("seed", [7, 13])
    def test_stalled_projections_raise_no_warning(self, seed):
        # at these seeds some projections stall on a Newton step that
        # overflows to inf; the suite's error filter turns any
        # RuntimeWarning of the solve into a failure
        res = verify.c06_nonlinear_scan(seed, True)
        assert res.passed, res.detail
