"""The quadratic mean-field flow dp/dt = (p o p) - p and its entropy budget.

The flow conserves every block magnetization of the transport kernel's
irreducible partition, keeps mass and nonnegativity, and relaxes to the
unique quadratic Gibbs state with the same conserved profile. Relative
entropy against that state is non-increasing; its derivative is minus a
nonnegative dissipation sum, which the decay machinery compares against
a closed-form lower bound on the exponential rate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .collision import StackStage
from .core import (
    _CHUNK,
    WeakCoupling,
    check_block_field,
    check_interior,
    check_probvec,
    entropy_ratio_scan,
    gibbs,
    log_gibbs_weights,
    magnetization_profile,
    match_block_means,
    relative_entropy,
    sample_test_functions,
    sites_of,
    solve_field,
    tv_distance,
    weak_coupling,
)
from .errors import ConvergenceError, FitError

RENORM_TOL = 1e-10
DENSITY_FLOOR = 1e-300
ENTROPY_NOISE = 1e-12


def stationarity_residual(ctx, p):
    """max-norm of (p o p) - p."""
    p = check_probvec(p, ctx.n)
    return float(np.max(np.abs(ctx.product(p, p) - p)))


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), 2**n)
    h_eq: np.ndarray
    mu_eq: np.ndarray
    stopped_early: bool = False

    @property
    def final(self):
        return self.states[-1]

    def entropies(self):
        return relative_entropy(self.states, self.mu_eq)

    def tv_to_equilibrium(self):
        return tv_distance(self.states, self.mu_eq)


def _rk4_step(stage, p, dt):
    k1 = stage(p) - p
    y = p + (0.5 * dt) * k1
    k2 = stage(y) - y
    y = p + (0.5 * dt) * k2
    k3 = stage(y) - y
    y = p + dt * k3
    k4 = stage(y) - y
    return p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _clipped(p):
    """p clipped at 0 and divided by its new row sums, in place."""
    np.maximum(p, 0.0, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _advance(stage, p, dt, depth=0):
    """One RK4 step of every row of the (rows, 2^n) stack p. A row whose
    raw mass drifts by RENORM_TOL or more, or that goes measurably
    negative, is redone as two half steps, in a sub-stack of the failing
    rows alone, so every row gets the bits of its own one-row call. The
    test runs on Python floats, and rows with no entry <= 0 skip the
    clip (a no-op there): fewer numpy calls for a stack of a few rows."""
    if depth > 24:
        raise ConvergenceError("step-size halving did not stabilize the step")
    p_new = _rk4_step(stage, p, dt)
    sums = np.add.reduce(p_new, axis=1, keepdims=True)
    mins = np.minimum.reduce(p_new, axis=1).tolist()
    ok = [abs(s - 1.0) < RENORM_TOL and m > -1e-12 for (s,), m in zip(sums.tolist(), mins)]
    if all(ok):
        if min(mins) <= 0.0:
            return _clipped(p_new)
        p_new /= sums
        return p_new
    ok = np.array(ok)
    redo = np.flatnonzero(~ok)
    sub = stage.take(redo)
    half = _advance(sub, p[redo], 0.5 * dt, depth + 1)
    p_new[redo] = _advance(sub, half, 0.5 * dt, depth + 1)
    p_new[ok] = _clipped(p_new[ok])
    return p_new


def _grid_steps(t_end, dt, store_every):
    """The number of dt steps to t_end. One ValueError unless t_end is
    finite and >= 0, dt finite and > 0, store_every an integer >= 1,
    and t_end a multiple of dt."""
    if not (math.isfinite(t_end) and t_end >= 0 and math.isfinite(dt) and dt > 0
            and isinstance(store_every, numbers.Integral) and store_every >= 1):
        raise ValueError(f"need a finite t_end >= 0, a finite dt > 0 and an integer "
                         f"store_every >= 1, got t_end = {t_end}, dt = {dt}, "
                         f"store_every = {store_every!r}")
    steps = t_end / dt
    if not math.isfinite(steps):
        raise ValueError(f"t_end = {t_end} over dt = {dt} is not a finite step count")
    nsteps = int(round(steps))
    if abs(nsteps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"t_end = {t_end} is not a multiple of dt = {dt}")
    return nsteps


def evolve(ctx, p0, t_end, dt, store_every=1, stop_below_entropy=None):
    """Integrate the flow with fixed-step RK4 on a uniform grid, as the
    one-row case of `evolve_many`.

    Every accepted step renormalizes; a step whose raw mass drifts by
    1e-10 or more (or goes measurably negative) is redone as two half
    steps. States are recorded every `store_every` grid points plus the
    final one. If `stop_below_entropy` is set, integration stops once
    the recorded relative entropy to the matched equilibrium falls below
    it (monotonicity makes everything after provably smaller).

    The initial profile must be strictly interior: any block pinned at
    |m| = 1 is rejected with the block named.

    Every RK4 stage squares its vector through the context's product
    route, chosen once per call (`collision.StackStage`): a context past
    the product gate raises CapacityError before any work.
    """
    return evolve_many([ctx], [p0], t_end, dt, store_every, stop_below_entropy)[0]


def evolve_many(ctxs, p0s, t_end, dt, store_every=1, stop_below_entropy=None):
    """`evolve` of every pair (ctxs[r], p0s[r]) on one time grid, as a
    list of Trajectory in input order.

    The rows are grouped by n, and each group advances as one
    (rows, 2^n) stack through one RK4 loop: on the tensor route
    (n <= 5) a stage is one batched matmul for the whole stack
    (`collision.StackStage`), so the per-step dispatch is paid once per
    group. A row that halves its step does so in a sub-stack of its own,
    and a row that meets `stop_below_entropy` leaves the stack, so each
    trajectory has the bits of its own one-row call. Every input is
    checked, and every equilibrium solved, before any row is advanced.
    """
    ctxs = list(ctxs)
    if len(p0s) != len(ctxs):
        raise ValueError(f"{len(ctxs)} contexts but {len(p0s)} initial states")
    p0s = [check_probvec(p0, ctx.n) for ctx, p0 in zip(ctxs, p0s)]
    nsteps = _grid_steps(t_end, dt, store_every)
    groups = {}
    for r, ctx in enumerate(ctxs):
        groups.setdefault(ctx.n, []).append(r)
    stages = {n: StackStage([ctxs[r] for r in rows]) for n, rows in groups.items()}
    h_eqs = []
    for ctx, p0 in zip(ctxs, p0s):
        m0 = check_interior(magnetization_profile(p0, ctx.blocks), ctx.blocks)
        h_eqs.append(solve_field(ctx.J, ctx.blocks, m0))
    mu_eqs = [gibbs(ctx.J, h) for ctx, h in zip(ctxs, h_eqs)]
    trajs = [None] * len(ctxs)
    for n, rows in groups.items():
        runs = _integrate(stages[n], np.array([p0s[r] for r in rows]),
                          np.array([mu_eqs[r] for r in rows]), nsteps, dt, store_every,
                          stop_below_entropy)
        for r, (times, states, stopped) in zip(rows, runs):
            trajs[r] = Trajectory(times, states, h_eqs[r], mu_eqs[r], stopped)
    return trajs


def _integrate(stage, p, mu_eq, nsteps, dt, store_every, stop_below_entropy):
    """(times, states, stopped) of every row of the stack p, advanced
    nsteps times by dt."""
    running = list(range(len(p)))
    states = [[row] for row in p]
    grid = [0]
    stopped = [False] * len(p)
    for i in range(1, nsteps + 1):
        p = _advance(stage, p, dt)
        if i % store_every == 0 or i == nsteps:
            grid.append(i)
            for r, row in zip(running, p):
                states[r].append(row)
            if stop_below_entropy is not None:
                done = relative_entropy(p, mu_eq) < stop_below_entropy
                if done.any():
                    for r in np.flatnonzero(done):
                        stopped[running[r]] = True
                    keep = np.flatnonzero(~done)
                    if not len(keep):
                        break
                    running, p, mu_eq = [running[r] for r in keep], p[keep], mu_eq[keep]
                    stage = stage.take(keep)
    return [(np.array([i * dt for i in grid[:len(rows)]]), np.array(rows), stop)
            for rows, stop in zip(states, stopped)]


def dissipation(ctx, f, mu):
    """Entropy production of the flow at density f*mu, as the symmetrized
    nonnegative pair sum. Terms where either pair product vanishes are
    dropped (the diagnostic convention for clipped densities); for
    strictly positive f this is exact.

    f is one density (the value is a float) or a (rows, 2**n) stack of
    them (one value per row, each with the bits of its own one-row
    call). Each site pair's move grid is built once per call and the
    rows pass through it in chunks, so that no temporary holds more than
    `_CHUNK` entries, or one row's grid where that is larger.
    """
    mu = check_probvec(mu, ctx.n)
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1:] != mu.shape or (f.size and np.min(f) < 0):
        raise ValueError("f must be a nonnegative vector on the same state space")
    rows = f.reshape(-1, mu.size)
    if np.any(np.abs(rows @ mu - 1.0) > 1e-8):
        raise ValueError("f must average to 1 under mu")
    total = np.zeros(len(rows))
    chunk = max(1, _CHUNK // mu.size**2)
    mu_pair = np.multiply.outer(mu, mu)
    for w, P, tau, tau_p in ctx.moves():
        weight = mu_pair * P
        for start in range(0, len(rows), chunk):
            g = rows[start : start + chunk]
            a = g[:, :, None] * g[:, None, :]
            b = g[:, tau] * g[:, tau_p]
            good = (a > 0.0) & (b > 0.0) & (a != b)
            a, b = a[good], b[good]
            terms = np.broadcast_to(weight, good.shape)[good] * (a - b) * np.log(a / b)
            # each row sums its own terms alone, as its one-row call does:
            # rows with equally many terms as the rows of one 2-D sum
            counts = np.count_nonzero(good, axis=(1, 2))
            starts = np.cumsum(counts) - counts
            for c in np.unique(counts[counts > 0]):
                r = np.flatnonzero(counts == c)
                total[start + r] += w * terms[starts[r, None] + np.arange(c)].sum(axis=1)
    return 0.25 * total if f.ndim == 2 else float(0.25 * total[0])


def dissipation_at(ctx, p, mu):
    """`dissipation` at the density p / mu, for one p or a stack of them."""
    f = np.asarray(p, dtype=float) / np.maximum(np.asarray(mu, dtype=float), DENSITY_FLOOR)
    return dissipation(ctx, f, mu)


@dataclass
class DecayReport:
    times: np.ndarray
    entropy: np.ndarray
    tv: np.ndarray
    tv_bound: np.ndarray | None
    alpha_fit: float
    bound: WeakCoupling  # the rate theorem's hypothesis and its rate `alpha`
    fit_points: int
    entropy_identically_zero: bool = False


def decay_report(traj, J):
    """Fit the exponential entropy-decay rate of a trajectory.

    The fit regresses log H on t after dropping the leading 10% of the
    time span and every sample below the 1e-12 noise floor. A trajectory
    whose entropy never clears the floor certifies *every* rate (H(t) <=
    H(0) e^{-a t} holds trivially), reported as alpha_fit = +inf with
    the `entropy_identically_zero` flag. Fewer than 5 usable points
    raises FitError.
    """
    H = traj.entropies()
    tv = traj.tv_to_equilibrium()
    n = sites_of(traj.mu_eq)
    bound = weak_coupling(J)
    tv_curve = None
    if bound.applicable:
        hbar = float(np.max(np.abs(traj.h_eq)))
        C = bound.lam + 2.0 * hbar + math.log(2.0)
        tv_curve = np.sqrt(C * n / 2.0) * np.exp(-0.5 * bound.alpha * traj.times)
    if np.all(H < ENTROPY_NOISE):
        return DecayReport(traj.times, H, tv, tv_curve, math.inf, bound, 0, True)
    t0 = traj.times[0] + 0.1 * (traj.times[-1] - traj.times[0])
    keep = (traj.times >= t0) & (H >= ENTROPY_NOISE)
    if int(np.sum(keep)) < 5:
        raise FitError(f"only {int(np.sum(keep))} usable samples above the noise floor")
    x = traj.times[keep]
    y = np.log(H[keep])
    slope = float(np.polyfit(x, y, 1)[0])
    return DecayReport(traj.times, H, tv, tv_curve, -slope, bound, int(np.sum(keep)))


def nonlinear_mlsi_scan(ctx, h, trials, rng):
    """Minimum of dissipation / entropy over random densities constrained
    to the equilibrium's conserved profile, as a `RatioScan`.

    Candidate densities are mu times the test functions of
    `sample_test_functions` (log-normal fields, near point masses, bounded
    perturbations of 1), all drawn first, then projected onto the
    constraint set by an exponential block tilt in one stacked
    `match_block_means` solve, the field solver's damped Newton. Their
    entropies and dissipations are each taken in one stacked call.
    Projection failures (standing in as the constant density) and the
    trivial density are discarded and counted. The field h must be
    constant on each of ctx.blocks (`check_block_field`).
    """
    check_block_field(h, ctx.blocks)
    mu = gibbs(ctx.J, h)
    log_mu = log_gibbs_weights(ctx.J, h)
    target = magnetization_profile(mu, ctx.blocks)
    logf = np.log(sample_test_functions(1 << ctx.n, trials, rng))
    _, nu, converged = match_block_means(log_mu + logf, ctx.blocks, target)
    densities = np.where(converged[:, None], nu / mu, 1.0)
    return entropy_ratio_scan(mu, densities, lambda f: dissipation(ctx, f, mu))
