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
from dataclasses import dataclass

import numpy as np

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
        return np.array([relative_entropy(p, self.mu_eq) for p in self.states])

    def tv_to_equilibrium(self):
        return np.array([tv_distance(p, self.mu_eq) for p in self.states])


def _rk4_step(stage, p, dt):
    k1 = stage(p) - p
    y = p + (0.5 * dt) * k1
    k2 = stage(y) - y
    y = p + (0.5 * dt) * k2
    k3 = stage(y) - y
    y = p + dt * k3
    k4 = stage(y) - y
    return p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(stage, p, dt, depth=0):
    if depth > 24:
        raise ConvergenceError("step-size halving did not stabilize the step")
    p_new = _rk4_step(stage, p, dt)
    drift = abs(float(p_new.sum()) - 1.0)
    if drift < RENORM_TOL and float(p_new.min()) > -1e-12:
        np.maximum(p_new, 0.0, out=p_new)
        p_new /= p_new.sum()
        return p_new
    half = _advance(stage, p, 0.5 * dt, depth + 1)
    return _advance(stage, half, 0.5 * dt, depth + 1)


def evolve(ctx, p0, t_end, dt, store_every=1, stop_below_entropy=None):
    """Integrate the flow with fixed-step RK4 on a uniform grid.

    Every accepted step renormalizes; a step whose raw mass drifts by
    1e-10 or more (or goes measurably negative) is redone as two half
    steps. States are recorded every `store_every` grid points plus the
    final one. If `stop_below_entropy` is set, integration stops once
    the recorded relative entropy to the matched equilibrium falls below
    it (monotonicity makes everything after provably smaller).

    The initial profile must be strictly interior: any block pinned at
    |m| = 1 is rejected with the block named.

    Every RK4 stage squares its vector through `ctx.square_stage()`,
    whose product route is chosen once per call: a context past the
    product gate raises CapacityError before any work.
    """
    p0 = check_probvec(p0, ctx.n)
    if t_end < 0 or dt <= 0:
        raise ValueError("need t_end >= 0 and dt > 0")
    stage = ctx.square_stage()
    m0 = check_interior(magnetization_profile(p0, ctx.blocks), ctx.blocks)
    h_eq = solve_field(ctx.J, ctx.blocks, m0)
    mu_eq = gibbs(ctx.J, h_eq)
    nsteps = int(round(t_end / dt))
    if abs(nsteps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"t_end = {t_end} is not a multiple of dt = {dt}")
    times = [0.0]
    states = [p0.copy()]
    p = p0.copy()
    stopped = False
    for i in range(1, nsteps + 1):
        p = _advance(stage, p, dt)
        if i % store_every == 0 or i == nsteps:
            times.append(i * dt)
            states.append(p.copy())
            if stop_below_entropy is not None:
                if relative_entropy(p, mu_eq) < stop_below_entropy:
                    stopped = True
                    break
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        h_eq=h_eq,
        mu_eq=mu_eq,
        stopped_early=stopped,
    )


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
