"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup` and runs one
pass over its parts in `rep`. A pass times every part, records the
checks made on the program's outputs, and counts the work throughput
metrics divide by. Passes at one seed do identical work: every random
stream is rebuilt from the seed inside the pass.

A part's time is rescaled by the speed sampler (speed.py) the pass runs
under; its unscaled time is kept as well.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import contextmanager
from math import comb

import numpy as np

from spinkac import collision, core, downup, dynamics, kac, verify

# -- one pass ------------------------------------------------------------


class Rep:
    """Timings, checks and work counts of one pass."""

    def __init__(self, sampler):
        self.sampler = sampler  # the speed.Sampler the pass runs under
        self.times = {}    # part -> rescaled seconds
        self.raw = {}      # part -> seconds, unscaled
        self.checks = []   # (name, ok, fatal): a fatal failure means a wrong output
        self.counts = {}
        self.errors = []   # formatted exceptions raised by the program

    @contextmanager
    def part(self, name):
        """Time a part. An exception raised inside it is recorded as a
        failed, fatal check and the pass goes on with the next part."""
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:  # the program under test raised; report, keep measuring
            self.checks.append((f"{name}: raised", False, True))
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        finally:
            self.timed(name, t0, time.perf_counter())

    def timed(self, name, t0, t1):
        """Record that part `name` ran from perf_counter t0 to t1."""
        self.raw[name] = t1 - t0
        self.times[name] = self.sampler.scaled(t0, t1)

    def check(self, name, ok, fatal=True):
        self.checks.append((name, bool(ok), fatal))


def run_passes(workload, inp, budget, min_passes, sampler):
    """At least `min_passes` passes, then more while another pass of
    the mean length so far still ends within `budget` seconds."""
    t0 = time.perf_counter()
    passes = []
    while True:
        rep = Rep(sampler)
        workload.rep(inp, rep)
        passes.append(rep)
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > budget:
            return passes


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _admissible_coupling(rng, n, lo, hi):
    """Nonnegative definite J with top eigenvalue drawn in [lo, hi]."""
    a = rng.standard_normal((n, n))
    s = a @ a.T
    return s * (rng.uniform(lo, hi) / np.linalg.eigvalsh(s)[-1])


def _interior_density(rng, n):
    p = np.exp(rng.standard_normal(1 << n))
    return p / p.sum()


def _spins(n):
    masks = np.arange(1 << n)
    return ((masks[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0


def _top_eig(J):
    return float(np.linalg.eigvalsh(J)[-1])


def _flow_rate_bound(J):
    """The proved exponential rate for the block-uniform kernel,
    (1 - 2 lam)^2 exp(-16 Jbar) / (4 n)."""
    n = J.shape[0]
    jbar = float(np.max(np.abs(J).sum(axis=1)))
    return (1.0 - 2.0 * _top_eig(J)) ** 2 * math.exp(-16.0 * jbar) / (4.0 * n)


# -- suite-quick ---------------------------------------------------------


class _VerdictClock(io.StringIO):
    """Stream handed to `run_all`: notes when each verdict line lands,
    so each criterion is timed from the benchmark's side."""

    def __init__(self):
        super().__init__()
        self.marks = []

    def write(self, text):
        if text.startswith(("PASS ", "FAIL ")):
            self.marks.append((time.perf_counter(), text))
        return super().write(text)


class SuiteQuick:
    """`verify.run_all(seed, quick=True, workers=1)`, criterion by criterion."""

    name = "suite-quick"

    def setup(self, seed):
        return {"seed": seed, "lines": None}

    def rep(self, inp, rep):
        clock = _VerdictClock()
        with rep.part("run_all"):
            start = time.perf_counter()
            results, _ = verify.run_all(inp["seed"], quick=True, workers=1,
                                        stream=clock, err=io.StringIO())
        if rep.errors:
            return
        del rep.times["run_all"], rep.raw["run_all"]
        first = inp["lines"]
        if first is None:
            first = inp["lines"] = [line for _, line in clock.marks]
        prev = start
        for i, (res, (mark, line)) in enumerate(zip(results, clock.marks)):
            tag = f"c{res.index:02d}"
            rep.timed(tag, prev, mark)
            prev = mark
            same = line == first[i]
            # a Monte Carlo criterion may miss its sigma gate at some seed;
            # that verdict counts as failed but is still a correct output
            rep.check(tag, res.passed and same, fatal=not same)
        if len(results) != 13 or len(first) != 13:
            rep.check("thirteen verdicts", False)


# -- flow-stream ---------------------------------------------------------


FLOW_DT = 0.05
FLOW_STEPS_N8 = 8
FLOW_STEPS_N7 = 200
RESIDUAL_SIZES = (8, 9, 10)


class FlowStream:
    """Exact flow integration: n = 8 on the stream route, n = 7 on the
    tensor route, and Gibbs stationarity residuals at n = 8, 9, 10."""

    name = "flow-stream"

    def setup(self, seed):
        rng = _rng(seed, 1)
        inp = {}
        for n in (8, 7):
            J = _admissible_coupling(rng, n, 0.05, 0.15)
            ctx = collision.CollisionContext(J, collision.build_transport_kernel("mean-field", n))
            p0 = _interior_density(rng, n)
            inp[f"flow{n}"] = (ctx, p0, _spins(n))
        ctx7, p7, _ = inp["flow7"]
        ctx7.product(p7, p7)  # warm-up: builds the n = 7 tensor operator
        for n in RESIDUAL_SIZES:
            J = _admissible_coupling(rng, n, 0.05, 0.15)
            ctx = collision.CollisionContext(J, collision.build_transport_kernel("mean-field", n))
            h = np.full(n, rng.uniform(-0.5, 0.5))
            inp[f"gibbs{n}"] = (ctx, core.gibbs(J, h))
        return inp

    def rep(self, inp, rep):
        for n, steps in ((8, FLOW_STEPS_N8), (7, FLOW_STEPS_N7)):
            ctx, p0, spins = inp[f"flow{n}"]
            with rep.part(f"evolve.n{n}"):
                traj = dynamics.evolve(ctx, p0, steps * FLOW_DT, FLOW_DT)
                mass = np.abs(traj.states.sum(axis=1) - 1.0).max()
                m = traj.states @ spins
                block = m.mean(axis=1)  # mean-field K: one block of all sites
                rep.check(f"n{n} steps", len(traj.times) == steps + 1)
                rep.check(f"n{n} mass", mass <= 1e-12)
                rep.check(f"n{n} magnetization drift", np.abs(block - block[0]).max() <= 1e-10)
        rep.counts["flow_steps"] = FLOW_STEPS_N8
        for n in RESIDUAL_SIZES:
            ctx, mu = inp[f"gibbs{n}"]
            with rep.part(f"residual.n{n}"):
                rep.check(f"n{n} stationarity", dynamics.stationarity_residual(ctx, mu) <= 1e-12)


# -- shell-walks ---------------------------------------------------------


KAC_SHELL = (2, 8)        # (n, N): N*n = 16
KAC_DECAY = (2, 6)        # N*n = 12, the exponential gate
KAC_WALK = (3, 6)         # N*n = 18 for the event-driven walk
KAC_WALK_T_END = 25_000.0  # about 150k events at total rate N = 6
KAC_SCAN_TRIALS = 50
DU_L = 14
DU_M = 4                  # spin sum of the single-block slice: C(14, 9) = 2002 states
DU_SCAN_TRIALS = 120
DU_FACTOR_TRIALS = 100
DU_TILTS = 300


class ShellWalks:
    """The N-slot exchange system on count shells, and the ball walk on
    L = 14 slices."""

    name = "shell-walks"

    def setup(self, seed):
        rng = _rng(seed, 3)
        n, N = KAC_SHELL
        J2 = _admissible_coupling(rng, n, 0.08, 0.15)
        inp = {"seed": seed, "J2": J2, "K2": collision.build_transport_kernel("mean-field", n),
               "alpha2": _flow_rate_bound(J2), "decay_start": float(rng.uniform())}
        n3, N3 = KAC_WALK
        J3 = _admissible_coupling(rng, n3, 0.08, 0.15)
        ctx3 = collision.CollisionContext(J3, collision.build_transport_kernel("mean-field", n3))
        T3 = (N3 * n3 // 2,)
        inp["walk"] = (ctx3, T3, kac.multicanonical_measure(J3, None, N3, ctx3.blocks, T3))
        lam1 = _admissible_coupling(rng, DU_L, 0.1, 0.15)
        inp["du1"] = downup.single_block_instance(DU_L, DU_M, lam1, rng.normal(0.0, 0.4, DU_L))
        blocks = (tuple(range(0, 5)), tuple(range(5, 10)), tuple(range(10, 14)))
        lam2 = _admissible_coupling(rng, DU_L, 0.1, 0.15)
        inp["du2"] = downup.DuInstance(DU_L, lam2, rng.normal(0.0, 0.4, DU_L), blocks, (1, -1, 0))
        return inp

    def rep(self, inp, rep):
        seed = inp["seed"]
        J2, K2, alpha2 = inp["J2"], inp["K2"], inp["alpha2"]
        blocks2 = ((0, 1),)
        n, N = KAC_SHELL
        with rep.part("kac.shell16"):
            meas = kac.multicanonical_measure(J2, None, N, blocks2, (N * n // 2,))
            rep.check("shell16 states", meas.codes.size == comb(N * n, N * n // 2))
            kac.transition_table(meas, K2)
            scan = kac.particle_mlsi_scan(meas, K2, KAC_SCAN_TRIALS, _rng(seed, 31))
            rep.check("shell16 scan >= alpha", scan.min_ratio >= alpha2)
        n, N = KAC_DECAY
        with rep.part("kac.decay12"):
            meas = kac.multicanonical_measure(J2, None, N, blocks2, (N * n // 2,))
            nu0 = np.zeros(meas.codes.size)
            nu0[int(inp["decay_start"] * meas.codes.size)] = 1.0
            t = np.linspace(0.0, 60.0, 25)
            H = kac.particle_entropy_decay(meas, K2, nu0, t)
            rep.check("decay under envelope",
                      np.all(H <= H[0] * np.exp(-alpha2 * t) * (1.0 + 1e-9)))
        ctx3, T3, meas3 = inp["walk"]
        with rep.part("kac.simulate"):
            run = kac.simulate_particles(ctx3, KAC_WALK[1], T3, KAC_WALK_T_END, _rng(seed, 32),
                                         record_occupation=True)
            plus = sum(bin(int(s)).count("1") for s in run.final_state)
            rep.check("walk keeps shell counts", plus == T3[0])
            rep.check("walk made events", run.events > 0)
            rep.counts["kac_events"] = run.events
        with rep.part("kac.occupation"):
            kac.occupation_tv(meas3, run)
        inst1, inst2 = inp["du1"], inp["du2"]
        c1 = 1.0 - 2.0 * _top_eig(inst1.lam_matrix)
        with rep.part("downup.scan"):
            meas1 = downup.du_measure(inst1)
            rep.check("slice states", meas1.codes.size == comb(DU_L, (DU_L + DU_M) // 2))
            downup.du_transitions(meas1)
            scan1 = downup.du_mlsi_scan(meas1, DU_SCAN_TRIALS, _rng(seed, 33))
            rep.check("slice scan >= 1 - 2 lam", scan1.min_ratio >= c1)
        with rep.part("downup.factorization"):
            meas2 = downup.du_measure(inst2)
            fact = downup.factorization_check(meas2, DU_FACTOR_TRIALS, _rng(seed, 34))
            rep.check("factorization >= 1 - 2 lam",
                      fact.min_ratio >= 1.0 - 2.0 * _top_eig(inst2.lam_matrix))
        with rep.part("downup.covariance"):
            cov = downup.cov_bound_check(inst1, DU_TILTS, _rng(seed, 35))
            rep.check("covariance <= 2 / (1 - 2 lam)", cov.max_eigenvalue <= 2.0 / c1 + 1e-9)


WORKLOADS = {w.name: w for w in (SuiteQuick(), FlowStream(), ShellWalks())}
