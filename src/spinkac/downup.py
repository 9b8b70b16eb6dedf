"""Ball-relocation walks on fixed-magnetization slices of an Ising cube.

A configuration on L sites with a prescribed spin sum per block is read
as balls (plus spins) on sites. Each ball carries a rate-1 clock; when
it rings, the ball jumps to a vacancy in its own block (possibly back
to its own site), chosen with probability proportional to the weight of
the resulting configuration. So the ball resamples its site from the
slice law conditioned on where all other balls sit: removing it leaves
a key code, and the states that put it back on a site of its block form
its ball-removal group. Each such resampling is reversible for the
conditioned Ising measure on the slice, and so is the walk, whose
generator is their sum over balls. Its entropy-production constants, the
entropy factorization across blocks, the tilted covariance bound, and
the negative-correlation property of the zero-interaction case are all
checkable exactly at small L.

Enumeration is gated at L <= 20 and spectral gaps and slow modes at
L <= 16 (12,870 states on a one-block slice), where the Lanczos slow
mode takes 0.2-0.5 s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ReversibleChain,
    check_partition,
    eigen_bounds,
    entropy_functional,
    entropy_ratio_scan,
    interaction_condition,
    interaction_row_norm,
    sample_test_function,
    site_mask,
    slice_codes,
    swap_moves,
)
from .errors import CapacityError
from .kac import dirichlet_form

ENUMERATION_GATE = 20
SPECTRAL_GATE = 16


def _check_sym(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class DuInstance:
    """A slice-constrained Ising system: sites, couplings, fields,
    conserved blocks and their spin sums."""

    L: int
    lam_matrix: np.ndarray
    w: np.ndarray
    blocks: tuple
    M: tuple

    def __post_init__(self):
        lam = _check_sym(self.lam_matrix, "interaction matrix")
        if lam.shape[0] != self.L:
            raise ValueError("interaction matrix size must match the site count")
        w = np.asarray(self.w, dtype=float)
        if w.shape != (self.L,):
            raise ValueError("field vector size must match the site count")
        blocks = check_partition(self.blocks, self.L)
        M = tuple(int(m) for m in self.M)
        if len(M) != len(blocks):
            raise ValueError("one spin sum per block required")
        for b, m in zip(blocks, M):
            if (len(b) + m) % 2 != 0:
                raise ValueError(
                    f"block {tuple(x + 1 for x in b)}: size {len(b)} and spin sum {m} "
                    "have different parity, the slice is empty"
                )
            if abs(m) > len(b):
                raise ValueError(f"spin sum {m} impossible for a block of {len(b)} sites")
        object.__setattr__(self, "lam_matrix", lam)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "M", M)

    @property
    def balls(self):
        """number of plus spins per block"""
        return tuple((len(b) + m) // 2 for b, m in zip(self.blocks, self.M))


def single_block_instance(L, M, lam_matrix=None, w=None):
    lam = np.zeros((L, L)) if lam_matrix is None else lam_matrix
    wv = np.zeros(L) if w is None else w
    return DuInstance(L, lam, wv, (tuple(range(L)),), (M,))


@dataclass
class DuMeasure:
    inst: DuInstance
    codes: np.ndarray
    probs: np.ndarray
    logw: np.ndarray
    spins: np.ndarray  # (states, L) floats, +-1

    def mean(self):
        return self.probs @ self.spins

    def covariance(self):
        m = self.mean()
        centered = self.spins - m
        return (centered * self.probs[:, None]).T @ centered


def _normalized(inst, codes, logw, spins):
    probs = np.exp(logw - logw.max())
    probs /= probs.sum()
    return DuMeasure(inst, codes, probs, logw, spins)


def du_measure(inst):
    L = inst.L
    if L > ENUMERATION_GATE:
        raise CapacityError(f"slice enumeration gated at L <= {ENUMERATION_GATE}")
    codes = slice_codes(L, [site_mask(b) for b in inst.blocks], inst.balls)
    spins = 2.0 * ((codes[:, None] >> np.arange(L)) & 1).astype(float) - 1.0
    logw = 0.5 * np.einsum("si,ij,sj->s", spins, inst.lam_matrix, spins) + spins @ inst.w
    return _normalized(inst, codes, logw, spins)


def tilt(meas, v):
    """Reweight by exp(<v, spins>) on the same slice."""
    logw = meas.logw + meas.spins @ np.asarray(v, dtype=float)
    return _normalized(meas.inst, meas.codes, logw, meas.spins)


def _log_weight_of(inst, code):
    s = 2.0 * ((code >> np.arange(inst.L)) & 1) - 1.0
    return 0.5 * float(s @ inst.lam_matrix @ s) + float(s @ inst.w)


def du_rate(meas, code, i, j):
    """Jump rate from one configuration to its (i, j) ball move; zero
    unless site i holds a ball, site j a hole, and both share a block."""
    inst = meas.inst
    if not ((code >> i) & 1) or ((code >> j) & 1 and j != i):
        return 0.0
    bi = next(b for b in inst.blocks if i in b)
    if j not in bi:
        return 0.0
    avail = [k for k in bi if not ((code >> k) & 1)] + [i]
    logs = np.array([_log_weight_of(inst, code ^ ((1 << i) | (1 << k)) if k != i else code) for k in avail])
    target = _log_weight_of(inst, code ^ ((1 << i) | (1 << j)) if j != i else code)
    shift = logs.max()
    return float(np.exp(target - shift) / np.exp(logs - shift).sum())


def _ball_removals(meas):
    """(rows, keys), one entry per (state, ball) pair: the state's position
    and its code with that ball removed."""
    rows, sites = np.nonzero((meas.codes[:, None] >> np.arange(meas.inst.L)) & 1)
    return rows, meas.codes[rows] & ~(1 << sites)


def du_transitions(meas):
    """The walk as a chain reversible for the slice measure, one entry per
    edge. Removing a ball leaves a key code; the states that put it back
    on a site of its block form the ball-removal group of that key, and a
    ringing ball resamples its site from the slice law conditioned on its
    group. So the edge s -> d, which moves one ball, has rate
    exp(logw[d] - top) / mass, where the group is keyed by
    codes[s] & codes[d], top is its largest log-weight and mass its sum
    of exp(logw - top); no weight is taken unshifted."""
    codes, logw = meas.codes, meas.logw
    rows, keys = _ball_removals(meas)
    groups, member = np.unique(keys, return_inverse=True)
    top = np.full(groups.size, -np.inf)
    np.maximum.at(top, member, logw[rows])
    mass = np.bincount(member, np.exp(logw[rows] - top[member]), groups.size)
    srcs, dsts, rates = [], [], []
    for b in meas.inst.blocks:
        for i, j in itertools.combinations(b, 2):
            src, dst = swap_moves(codes, i, j)
            g = np.searchsorted(groups, codes[src] & codes[dst])
            srcs.append(src)
            dsts.append(dst)
            rates.append(np.exp(logw[dst] - top[g]) / mass[g])
    return ReversibleChain.from_moves(srcs, dsts, rates, meas.probs)


def spectral_gap(meas):
    """Minus the second-largest eigenvalue of the walk's generator; 0 on
    a one-state slice."""
    if meas.inst.L > SPECTRAL_GATE:
        raise CapacityError(f"spectral gaps gated at L <= {SPECTRAL_GATE}")
    if meas.codes.size < 2:
        return 0.0
    gap, _ = du_transitions(meas).slow_mode()
    return gap


# -- scans --------------------------------------------------------------


def du_constants(inst):
    """(single-walk constant, multicomponent constant, applicable)."""
    _, lam, reason = interaction_condition(inst.lam_matrix)
    c1 = 1.0 - 2.0 * lam
    return c1, c1 * c1, not reason


def du_mlsi_scan(meas, trials, rng):
    """Minimum of Dirichlet(F, log F) / Ent(F) over random positive F, as
    a `RatioScan`; within the spectral gate it also probes the slowest
    mode and carries the spectral gap."""
    tab = du_transitions(meas)
    size = meas.codes.size
    gap = None
    probes = []
    if meas.inst.L <= SPECTRAL_GATE and size > 1:
        # On 1 + eps * g, with g the slowest mode, the ratio approaches
        # twice the spectral gap, its infimum over this family; the
        # probes make `min_ratio <= 2 * gap + tol` a checkable ordering
        # (random sampling alone only produces upper bounds on the true
        # constant, so it can land anywhere above it).
        gap, g = tab.slow_mode()
        g = g / np.abs(g).max()
        probes = [1.0 + eps * g for eps in (1e-2, 1e-3)]
    functions = itertools.chain(
        (sample_test_function(size, trial, rng) for trial in range(trials)), probes
    )
    scan = entropy_ratio_scan(meas.probs, functions, lambda F: tab.dirichlet(F, np.log(F)))
    scan.gap = gap
    return scan


# -- entropy factorization ---------------------------------------------


def _conditionals(probs, keys, rows):
    """Yield (mass, conditional law, rows) for each group of entries with
    equal key, in key order; entry e stands for state rows[e], and the
    rows of a group keep their order. Groups without mass are skipped."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    rows = rows[order]
    bounds = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])
    for a, b in zip(bounds[:-1], bounds[1:]):
        p = probs[rows[a:b]]
        mass = p.sum()
        if mass > 0:
            yield mass, p / mass, rows[a:b]


def block_factorization_value(meas, F):
    """sum over blocks of nu[Ent of F inside the block given the rest]."""
    rows = np.arange(meas.codes.size)
    total = 0.0
    for b in meas.inst.blocks:
        keys = meas.codes & ~site_mask(b)
        for mass, q, idx in _conditionals(meas.probs, keys, rows):
            total += mass * entropy_functional(q, F[idx])
    return total


def factorization_check(meas, trials, rng):
    """min over sampled F of the block-factorization sum over Ent, as a
    `RatioScan`."""
    size = meas.codes.size
    functions = (sample_test_function(size, trial, rng) for trial in range(trials))
    return entropy_ratio_scan(meas.probs, functions, lambda F: block_factorization_value(meas, F))


def _ball_conditionals(meas):
    """The conditionals of the slice law given all balls but one, one
    group per (state, ball) pair keyed by the code with that ball
    removed (single-block slices)."""
    if len(meas.inst.blocks) != 1:
        raise ValueError("ball coordinates are defined for single-block slices")
    rows, keys = _ball_removals(meas)
    return _conditionals(meas.probs, keys, rows)


def ball_factorization_value(meas, F):
    """sum over ball coordinates of the expected conditional entropy of
    F given the positions of all other balls (single-block slices)."""
    groups = _ball_conditionals(meas)
    return sum((mass * entropy_functional(q, F[idx]) for mass, q, idx in groups), 0.0)


def _covariance(q, F, G):
    return float(q @ (F * G)) - float(q @ F) * float(q @ G)


def ball_dirichlet_value(meas, F, G):
    """sum over ball coordinates of the expected conditional covariance;
    equals the walk's Dirichlet form on the slice."""
    groups = _ball_conditionals(meas)
    return sum((mass * _covariance(q, F[idx], G[idx]) for mass, q, idx in groups), 0.0)


def jensen_residual(meas, F):
    """max over ball-removal groups of Ent minus Cov(F, log F) under the
    conditional; nonpositive up to rounding."""
    groups = _ball_conditionals(meas)
    logF = np.log(F)
    return max(
        (entropy_functional(q, F[idx]) - _covariance(q, F[idx], logF[idx]) for _, q, idx in groups),
        default=-math.inf,
    )


# -- covariance and correlation checks ---------------------------------


@dataclass
class CovReport:
    max_eigenvalue: float
    bound: float
    regularized: bool
    samples: int
    worst_tilt: np.ndarray


def cov_bound_check(inst, tilt_samples, rng):
    """max eigenvalue of the covariance over random and extreme tilts,
    against 2/(1 - 2 lam). Semidefinite interactions are nudged to
    positive definite by +1e-9 on the diagonal."""
    lo, lam = eigen_bounds(inst.lam_matrix)
    if lam >= 0.5:
        raise ValueError(f"top eigenvalue {lam} >= 1/2, no covariance bound")
    if lo < -1e-10:
        raise ValueError("interaction matrix must be nonnegative definite")
    regularized = lo < 1e-12
    if regularized:
        inst = DuInstance(
            inst.L, inst.lam_matrix + 1e-9 * np.eye(inst.L), inst.w, inst.blocks, inst.M
        )
        _, lam = eigen_bounds(inst.lam_matrix)
    meas = du_measure(inst)
    bound = 2.0 / (1.0 - 2.0 * lam)
    tilts = [np.zeros(inst.L)]
    for _ in range(tilt_samples):
        scale = float(rng.choice([0.3, 1.0, 3.0]))
        tilts.append(scale * rng.standard_normal(inst.L))
    for i in range(inst.L):
        for s in (30.0, -30.0):
            v = np.zeros(inst.L)
            v[i] = s
            tilts.append(v)
    worst = -math.inf
    worst_v = tilts[0]
    for v in tilts:
        _, top = eigen_bounds(tilt(meas, v).covariance())
        if top > worst:
            worst = top
            worst_v = v
    return CovReport(worst, bound, regularized, len(tilts), np.asarray(worst_v))


def negcorr_max_offdiag(meas):
    """max off-diagonal covariance entry; for zero interaction the slice
    law is a conditioned product, which is negatively correlated."""
    if np.any(meas.inst.lam_matrix != 0.0):
        raise ValueError("negative correlation is claimed for zero interaction only")
    cov = meas.covariance()
    return float(cov[~np.eye(meas.inst.L, dtype=bool)].max())


# -- correspondence with the N-slot exchange system --------------------


def particle_shaped_instance(J, h, N, T):
    """The L = N*n single-slice system whose conditioned measure matches
    the N-slot conditioned product: block-diagonal interaction, the
    field h repeated slot by slot."""
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    L = N * n
    lam = np.kron(np.eye(N), J)
    w = np.zeros(L) if h is None else np.tile(np.asarray(h, dtype=float), N)
    M = 2 * int(T) - L
    return single_block_instance(L, M, lam, w)


@dataclass
class BridgeReport:
    min_margin: float
    constant: float
    samples: int


def bridge_check(particle_measure, du_meas, trials, rng):
    """The all-pairs exchange form dominates c = (1/4) e^{-8(Jbar+hbar)}
    times the ball-walk form, sampled over positive F.

    Both measures must enumerate the same slice (identical codes); the
    exchange system's slot layout puts slot i at bits [i*n, (i+1)*n),
    matching the flat site layout of the slice.
    """
    if not np.array_equal(particle_measure.codes, du_meas.codes):
        raise ValueError("slice and slot-system state spaces differ")
    n = particle_measure.n
    J = du_meas.inst.lam_matrix[:n, :n]
    jb = interaction_row_norm(J)
    hb = float(np.max(np.abs(du_meas.inst.w))) if du_meas.inst.w.size else 0.0
    const = 0.25 * math.exp(-8.0 * (jb + hb))
    tab = du_transitions(du_meas)
    size = du_meas.codes.size
    worst = math.inf
    for trial in range(trials):
        F = sample_test_function(size, trial, rng)
        logF = np.log(F)
        lhs = dirichlet_form(particle_measure, F, logF, kernel=None)
        rhs = const * tab.dirichlet(F, logF)
        worst = min(worst, lhs - rhs)
    return BridgeReport(worst, const, trials)
