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
generator is their sum over balls. One sort per block groups the
states (`_groups`): the walk reads its edges and rates off the
ball-removal groups, and every conditional entropy of the block and
ball factorizations is a vector operation over a grouping. The walk's
entropy-production constants, the entropy factorization across blocks,
the tilted covariance bound, and the negative-correlation property of
the zero-interaction case are all checkable exactly at small L, and so
is its comparison with the exchange walk of `kac`, edge by edge
(`bridge_check`).

Enumeration is gated at L <= 20 and spectral gaps and slow modes at
L <= 16 (12,870 states on a one-block slice), where the Lanczos slow
mode takes 0.2-0.5 s. The block factorization groups each block's
conditional laws once per call; on a three-block L = 14 slice (600
states) 100 test functions took 0.018 s against 0.48 s with one
`entropy_functional` call per group (one BLAS thread, 2-CPU x86-64).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ReversibleChain,
    check_interaction,
    check_partition,
    covariance,
    eigen_bounds,
    entropy_ratio_scan,
    sample_test_function,
    site_mask,
    slice_codes,
    spins_of,
    weak_coupling,
)
from .errors import CapacityError
from .kac import transition_table

ENUMERATION_GATE = 20
SPECTRAL_GATE = 16


@dataclass(frozen=True)
class DuInstance:
    """A slice-constrained Ising system: sites, couplings, fields,
    conserved blocks and their spin sums. Couplings or fields given as
    None are zero; they are built once L is checked."""

    L: int
    lam_matrix: np.ndarray
    w: np.ndarray
    blocks: tuple
    M: tuple

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"need L >= 1 sites, got {self.L}")
        lam = np.zeros((self.L, self.L)) if self.lam_matrix is None else self.lam_matrix
        lam = check_interaction(lam, self.L)
        w = np.zeros(self.L) if self.w is None else np.asarray(self.w, dtype=float)
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


def contiguous_blocks(sizes):
    """The partition of range(sum(sizes)) into runs of consecutive sites
    of the given sizes, in order."""
    ends = itertools.accumulate(sizes)
    return tuple(tuple(range(end - size, end)) for size, end in zip(sizes, ends))


def single_block_instance(L, M, lam_matrix=None, w=None):
    return DuInstance(L, lam_matrix, w, (tuple(range(L)),), (M,))


@dataclass
class DuMeasure:
    inst: DuInstance
    codes: np.ndarray
    probs: np.ndarray
    logw: np.ndarray
    spins: np.ndarray  # (states, L) floats, +-1


def _normalized(inst, codes, logw, spins):
    probs = np.exp(logw - logw.max())
    probs /= probs.sum()
    return DuMeasure(inst, codes, probs, logw, spins)


def du_measure(inst):
    L = inst.L
    if L > ENUMERATION_GATE:
        raise CapacityError(f"slice enumeration gated at L <= {ENUMERATION_GATE}")
    codes = slice_codes(L, [site_mask(b) for b in inst.blocks], inst.balls)
    spins = spins_of(codes, L)
    logw = 0.5 * np.einsum("si,ij,sj->s", spins, inst.lam_matrix, spins) + spins @ inst.w
    return _normalized(inst, codes, logw, spins)


def tilt(meas, v):
    """Reweight by exp(<v, spins>) on the same slice."""
    logw = meas.logw + meas.spins @ np.asarray(v, dtype=float)
    return _normalized(meas.inst, meas.codes, logw, meas.spins)


def _groups(keys, rows):
    """Group entries with equal key in one sort, as a (groups, k) matrix
    of state rows: groups in key order and the rows of each group in
    entry order (entry e stands for state rows[e]). Every group must
    have the same size: the groups of block b have C(|b|, balls_b)
    members and its ball-removal groups |b| - balls_b + 1."""
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    sizes = np.diff(starts, append=keys.size)
    k = int(sizes[0]) if sizes.size else 0
    if np.any(sizes != k):
        raise RuntimeError(f"conditional groups of unequal sizes {sorted(set(sizes.tolist()))}")
    return rows[order].reshape(starts.size, k)


def _ball_groups(meas, b):
    """The ball-removal groups of block b as a (groups, k) matrix of state
    rows, ascending along each row (`_groups`): removing the ball at site
    l of a state leaves the key code & ~(1 << l), and its group holds the
    k = |b| - balls_b + 1 states that put the ball back on a site of b."""
    rows, at = np.nonzero(meas.spins[:, list(b)] > 0)
    return _groups(meas.codes[rows] & ~(1 << np.array(b)[at]), rows)


def du_transitions(meas):
    """The walk as a chain reversible for the slice measure, one entry per
    edge, read off the ball-removal groups: a ringing ball resamples its
    site from the slice law conditioned on its group, so every pair of
    members s < d of a group is an edge, moving one ball, with rate
    exp(logw[d] - top) / mass, where top is the group's largest
    log-weight and mass its sum of exp(logw - top), added left to right
    (a row sum would add pairwise); no weight is taken unshifted. Edges
    come per block, ordered by the site pair i < j the ball moves
    across, as itertools.combinations lists them, then by src."""
    codes, logw = meas.codes, meas.logw
    srcs, dsts, rates = [], [], []
    for b in meas.inst.blocks:
        idx = _ball_groups(meas, b)
        if idx.shape[1] < 2:  # a block without balls or without holes
            continue
        lw = logw[idx]
        weight = np.exp(lw - lw.max(axis=1, keepdims=True))
        mass = np.cumsum(weight, axis=1)[:, -1:]
        a, c = np.triu_indices(idx.shape[1], 1)
        src, dst = idx[:, a].ravel(), idx[:, c].ravel()
        rate = (weight[:, c] / mass).ravel()
        # The ball moves between sites i < j: codes[src] & ~codes[dst] is
        # 1 << i and codes[dst] & ~codes[src] is 1 << j. Groups come in key
        # order and src = key | 1 << i, so the edges of one site pair are
        # already in src order, and one stable sort by pair (radix, on
        # int16) puts the pairs in itertools.combinations order.
        i = np.bitwise_count((codes[src] & ~codes[dst]) - 1).astype(np.int16)
        j = np.bitwise_count((codes[dst] & ~codes[src]) - 1)
        order = np.argsort(i * meas.inst.L + j, kind="stable")
        srcs.append(src[order])
        dsts.append(dst[order])
        rates.append(rate[order])
    return ReversibleChain.from_moves(srcs, dsts, rates, meas.probs, meas.logw)


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
        probes = [1.0 + eps * g for eps in (1e-2, 1e-3)]
    functions = itertools.chain(
        (sample_test_function(size, trial, rng) for trial in range(trials)), probes
    )
    scan = entropy_ratio_scan(meas.probs, functions, lambda F: tab.dirichlet(F, np.log(F)))
    scan.gap = gap
    return scan


# -- entropy factorization ---------------------------------------------
#
# Each conditional law below is one row of a grouping, and every
# expected conditional entropy is a few vector operations over all rows
# at once. The bits are those of one `entropy_functional` call per
# group added with `total += ...`: `np.vecdot` gives each row `q @ F`
# exactly (an einsum or a row sum of q * F does not), each mean takes
# `math.log` (not `np.log`), and the weighted terms are added left to
# right by one cumsum.


def _conditionals(probs, idx):
    """(mass, q, idx) of a grouping: q is the conditional law on each row
    of idx and mass the group masses. Groups without mass are dropped."""
    p = probs[idx]
    mass = p.sum(axis=1)
    keep = mass > 0
    return mass[keep], p[keep] / mass[keep, None], idx[keep]


def _entropies(q, idx, F):
    """Ent of F under each conditional law, one per row (0 log 0 = 0)."""
    if np.min(F) < 0:
        raise ValueError("entropy functional needs a nonnegative function")
    Fg = F[idx]
    mean = np.vecdot(q, Fg)
    positive = np.where(mean > 0.0, mean, 1.0).tolist()
    log_mean = np.fromiter(map(math.log, positive), float, len(positive))
    return (q * Fg * np.log(np.where(Fg > 0.0, Fg, 1.0))).sum(axis=1) - mean * log_mean


def _covariances(q, idx, F, G):
    """Cov(F, G) under each conditional law, one per row."""
    return np.vecdot(q, (F * G)[idx]) - np.vecdot(q, F[idx]) * np.vecdot(q, G[idx])


def _running_sum(terms):
    """The terms added left to right, as a `total += term` loop does."""
    return float(np.cumsum(np.r_[0.0, terms])[-1])


def block_factorization(meas):
    """The map F -> sum over blocks of nu[Ent of F inside the block given
    the rest], with each block's grouping built once."""
    rows = np.arange(meas.codes.size)
    groupings = [_conditionals(meas.probs, _groups(meas.codes & ~site_mask(b), rows))
                 for b in meas.inst.blocks]
    return lambda F: _running_sum(
        np.concatenate([mass * _entropies(q, idx, F) for mass, q, idx in groupings]))


def factorization_check(meas, trials, rng):
    """min over sampled F of the block-factorization sum over Ent, as a
    `RatioScan`."""
    size = meas.codes.size
    functions = (sample_test_function(size, trial, rng) for trial in range(trials))
    return entropy_ratio_scan(meas.probs, functions, block_factorization(meas))


def _ball_conditionals(meas):
    """The conditionals of the slice law given all balls but one, one
    per ball-removal group (single-block slices)."""
    if len(meas.inst.blocks) != 1:
        raise ValueError("ball coordinates are defined for single-block slices")
    return _conditionals(meas.probs, _ball_groups(meas, meas.inst.blocks[0]))


def ball_factorization_value(meas, F):
    """sum over ball coordinates of the expected conditional entropy of
    F given the positions of all other balls (single-block slices)."""
    mass, q, idx = _ball_conditionals(meas)
    return _running_sum(mass * _entropies(q, idx, F))


def ball_dirichlet_value(meas, F, G):
    """sum over ball coordinates of the expected conditional covariance;
    equals the walk's Dirichlet form on the slice."""
    mass, q, idx = _ball_conditionals(meas)
    return _running_sum(mass * _covariances(q, idx, F, G))


def jensen_residual(meas, F):
    """max over ball-removal groups of Ent minus Cov(F, log F) under the
    conditional; nonpositive up to rounding."""
    _, q, idx = _ball_conditionals(meas)
    residual = _entropies(q, idx, F) - _covariances(q, idx, F, np.log(F))
    return float(residual.max(initial=-math.inf))


# -- covariance and correlation checks ---------------------------------


@dataclass
class CovReport:
    max_eigenvalue: float
    bound: float
    samples: int


def cov_bound_check(inst, tilt_samples, rng):
    """max eigenvalue of the covariance over random and extreme tilts,
    against `WeakCoupling.cov_bound`, 2/(1 - 2 lam). ValueError when the
    coupling fails the hypothesis or `tilt_samples` is negative."""
    if tilt_samples < 0:
        raise ValueError(f"need tilt_samples >= 0, got tilt_samples = {tilt_samples}")
    coupling = weak_coupling(inst.lam_matrix)
    if not coupling.applicable:
        raise ValueError(f"no covariance bound: {coupling.reason}")
    meas = du_measure(inst)
    tilts = [np.zeros(inst.L)]
    for _ in range(tilt_samples):
        scale = float(rng.choice([0.3, 1.0, 3.0]))
        tilts.append(scale * rng.standard_normal(inst.L))
    tilts += [s * e for e in np.eye(inst.L) for s in (30.0, -30.0)]  # one site pinned each
    tilted = (tilt(meas, v) for v in tilts)
    worst = max(eigen_bounds(covariance(q.probs, q.spins))[1] for q in tilted)
    return CovReport(worst, coupling.cov_bound, len(tilts))


def negcorr_max_offdiag(meas):
    """max off-diagonal covariance entry; for zero interaction the slice
    law is a conditioned product, which is negatively correlated."""
    if np.any(meas.inst.lam_matrix != 0.0):
        raise ValueError("negative correlation is claimed for zero interaction only")
    cov = covariance(meas.probs, meas.spins)
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
    min_ratio: float
    constant: float
    edges: int


def bridge_check(particle_measure, du_meas):
    """min over ball-walk edges of the all-pairs exchange rate over the
    ball-walk rate, against c = `WeakCoupling.comparison`. Both Dirichlet
    forms sum pi(x) q(x, y) (F(y) - F(x)) (log F(y) - log F(x)) over
    edges, each term nonnegative, so min_ratio >= c proves the exchange
    form >= c times the ball-walk form for every positive F (Diaconis and
    Saloff-Coste, Ann. Appl. Probab. 3, 1993).

    Both measures must carry the same law on the same codes (slot i of
    the exchange system at bits [i*n, (i+1)*n), the slice's flat site
    layout). Each table holds an edge once, src < dst, so matching them
    is one sort of unique keys; every ball move must be an exchange.
    """
    if not (np.array_equal(particle_measure.codes, du_meas.codes)
            and np.allclose(particle_measure.probs, du_meas.probs, rtol=1e-9, atol=0.0)):
        raise ValueError("slice and slot-system state spaces differ or carry different laws")
    kac_tab = transition_table(particle_measure, None)
    ball = du_transitions(du_meas)
    size = du_meas.codes.size
    _, at, of = np.intersect1d(kac_tab.src * size + kac_tab.dst, ball.src * size + ball.dst,
                               assume_unique=True, return_indices=True)
    if of.size < ball.src.size:
        raise ValueError("a ball move is not an exchange of the slot system")
    ratio = kac_tab.rate[at] / ball.rate[of]
    inst = du_meas.inst
    return BridgeReport(float(ratio.min(initial=math.inf)),
                        weak_coupling(inst.lam_matrix).comparison(inst.w), ratio.size)
