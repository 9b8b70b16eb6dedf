"""States, measures and information functionals on the discrete cube.

Conventions used across the package:

* A configuration of ``n`` two-valued sites is an integer bitmask.
  Bit ``l`` (0-based) holds site ``l``; the spin value is ``2*bit - 1``,
  so a set bit means spin ``+1``.
* A probability vector ("density") is a 1-D float64 array of length
  ``2**n`` indexed by mask.
* A site partition is a tuple of disjoint, covering tuples of 0-based
  site indices. Per-block quantities are reported in block order.
* A conserved state space (a count shell of N slots, a fixed-magnetization
  slice) is a "code array": a sorted 1-D int64 array of bitmask codes,
  each with a fixed number of set bits inside every block mask. States
  are numbered by their position in it, `code_index` maps codes back to
  positions, and `swap_moves` lists each two-bit exchange that stays in it
  once, as an edge from the lower code to the higher.
* A reversible jump chain (`ReversibleChain`) keeps one entry per
  undirected edge: ``src < dst`` and ``rate = q(src -> dst)``. The
  reverse rate follows from reversibility,
  ``q(dst -> src) = rate * exp(logw[src] - logw[dst])``, taken from the
  log-weights so that it stays finite where the probabilities underflow.

Dense enumeration is gated at ``n <= 24`` sites.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConvergenceError, DegenerateProfileError, FitError

N_MAX = 24

_CHUNK = 1 << 20

PROBVEC_TOL = 1e-12      # mass and negativity slack of a density
BOUNDARY_TOL = 1e-12     # how close to +-1 a block magnetization may come
FIELD_TOL = 1e-10        # max-norm residual of the block-mean solve
FIELD_MAX_ITER = 200     # damped Newton iterations of the block-mean solve
LANCZOS_STATES = 250     # slow modes of larger chains come from Lanczos, not dense eigh


def check_sites(n):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"site count must be a positive integer, got {n!r}")
    if n > N_MAX:
        raise CapacityError(f"n = {n} exceeds the dense-enumeration gate n <= {N_MAX}")
    return int(n)


def spins_of(codes, width):
    """Spin values of bitmask codes as float64, S[..., l] = 2 * bit l - 1:
    shape (len(codes), width) for an array of codes, (width,) for one."""
    codes = np.asarray(codes, dtype=np.int64)
    return ((codes[..., None] >> np.arange(width)) & 1).astype(np.float64) * 2.0 - 1.0


def check_interaction(J, n=None):
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError(f"interaction matrix must be square, got shape {J.shape}")
    if n is not None and J.shape[0] != n:
        raise ValueError(f"interaction matrix is {J.shape[0]}x{J.shape[0]}, expected n = {n}")
    if not np.isfinite(J).all():
        raise ValueError(f"interaction matrix entries must be finite, got {J[~np.isfinite(J)]}")
    ij = np.unravel_index(np.argmax(np.abs(J - J.T)), J.shape)
    if abs(J[ij] - J.T[ij]) > 1e-12:
        raise ValueError(
            f"interaction matrix not symmetric at ({ij[0] + 1}, {ij[1] + 1}): "
            f"{J[ij]} vs {J[ij[1], ij[0]]}"
        )
    return J


def interaction_row_norm(J):
    """max_i sum_j |J_ij| (the coupling strength entering all rate bounds)."""
    J = np.asarray(J, dtype=float)
    return float(np.max(np.sum(np.abs(J), axis=1))) if J.size else 0.0


def eigen_bounds(a):
    """Smallest and largest eigenvalue of a symmetric matrix."""
    eigs = np.linalg.eigvalsh(np.asarray(a, dtype=float))
    return float(eigs[0]), float(eigs[-1])


@dataclass(frozen=True)
class WeakCoupling:
    """The rate theorem's hypothesis for a coupling J on n sites, J >= 0
    and lam = lam_max(J) < 1/2 (`reason` names the part that fails, else
    it is empty), with Jbar the row norm of J, and the constants that the
    hypothesis gives (None where it fails). Built by `weak_coupling`."""

    n: int
    lam: float
    jbar: float
    reason: str

    @property
    def applicable(self):
        return not self.reason

    @property
    def single_block(self):
        """1 - 2 lam: the ball walk's constant on one block, and the block factorization's."""
        return None if self.reason else 1.0 - 2.0 * self.lam

    @property
    def multi_block(self):
        """(1 - 2 lam)^2: the ball walk's constant on several blocks."""
        c1 = self.single_block
        return None if c1 is None else c1 * c1

    @property
    def alpha(self):
        """(1 - 2 lam)^2 exp(-16 Jbar) / (4n): the flow's entropy-decay rate."""
        c1 = self.single_block
        return None if c1 is None else c1 ** 2 * math.exp(-16.0 * self.jbar) / (4.0 * self.n)

    @property
    def cov_bound(self):
        """2 / (1 - 2 lam): the bound on every tilted covariance eigenvalue."""
        return None if self.reason else 2.0 / self.single_block

    def comparison(self, h):
        """(1/4) exp(-8 (Jbar + max |h|)), h None meaning no field: the least
        all-pairs exchange rate over the ball-relocation rate of the same
        move. It needs no hypothesis."""
        hbar = 0.0 if h is None else float(np.max(np.abs(h), initial=0.0))
        return 0.25 * math.exp(-8.0 * (self.jbar + hbar))

    def mean_field_alpha(self, h):
        """(1 - 2 lam) `comparison(h)`: the all-pairs exchange walk's rate."""
        return None if self.reason else self.single_block * self.comparison(h)


def weak_coupling(J):
    """The `WeakCoupling` record of a symmetric coupling matrix J."""
    J = check_interaction(J)
    lo, lam = eigen_bounds(J)
    reason = (f"J has negative eigenvalue {lo}" if lo < -1e-10
              else f"largest eigenvalue {lam} >= 1/2" if lam >= 0.5 else "")
    return WeakCoupling(J.shape[0], lam, interaction_row_norm(J), reason)


def log_gibbs_weights(J, h=None):
    """Unnormalized log-weights 0.5*<s, J s> + <h, s> for every mask."""
    J = check_interaction(J)
    n = check_sites(J.shape[0])
    if h is None:
        h = np.zeros(n)
    h = np.asarray(h, dtype=float)
    if h.shape != (n,):
        raise ValueError(f"field vector must have length {n}, got shape {h.shape}")
    total = 1 << n
    out = np.empty(total)
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        s = spins_of(masks, n)
        sj = s @ J
        out[start : start + len(masks)] = 0.5 * np.einsum("ij,ij->i", sj, s) + s @ h
    return out


def logsumexp(a):
    """log(sum(exp(a))) over the last axis, one value per row of a stack:
    SciPy's `logsumexp` arithmetic (the maximal terms held out of the
    shifted sum) without its per-call overhead."""
    top = np.maximum.reduce(a, axis=-1, keepdims=True)
    at_top = a == top
    k = np.add.reduce(at_top, axis=-1, dtype=float)
    e = np.exp(a - top)
    e[at_top] = 0.0
    s = np.add.reduce(e, axis=-1)
    return np.log1p(s / k) + np.log(k) + top[..., 0]


_CEXP_SCALED = -709.0  # for x below it glibc's cexp rescales exp(-x)


def _expit_one(x):
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) past the largest double: expit's limit
        return 0.0


def expit(x):
    """The logistic 1 / (1 + exp(-x)) with the bits of SciPy's `expit`:
    float64 of x's shape, np.float64 for a 0-d x.

    exp(-x) is libm's `exp`, not NumPy's SIMD float `exp`, whose bits
    differ from it in a few values per hundred and with the CPU's
    kernel family. NumPy's complex exp calls libm's `cexp`, which in
    glibc returns, at imaginary part 0, libm's `exp` of the real part
    unchanged while that part is at most 709. The few x below -709,
    where `cexp` rescales, go through `math.exp` one at a time.
    tests/test_core.py compares the bits with SciPy's."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        return np.float64(_expit_one(float(x)))
    z = np.negative(x, dtype=np.complex128)
    tail = x < _CEXP_SCALED
    scaled = np.count_nonzero(tail)
    if scaled:
        z[tail] = 0.0  # keeps cexp from overflowing; these are replaced
    np.exp(z, out=z)
    e = z.real
    e += 1.0
    r = np.reciprocal(e)
    if scaled:
        r[tail] = [_expit_one(v) for v in x[tail].tolist()]
    return r


def gibbs(J, h=None):
    """Normalized Gibbs density over all masks (log-domain normalization)."""
    logw = log_gibbs_weights(J, h)
    return np.exp(logw - logsumexp(logw))


def check_probvec(p, n=None):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 2 or (p.size & (p.size - 1)) != 0:
        raise ValueError(f"density must be a vector of 2**n entries, n >= 1, "
                         f"got {p.size} in shape {p.shape}")
    if n is not None and p.size != (1 << n):
        raise ValueError(f"density has {p.size} entries, expected {1 << n}")
    return check_mass(p, "density")


def check_mass(p, name):
    """ValueError, naming `name`, unless the float array p is a
    probability vector within PROBVEC_TOL: no entry below -PROBVEC_TOL
    and total mass 1; returns p."""
    if np.min(p) < -PROBVEC_TOL:
        raise ValueError(f"{name} has a negative entry: min = {np.min(p)}")
    s = float(np.sum(p))
    if abs(s - 1.0) > PROBVEC_TOL:
        raise ValueError(f"{name} mass {s} deviates from 1 beyond {PROBVEC_TOL}")
    return p


def sites_of(p):
    """Site count n of a density on 2**n states, or of each row of a stack."""
    return int(np.shape(p)[-1]).bit_length() - 1


def check_partition(blocks, n):
    """Validate a tuple-of-tuples partition of range(n); returns it normalized."""
    seen = set()
    norm = []
    for b in blocks:
        bb = tuple(sorted(int(x) for x in b))
        if not bb:
            raise ValueError("partition contains an empty block")
        for x in bb:
            if x < 0 or x >= n:
                raise ValueError(f"site {x + 1} outside 1..{n}")
            if x in seen:
                raise ValueError(f"site {x + 1} appears in two blocks")
            seen.add(x)
        norm.append(bb)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise ValueError(f"partition misses sites {[x + 1 for x in missing]}")
    return tuple(norm)


def site_means(p):
    """E_p[s_l] for every site, as a length-n vector."""
    p = np.asarray(p, dtype=float)
    n = sites_of(p)
    masks = np.arange(p.size, dtype=np.int64)
    out = np.empty(n)
    for l in range(n):
        bit = ((masks >> l) & 1).astype(np.float64)
        out[l] = float(p @ (2.0 * bit - 1.0))
    return out


def block_count_table(n, blocks):
    """Per-mask +1 counts in each block, int64, shape (2**n, nblocks)."""
    masks = np.arange(1 << n, dtype=np.int64)
    counts = [np.bitwise_count(masks & site_mask(b)) for b in blocks]
    return np.stack(counts, axis=1).astype(np.int64)


def magnetization_profile(p, blocks):
    """Per-block averaged site means, in block order."""
    p = np.asarray(p, dtype=float)
    blocks = check_partition(blocks, sites_of(p))
    means = site_means(p)
    return np.array([means[list(b)].mean() for b in blocks])


def check_interior(m, blocks):
    """DegenerateProfileError naming the first block whose magnetization
    in m lies within BOUNDARY_TOL of +-1; returns m."""
    for b, mb in zip(blocks, m):
        if abs(mb) >= 1.0 - BOUNDARY_TOL:
            raise DegenerateProfileError(
                f"block {tuple(x + 1 for x in b)} has magnetization {mb}, within "
                f"{BOUNDARY_TOL} of the boundary; a profile must lie strictly inside (-1, 1)"
            )
    return m


def check_block_field(h, blocks):
    """ValueError naming the first block on which the field h (None: no
    field) is not constant, with two of its values."""
    for b in () if h is None else blocks:
        values = np.asarray(h, dtype=float)[list(b)]
        if np.any(values != values[0]):
            raise ValueError(f"field is not constant on block {tuple(x + 1 for x in b)}: "
                             f"{values[0]} vs {values[values != values[0]][0]}")


def covariance(p, X):
    """Covariance matrix of the columns of X under the density p on its
    rows; one matrix per row when p is a stack of densities. A row of a
    stack takes the same BLAS calls as its own call, so it gets its bits."""
    centered = X - p[..., None, :] @ X
    return np.swapaxes(centered * p[..., None], -1, -2) @ centered


def cumulative_rows(P):
    """Inverse-CDF table of a stochastic matrix: cumulative rows, last column exactly 1."""
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    return cum


def _density_pair(p, q):
    """p and q as float arrays on one state space: one density and its
    law, or a (rows, size) stack of densities against one law or a
    stack of row laws. ValueError otherwise."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim not in (1, 2) or q.shape not in (p.shape, p.shape[-1:]):
        raise ValueError(f"densities must share a state space, got shapes {p.shape} and {q.shape}")
    return p, q


def relative_entropy(p, q):
    """sum p log(p/q) over the last axis, with 0 log 0 = 0 and +inf when
    p charges a q-null state: a float for one density, and one value per
    row when p is a stack of them (q then one law, or a stack of row
    laws). One formula for both, so a row of a stack has the bits of its
    own call; the zero terms of p sit in the sum in place."""
    p, q = _density_pair(p, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(p > 0.0, p * np.log(p / q), 0.0).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def tv_distance(p, q):
    """Half the l1 distance, under the shape rule of `relative_entropy`:
    a float for one density, and one value per row for a stack."""
    p, q = _density_pair(p, q)
    tv = 0.5 * np.sum(np.abs(p - q), axis=-1)
    return float(tv) if tv.ndim == 0 else tv


def entropy_functional(mu, F):
    """Ent_mu(F) = mu[F log F] - mu[F] log mu[F] for nonnegative F, with
    0 log 0 = 0: a float for one law, and one value per row when F is a
    stack of row functions (mu then one law, or a stack of row laws). Plain
    numpy reductions, no BLAS call, so the bits do not depend on the
    BLAS kernel and a row of a stack gives those of its own call."""
    mu = np.asarray(mu, dtype=float)
    F = np.asarray(F, dtype=float)
    if np.any(F < 0):
        raise ValueError("entropy functional needs a nonnegative function")
    mean = (mu * F).sum(axis=-1)
    ent = ((mu * F * np.log(np.where(F > 0.0, F, 1.0))).sum(axis=-1)
           - mean * np.log(np.where(mean > 0.0, mean, 1.0)))
    return float(ent) if ent.ndim == 0 else ent


def site_mask(sites):
    """The bitmask with bit l set for every site l of a block."""
    mask = 0
    for l in sites:
        mask |= 1 << int(l)
    return mask


def slice_codes(width, masks, counts):
    """Sorted int64 codes of `width` bits with counts[b] set bits inside
    masks[b], for every b."""
    codes = np.arange(1 << width, dtype=np.int64)
    for mask, count in zip(masks, counts):
        codes = codes[np.bitwise_count(codes & mask) == count]
    return codes


def code_index(codes, query):
    """Positions of the query codes in a code array; KeyError if one is absent."""
    idx = np.searchsorted(codes, query)
    if np.any(codes[np.minimum(idx, codes.size - 1)] != query):
        raise KeyError("code outside the state space")
    return idx


def swap_moves(codes, a, b):
    """(src, dst) positions of the exchanges of bits a < b that stay in the
    code array, one per undirected edge: codes[src] has bit a set and bit b
    clear, and codes[dst] is it with the two bits swapped, so src < dst.
    src ascending."""
    if not a < b:
        raise ValueError(f"need bit a < bit b, got {a} and {b}")
    src = np.flatnonzero((codes >> a) & ~(codes >> b) & 1)
    moved = codes[src] ^ ((1 << a) | (1 << b))
    dst = np.searchsorted(codes, moved)
    ok = codes[np.minimum(dst, codes.size - 1)] == moved
    return src[ok], dst[ok]


@dataclass
class ReversibleChain:
    """A continuous-time jump chain reversible for `probs`, one entry per
    undirected edge: src[e] < dst[e], and the chain jumps src -> dst at
    rate[e] and dst -> src at rate[e] * exp(logw[src] - logw[dst]).
    `logw` holds the log-weights of `probs` up to one additive constant.
    Identity moves are left out."""

    src: np.ndarray
    dst: np.ndarray
    rate: np.ndarray
    probs: np.ndarray
    logw: np.ndarray

    @classmethod
    def from_moves(cls, srcs, dsts, rates, probs, logw):
        """The chain of per-move lists of (src, dst, rate) edge arrays,
        each with src < dst, concatenated."""
        if not srcs:
            none = np.zeros(0, dtype=np.intp)
            return cls(none, none, np.zeros(0), probs, logw)
        return cls(np.concatenate(srcs), np.concatenate(dsts), np.concatenate(rates), probs, logw)

    @functools.cached_property
    def edge_weight(self):
        """probs(src) rate of every edge, formed once per chain."""
        return self.probs[self.src] * self.rate

    def dirichlet(self, F, G):
        """sum over edges of probs(src) rate dF dG, multiplied in that order."""
        dF = F[self.dst] - F[self.src]
        dG = G[self.dst] - G[self.src]
        return float(np.sum(self.edge_weight * dF * dG))

    def entropy_production(self, functions):
        """Dirichlet(F, log F) of each row F of a stack of positive
        functions, the numerator of the chain's MLSI ratio; one
        `dirichlet` call per row, so no (rows, edges) array is built."""
        return [self.dirichlet(F, np.log(F)) for F in functions]

    def _symmetric_entries(self):
        """(rows, cols, values) of the generator symmetrized by
        sqrt(probs): the edge entry rate * sqrt(probs[src] / probs[dst])
        at (src, dst) and (dst, src), minus each state's exit rate on
        the diagonal. Both probability ratios come from the log-weights.
        No position repeats."""
        size = self.probs.size
        log_ratio = self.logw[self.src] - self.logw[self.dst]
        off = self.rate * np.exp(0.5 * log_ratio)
        back = self.rate * np.exp(log_ratio)
        exit_rate = np.bincount(self.src, self.rate, size) + np.bincount(self.dst, back, size)
        diag = np.arange(size)
        rows = np.concatenate([self.src, self.dst, diag])
        cols = np.concatenate([self.dst, self.src, diag])
        return rows, cols, np.concatenate([off, off, -exit_rate])

    def symmetric(self):
        """The symmetrized generator of `_symmetric_entries` as SciPy CSR,
        the input of ARPACK's Lanczos in `slow_mode`."""
        from scipy.sparse import csr_array  # imported on use: only Lanczos needs it

        rows, cols, values = self._symmetric_entries()
        size = self.probs.size
        return csr_array((values, (rows, cols)), shape=(size, size))

    def spectrum(self):
        """(eigenvalues, orthonormal eigenvectors, sqrt(probs)) of the
        symmetrized generator, by dense eigh of the `_symmetric_entries`
        scattered into a NumPy array; eigenvalues ascending."""
        rows, cols, values = self._symmetric_entries()
        size = self.probs.size
        dense = np.zeros((size, size))
        dense[rows, cols] = values
        evals, vecs = np.linalg.eigh(dense)
        return evals, vecs, np.sqrt(self.probs)

    def slow_mode(self):
        """(gap, g): the gap is minus the second-largest eigenvalue of the
        generator (0 for a reducible chain), g its eigenfunction, scaled
        so that its largest-magnitude entry is +1. The scale comes from
        the log-weights, so g stays finite where the probabilities
        underflow. Dense eigh up to LANCZOS_STATES states, ARPACK's
        Lanczos above."""
        size = self.probs.size
        if size < 2:
            raise ValueError("a one-state chain has no slow mode")
        if size <= LANCZOS_STATES:
            evals, vecs, _ = self.spectrum()
            lam, v = evals[-2], vecs[:, -2]
        else:
            # imported on use: it adds about 8 MB of resident memory
            from scipy.sparse.linalg import eigsh

            # a fixed start keeps the result reproducible; sqrt(probs) is
            # the top eigenvector itself, so ARPACK cannot start from it
            v0 = np.sin(np.arange(1.0, size + 1.0))
            evals, vecs = eigsh(self.symmetric(), k=2, which="LA", v0=v0)
            second = int(np.argmin(evals))
            lam, v = evals[second], vecs[:, second]
        # g = v / sqrt(probs), taken as log|v| - logw / 2 shifted by its maximum
        with np.errstate(divide="ignore"):
            log_g = np.log(np.abs(v)) - 0.5 * self.logw
        top = int(np.argmax(log_g))
        g = np.copysign(np.exp(log_g - log_g[top]), v if v[top] > 0.0 else -v)
        return max(0.0, -float(lam)), g


def sample_test_functions(size, trials, rng):
    """A (trials, size) stack of positive test functions for entropy-ratio
    scans. Row t is a log-normal field, a near point mass or a bounded
    perturbation of 1 as t % 3 is 0, 1 or 2, and the rows are drawn from
    rng one after another in that order. A one-state space has no
    nonconstant function: its stack is empty, and rng is not touched."""
    if size == 1:
        return np.empty((0, 1))
    F = np.empty((trials, size))
    for t, row in enumerate(F):
        kind = t % 3
        if kind == 0:
            s = float(rng.choice([0.5, 1.0, 2.0]))
            row[:] = np.exp(s * rng.standard_normal(size))
        elif kind == 1:
            row[:] = 1e-4
            row[int(rng.integers(size))] = 1.0
        else:
            row[:] = 1.0 + 0.9 * rng.uniform(-1.0, 1.0, size=size)
    return F


@dataclass
class RatioScan:
    min_ratio: float
    median_ratio: float
    samples: int
    discarded: int
    gap: float | None = None  # the chain's spectral gap, where the scan probed its slow mode


def entropy_ratio_scan(mu, functions, numerator):
    """Minimum and median of numerator(F) / Ent_mu(F) over the rows F of
    a 2-D stack of test functions.

    The entropies of all rows are taken in one stacked call; rows with
    Ent_mu(F) < 1e-13 are discarded and counted, and `numerator` maps
    the stack of kept rows to one value per row. On a one-state space no
    F is nonconstant and the infimum is vacuous: the scan is
    RatioScan(inf, inf, 0, 0) whatever the stack holds."""
    if np.size(mu) == 1:
        return RatioScan(math.inf, math.inf, 0, 0)
    ent = entropy_functional(mu, functions)
    keep = ent >= 1e-13
    if not keep.any():
        raise FitError("no usable test functions")
    ratios = np.asarray(numerator(functions[keep])) / ent[keep]
    return RatioScan(float(ratios.min()), float(np.median(ratios)), len(ratios),
                     int(np.count_nonzero(~keep)))


_SINGULAR, _STAGNATED, _EXCEEDED = 1, 2, 3  # why a row of the field solve failed


def _tilted(logw, M, sizes, target, C):
    """(p, m, res) of the tilts C, one row per row of the log-weight
    stack: density, block magnetizations and max-norm residual. A row
    whose tilted log-weights hold a NaN or +inf gets res = inf, and no
    exp is taken of it."""
    with np.errstate(invalid="ignore", over="ignore"):
        lp = logw + np.matmul(M, C[:, :, None])[:, :, 0]
    ok = (lp < np.inf).all(axis=1)
    if not ok.all():
        p, m, res = np.full_like(lp, np.nan), np.full_like(C, np.nan), np.full(len(C), np.inf)
        p[ok], m[ok], res[ok] = _tilted(logw[ok], M, sizes, target, C[ok])
        return p, m, res
    lp -= logsumexp(lp)[:, None]
    p = np.exp(lp)
    m = np.matmul(p[:, None, :], M)[:, 0, :] / sizes
    return p, m, np.maximum.reduce(np.abs(m - target), axis=1)


def _newton_steps(hess, grad):
    """Solutions of a stack of Newton systems, and a mask of the singular
    ones (their steps left at 0)."""
    singular = np.zeros(len(grad), dtype=bool)
    try:
        return np.linalg.solve(hess, grad[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    step = np.zeros_like(grad)
    for r in range(len(grad)):
        try:
            step[r] = np.linalg.solve(hess[r], grad[r])
        except np.linalg.LinAlgError:
            singular[r] = True
    return step, singular


def match_block_means(logw, blocks, target):
    """Find per-block constant fields c so the tilted measure hits target means.

    The tilted measure is ``exp(logw + sum_b c_b * M_b) / Z`` with ``M_b``
    the spin sum of block b. The map c -> log Z is strictly convex with
    gradient the block spin-sum means, so damped Newton (halve the step
    until the max-norm residual of the block magnetizations decreases,
    down to a step of 1e-14, for at most FIELD_MAX_ITER steps) converges
    for any strictly interior target. A trial step whose tilted
    log-weights hold a NaN or +inf counts as no decrease.

    logw is one row of log-weights or a (rows, 2**n) stack of them, and
    every row of a stack runs the rule at once, with the bits of its own
    one-row call. One row returns (c, tilted_density) and raises
    ConvergenceError, with the last residual, on a singular curvature, a
    stalled step or too many steps. A stack returns (c, densities,
    converged), one row each; a row that failed holds its last accepted
    iterate. Both raise DegenerateProfileError for a boundary target and
    ValueError for a target of the wrong shape.
    """
    logw = np.asarray(logw, dtype=float)
    if logw.ndim not in (1, 2):
        raise ValueError(f"log-weights must be one row or a stack of rows, got shape {logw.shape}")
    n = sites_of(logw)
    blocks = check_partition(blocks, n)
    target = np.asarray(target, dtype=float)
    if target.shape != (len(blocks),):
        raise ValueError(f"target must give one mean per block, got shape {target.shape}")
    check_interior(target, blocks)
    sizes = np.array([len(b) for b in blocks], dtype=float)
    M = 2.0 * block_count_table(n, blocks) - sizes
    rows = logw.reshape(-1, logw.shape[-1])
    C = np.tile(np.arctanh(target), (len(rows), 1))
    p, m, res = _tilted(rows, M, sizes, target, C)
    failure = np.where(res < np.inf, 0, _STAGNATED)
    live = np.flatnonzero(failure == 0)
    for _ in range(FIELD_MAX_ITER):
        live = live[res[live] > FIELD_TOL]
        if not live.size:
            break
        step, singular = _newton_steps(covariance(p[live], M), sizes * (m[live] - target))
        if singular.any():
            failure[live[singular]] = _SINGULAR
            live, step = live[~singular], step[~singular]
        lam, trying = 1.0, live  # the rows still halving their step
        while True:
            c_try = C[trying] - lam * step
            p_try, m_try, res_try = _tilted(rows[trying], M, sizes, target, c_try)
            better = res_try < res[trying]
            if better.all():
                C[trying], p[trying], m[trying], res[trying] = c_try, p_try, m_try, res_try
                break
            done = trying[better]
            C[done], p[done], m[done], res[done] = c_try[better], p_try[better], m_try[better], res_try[better]
            trying, step = trying[~better], step[~better]
            lam *= 0.5
            if lam < 1e-14:
                failure[trying] = _STAGNATED
                live = live[failure[live] == 0]
                break
    else:
        failure[live[res[live] > FIELD_TOL]] = _EXCEEDED
    if logw.ndim == 2:
        return C, p, failure == 0
    if failure[0] == _SINGULAR:
        raise ConvergenceError("singular curvature in field solve", residual=float(res[0]))
    if failure[0] == _STAGNATED:
        raise ConvergenceError(f"field solve stagnated at residual {res[0]}", residual=float(res[0]))
    if failure[0] == _EXCEEDED:
        raise ConvergenceError(f"field solve exceeded {FIELD_MAX_ITER} iterations",
                               residual=float(res[0]))
    return C[0], p[0]


def solve_field(J, blocks, target):
    """Block-constant external field h with gibbs(J, h) matching the target
    block magnetizations. Returns a length-n field vector."""
    J = check_interaction(J)
    n = J.shape[0]
    blocks = check_partition(blocks, n)
    c, _ = match_block_means(log_gibbs_weights(J), blocks, target)
    h = np.zeros(n)
    for b, cb in zip(blocks, c):
        h[list(b)] = cb
    return h
