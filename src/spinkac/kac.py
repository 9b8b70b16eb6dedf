"""N interacting configurations exchanging spins through pair collisions.

Each ordered pair of configuration slots (including a slot with itself)
carries an exponential clock of rate 1/N; on a ring, a site pair (l, k)
is drawn as l uniform and k from the transport row K(l, .), and the
heat-bath exchange of the two spins is attempted. The process preserves
the total spin of every irreducible block of K summed across all slots,
so it lives on a count shell. The stationary law on a shell is the
conditioned product of single-configuration Gibbs weights.

Exact routes are gated by total bit count: dense spectra and the
exponentials they give at N*n <= 12, shell enumeration and
Dirichlet-form sums at N*n <= 22. Count-shell masses for large N go
through a log-domain convolution over the block-count lattice instead
of enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import expit, logsumexp

from .core import (
    RatioScan,
    ReversibleChain,
    check_interaction,
    check_partition,
    check_probvec,
    code_index,
    entropy_ratio_scan,
    interaction_condition,
    interaction_row_norm,
    log_gibbs_weights,
    relative_entropy,
    sample_test_function,
    site_mask,
    slice_codes,
    swap_moves,
)
from .dynamics import AlphaBound, dissipation
from .errors import CapacityError

EXPONENTIAL_GATE = 12
ENUMERATION_GATE = 22
WALK_BLOCK = 4096  # walk events drawn per generator call


def mean_field_alpha_bound(J, h=None):
    """Rate bound for the all-pairs (uniform transport) walk with fields:
    (1/4) (1 - 2 lam) exp(-8 (Jbar + hbar))."""
    J = check_interaction(J)
    _, lam, reason = interaction_condition(J)
    jb = interaction_row_norm(J)
    hb = 0.0 if h is None else float(np.max(np.abs(h)))
    if reason:
        return AlphaBound(None, False, reason, lam, jb)
    return AlphaBound(0.25 * (1.0 - 2.0 * lam) * math.exp(-8.0 * (jb + hb)), True, "", lam, jb)


# -- count shells -------------------------------------------------------


def block_count_table(n, blocks):
    """per-mask vector of +1 counts in each block, shape (2**n, nblocks)."""
    masks = np.arange(1 << n, dtype=np.int64)
    counts = [np.bitwise_count(masks & site_mask(b)) for b in blocks]
    return np.stack(counts, axis=1).astype(np.int64)


def canonical_counts(nu, blocks, N):
    """Shell counts T_b = floor(N |b| (1 + m_b) / 2) for the product of N
    copies of nu (the canonical shell of that density)."""
    nu = np.asarray(nu, dtype=float)
    n = int(nu.size).bit_length() - 1
    blocks = check_partition(blocks, n)
    counts = block_count_table(n, blocks)
    T = []
    for bi, b in enumerate(blocks):
        mean_plus = float(nu @ counts[:, bi])  # E[#plus] in the block, one copy
        m = 2.0 * mean_plus / len(b) - 1.0
        T.append(int(math.floor(N * len(b) * (1.0 + m) / 2.0 + 1e-9)))
    return tuple(T)


def admissible_counts(N, blocks):
    """All shell count tuples with a nonempty shell."""
    ranges = [range(N * len(b) + 1) for b in blocks]
    out = [()]
    for r in ranges:
        out = [t + (x,) for t in out for x in r]
    return out


def density_to_counts(rho, N, blocks):
    """Convert per-block fractions to integer shell counts, demanding
    that N|b|rho_b is an integer."""
    T = []
    for r, b in zip(rho, blocks):
        x = Fraction(r).limit_denominator(10 ** 9) * N * len(b)
        if x.denominator != 1 or not (0 <= x.numerator <= N * len(b)):
            raise ValueError(f"density {r} is not admissible at N = {N}, block size {len(b)}")
        T.append(int(x))
    return tuple(T)


@dataclass
class ParticleMeasure:
    """A conditioned product measure on a count shell, fully enumerated."""

    n: int
    N: int
    blocks: tuple
    T: tuple
    codes: np.ndarray    # sorted combined codes, slot i at bits [i*n, (i+1)*n)
    probs: np.ndarray
    logw: np.ndarray     # unnormalized product log-weights on the shell

    def index_of(self, codes):
        return code_index(self.codes, codes)


def restricted_product_measure(single_log_weights, N, blocks, T):
    """Enumerate the count shell of the product of N copies of one
    single-slot weight table and normalize."""
    table = np.asarray(single_log_weights, dtype=float)
    n = int(table.size).bit_length() - 1
    if N * n > ENUMERATION_GATE:
        raise CapacityError(f"shell enumeration gated at N*n <= {ENUMERATION_GATE}")
    blocks = check_partition(blocks, n)
    T = tuple(int(t) for t in T)
    if len(T) != len(blocks):
        raise ValueError("one count per block required")
    for t, b in zip(T, blocks):
        if not 0 <= t <= N * len(b):
            raise ValueError(f"count {t} impossible for block size {len(b)} with N = {N}")
    # block b of the combined code: its sites in every slot
    masks = [sum(site_mask(b) << (i * n) for i in range(N)) for b in blocks]
    codes = slice_codes(N * n, masks, T)
    if codes.size == 0:
        raise ValueError(f"empty shell for counts {T}")
    logw = np.zeros(codes.size)
    for i in range(N):
        logw += table[(codes >> (i * n)) & ((1 << n) - 1)]
    probs = np.exp(logw - logsumexp(logw))
    return ParticleMeasure(n, N, blocks, T, codes, probs, logw)


def multicanonical_measure(J, h, N, blocks, T):
    """Conditioned product of Gibbs measures: h is None or one field
    vector shared by all slots."""
    return restricted_product_measure(log_gibbs_weights(check_interaction(J), h), N, blocks, T)


# -- exchange moves on a shell -----------------------------------------


def _pair_moves(measure, kernel):
    """Yield (src, dst, rate_weight, pair_weight) per unordered pair of
    bits a < b: index arrays of the exchanges of bits a and b that stay on
    the shell, src < dst.

    rate r is the heat-bath probability from the measure's own product
    weights; pair_weight is K[l,k] + K[k,l] for the sites l, k of bits a,
    b (2 for the unweighted variant), since the ordered pairs (a, b) and
    (b, a) ring the same exchange. Identity moves have no entries (their
    gradient terms vanish), and an exchange that exits the shell targets
    a zero-mass state, so its heat-bath rate is zero and it is dropped too.
    """
    n, N = measure.n, measure.N
    codes = measure.codes
    for a in range(N * n):
        for b in range(a + 1, N * n):
            l, k = a % n, b % n
            w = 2.0 if kernel is None else float(kernel[l, k] + kernel[k, l])
            if w == 0.0:
                continue
            src, dst = swap_moves(codes, a, b)
            if src.size:
                yield src, dst, expit(measure.logw[dst] - measure.logw[src]), w


def dirichlet_form(measure, F, G, kernel=None):
    """(1/2Nn) sum over slot pairs and site pairs of mu[K r dF dG]
    (kernel given) or mu[r dF dG] (kernel None, the all-pairs variant).

    The same sum as `transition_table(measure, kernel).dirichlet(F, G)`,
    but streamed edge by edge, so the table is never held in memory."""
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    total = 0.0
    for src, dst, r, w in _pair_moves(measure, kernel):
        dF = F[dst] - F[src]
        dG = G[dst] - G[src]
        total += w * float(np.sum(measure.probs[src] * r * dF * dG))
    return total / (measure.N * measure.n)


def transition_table(measure, kernel):
    """The shell process as a reversible chain, one entry per edge: jump
    rate r * (K[l,k] + K[k,l]) / (N n) for each exchange that stays on
    the shell."""
    srcs, dsts, rates = [], [], []
    for src, dst, r, w in _pair_moves(measure, kernel):
        srcs.append(src)
        dsts.append(dst)
        rates.append(w * r / (measure.N * measure.n))
    return ReversibleChain.from_moves(srcs, dsts, rates, measure.probs)


def particle_entropy_decay(measure, kernel, nu0, t_grid):
    """Exact H(nu_t | mu) along the shell semigroup, by symmetrized
    eigendecomposition of the generator: nu0 is projected on the
    eigenbasis once, so each time point costs one matrix-vector product."""
    if measure.N * measure.n > EXPONENTIAL_GATE:
        raise CapacityError(f"dense spectra gated at N*n <= {EXPONENTIAL_GATE}")
    evals, Q, sq = transition_table(measure, kernel).spectrum()
    mu = measure.probs
    c = (np.asarray(nu0, dtype=float) / sq) @ Q
    out = []
    for t in t_grid:
        nu_t = (Q @ (c * np.exp(t * evals))) * sq
        nu_t = np.maximum(nu_t, 0.0)
        nu_t /= nu_t.sum()
        out.append(relative_entropy(nu_t, mu))
    return np.array(out)


def particle_mlsi_scan(measure, kernel, trials, rng):
    """Minimum of Dirichlet(F, log F) / Ent(F) over random positive F."""
    size = measure.codes.size
    if size == 1:
        # a one-point shell has no nonconstant F; the infimum is vacuous
        return RatioScan(math.inf, math.inf, 0, 0)
    tab = transition_table(measure, kernel)
    functions = (sample_test_function(size, trial, rng) for trial in range(trials))
    return entropy_ratio_scan(measure.probs, functions, lambda F: tab.dirichlet(F, np.log(F)))


# -- event-driven simulation -------------------------------------------


def initial_state_for_counts(n, blocks, N, T):
    """A state on the shell: fill each block's plus spins slot by slot."""
    blocks = check_partition(blocks, n)
    state = np.zeros(N, dtype=np.int64)
    for b, t in zip(blocks, T):
        slots = [(i, l) for i in range(N) for l in b]
        if not 0 <= t <= len(slots):
            raise ValueError(f"count {t} impossible for block {b} with N = {N}")
        for i, l in slots[:t]:
            state[i] |= 1 << l
    return state


@dataclass
class ParticleRun:
    final_state: np.ndarray
    events: int
    accepted: int
    occupation: dict | None  # combined code -> occupied time


def walk_acceptance(fields, logw, l, k, si, sj, same_slot):
    """Heat-bath acceptance of one walk event, read from the plain lists
    `ctx.fields.tolist()` and `ctx.logw.tolist()`.

    Equals `ctx.diagonal_acceptance(l, k, si)` for an event that pairs a
    slot with itself and `ctx.acceptance(l, k, si, sj)` otherwise. A
    logit below -709 takes the exp(logit) tail, so no coupling size can
    overflow `math.exp`.
    """
    if same_slot:
        if not ((si >> l) ^ (si >> k)) & 1:
            return 0.5
        x = logw[si ^ ((1 << l) | (1 << k))] - logw[si]
    else:
        bk = (sj >> k) & 1
        if bk == (si >> l) & 1:
            return 0.5
        x = (fields[si][l] - fields[sj][k]) * (2.0 if bk else -2.0)
    return 1.0 / (1.0 + math.exp(-x)) if x > -709.0 else math.exp(x)


def _check_init(init, n, blocks, N, T):
    state = np.array(init, dtype=np.int64)
    if state.shape != (N,):
        raise ValueError(f"init must hold N = {N} configurations, got shape {state.shape}")
    if np.any((state < 0) | (state >= 1 << n)):
        raise ValueError(f"init holds a configuration outside 0..{(1 << n) - 1}")
    counts = tuple(int(c) for c in block_count_table(n, blocks)[state].sum(axis=0))
    if counts != tuple(int(t) for t in T):
        raise ValueError(f"init has block counts {counts}, off the shell {tuple(T)}")
    return state


def simulate_particles(ctx, N, T, t_end, rng, init=None, record_occupation=False):
    """Event-driven exchange among N slots carrying ctx's (J, K).

    Every ordered slot pair has rate 1/N, so events arrive at rate N
    total; each event draws slots (i, j) uniformly, site l uniformly,
    site k from K(l, .), and accepts the spin exchange with the
    heat-bath probability `walk_acceptance`. Events are drawn WALK_BLOCK
    at a time with one generator call per quantity: the exponential
    waits (their running sum gives the event times), i, j, l, the
    uniform that picks k by inverse CDF on the rows of K, and the
    acceptance uniform. The state then changes event by event, and
    events past t_end are dropped.

    Site pairs must stay inside one irreducible block of K, which
    conserves the shell counts; a K that links two of ctx.blocks raises
    RuntimeError before any event. A given `init` must hold N
    configurations with block counts T, else ValueError.
    """
    n = ctx.n
    block_of = np.empty(n, dtype=int)
    for bi, b in enumerate(ctx.blocks):
        block_of[list(b)] = bi
    for l, k in zip(*np.nonzero(ctx.K)):
        if block_of[l] != block_of[k]:
            raise RuntimeError(
                f"transport kernel moved site {l + 1} to site {k + 1} outside its block"
            )
    if init is None:
        state = initial_state_for_counts(n, ctx.blocks, N, T)
    else:
        state = _check_init(init, n, ctx.blocks, N, T)
    if record_occupation and N * n > ENUMERATION_GATE:
        raise CapacityError("occupation recording needs N*n within the enumeration gate")
    cum_rows = np.cumsum(ctx.K, axis=1)
    cum_rows[:, -1] = 1.0
    fields = ctx.fields.tolist()
    logw = ctx.logw.tolist()
    state = state.tolist()
    occupation = {} if record_occupation else None
    code = sum(s << (i * n) for i, s in enumerate(state)) if record_occupation else 0

    t = 0.0
    events = 0
    accepted = 0
    while True:
        times = t + np.cumsum(rng.exponential(1.0 / N, WALK_BLOCK))
        slots_i = rng.integers(N, size=WALK_BLOCK)
        slots_j = rng.integers(N, size=WALK_BLOCK)
        sites_l = rng.integers(n, size=WALK_BLOCK)
        sites_k = np.sum(cum_rows[sites_l] <= rng.random(WALK_BLOCK)[:, None], axis=1)
        uniforms = rng.random(WALK_BLOCK)
        stop = int(np.searchsorted(times, t_end, side="right"))
        for te, i, j, l, k, u in zip(
            times[:stop].tolist(), slots_i[:stop].tolist(), slots_j[:stop].tolist(),
            sites_l[:stop].tolist(), sites_k[:stop].tolist(), uniforms[:stop].tolist(),
        ):
            if record_occupation:
                occupation[code] = occupation.get(code, 0.0) + (te - t)
            t = te
            si, sj = state[i], state[j]
            if u >= walk_acceptance(fields, logw, l, k, si, sj, i == j):
                continue
            accepted += 1
            if i == j:
                if ((si >> l) ^ (si >> k)) & 1:
                    state[i] = si ^ ((1 << l) | (1 << k))
                    if record_occupation:
                        code ^= ((1 << l) | (1 << k)) << (i * n)
            elif ((si >> l) ^ (sj >> k)) & 1:
                state[i] = si ^ (1 << l)
                state[j] = sj ^ (1 << k)
                if record_occupation:
                    code ^= (1 << (i * n + l)) | (1 << (j * n + k))
        events += stop
        if stop < WALK_BLOCK:
            break
    if record_occupation:
        occupation[code] = occupation.get(code, 0.0) + (t_end - t)
    return ParticleRun(np.array(state, dtype=np.int64), events, accepted, occupation)


def occupation_tv(measure, run):
    """TV between a run's time-weighted occupation and the exact shell law."""
    if run.occupation is None:
        raise ValueError("run was not recorded with occupation")
    total = sum(run.occupation.values())
    emp = np.zeros(measure.codes.size)
    idx = measure.index_of(np.array(sorted(run.occupation), dtype=np.int64))
    for pos, c in zip(idx, sorted(run.occupation)):
        emp[pos] = run.occupation[c] / total
    return 0.5 * float(np.abs(emp - measure.probs).sum())


# -- count-shell masses by convolution ---------------------------------


def single_count_logdist(nu, blocks):
    """log distribution of the block-count vector of one copy of nu."""
    nu = np.asarray(nu, dtype=float)
    n = int(nu.size).bit_length() - 1
    counts = block_count_table(n, blocks)
    dims = tuple(len(b) + 1 for b in blocks)
    out = np.full(dims, -np.inf)
    flat = np.ravel_multi_index(counts.T, dims)
    mass = np.zeros(int(np.prod(dims)))
    np.add.at(mass, flat, nu)
    with np.errstate(divide="ignore"):
        return np.log(mass).reshape(dims)


def shell_log_mass(nu, blocks, N, T=None):
    """log nu^{xN}(shell T) by log-domain lattice convolution.

    With T None, returns the full lattice table for N copies.
    """
    nu = np.asarray(nu, dtype=float)
    n = int(nu.size).bit_length() - 1
    blocks = check_partition(blocks, n)
    logq = single_count_logdist(nu, blocks)
    dims = tuple(N * len(b) + 1 for b in blocks)
    table = np.full(dims, -np.inf)
    table[tuple(0 for _ in blocks)] = 0.0
    support = np.argwhere(np.isfinite(logq))
    for _ in range(N):
        new = np.full(dims, -np.inf)
        for c in support:
            dst = tuple(slice(int(cb), d) for cb, d in zip(c, dims))
            src = tuple(slice(0, d - int(cb)) for cb, d in zip(c, dims))
            new[dst] = np.logaddexp(new[dst], table[src] + logq[tuple(c)])
        table = new
    if T is None:
        return table
    return float(table[tuple(int(t) for t in T)])


def restricted_mass(nu, blocks, N, T):
    """nu^{xN}(shell with integer block counts T), by the lattice DP."""
    lv = shell_log_mass(nu, blocks, N, T)
    return math.exp(lv) if lv > -745 else 0.0


def canonical_marginal(nu, blocks, N, T, k):
    """Law of the first k slots under the conditioned product, as a dense
    array over (2**n)**k joint masks."""
    nu = np.asarray(nu, dtype=float)
    n = int(nu.size).bit_length() - 1
    blocks = check_partition(blocks, n)
    counts = block_count_table(n, blocks)
    log_rest = shell_log_mass(nu, blocks, N - k)
    log_full = shell_log_mass(nu, blocks, N, T)
    size = 1 << n
    out = np.zeros((size,) * k)
    with np.errstate(divide="ignore"):
        log_nu = np.log(nu)
    for joint in np.ndindex(*(size,) * k):
        c = np.array(T) - counts[list(joint)].sum(axis=0)
        if np.any(c < 0) or any(cb >= d for cb, d in zip(c, log_rest.shape)):
            continue
        lv = float(log_nu[list(joint)].sum()) + float(log_rest[tuple(c)]) - log_full
        out[joint] = math.exp(lv) if lv > -745 else 0.0
    return out


def marginal_tv(nu, blocks, N, T, k):
    """TV between the k-slot marginal of the conditioned product and the
    unconditioned k-fold product."""
    marg = canonical_marginal(nu, blocks, N, T, k)
    prod = np.asarray(nu, dtype=float)
    for _ in range(k - 1):
        prod = np.multiply.outer(prod, nu)
    return 0.5 * float(np.abs(marg - prod).sum())


def local_clt_value(nu, blocks, N, T):
    """Gaussian point-mass prediction for the shell probability,
    including the spacing-2 lattice factor per block."""
    nu = np.asarray(nu, dtype=float)
    n = int(nu.size).bit_length() - 1
    blocks = check_partition(blocks, n)
    counts = block_count_table(n, blocks)
    # spin-sum coordinates: M_b = 2 * count_b - |b|
    M = 2.0 * counts - np.array([len(b) for b in blocks])
    mean = nu @ M
    centered = M - mean
    V = (centered * nu[:, None]).T @ centered
    S = 2.0 * np.array(T, dtype=float) - N * np.array([len(b) for b in blocks])
    z = np.linalg.solve(np.linalg.cholesky(V), (S - N * mean) / math.sqrt(N))
    b = len(blocks)
    det = float(np.linalg.det(V))
    return (2.0 ** b) * math.exp(-0.5 * float(z @ z)) / ((2.0 * math.pi * N) ** (b / 2.0) * math.sqrt(det))


def check_irreducible(nu, blocks):
    """Every block count must be able to step by +1 somewhere in the
    support of the joint count distribution."""
    nu = np.asarray(nu, dtype=float)
    n = int(nu.size).bit_length() - 1
    blocks = check_partition(blocks, n)
    logq = single_count_logdist(nu, blocks)
    support = {tuple(c) for c in np.argwhere(np.isfinite(logq))}
    for bi, b in enumerate(blocks):
        ok = any(
            tuple(c[a] + (1 if a == bi else 0) for a in range(len(blocks))) in support
            for c in support
        )
        if not ok:
            raise ValueError(
                f"block {tuple(x + 1 for x in b)}: count support admits no +1 step; "
                "the density is not irreducible"
            )
    return True


@dataclass
class ChaosReport:
    N_grid: np.ndarray
    tv: np.ndarray
    slope: float


def chaos_scan(nu, blocks, k, N_grid):
    """Marginal chaos: TV of the k-slot marginal against the plain
    product along a grid of N, with the fitted log-log slope."""
    check_irreducible(nu, blocks)
    tvs = []
    for N in N_grid:
        T = canonical_counts(nu, blocks, N)
        tvs.append(marginal_tv(nu, blocks, int(N), T, k))
    tvs = np.array(tvs)
    slope = float(np.polyfit(np.log(np.asarray(N_grid, float)), np.log(tvs), 1)[0])
    return ChaosReport(np.asarray(N_grid), tvs, slope)


def entropic_chaos_gap(nu1, nu2, blocks, N):
    """| (1/N) H(shell product of nu1 | shell product of nu2) - H(nu1|nu2) |.

    Both densities must share the shell (same canonical counts at N) and
    nu1 must be absolutely continuous w.r.t. nu2.
    """
    nu1 = check_probvec(np.asarray(nu1, dtype=float))
    nu2 = check_probvec(np.asarray(nu2, dtype=float))
    T1 = canonical_counts(nu1, blocks, N)
    T2 = canonical_counts(nu2, blocks, N)
    if T1 != T2:
        raise ValueError(f"canonical counts differ at N = {N}: {T1} vs {T2}")
    if np.any((nu1 > 0) & (nu2 == 0)):
        return math.inf
    marg1 = canonical_marginal(nu1, blocks, N, T1, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(nu1 > 0, np.log(np.where(nu1 > 0, nu1, 1.0) / np.where(nu2 > 0, nu2, 1.0)), 0.0)
    cross = float(marg1 @ ratio)
    mass_term = (shell_log_mass(nu1, blocks, N, T1) - shell_log_mass(nu2, blocks, N, T2)) / N
    h_per_slot = cross - mass_term
    return abs(h_per_slot - relative_entropy(nu1, nu2))


def _fisher_per_slot(ctx, mu, nu, N):
    """(1/N) Dirichlet(F_N, log F_N) for the shell likelihood ratio
    F_N between the conditioned products of nu and mu."""
    if N * ctx.n > ENUMERATION_GATE:
        raise CapacityError(f"exact route gated at N*n <= {ENUMERATION_GATE}")
    T = canonical_counts(nu, ctx.blocks, N)
    T_mu = canonical_counts(mu, ctx.blocks, N)
    if T != T_mu:
        raise ValueError(f"canonical counts differ at N = {N}: tilt is off the shell")
    with np.errstate(divide="ignore"):
        gamma_mu = restricted_product_measure(np.log(mu), N, ctx.blocks, T)
        gamma_nu = restricted_product_measure(np.log(nu), N, ctx.blocks, T)
    F = gamma_nu.probs / gamma_mu.probs
    return dirichlet_form(gamma_mu, F, np.log(F), kernel=ctx.K) / N


@dataclass
class FisherChaosTable:
    N_grid: np.ndarray
    per_slot: np.ndarray
    gap: np.ndarray
    target: float      # 2 * dissipation of the single-configuration density


def fisher_chaos_check(ctx, h, f, N_grid):
    """Table of the per-slot Dirichlet value and its gap to twice the
    single-configuration dissipation along a grid of N."""
    mu = np.exp(log_gibbs_weights(ctx.J, h))
    mu /= mu.sum()
    f = np.asarray(f, dtype=float)
    if np.min(f) <= 0:
        raise ValueError("the density ratio must be strictly positive")
    f = f / float(mu @ f)
    nu = f * mu
    nu /= nu.sum()
    target = 2.0 * dissipation(ctx, f, mu)
    check_irreducible(nu, ctx.blocks)
    per = np.array([_fisher_per_slot(ctx, mu, nu, int(N)) for N in N_grid])
    return FisherChaosTable(np.asarray(N_grid), per, np.abs(per - target), target)
