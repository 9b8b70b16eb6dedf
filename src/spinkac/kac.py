"""N interacting configurations exchanging spins through pair collisions.

Each ordered pair of configuration slots (including a slot with itself)
carries an exponential clock of rate 1/N; on a ring, a site pair (l, k)
is drawn as l uniform and k from the transport row K(l, .), and the
heat-bath exchange of the two spins is attempted (`collision.walk_acceptance`).
The process preserves the total spin of every irreducible block of K summed
across all slots, so it lives on a count shell, where its stationary law is
the conditioned product of single-configuration Gibbs weights.

Exact routes are gated by total bit count: dense spectra and the
exponentials they give at N*n <= 12, shell enumeration at N*n <= 22.
Count-shell masses, slot marginals and criterion 11's Dirichlet values
for large N go through a log-domain convolution over the block-count
lattice instead of enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .collision import walk_acceptance
from .core import (
    FIELD_TOL,
    ReversibleChain,
    block_count_table,
    check_block_field,
    check_mass,
    check_partition,
    check_probvec,
    code_index,
    covariance,
    cumulative_rows,
    entropy_ratio_scan,
    expit,
    gibbs,
    log_gibbs_weights,
    logsumexp,
    magnetization_profile,
    relative_entropy,
    sample_test_functions,
    site_mask,
    sites_of,
    slice_codes,
    swap_moves,
)
from .dynamics import dissipation
from .errors import CapacityError

EXPONENTIAL_GATE = 12
ENUMERATION_GATE = 22
WALK_BLOCK = 4096  # walk events drawn per generator call


# -- count shells -------------------------------------------------------


def _check_shell(N, blocks, T=None):
    """(N, T) as an int and a tuple of ints; ValueError unless N is an
    integer >= 1 and T, where given, holds one integer count per block,
    each in 0..N|b|. An integral float passes as its int (2.0 as 2).
    Every shell in range is nonempty, as the block masks partition the
    N n bits."""
    tops = [N * len(b) for b in blocks]
    shell = None if T is None else tuple(int(t) for t in T)
    if int(N) != N or N < 1 or shell is not None and (
            shell != tuple(T) or len(shell) != len(tops)
            or any(not 0 <= t <= top for t, top in zip(shell, tops))):
        want = f"need an integer N >= 1, got N = {N}"
        if T is not None:
            want += (f", and T as {len(tops)} integer block counts in 0..N|b| = {tops}, "
                     f"got T = {tuple(T)}")
        raise ValueError(want)
    return int(N), shell


def canonical_counts(nu, blocks, N):
    """Shell counts T_b = floor(N |b| (1 + m_b) / 2) for the product of N
    copies of nu (the canonical shell of that density)."""
    nu = np.asarray(nu, dtype=float)
    n = sites_of(nu)
    blocks = check_partition(blocks, n)
    counts = block_count_table(n, blocks)
    T = []
    for bi, b in enumerate(blocks):
        mean_plus = float(nu @ counts[:, bi])  # E[#plus] in the block, one copy
        m = 2.0 * mean_plus / len(b) - 1.0
        T.append(int(math.floor(N * len(b) * (1.0 + m) / 2.0 + 1e-9)))
    return tuple(T)


def admissible_counts(N, blocks):
    """All shell count tuples with a nonempty shell; N an integer >= 1
    (`_check_shell`)."""
    N, _ = _check_shell(N, blocks)
    return list(itertools.product(*(range(N * len(b) + 1) for b in blocks)))


def density_to_counts(rho, N, blocks):
    """Convert per-block fractions to integer shell counts, demanding
    that N|b|rho_b is an integer."""
    if len(rho) != len(blocks):
        raise ValueError(f"need {len(blocks)} block densities, got {len(rho)}")
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


def restricted_product_measure(single_log_weights, N, blocks, T):
    """Enumerate the count shell T (`_check_shell`) of the product of N
    copies of one single-slot weight table and normalize."""
    table = np.asarray(single_log_weights, dtype=float)
    n = sites_of(table)
    if N * n > ENUMERATION_GATE:
        raise CapacityError(f"shell enumeration gated at N*n <= {ENUMERATION_GATE}")
    blocks = check_partition(blocks, n)
    N, T = _check_shell(N, blocks, T)
    # block b of the combined code: its sites in every slot
    masks = [sum(site_mask(b) << (i * n) for i in range(N)) for b in blocks]
    codes = slice_codes(N * n, masks, T)
    logw = np.zeros(codes.size)
    for i in range(N):
        logw += table[(codes >> (i * n)) & ((1 << n) - 1)]
    probs = np.exp(logw - logsumexp(logw))
    return ParticleMeasure(n, N, blocks, T, codes, probs, logw)


def multicanonical_measure(J, h, N, blocks, T):
    """Conditioned product of Gibbs measures: h is None or one field
    vector shared by all slots, constant on each block (`check_block_field`)."""
    check_block_field(h, check_partition(blocks, len(J)))
    return restricted_product_measure(log_gibbs_weights(J, h), N, blocks, T)


# -- exchange moves on a shell -----------------------------------------


def transition_table(measure, kernel):
    """The shell process as a reversible chain, one entry per edge: each
    exchange of bits a < b (sites l = a mod n, k = b mod n) that stays on
    the shell jumps at rate w r / (N n), r the heat-bath probability from
    the measure's product weights and w = K[l,k] + K[k,l] (2 with kernel
    None, the all-pairs variant), as (a, b) and (b, a) ring the same
    exchange. Identity moves have no entries, and a move off the shell
    has rate zero, so it is dropped too."""
    n, N = measure.n, measure.N
    srcs, dsts, rates = [], [], []
    for a in range(N * n):
        for b in range(a + 1, N * n):
            l, k = a % n, b % n
            w = 2.0 if kernel is None else float(kernel[l, k] + kernel[k, l])
            if w == 0.0:
                continue
            src, dst = swap_moves(measure.codes, a, b)
            if src.size:
                srcs.append(src)
                dsts.append(dst)
                rates.append(w * expit(measure.logw[dst] - measure.logw[src]) / (N * n))
    return ReversibleChain.from_moves(srcs, dsts, rates, measure.probs, measure.logw)


def particle_entropy_decay(measure, kernel, nu0, t_grid):
    """Exact H(nu_t | mu) along the shell semigroup, by symmetrized
    eigendecomposition of the generator: nu0 is projected on the
    eigenbasis once, so each time point costs one matrix-vector product.
    nu0 must be a law on the shell's states (`check_mass`), else
    ValueError."""
    if measure.N * measure.n > EXPONENTIAL_GATE:
        raise CapacityError(f"dense spectra gated at N*n <= {EXPONENTIAL_GATE}")
    nu0 = np.asarray(nu0, dtype=float)
    if nu0.shape != measure.probs.shape:
        raise ValueError(
            f"nu0 needs one entry per shell state, {measure.probs.size}, got shape {nu0.shape}"
        )
    check_mass(nu0, "nu0")
    evals, Q, sq = transition_table(measure, kernel).spectrum()
    mu = measure.probs
    c = (nu0 / sq) @ Q
    out = []
    for t in t_grid:
        nu_t = (Q @ (c * np.exp(t * evals))) * sq
        nu_t = np.maximum(nu_t, 0.0)
        nu_t /= nu_t.sum()
        out.append(relative_entropy(nu_t, mu))
    return np.array(out)


def particle_mlsi_scan(measure, kernel, trials, rng):
    """Minimum of Dirichlet(F, log F) / Ent(F) over random positive F."""
    functions = sample_test_functions(measure.codes.size, trials, rng)
    return entropy_ratio_scan(measure.probs, functions,
                              transition_table(measure, kernel).entropy_production)


# -- event-driven simulation -------------------------------------------


def initial_state_for_counts(n, blocks, N, T):
    """A state on the shell T (`_check_shell`): fill each block's plus
    spins slot by slot."""
    blocks = check_partition(blocks, n)
    N, T = _check_shell(N, blocks, T)
    state = np.zeros(N, dtype=np.int64)
    for b, t in zip(blocks, T):
        slots = [(i, l) for i in range(N) for l in b]
        for i, l in slots[:t]:
            state[i] |= 1 << l
    return state


@dataclass
class ParticleRun:
    final_state: np.ndarray
    events: int
    accepted: int
    occupation: dict | None  # combined code -> occupied time


def _check_init(init, n, blocks, N, T):
    state = np.array(init, dtype=np.int64)
    if state.shape != (N,):
        raise ValueError(f"init must hold N = {N} configurations, got shape {state.shape}")
    if np.any((state < 0) | (state >= 1 << n)):
        raise ValueError(f"init holds a configuration outside 0..{(1 << n) - 1}")
    counts = tuple(int(c) for c in block_count_table(n, blocks)[state].sum(axis=0))
    if counts != T:
        raise ValueError(f"init has block counts {counts}, off the shell {T}")
    return state


def check_run(N, t_end):
    """ValueError unless a particle run has N >= 1 slots and a finite
    t_end >= 0; an infinite or nan horizon would never end the walk."""
    if N < 1 or not 0 <= t_end < math.inf:
        raise ValueError(f"need N >= 1 and t_end >= 0, got N = {N} and t_end = {t_end}")


def simulate_particles(ctx, N, T, t_end, rng, init=None, record_occupation=False):
    """Event-driven exchange among N slots carrying ctx's (J, K).

    Every ordered slot pair has rate 1/N, so events arrive at rate N
    total; each event draws slots (i, j) uniformly, site l uniformly,
    site k from K(l, .), and accepts the spin exchange with the
    heat-bath probability `collision.walk_acceptance`. Events are drawn
    WALK_BLOCK at a time with one generator call per quantity: the
    exponential waits (their running sum gives the event times), i, j,
    l, the uniform that picks k by inverse CDF on the rows of K, and the
    acceptance uniform. The state then changes event by event, and
    events past t_end are dropped.

    Site pairs stay inside one irreducible block of K (ctx.blocks are
    K's components), which conserves the shell counts. A given `init`
    must hold N configurations with block counts T, else ValueError, as
    N < 1, a negative or non-finite t_end (`check_run`) and a T off the
    count lattice (`_check_shell`) are.
    """
    check_run(N, t_end)
    N, T = _check_shell(N, ctx.blocks, T)
    n = ctx.n
    if init is None:
        state = initial_state_for_counts(n, ctx.blocks, N, T)
    else:
        state = _check_init(init, n, ctx.blocks, N, T)
    if record_occupation and N * n > ENUMERATION_GATE:
        raise CapacityError("occupation recording needs N*n within the enumeration gate")
    cum_rows = cumulative_rows(ctx.K)
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
    idx = code_index(measure.codes, np.array(sorted(run.occupation), dtype=np.int64))
    for pos, c in zip(idx, sorted(run.occupation)):
        emp[pos] = run.occupation[c] / total
    return 0.5 * float(np.abs(emp - measure.probs).sum())


# -- count-shell masses by convolution ---------------------------------


def single_count_logdist(nu, blocks):
    """log distribution of the block-count vector of one copy of nu."""
    nu = np.asarray(nu, dtype=float)
    n = sites_of(nu)
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

    With T None, returns the full lattice table for N copies; otherwise
    the entry at the block counts T (`_check_shell`).

    Copy i + 1 adds one support point c of the single-copy count law at
    a time, in a fixed order, to every cell it can reach, by logaddexp.
    Each copy writes only its live box: block b holds at most (i + 1)|b|
    plus spins after i + 1 copies, and with T given a cell above T_b or
    below T_b - (N - i - 1)|b| can no longer reach T. Cells outside the
    box stay -inf. A kept cell reads only sources inside the previous
    box, every one the full lattice would read there with a finite
    value, in the same support order; since logaddexp(x, -inf) == x
    exactly, the skipped -inf sources added nothing, so every kept cell
    has the bits of the full-lattice sweep.
    """
    nu = np.asarray(nu, dtype=float)
    n = sites_of(nu)
    blocks = check_partition(blocks, n)
    if T is not None:
        N, T = _check_shell(N, blocks, T)
    sizes = [len(b) for b in blocks]
    dims = tuple(N * size + 1 for size in sizes)
    logq = single_count_logdist(nu, blocks)
    support = [tuple(int(x) for x in c) for c in np.argwhere(np.isfinite(logq))]
    table = np.full(dims, -np.inf)
    table[tuple(0 for _ in blocks)] = 0.0
    for i in range(N):
        lo = [0] * len(sizes)
        hi = [(i + 1) * size for size in sizes]
        if T is not None:
            lo = [max(0, t - (N - i - 1) * size) for t, size in zip(T, sizes)]
            hi = [min(top, t) for top, t in zip(hi, T)]
        new = np.full(dims, -np.inf)
        for c in support:
            first = [max(a, cb) for a, cb in zip(lo, c)]
            if any(a > b for a, b in zip(first, hi)):
                continue
            dst = tuple(slice(a, b + 1) for a, b in zip(first, hi))
            src = tuple(slice(a - cb, b + 1 - cb) for a, b, cb in zip(first, hi, c))
            new[dst] = np.logaddexp(new[dst], table[src] + logq[c])
        table = new
    if T is None:
        return table
    return float(table[T])


def restricted_mass(nu, blocks, N, T):
    """nu^{xN}(shell with integer block counts T), by the lattice DP."""
    lv = shell_log_mass(nu, blocks, N, T)
    return math.exp(lv) if lv > -745 else 0.0


def canonical_marginal(nu, blocks, N, T, k):
    """Law of the first k slots under the conditioned product, as a dense
    array over (2**n)**k joint masks; 1 <= k <= N."""
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N slots, got k = {k} and N = {N}")
    nu = np.asarray(nu, dtype=float)
    n = sites_of(nu)
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
    including the spacing-2 lattice factor per block. ValueError names a
    block whose count takes one value on the support of nu, so has zero
    variance and no Gaussian."""
    nu = np.asarray(nu, dtype=float)
    n = sites_of(nu)
    blocks = check_partition(blocks, n)
    N, T = _check_shell(N, blocks, T)
    counts = block_count_table(n, blocks)
    for b, c in zip(blocks, counts[nu > 0].T):
        if c.min() == c.max():
            raise ValueError(f"block {tuple(x + 1 for x in b)}: its count is {c[0]} on the "
                             "support of nu, so it has zero variance and no local CLT")
    # spin-sum coordinates: M_b = 2 * count_b - |b|
    M = 2.0 * counts - np.array([len(b) for b in blocks])
    mean = nu @ M
    V = covariance(nu, M)
    S = 2.0 * np.array(T, dtype=float) - N * np.array([len(b) for b in blocks])
    z = np.linalg.solve(np.linalg.cholesky(V), (S - N * mean) / math.sqrt(N))
    b = len(blocks)
    det = float(np.linalg.det(V))
    return (2.0 ** b) * math.exp(-0.5 * float(z @ z)) / ((2.0 * math.pi * N) ** (b / 2.0) * math.sqrt(det))


def check_irreducible(nu, blocks):
    """Every block count must be able to step by +1 somewhere in the
    support of the joint count distribution."""
    nu = np.asarray(nu, dtype=float)
    n = sites_of(nu)
    blocks = check_partition(blocks, n)
    finite = np.isfinite(single_count_logdist(nu, blocks))
    for bi, b in enumerate(blocks):
        along = np.moveaxis(finite, bi, -1)
        if not np.any(along[..., :-1] & along[..., 1:]):
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
    product along a grid of at least two distinct N, with the log-log slope."""
    if len(set(N_grid)) < 2:
        raise ValueError(f"a slope needs at least two distinct N, got N grid {list(N_grid)}")
    check_irreducible(nu, blocks)
    tvs = []
    for N in N_grid:
        T = canonical_counts(nu, blocks, N)
        tvs.append(marginal_tv(nu, blocks, int(N), T, k))
    tvs = np.array(tvs)
    slope = float(np.polyfit(np.log(np.asarray(N_grid, float)), np.log(tvs), 1)[0])
    return ChaosReport(np.asarray(N_grid), tvs, slope)


def _check_same_profile(nu, ref, blocks):
    """ValueError naming the first block whose magnetization under nu is
    more than 10 FIELD_TOL (the field solve's slack) off ref's."""
    for b, x, y in zip(blocks, magnetization_profile(nu, blocks), magnetization_profile(ref, blocks)):
        if abs(x - y) > 10.0 * FIELD_TOL:
            raise ValueError(f"block {tuple(s + 1 for s in b)} has magnetization {x} against {y}; "
                             "one density is off the shell")


def entropic_chaos_gap(nu1, nu2, blocks, N):
    """| (1/N) H(shell product of nu1 | shell product of nu2) - H(nu1|nu2) |.

    The shell is nu2's canonical shell at N, and nu1 must have nu2's
    block profile (`_check_same_profile`) and be absolutely continuous
    w.r.t. nu2.
    """
    nu1 = check_probvec(np.asarray(nu1, dtype=float))
    nu2 = check_probvec(np.asarray(nu2, dtype=float))
    _check_same_profile(nu1, nu2, blocks)
    T = canonical_counts(nu2, blocks, N)
    if np.any((nu1 > 0) & (nu2 == 0)):
        return math.inf
    marg1 = canonical_marginal(nu1, blocks, N, T, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(nu1 > 0, np.log(np.where(nu1 > 0, nu1, 1.0) / np.where(nu2 > 0, nu2, 1.0)), 0.0)
    cross = float(marg1 @ ratio)
    mass_term = (shell_log_mass(nu1, blocks, N, T) - shell_log_mass(nu2, blocks, N, T)) / N
    h_per_slot = cross - mass_term
    return abs(h_per_slot - relative_entropy(nu1, nu2))


def _exchange_sum(log_f, log_mu, K, law):
    """sum_{l<k} (K_lk + K_kl) E_law[1{sigma_l = 1, sigma_k = 0} r (R - 1) log R]
    over the exchange tau of sites l and k, for R = f(tau) / f(sigma) and
    r = expit(log mu(tau) - log mu(sigma)), law a dense array over masks."""
    masks, bits = np.arange(law.size), 1 << np.arange(K.shape[0])
    plus = (masks & bits[:, None]) != 0  # (l, sigma): site l of sigma is +1
    tau = masks ^ (bits[:, None] | bits)[..., None]
    x, y = log_f[tau] - log_f, log_mu[tau] - log_mu
    terms = np.where(plus[:, None] & ~plus, expit(y) * np.expm1(x) * x, 0.0)
    return np.einsum("lk,lks,s->", np.triu(K + K.T, 1), terms, law.ravel())


def _fisher_per_slot(ctx, mu, nu, N):
    """(1/N) Dirichlet(F_N, log F_N) for F_N = gamma_nu / gamma_mu, the
    ratio of the conditioned products of nu and mu on mu's canonical
    shell at N.

    An edge x -> y exchanges bit (i, l) with bit (j, k), so F_N(y) / F_N(x)
    is R = f(tau) f(tau') / (f(sigma) f(sigma')) over the changed slots
    (f(tau) / f(sigma) if i = j), f = nu / mu. As gamma_mu F_N = gamma_nu,
    the edge term gamma_mu(x) r (F_N(y) - F_N(x)) log R is gamma_nu(x)
    r (R - 1) log R, r = expit(change of log mu) the rate of
    `transition_table`. The laws are exchangeable, so the value is
    (1 / (N^2 n)) [C(N, 2) S_2 + N S_1], S_k the `_exchange_sum` over the
    k-slot `canonical_marginal` (across the two slots in S_2), and no shell
    is enumerated. As N -> infinity the two-slot marginal tends to nu x nu
    and the one-slot term fades as 1/N, so the value tends to
    2 `dynamics.dissipation(ctx, f, mu)`.
    """
    T = canonical_counts(mu, ctx.blocks, N)
    log_f, log_mu = np.log(nu / mu), np.log(mu)
    total = N * _exchange_sum(log_f, log_mu, ctx.K, canonical_marginal(nu, ctx.blocks, N, T, 1))
    if N > 1:
        # two slots as one configuration of 2n sites, exchanging across slots only
        pair_f, pair_mu = (np.add.outer(x, x).ravel() for x in (log_f, log_mu))
        nu2 = canonical_marginal(nu, ctx.blocks, N, T, 2)
        total += math.comb(N, 2) * _exchange_sum(pair_f, pair_mu, np.kron([[0, 1], [1, 0]], ctx.K), nu2)
    return float(total) / (N * N * ctx.n)


@dataclass
class FisherChaosTable:
    N_grid: np.ndarray
    per_slot: np.ndarray
    gap: np.ndarray
    target: float      # 2 * dissipation of the single-configuration density


def fisher_chaos_check(ctx, h, f, N_grid):
    """Table of the per-slot Dirichlet value (1/N) Dirichlet(F_N, log F_N)
    and its gap to its N -> infinity limit, twice the single-configuration
    dissipation, along a grid of N. An exchange changes at most two slots,
    so each value is a sum over the one- and two-slot shell marginals of
    nu = f mu (`_fisher_per_slot`), and N has no size gate. The field h
    must be constant on each of ctx.blocks (`check_block_field`), and nu
    must keep mu's block profile (`_check_same_profile`)."""
    check_block_field(h, ctx.blocks)
    mu = gibbs(ctx.J, h)
    f = np.asarray(f, dtype=float)
    if np.min(f) <= 0:
        raise ValueError("the density ratio must be strictly positive")
    f = f / float(mu @ f)
    nu = f * mu
    nu /= nu.sum()
    _check_same_profile(nu, mu, ctx.blocks)
    target = 2.0 * dissipation(ctx, f, mu)
    check_irreducible(nu, ctx.blocks)
    per = np.array([_fisher_per_slot(ctx, mu, nu, int(N)) for N in N_grid])
    return FisherChaosTable(np.asarray(N_grid), per, np.abs(per - target), target)
