"""Pair exchange between two configurations, and the induced bilinear product.

A collision takes an ordered pair (sigma, sigma') and a site pair (l, k):
the proposed outcome copies sigma'[k] into site l of sigma and sigma[l]
into site k of sigma'. The proposal is accepted with the heat-bath
probability built from the *zero-field* quadratic weights of both
configurations, which makes the two-configuration kernel reversible for
any product Gibbs measure whose field is constant on each irreducible
block of the site-transport kernel K.

The site pair is drawn from K(l, k) / n, so the per-configuration jump
rate stays O(1) as n grows.

The product has three routes, chosen by n alone:

* ``tensor`` — the full bilinear operator as one (2^n, 4^n) matrix,
               built once per context; used for n <= 5, where it is the
               fastest route and the one whose bits the goldens pin
               (0.26 MB at n = 5).
* ``flux``   — one (n 2^n, 2^n) table G, built once per context, with
               G_l[sigma, sigma'] the weighted acceptance of the moves
               that carry sigma to sigma ^ (1 << l); a product is one
               matvec with G per distinct input and one gather. Used
               for n = 6, 7, where the (2^n, 4^n) operator (16 MB at
               n = 7) no longer fits in cache and the table (0.9 MB at
               n = 7) does.
* ``stream`` — one 2^(n-1) x 2^(n-1) acceptance block per unordered
               site pair {l, k}, written in exp form into one reused
               buffer; the pair (l, k) multiplies it into four columns
               and the reversed pair its transpose, since the block of
               (k, l) is 1 - (block of (l, k))^T. No big table; used
               for n = 8..12 at O(4^(n-1)) memory, where building the
               flux table costs more than the few products a caller
               takes there. An integrator's stage
               (`CollisionContext.square_stage`) builds its blocks with
               itself at n <= KEPT_BLOCKS_N_MAX and keeps them for its
               own life, so every call does only the matrix products.

The tests compare every route with the defining sum evaluated by plain
loops, and check reversibility move by move (`product_reference` and
`detailed_balance_residual` in tests/test_collision.py).

The exchange acceptance lives here alone: `CollisionContext.acceptance`
(one pair, or the full grid of `moves`) and `walk_acceptance` (a pair
or one configuration, for `kac.simulate_particles`). The scalar
one-configuration form is a test oracle (`diagonal_acceptance` in
tests/test_kac.py).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (
    check_interaction,
    check_partition,
    check_probvec,
    check_sites,
    expit,
    log_gibbs_weights,
    spins_of,
)
from .errors import CapacityError

PRODUCT_N_MAX = 12
TENSOR_N_MAX = 5
FLUX_N_MAX = 7
KEPT_BLOCKS_N_MAX = 9
"""Largest n whose stream-route stage builds its acceptance blocks when
it is made and keeps them, one (2^(n-1), 2^(n-1)) block per unordered
site pair: 4.7 MB at n = 8 and 23.6 MB at n = 9 under a mean-field
kernel, against one reused block of 0.13 and 0.52 MB. With one BLAS
thread on a 2-CPU x86-64 machine one RK4 step went from 10.7 to 5.2 ms
at n = 8 and from 42.9 to 11.4 ms at n = 9. At n = 10 the blocks would
hold 115 MB for under 2x (a 4-step `evolve` from 0.98-1.24 s to 0.61 s,
peak RSS 38 to 147 MB), so n = 10..12 keep one buffer."""
KERNEL_KINDS = ("single-site", "mean-field", "blocks", "matrix")  # of build_transport_kernel


def single_site_kernel(n):
    return np.eye(n)


def mean_field_kernel(n):
    return np.full((n, n), 1.0 / n)


def blocks_kernel(n, blocks):
    blocks = check_partition(blocks, n)
    K = np.zeros((n, n))
    for b in blocks:
        idx = np.array(b)
        K[np.ix_(idx, idx)] = 1.0 / len(b)
    return K


def check_transport_kernel(K, n=None):
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"transport kernel must be square, got shape {K.shape}")
    if n is not None and K.shape[0] != n:
        raise ValueError(f"transport kernel is {K.shape[0]}x{K.shape[0]}, expected n = {n}")
    if not np.isfinite(K).all():
        raise ValueError(f"transport kernel entries must be finite, got {K[~np.isfinite(K)]}")
    if np.min(K) < 0:
        raise ValueError("transport kernel has a negative entry")
    if np.max(np.abs(K - K.T)) > 1e-12:
        raise ValueError("transport kernel must be symmetric")
    rows = np.sum(K, axis=1)
    if np.max(np.abs(rows - 1.0)) > 1e-12:
        raise ValueError(f"transport kernel rows must sum to 1, got {rows}")
    return K


def build_transport_kernel(kind, n, blocks=None, matrix=None):
    n = check_sites(n)
    if kind == "single-site":
        return single_site_kernel(n)
    if kind == "mean-field":
        return mean_field_kernel(n)
    if kind == "blocks":
        if blocks is None:
            raise ValueError("blocks kernel needs a partition")
        return blocks_kernel(n, blocks)
    if kind == "matrix":
        if matrix is None:
            raise ValueError("matrix kernel needs the matrix")
        return check_transport_kernel(matrix, n)
    raise ValueError(f"unknown kernel kind {kind!r}")


def kernel_components(K):
    """Irreducible blocks of the site-transport kernel, as a sorted tuple
    of sorted site tuples. The reachability relation of supp K comes from
    n.bit_length() squarings of (K > 0) | I, which covers paths of up to
    2**bit_length >= n steps."""
    K = check_transport_kernel(K)
    n = K.shape[0]
    reach = (K > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(np.int64) @ reach) > 0
    return tuple(sorted({tuple(np.flatnonzero(row).tolist()) for row in reach}))


def _halves(x, bit):
    """Entries of x (indexed by mask) at the masks with `bit` clear and
    at those with it set, each in increasing mask order."""
    x = x.reshape(-1, 2, 1 << bit)
    return x[:, 0].ravel(), x[:, 1].ravel()


def exchange(sigma, sigma_p, l, k):
    """Swap site l of sigma with site k of sigma' (mask arithmetic)."""
    a = (sigma_p >> k) & 1
    b = (sigma >> l) & 1
    tau = (sigma & ~(1 << l)) | (a << l)
    tau_p = (sigma_p & ~(1 << k)) | (b << k)
    return tau, tau_p


def walk_acceptance(fields, logw, l, k, si, sj, same_slot):
    """Heat-bath acceptance of one event of the N-slot walk
    (`kac.simulate_particles`), read from the plain lists
    `ctx.fields.tolist()` and `ctx.logw.tolist()`.

    Equals the test oracle `diagonal_acceptance(ctx, l, k, si)` of
    tests/test_kac.py for an event that pairs a slot with itself and
    `ctx.acceptance(l, k, si, sj)` otherwise, bit for bit: the rule of
    `core.expit`, written out so that an event makes no further call.
    Where exp(-logit) overflows (logit below about -709.78) it returns
    0.0, expit's limit, so no coupling size can raise.
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
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


class StackStage:
    """The stage of an integrator that advances a (rows, 2^n) stack of
    stage vectors together: a call squares row r through the route of
    ctxs[r], with the bits of `ctxs[r].square_stage()` on that row alone.

    On the tensor route (n <= TENSOR_N_MAX) a call is one batched
    np.matmul of the stacked (2^n, 4^n) operators with the (rows, 4^n, 1)
    pair masses. NumPy runs it as one gemv per row, the BLAS call of
    `_product_tensor`'s `B @ W.ravel()`, so the bits are the same; one
    row takes that 2-D product itself, which costs less. On the flux and
    stream routes a call runs each row's own `square_stage` (which builds
    its stream blocks here at n <= KEPT_BLOCKS_N_MAX). `take(rows)` is
    the stage of a sub-stack of the rows, for the rows that halve a
    step. A context past the product gate raises CapacityError here,
    before any work."""

    def __init__(self, ctxs):
        sizes = {ctx.n for ctx in ctxs}
        if len(sizes) != 1:
            raise ValueError(f"a stage stack needs contexts of one size, got n in {sorted(sizes)}")
        self._ops = self._rows = None
        if sizes.pop() > TENSOR_N_MAX:
            self._rows = [ctx.square_stage() for ctx in ctxs]
        elif len(ctxs) == 1:
            self._ops = ctxs[0]._tensor_matrix()[None]
        else:
            self._ops = np.stack([ctx._tensor_matrix() for ctx in ctxs])

    def __call__(self, y):
        if self._rows is not None:
            if len(y) == 1:
                return self._rows[0](y[0])[None]
            out = np.empty(y.shape)
            for r, stage in enumerate(self._rows):
                out[r] = stage(y[r])
            return out
        if len(y) == 1:
            return (self._ops[0] @ (y.T * y).ravel())[None]
        W = y[:, :, None] * y[:, None, :]
        return np.matmul(self._ops, W.reshape(len(y), -1, 1)).reshape(y.shape)

    def take(self, rows):
        sub = object.__new__(StackStage)
        sub._ops = None if self._ops is None else self._ops[rows]
        sub._rows = None if self._rows is None else [self._rows[r] for r in rows]
        return sub


class CollisionContext:
    """Precomputed tables for one (J, K) pair.

    Attributes
    ----------
    n : int
    J, K : float arrays
    blocks : tuple of tuples
        Irreducible blocks of K; fields must be constant on these for
        the product measure to be reversible.
    pairs : list of (l, k, weight) with weight = K[l, k] / n over supp K.
    total_weight : float
        The sum of the pair weights.
    """

    def __init__(self, J, K):
        self.J = check_interaction(J)
        self.n = check_sites(self.J.shape[0])
        self.K = check_transport_kernel(K, self.n)
        self.blocks = kernel_components(self.K)
        self.masks = np.arange(1 << self.n, dtype=np.int64)
        s = spins_of(self.masks, self.n)
        self.spins = s
        # cavity field at site l: sum_{j != l} J[l, j] * s_j
        self.fields = s @ self.J - s * np.diag(self.J)
        self.logw = log_gibbs_weights(self.J)
        self.pairs = [
            (l, k, self.K[l, k] / self.n)
            for l in range(self.n)
            for k in range(self.n)
            if self.K[l, k] > 0
        ]
        self.total_weight = sum(w for _, _, w in self.pairs)
        self._tensor = None
        self._flux = None

    # -- acceptance -------------------------------------------------------

    def acceptance(self, l, k, sigma, sigma_p):
        """Heat-bath acceptance for exchanging site l of sigma with site k
        of sigma'. Equals 1/2 whenever the two spins already agree. The
        masks broadcast, so a column and a row of them give the full grid."""
        a = ((sigma_p >> k) & 1) * 2 - 1
        b = ((sigma >> l) & 1) * 2 - 1
        logit = (a - b) * (self.fields[sigma, l] - self.fields[sigma_p, k])
        return expit(logit)

    # -- product ----------------------------------------------------------

    def product(self, p, q):
        """Symmetrized collision product of two densities.

        The route is chosen from n alone. The tensor route serves
        n <= TENSOR_N_MAX, where one (2^n, 4^n) matvec is the fastest
        product: at n = 5, with one BLAS thread on a 2-CPU x86-64
        machine, a square product took 11 us through the (32, 1024)
        operator (0.26 MB) against 26-31 us through the flux table, and
        a general one 18 us against 34-40 us. The flux route serves
        n <= FLUX_N_MAX: one matvec with the (n 2^n, 2^n) flux table
        per distinct input and one gather, where the dense operator
        would no longer fit in cache (16 MB at n = 7, against 0.9 MB
        for the table). The stream route serves n <= PRODUCT_N_MAX:
        per unordered site pair {l, k} it evaluates one
        2^(n-1) x 2^(n-1) acceptance block, as 1 / (1 + exp(.)) in one
        buffer reused across pairs, and one matrix product per
        direction with a nonzero weight (the reversed pair through
        1 - block^T), in O(4^(n-1)) memory; there building the flux
        table would cost more than the few products a caller takes.
        Larger n raises CapacityError. This method keeps no block from
        one call to the next; only `square_stage` does.

        The square `product(p, p)` forms its pair mass once, in the
        tensor and the flux route, with the same bits as
        `product(p, p.copy())`, since 0.5 * (x + x) == x. Both
        inputs must be probability vectors (`check_probvec`).
        """
        square = p is q
        p = check_probvec(p, self.n)
        q = p if square else check_probvec(q, self.n)
        return self._route()(p, q)

    def square_stage(self):
        """The map y -> route(y, y) of `product`'s route, chosen once, for
        an integrator that squares many stage vectors of one context; it
        skips only the check, which a stage vector (mass 1, maybe with
        roundoff-negative entries) may fail.

        On the stream route at n <= KEPT_BLOCKS_N_MAX (n = 8, 9) the
        stage builds one acceptance block per unordered site pair here,
        and keeps them for as long as it lives (one `evolve` call): every
        call reuses them, with the bits of `_product_stream(y, y)`. The
        context keeps none of them; at n = 10..12 each call refills one
        reused buffer, as `product` does on every route. A context past
        the product gate raises CapacityError here."""
        route = self._route()
        if FLUX_N_MAX < self.n <= KEPT_BLOCKS_N_MAX:
            route = functools.partial(self._product_stream, kept=list(self._acceptance_blocks()))
        return lambda y: route(y, y)

    def _route(self):
        if self.n <= TENSOR_N_MAX:
            return self._product_tensor
        if self.n <= FLUX_N_MAX:
            return self._product_flux
        if self.n > PRODUCT_N_MAX:
            raise CapacityError(f"exact products gated at n <= {PRODUCT_N_MAX}")
        return self._product_stream

    def moves(self):
        """Yield (w, P, tau, tau_p) for every site pair (l, k, w) in
        `pairs`: P[sigma, sigma'] is the acceptance and (tau, tau_p)
        the exchanged configurations, each indexed by (sigma, sigma')."""
        sigma, sigma_p = self.masks[:, None], self.masks[None, :]
        for l, k, w in self.pairs:
            tau, tau_p = exchange(sigma, sigma_p, l, k)
            yield w, self.acceptance(l, k, sigma, sigma_p), tau, tau_p

    def _tensor_matrix(self):
        if self._tensor is None:
            size = 1 << self.n
            B = np.zeros((size, size * size))
            masks = self.masks
            pair_index = masks[:, None] * size + masks[None, :]
            flat_rej = (masks[:, None] * (size * size) + pair_index).ravel()
            for w, P, tau, _ in self.moves():
                flat_acc = tau * (size * size) + pair_index
                np.add.at(B.ravel(), flat_acc.ravel(), (w * P).ravel())
                np.add.at(B.ravel(), flat_rej, (w * (1.0 - P)).ravel())
            self._tensor = B
        return self._tensor

    def _product_tensor(self, p, q):
        if p is q:
            W = np.multiply.outer(p, p)
        else:
            W = 0.5 * (np.multiply.outer(p, q) + np.multiply.outer(q, p))
        return self._tensor_matrix() @ W.ravel()

    def _flux_table(self):
        """(G, flip): G[l * 2^n + sigma, sigma'] sums w * A over the pairs
        (l, k, w) with sigma'[k] != sigma[l], the moves that carry sigma
        to flip[l, sigma] = sigma ^ (1 << l)."""
        if self._flux is None:
            n, size = self.n, 1 << self.n
            G = np.zeros((n, size, size))
            sigma = self.masks[:, None]
            for (l, _, _), (w, P, tau, _) in zip(self.pairs, self.moves()):
                G[l] += np.where(tau != sigma, w * P, 0.0)
            flip = self.masks ^ (1 << np.arange(n))[:, None]
            self._flux = G.reshape(n * size, size), flip
        return self._flux

    def _product_flux(self, p, q):
        # Where sigma[l] == sigma'[k] the move keeps (sigma, sigma') with
        # acceptance 1/2, so every pair keeps its mass at sigma except
        # the accepted moves that flip bit l. With W = (pq' + qp') / 2
        # the mass leaving sigma across bit l is
        # F_l = (p * G_l q + q * G_l p) / 2, and it arrives at
        # sigma ^ (1 << l).
        G, flip = self._flux_table()
        shape = flip.shape
        if p is q:
            F = p * (G @ p).reshape(shape)
        else:
            F = 0.5 * (p * (G @ q).reshape(shape) + q * (G @ p).reshape(shape))
        out = (0.5 * self.total_weight) * (p * q.sum() + q * p.sum())
        return out - F.sum(axis=0) + np.take_along_axis(F, flip, axis=1).sum(axis=0)

    def _acceptance_blocks(self, buffer=None):
        """Yield (l, k, E_lk) for every unordered site pair {l, k}, l <= k,
        with a nonzero weight in either direction, l-major:
        E_lk[a, b] = 1 / (1 + exp(2 f_k[b] - 2 f_l[a])), the two cavity
        fields taken at the configurations with bit l, respectively bit
        k, clear. Each block is written into `buffer`, one (h, h) array
        reused across pairs, or into a new array where buffer is None;
        where exp overflows to inf the reciprocal gives 0, expit's
        limit."""
        n = self.n
        h = 1 << (n - 1)
        f2 = [2.0 * _halves(self.fields[:, l], l)[0] for l in range(n)]
        for l in range(n):
            for k in range(l, n):
                if self.K[l, k] == 0.0 and self.K[k, l] == 0.0:
                    continue
                E = np.empty((h, h)) if buffer is None else buffer
                np.subtract.outer(f2[k], f2[l], out=E.T)
                with np.errstate(over="ignore"):
                    np.exp(E, out=E)
                E += 1.0
                np.reciprocal(E, out=E)
                yield l, k, E

    def _product_stream(self, p, q, kept=None):
        # Where sigma[l] == sigma'[k] the move keeps (sigma, sigma') with
        # acceptance 1/2, so only the two disagreeing quarter blocks move
        # mass, from sigma to sigma ^ (1 << l). The cavity field f_l does
        # not depend on sigma[l], so the acceptance is
        # E_lk = expit(2 f_l - 2 f_k) = 1 / (1 + exp(2 f_k - 2 f_l)) on the
        # block (sigma[l], sigma'[k]) = (0, 1) and 1 - E_lk on (1, 0), both
        # indexed by the other bits. W = (pq' + qp') / 2 has rank 2, so
        # twice the accepted mass leaving sigma (a0, a1) comes from one
        # product of E_lk with four columns. The reversed pair needs no
        # block of its own: E_kl = 1 - E_lk^T, so its product is
        # colsum - E_lk^T @ columns. Without `kept`, one buffer holds E_lk
        # for every unordered pair {l, k} in turn. With it, the list of
        # `_acceptance_blocks()` that `square_stage` built, a call skips
        # every exp; the products are the same.
        n = self.n
        cols = [np.column_stack(_halves(p, l) + _halves(q, l)) for l in range(n)]
        sums = [c.sum(axis=0) for c in cols]
        out = (0.5 * self.total_weight) * (p * q.sum() + q * p.sum())

        def shift(l, k, w, M):
            # M = E_lk @ cols[k]: move the accepted mass of the ordered
            # pair (l, k) across bit l
            p0, p1, q0, q1 = cols[l].T
            a0 = p0 * M[:, 3] + q0 * M[:, 1]
            a1 = p1 * (sums[k][2] - M[:, 2]) + q1 * (sums[k][0] - M[:, 0])
            d = (0.5 * w) * (a1 - a0).reshape(-1, 1 << l)
            out_l = out.reshape(-1, 2, 1 << l)
            out_l[:, 0] += d
            out_l[:, 1] -= d

        if kept is None:
            kept = self._acceptance_blocks(np.empty((1 << (n - 1),) * 2))
        for l, k, E in kept:
            w_lk, w_kl = self.K[l, k] / n, self.K[k, l] / n
            if w_lk > 0.0:
                shift(l, k, w_lk, E @ cols[k])
            if w_kl > 0.0 and k != l:
                shift(k, l, w_kl, sums[l] - E.T @ cols[l])
        return out
