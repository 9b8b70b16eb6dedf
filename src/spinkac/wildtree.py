"""Branching-tree and marked-partition representations of the flow.

A random binary tree grows from the root by splitting each leaf at unit
rate; the flow's solution at time t is the expectation, over the tree
alive at t, of the leafwise collision product of the initial density
(the Wild sum). A tree is a nested tuple: a leaf is ``()`` and a split
node is ``(child0, child1)``, collapsed as ``child0 o child1``, so the
leaves read left to right. Every leaf carries the same initial density.

The zero-coupling flow additionally admits a dual description by a
marked partition process: a fragment ``(A, mark)`` carries a site set A
as an int bit mask and an optional mark, and each fragment
independently splits by one of four equally likely moves per step. The
fragment order mirrors the regular binary tree of the same depth, so
depth-u expectations can be compared against the u-fold square
iteration of the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

MAX_LEAVES = 1 << 20
MAX_STEPS = 100_000
EMPTY_FRAGMENT = (0, None)


def sample_tree(t, rng):
    """Draw the branching tree alive at time t, as a nested tuple.

    Nodes draw their split times in pre-order, child 1 before child 0.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    leaves = 1

    def grow(birth):
        nonlocal leaves
        split_at = birth + rng.exponential()
        if split_at > t:
            return ()
        leaves += 1
        if leaves > MAX_LEAVES:
            raise CapacityError(f"tree exceeded {MAX_LEAVES} leaves at t = {t}")
        child1 = grow(split_at)
        child0 = grow(split_at)
        return (child0, child1)

    return grow(0.0)


def _leaves(tree):
    return _leaves(tree[0]) + _leaves(tree[1]) if tree else 1


def eval_tree(ctx, tree, p):
    """Collapse a tree bottom-up with the collision product, with the
    density p at every leaf."""

    def value(node):
        return ctx.product(value(node[0]), value(node[1])) if node else p

    return value(tree)


def discrete_iterate(ctx, p, k):
    """k-fold square iteration: p, p o p, (p o p) o (p o p), ..."""
    q = np.asarray(p, dtype=float)
    for _ in range(k):
        q = ctx.product(q, q)
    return q


@dataclass(frozen=True)
class Moments:
    """Running moments of a vector Monte Carlo estimator.

    `mean` is the sample mean and `m2` the sum of squared deviations
    from it, both accumulated by Welford's update, so identical samples
    give m2 = 0 exactly; `leaves` is the total leaf count of the trees
    drawn (0 for the partition process). Batches combine with `+` by
    the pairwise update of Chan, Golub and LeVeque (1979); adding them
    in a fixed order gives the same bytes however the batches were run.
    """

    mean: np.ndarray
    m2: np.ndarray
    samples: int
    leaves: int = 0

    def __add__(self, other):
        count = self.samples + other.samples
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.samples / count)
        m2 = self.m2 + other.m2 + delta * delta * (self.samples * other.samples / count)
        return Moments(mean, m2, count, self.leaves + other.leaves)

    @property
    def stderr(self):
        return np.sqrt(self.m2 / self.samples / self.samples)

    @property
    def mean_leaves(self):
        return self.leaves / self.samples

    def sigmas(self, exact, floor):
        """Largest componentwise |mean - exact| in standard errors, each
        error floored at `floor`."""
        return float(np.max(np.abs(self.mean - exact) / np.maximum(self.stderr, floor)))


def mc_solution(ctx, p0, t, samples, rng):
    """Monte Carlo solution of the flow at time t by tree averaging."""
    if samples < 1:
        raise ValueError("need at least one sample")
    p0 = np.asarray(p0, dtype=float)
    mean = np.zeros(1 << ctx.n)
    m2 = np.zeros(1 << ctx.n)
    leaves = 0
    for i in range(1, samples + 1):
        tree = sample_tree(t, rng)
        val = eval_tree(ctx, tree, p0)
        delta = val - mean
        mean += delta / i
        m2 += delta * (val - mean)
        leaves += _leaves(tree)
    return Moments(mean, m2, samples, leaves)


# -- marked partition process -------------------------------------------


def lazy_kernel(K):
    """One-step site chain slowed to rate 1/n: (1/n) K + (1 - 1/n) I."""
    n = K.shape[0]
    return K / n + (1.0 - 1.0 / n) * np.eye(n)


def _sampler(P):
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0

    def step(x, rng):
        return int(np.searchsorted(cum[x], rng.random(), side="right"))

    return step


def split_fragment(frag, u, b, step_K, step_lazy, rng):
    """Apply one of the four equally likely moves to a fragment.

    b = 1 keeps the fragment left, b = 2 keeps it right. b in {3, 4}
    refreshes: an unmarked set either sheds the drawn site into a fresh
    marked singleton (site in set) or stands pat (site outside); a
    marked singleton moves its mark by the lazy chain. b = 4 applies
    the refresh and then swaps the output pair, including in the
    stand-pat sub-case.
    """
    A, mark = frag
    if b == 1:
        return frag, EMPTY_FRAGMENT
    if b == 2:
        return EMPTY_FRAGMENT, frag
    if mark is None:
        if A >> u & 1:
            pair = ((A & ~(1 << u), None), (1 << u, step_K(u, rng)))
        else:
            pair = ((A, None), EMPTY_FRAGMENT)
    else:
        pair = ((A, step_lazy(mark, rng)), EMPTY_FRAGMENT)
    return pair if b == 3 else (pair[1], pair[0])


class PartitionProcess:
    """Fragment dynamics for a given site-transport kernel."""

    def __init__(self, K):
        self.K = np.asarray(K, dtype=float)
        self.n = self.K.shape[0]
        self._step_K = _sampler(self.K)
        self._step_lazy = _sampler(lazy_kernel(self.K))

    def initial(self):
        return [((1 << self.n) - 1, None)]

    def step(self, fragments, rng, drop_empty=False):
        out = []
        for frag in fragments:
            u = int(rng.integers(self.n))
            b = int(rng.integers(1, 5))
            for child in split_fragment(frag, u, b, self._step_K, self._step_lazy, rng):
                if drop_empty and child == EMPTY_FRAGMENT:
                    continue
                out.append(child)
        return out

    def run(self, depth, rng):
        """Fragments after `depth` steps, in binary-tree order (2**depth)."""
        if depth > 20:
            raise CapacityError("fragment count 2**depth exceeds the gate at depth 20")
        frags = self.initial()
        for _ in range(depth):
            frags = self.step(frags, rng)
        return frags

    def fragmentation_time(self, rng):
        """Steps until every surviving fragment is a marked singleton."""
        frags = self.initial()
        steps = 0
        while any(mark is None for _, mark in frags):
            frags = self.step(frags, rng, drop_empty=True)
            steps += 1
            if steps > MAX_STEPS:
                raise CapacityError(f"fragmentation exceeded {MAX_STEPS} steps")
        return steps


def fragment_factor(p, frag, n):
    """The state-space factor a fragment contributes to the product
    estimate: at each full mask s, the p-marginal of s restricted to A.

    A marked singleton A = {j} takes the marginal of the mark's site
    instead, read at s's bit j.
    """
    A, mark = frag
    masks = np.arange(1 << n, dtype=np.int64)
    if mark is None:
        on = masks & A
        return np.bincount(on, weights=p, minlength=1 << n)[on]
    bit = 1 << mark
    marg = np.bincount(masks & bit, weights=p, minlength=1 << n)
    return np.where(masks & A, marg[bit], marg[0])


def mpp_expectation(K, p, depth, runs, rng):
    """Monte Carlo estimate of the depth-u iterated product of p at zero
    coupling, via the marked-partition representation."""
    if runs < 1:
        raise ValueError("need at least one run")
    proc = PartitionProcess(K)
    n = proc.n
    size = 1 << n
    p = np.asarray(p, dtype=float)
    mean = np.zeros(size)
    m2 = np.zeros(size)
    for i in range(1, runs + 1):
        frags = proc.run(depth, rng)
        est = np.ones(size)
        for frag in frags:
            if frag == EMPTY_FRAGMENT:
                continue
            est *= fragment_factor(p, frag, n)
        delta = est - mean
        mean += delta / i
        m2 += delta * (est - mean)
    return Moments(mean, m2, runs)


def mpp_representation_check(ctx, p, depth, runs, rng):
    """Compare the partition-process estimate with the exact iterated
    product of p. Zero coupling only. Returns (estimate, exact, max_sigmas)."""
    if np.any(ctx.J != 0.0):
        raise ValueError("the partition representation requires zero coupling")
    est = mpp_expectation(ctx.K, p, depth, runs, rng)
    exact = discrete_iterate(ctx, p, depth)
    return est, exact, est.sigmas(exact, 1e-15)


def fragmentation_times(K, runs, rng):
    """Fragmentation times of `runs` independent partition processes, as
    a list, so batches concatenate with `+`."""
    proc = PartitionProcess(K)
    return [proc.fragmentation_time(rng) for _ in range(runs)]


def fragmentation_tail(times, n):
    """Empirical tail P(H >= u) of n-site fragmentation times.

    Returns (u values, tail estimates, stderr) for u = 1 up to past the
    n e^{-u/2n} crossing of 1/runs."""
    times = np.asarray(times)
    runs = times.size
    horizon = int(2 * n * math.log(max(runs, 2) * n)) + 1
    u = np.arange(1, horizon + 1)
    tail = np.array([(times >= uu).mean() for uu in u])
    stderr = np.sqrt(np.maximum(tail * (1 - tail), 0.0) / runs)
    return u, tail, stderr
