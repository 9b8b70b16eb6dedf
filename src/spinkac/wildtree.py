"""Branching-tree and marked-partition representations of the flow.

A random binary tree grows from the root by splitting each leaf at unit
rate; the flow's solution at time t is the expectation, over the tree
alive at t, of the leafwise collision product of the initial density
(the Wild sum). A tree is a nested tuple: a leaf is ``()`` and a split
node is ``(child0, child1)``, collapsed as ``child0 o child1``, so the
leaves read left to right. Every leaf carries the same initial density.
`sample_trees` draws the trees of a Monte Carlo sum from blocks of
exponential waits and decodes them with one explicit stack, node by
node in the order of one scalar draw per node, then rewinds the stream
to exactly where those scalar draws would leave it. Trees collapse
through one evaluator, `tree_evaluator`, that keeps, for the length of
one call, the value of every subtree it has met, keyed by the nested
tuple; small subtrees recur across the trees of a Monte Carlo sum, so
each distinct one is multiplied out once.

The zero-coupling flow additionally admits a dual description by a
marked partition process: a fragment ``(A, mark)`` carries a site set A
as an int bit mask and a mark (-1 for none; the empty fragment is
``(0, -1)``), and each fragment independently splits by one of four
equally likely moves per step. A batch of runs is held as two int
arrays of shape (runs, 2**depth), one for A and one for the marks, and
one step draws the sites, moves and uniforms of every fragment of the
batch in one call each. The fragment order mirrors the regular binary
tree of the same depth, so depth-u expectations can be compared against
the u-fold square iteration of the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_probvec, cumulative_rows
from .errors import CapacityError

MAX_LEAVES = 1 << 20
MAX_STEPS = 100_000
MEMO_ENTRIES = 1 << 16
BATCH_FRAGMENTS = 1 << 14
DRAW_BLOCK = 1 << 12


def sample_trees(t, count, rng):
    """Draw `count` branching trees alive at time t, one after another
    from rng, as an iterator of (tree, leaf count) pairs.

    Every node draws an exponential waiting time to its split, in
    pre-order, child 1 before child 0. The waits come from blocks of
    DRAW_BLOCK `rng.exponential` draws, the same values one scalar call
    per node would return, and one explicit stack decodes them into
    trees, so a deep tree reaches the MAX_LEAVES gate (CapacityError)
    rather than the recursion limit. The stream state is kept before
    each block; before the last tree is handed out, the stream is set
    back to it and the last block drawn again up to the draws the trees
    used, so rng ends exactly where per-node draws would leave it, also
    after a one-tree call read with next().
    """
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and nonnegative, got t = {t}")
    return _grow_trees(float(t), count, rng)


def _grow_trees(t, count, rng):
    made = used = drawn = 0  # trees made, draws they took, draws before this block
    leaves, birth = 1, 0.0
    # one entry per split node on the path from the root: its split time
    # while its child 1 grows, then child 1 while its child 0 grows
    stack = []
    while made < count:
        state = rng.bit_generator.state
        draws = rng.exponential(size=DRAW_BLOCK).tolist()
        for wait in draws:
            split_at = birth + wait
            if split_at <= t:
                leaves += 1
                if leaves > MAX_LEAVES:
                    raise CapacityError(f"tree exceeded {MAX_LEAVES} leaves at t = {t}")
                stack.append(split_at)
                birth = split_at
                continue
            node = ()
            while stack and type(stack[-1]) is tuple:
                node = (node, stack.pop())
            if stack:
                birth = stack[-1]
                stack[-1] = node
                continue
            made += 1
            used += 2 * leaves - 1  # one draw per node
            if made == count:
                rng.bit_generator.state = state
                rng.exponential(size=used - drawn)
                yield node, leaves
                return
            yield node, leaves
            leaves, birth = 1, 0.0
        drawn += len(draws)


def tree_evaluator(ctx, p):
    """The tree evaluator: a function that collapses a tree bottom-up
    with the collision product, with the density p at every leaf.

    It keeps the value of each subtree it has collapsed, keyed by the
    nested tuple itself, so a subtree that recurs (within one tree or
    across the trees of one call) is multiplied out once. The keys are
    ordered, so no symmetry of the product is assumed. Past
    MEMO_ENTRIES values it starts afresh: at long horizons most large
    subtrees are distinct, and the restart bounds the memory without
    changing any value. The memo is reachable from the returned
    function alone, with no reference cycle, so it is freed with that
    function rather than at a later garbage collection.
    """
    memo = {(): p}
    return lambda node: _collapse(ctx, p, memo, node)


def _collapse(ctx, p, memo, node):
    val = memo.get(node)
    if val is None:
        val = ctx.product(_collapse(ctx, p, memo, node[0]), _collapse(ctx, p, memo, node[1]))
        if len(memo) >= MEMO_ENTRIES:
            memo.clear()
            memo[()] = p
        memo[node] = val
    return val


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
    from it. The tree estimator accumulates both by Welford's update;
    the partition process takes two passes over its batch of deviations
    from the first sample. Either way identical samples give m2 = 0
    exactly. `leaves` is the total leaf count of the trees drawn (0 for
    the partition process). Each estimate is drawn from one stream.
    """

    mean: np.ndarray
    m2: np.ndarray
    samples: int
    leaves: int = 0

    @property
    def stderr(self):
        return np.sqrt(self.m2 / self.samples / self.samples)

    @property
    def mean_leaves(self):
        return self.leaves / self.samples

    def sigmas(self, exact):
        """Largest componentwise |mean - exact| in standard errors, each
        error floored at 1e-12."""
        return float(np.max(np.abs(self.mean - exact) / np.maximum(self.stderr, 1e-12)))


def mc_solution(ctx, p0, t, samples, rng):
    """Monte Carlo solution of the flow at time t by tree averaging; p0
    is checked on entry, since at t = 0 no product checks it.

    The trees come from `sample_trees`, so rng ends where one draw per
    node leaves it. Each tree's value, read from the evaluator, updates
    the running mean and m2 component by component in Python floats,
    with the operations numpy's elementwise Welford update applies.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    p0 = check_probvec(p0, ctx.n)
    mean = [0.0] * p0.size
    m2 = [0.0] * p0.size
    total = 0
    value = tree_evaluator(ctx, p0)
    for i, (tree, leaves) in enumerate(sample_trees(t, samples, rng), 1):
        total += leaves
        for s, v in enumerate(value(tree).tolist()):
            delta = v - mean[s]
            mean[s] += delta / i
            m2[s] += delta * (v - mean[s])
    return Moments(np.array(mean), np.array(m2), samples, total)


# -- marked partition process -------------------------------------------


def lazy_kernel(K):
    """One-step site chain slowed to rate 1/n: (1/n) K + (1 - 1/n) I."""
    n = K.shape[0]
    return K / n + (1.0 - 1.0 / n) * np.eye(n)


def split_fragment(A, mark, u, b, r, cum_K, cum_lazy):
    """Apply one of the four equally likely moves to each fragment.

    A and mark are int arrays of one shape, the site mask and the mark
    (-1 for none) of each fragment; u, b and r hold each fragment's
    drawn site, move and uniform. cum_K and cum_lazy are the cumulative
    rows of K and of its lazy chain. Returns the two children, each an
    (A, mark) pair of arrays.

    b = 1 keeps the fragment left, b = 2 keeps it right. b in {3, 4}
    refreshes: an unmarked set either sheds the site u into a fresh
    singleton, marked by one K-step from u (u in the set), or stands
    pat (u outside); a marked singleton moves its mark by the lazy
    chain. Marks move by inverse CDF of r. b = 4 applies the refresh
    and then swaps the output pair, including in the stand-pat
    sub-case.
    """
    bit = 1 << u
    refresh = b >= 3
    marked = mark >= 0
    shed = refresh & ~marked & (A & bit != 0)
    cum = np.where(marked[..., None], cum_lazy[mark], cum_K[u])
    moved = (cum <= r[..., None]).sum(axis=-1)
    stay = (np.where(shed, A & ~bit, A), np.where(refresh & marked, moved, mark))
    out = (np.where(shed, bit, 0), np.where(shed, moved, -1))
    swap = (b == 2) | (b == 4)
    first = tuple(np.where(swap, o, s) for s, o in zip(stay, out))
    second = tuple(np.where(swap, s, o) for s, o in zip(stay, out))
    return first, second


class PartitionProcess:
    """Fragment dynamics for a given site-transport kernel, run on a
    batch of independent runs at once."""

    def __init__(self, K):
        self.K = np.asarray(K, dtype=float)
        self.n = self.K.shape[0]
        self._cum_K = cumulative_rows(self.K)
        self._cum_lazy = cumulative_rows(lazy_kernel(self.K))

    def initial(self, runs):
        """`runs` copies of the unmarked full site set, as (A, mark)."""
        return np.full((runs, 1), (1 << self.n) - 1), np.full((runs, 1), -1)

    def step(self, A, mark, rng):
        """One step of every fragment: (runs, F) arrays in, (runs, 2F)
        out, each fragment's two children side by side."""
        u = rng.integers(self.n, size=A.shape)
        b = rng.integers(1, 5, size=A.shape)
        r = rng.random(A.shape)
        children = split_fragment(A, mark, u, b, r, self._cum_K, self._cum_lazy)
        return tuple(np.stack(pair, axis=-1).reshape(A.shape[0], -1) for pair in zip(*children))

    def run(self, depth, runs, rng):
        """Fragments of `runs` runs after `depth` steps, as (runs, 2**depth)
        arrays (A, mark) in binary-tree order."""
        if depth > 20:
            raise CapacityError("fragment count 2**depth exceeds the gate at depth 20")
        A, mark = self.initial(runs)
        for _ in range(depth):
            A, mark = self.step(A, mark, rng)
        return A, mark


def fragment_factor(p, frag, n):
    """The state-space factor a fragment contributes to the product
    estimate: at each full mask s, the p-marginal of s restricted to A.

    A marked singleton A = {j} takes the marginal of the mark's site
    instead, read at s's bit j; mark -1 means no mark.
    """
    A, mark = frag
    masks = np.arange(1 << n, dtype=np.int64)
    if mark < 0:
        on = masks & A
        return np.bincount(on, weights=p, minlength=1 << n)[on]
    bit = 1 << mark
    marg = np.bincount(masks & bit, weights=p, minlength=1 << n)
    return np.where(masks & A, marg[bit], marg[0])


def _run_estimates(proc, p, depth, runs, rng):
    """Per-run estimates, (runs, 2**n): the product of the factors of
    each run's fragments, read from a table over the (A, mark + 1)
    pairs drawn. The empty fragment's factor is exactly 1."""
    n = proc.n
    A, mark = proc.run(depth, runs, rng)
    keys, index = np.unique(A * (n + 1) + mark + 1, return_inverse=True)
    pairs = [divmod(int(k), n + 1) for k in keys]
    table = np.array([fragment_factor(p, (a, m - 1), n) for a, m in pairs])
    table[keys == 0] = 1.0
    index = index.reshape(A.shape)
    est = table[index[:, 0]]
    for col in index.T[1:]:
        est *= table[col]
    return est


def mpp_expectation(K, p, depth, runs, rng):
    """Monte Carlo estimate of the depth-u iterated product of p at zero
    coupling, via the marked-partition representation.

    Runs are drawn in batches of at most BATCH_FRAGMENTS fragments."""
    if runs < 1:
        raise ValueError("need at least one run")
    proc = PartitionProcess(K)
    p = np.asarray(p, dtype=float)
    block = max(1, BATCH_FRAGMENTS >> depth)
    est = np.concatenate([
        _run_estimates(proc, p, depth, min(block, runs - lo), rng)
        for lo in range(0, runs, block)
    ])
    dev = est - est[0]
    shift = dev.mean(axis=0)
    return Moments(est[0] + shift, np.square(dev - shift).sum(axis=0), runs)


def fragmentation_times(K, runs, rng):
    """Fragmentation times (steps until every surviving fragment is a
    marked singleton) of `runs` independent partition processes, as an
    int64 array.

    Marked singletons stay marked and empties are dropped, so each run
    is followed through its one unmarked set, stepped as a batch until
    that set is empty.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    proc = PartitionProcess(K)
    A, mark = proc.initial(runs)
    live = np.arange(runs)
    times = np.zeros(runs, dtype=np.int64)
    steps = 0
    while live.size:
        steps += 1
        if steps > MAX_STEPS:
            raise CapacityError(f"fragmentation exceeded {MAX_STEPS} steps")
        A, mark = proc.step(A, mark, rng)
        A = np.where(mark < 0, A, 0).sum(axis=1, keepdims=True)
        done = A[:, 0] == 0
        times[live[done]] = steps
        live, A = live[~done], A[~done]
        mark = np.full(A.shape, -1)
    return times


def fragmentation_tail(times, n):
    """Empirical tail P(H >= u) of n-site fragmentation times, an array
    as `fragmentation_times` returns them.

    Returns (u values, tail estimates, stderr) for u = 1 up to past the
    n e^{-u/2n} crossing of 1/runs."""
    runs = times.size
    horizon = int(2 * n * math.log(max(runs, 2) * n)) + 1
    u = np.arange(1, horizon + 1)
    tail = (times >= u[:, None]).mean(axis=1)
    stderr = np.sqrt(np.maximum(tail * (1 - tail), 0.0) / runs)
    return u, tail, stderr
