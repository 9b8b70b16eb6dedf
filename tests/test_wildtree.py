"""Branching trees, tree evaluation and the marked-partition sampler."""

import math
import weakref

import numpy as np
import pytest

from spinkac import collision, dynamics, wildtree
from spinkac.collision import CollisionContext
from spinkac.errors import CapacityError
from spinkac.rng import make_rng


def free_ctx(n, kind="mean-field"):
    return CollisionContext(np.zeros((n, n)), collision.build_transport_kernel(kind, n))


def random_density(rng, n):
    return rng.dirichlet(np.full(1 << n, 2.0))


def leaf_count(tree):
    return leaf_count(tree[0]) + leaf_count(tree[1]) if tree else 1


def recursive_tree(t, rng):
    """The reference sampler: one scalar draw per node, taken by a
    recursive walk in pre-order, child 1 before child 0. Returns
    (tree, leaf count)."""
    leaves = 1

    def grow(birth):
        nonlocal leaves
        split_at = birth + rng.exponential()
        if split_at > t:
            return ()
        leaves += 1
        if leaves > wildtree.MAX_LEAVES:
            raise CapacityError(f"tree exceeded {wildtree.MAX_LEAVES} leaves at t = {t}")
        child1 = grow(split_at)
        child0 = grow(split_at)
        return (child0, child1)

    return grow(0.0), leaves


def recursive_draws(t, count, rng):
    """`count` reference (tree, leaves) pairs and the draws they took."""
    pairs = [recursive_tree(t, rng) for _ in range(count)]
    return pairs, sum(2 * leaves - 1 for _, leaves in pairs)


class TestTrees:
    def test_zero_time_is_root_only(self):
        assert list(wildtree.sample_trees(0.0, 3, make_rng(51, 0))) == [((), 1)] * 3

    def test_growth_statistics(self):
        # leaf count grows like e^t; the root survives with chance e^{-t}
        runs = 100000
        pairs = list(wildtree.sample_trees(1.0, runs, make_rng(51, 1)))
        leaves = np.array([n for _, n in pairs], dtype=float)
        unsplit = sum(tree == () for tree, _ in pairs)
        assert all(n == leaf_count(tree) for tree, n in pairs)
        se = leaves.std() / math.sqrt(runs)
        assert abs(leaves.mean() - math.e) <= 3 * se
        frac = unsplit / runs
        se_u = math.sqrt(frac * (1 - frac) / runs)
        assert abs(frac - math.exp(-1.0)) <= 3 * se_u

    def test_draw_order_is_pinned(self):
        # nodes draw their split times in pre-order, child 1 before
        # child 0; these shapes fix that order on one stream
        rng = make_rng(51, 2)
        got = [tree for tree, _ in wildtree.sample_trees(1.2, 6, rng)]
        assert got == [
            (),
            (((), ((), ())), ((((), ()), ((), ())), ())),
            ((), ()),
            ((), ()),
            ((), ()),
            ((((), ((), ())), ()), ()),
        ]

    @pytest.mark.parametrize("block", [1, 3, wildtree.DRAW_BLOCK])
    @pytest.mark.parametrize("t", [0.0, 1.2])
    def test_decoder_matches_the_recursive_sampler(self, monkeypatch, block, t):
        # blocks of 1 and 3 draws put block boundaries inside trees
        monkeypatch.setattr(wildtree, "DRAW_BLOCK", block)
        rng, ref = make_rng(51, 4), make_rng(51, 4)
        got = list(wildtree.sample_trees(t, 200, rng))
        want, _ = recursive_draws(t, 200, ref)
        assert got == want
        assert rng.random() == ref.random()

    def test_tree_counts_that_end_on_a_block_boundary(self, monkeypatch):
        # with 3-draw blocks, a count whose trees take a multiple of 3
        # draws ends on the last draw of a block
        monkeypatch.setattr(wildtree, "DRAW_BLOCK", 3)
        boundaries = 0
        for count in range(1, 40):
            rng, ref = make_rng(51, 5), make_rng(51, 5)
            got = list(wildtree.sample_trees(1.2, count, rng))
            want, draws = recursive_draws(1.2, count, ref)
            assert got == want
            assert rng.random() == ref.random()
            boundaries += draws % 3 == 0
        assert boundaries >= 5

    def test_single_trees_keep_the_stream(self):
        # the stream is rewound before the last tree is handed out, so
        # one-tree calls taken with next() draw consecutive trees
        rng, ref = make_rng(51, 6), make_rng(51, 6)
        assert [next(wildtree.sample_trees(1.2, 1, rng)) for _ in range(50)] == \
            [recursive_tree(1.2, ref) for _ in range(50)]
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -0.5])
    def test_time_must_be_finite_and_nonnegative(self, t):
        rng = make_rng(51, 7)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            wildtree.sample_trees(t, 3, rng)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            wildtree.mc_solution(free_ctx(2), np.full(4, 0.25), t, 3, rng)

    def test_deep_tree_meets_the_leaf_cap(self, monkeypatch):
        # at t = 5,000 nearly every node splits, so the tree grows a
        # spine deeper than the recursion limit before 2,000 leaves;
        # the explicit stack reaches the leaf cap instead
        monkeypatch.setattr(wildtree, "MAX_LEAVES", 2000)
        with pytest.raises(CapacityError, match="2000 leaves"):
            list(wildtree.sample_trees(5000.0, 1, make_rng(51, 8)))
        with pytest.raises(RecursionError):
            recursive_tree(5000.0, make_rng(51, 8))

    def test_leaf_cap(self, monkeypatch):
        monkeypatch.setattr(wildtree, "MAX_LEAVES", 4)
        rng = make_rng(51, 3)
        with pytest.raises(CapacityError, match="4 leaves"):
            list(wildtree.sample_trees(3.0, 1000, rng))


class TestEvalTree:
    def test_single_node_returns_input(self):
        ctx = free_ctx(2)
        p = random_density(make_rng(52, 0), 2)
        assert np.array_equal(wildtree.tree_evaluator(ctx, p)(()), p)

    def test_depth_one_is_the_product(self):
        ctx = free_ctx(2)
        p = random_density(make_rng(52, 1), 2)
        assert np.array_equal(wildtree.tree_evaluator(ctx, p)(((), ())), ctx.product(p, p))

    def test_comb_tree_associates_leftward(self):
        # three splits down the left spine evaluate as ((p o p) o p) o p
        ctx = free_ctx(2)
        p = random_density(make_rng(52, 2), 2)
        got = wildtree.tree_evaluator(ctx, p)(((((), ()), ()), ()))
        want = ctx.product(ctx.product(ctx.product(p, p), p), p)
        assert np.array_equal(got, want)

    def test_memo_goes_with_the_evaluator(self):
        # no reference cycle holds the evaluator, so its memo is freed
        # when the last reference goes, not at a later collection
        ctx = free_ctx(2)
        value = wildtree.tree_evaluator(ctx, random_density(make_rng(52, 3), 2))
        value((((), ()), ()))
        dead = weakref.ref(value)
        del value
        assert dead() is None

    def test_discrete_iterate(self):
        ctx = CollisionContext(np.full((2, 2), 0.1), collision.mean_field_kernel(2))
        rng = make_rng(52, 4)
        p = random_density(rng, 2)
        assert np.array_equal(wildtree.discrete_iterate(ctx, p, 0), p)
        via_tree = wildtree.tree_evaluator(ctx, p)((((), ()), ((), ())))
        assert np.abs(wildtree.discrete_iterate(ctx, p, 2) - via_tree).max() < 1e-14
        from spinkac.core import magnetization_profile
        m0 = magnetization_profile(p, ctx.blocks)
        m2 = magnetization_profile(wildtree.discrete_iterate(ctx, p, 2), ctx.blocks)
        assert np.abs(m2 - m0).max() < 1e-12


class TestMCSolution:
    def test_zero_time_is_exact(self):
        ctx = free_ctx(2)
        p0 = random_density(make_rng(53, 0), 2)
        sol = wildtree.mc_solution(ctx, p0, 0.0, 50, make_rng(53, 1))
        assert np.abs(sol.mean - p0).max() < 1e-15
        # identical samples: the centred sums cancel exactly
        assert np.all(sol.stderr == 0.0)
        assert sol.mean_leaves == 1.0

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_initial_density_is_checked(self, t):
        # at t = 0 no product runs, so the entry check is the only one
        ctx = free_ctx(2)
        with pytest.raises(ValueError, match="density mass 2.0"):
            wildtree.mc_solution(ctx, np.full(4, 0.5), t, 5, make_rng(53, 1))

    def test_stationary_input(self):
        from spinkac.core import gibbs
        J = np.array([[0.0, 0.2], [0.2, 0.0]])
        ctx = CollisionContext(J, collision.mean_field_kernel(2))
        mu = gibbs(J, np.array([0.15, 0.15]))
        sol = wildtree.mc_solution(ctx, mu, 1.5, 200, make_rng(53, 2))
        sig = np.abs(sol.mean - mu) / np.maximum(sol.stderr, 1e-15)
        assert sig.max() <= 3.0

    def test_against_integrated_flow(self):
        J = np.array([[0.0, 0.15], [0.15, 0.0]])
        ctx = CollisionContext(J, collision.mean_field_kernel(2))
        p0 = random_density(make_rng(53, 3), 2)
        sol = wildtree.mc_solution(ctx, p0, 1.0, 10000, make_rng(53, 4))
        exact = dynamics.evolve(ctx, p0, 1.0, 0.001).final
        sig = np.abs(sol.mean - exact) / np.maximum(sol.stderr, 1e-15)
        assert sig.max() <= 3.0
        assert sol.samples == 10000

    def test_memo_matches_a_plain_loop(self):
        # the same trees from the recursive sampler on the same stream,
        # collapsed without the memo and averaged by numpy's Welford
        # update, give the same bytes
        J = np.array([[0.0, 0.2, 0.1], [0.2, 0.0, 0.05], [0.1, 0.05, 0.0]])
        ctx = CollisionContext(J, collision.mean_field_kernel(3))
        p0 = random_density(make_rng(53, 7), 3)
        samples = 2000
        sol = wildtree.mc_solution(ctx, p0, 1.2, samples, make_rng(53, 8))

        def plain(node):
            return ctx.product(plain(node[0]), plain(node[1])) if node else p0

        rng = make_rng(53, 8)
        mean = np.zeros(8)
        m2 = np.zeros(8)
        for i in range(1, samples + 1):
            val = plain(recursive_tree(1.2, rng)[0])
            delta = val - mean
            mean += delta / i
            m2 += delta * (val - mean)
        assert np.array_equal(sol.mean, mean)
        assert np.array_equal(sol.m2, m2)

    @pytest.mark.parametrize("block", [1, 3, wildtree.DRAW_BLOCK])
    def test_stream_ends_where_the_recursive_sampler_leaves_it(self, monkeypatch, block):
        # criterion 7 draws its n = 3 instance after the n = 2 sum, and
        # criterion 13 its scan after the tree sum, from the same stream
        monkeypatch.setattr(wildtree, "DRAW_BLOCK", block)
        ctx = free_ctx(2)
        p0 = random_density(make_rng(53, 13), 2)
        rng, ref = make_rng(53, 14), make_rng(53, 14)
        sol = wildtree.mc_solution(ctx, p0, 1.0, 300, rng)
        want, _ = recursive_draws(1.0, 300, ref)
        assert sol.leaves == sum(leaves for _, leaves in want)
        assert rng.random() == ref.random()

    def test_product_runs_once_per_distinct_subtree(self, monkeypatch):
        ctx = free_ctx(3)
        p0 = random_density(make_rng(53, 9), 3)
        calls = []
        product = ctx.product
        monkeypatch.setattr(ctx, "product", lambda p, q: calls.append(1) or product(p, q))
        wildtree.mc_solution(ctx, p0, 1.5, 500, make_rng(53, 10))

        distinct = set()
        splits = 0

        def walk(node):
            nonlocal splits
            if node:
                splits += 1
                distinct.add(node)
                walk(node[0])
                walk(node[1])

        rng = make_rng(53, 10)
        for tree, _ in wildtree.sample_trees(1.5, 500, rng):
            walk(tree)
        assert len(calls) == len(distinct)
        assert len(distinct) < splits / 4

    def test_memo_restart_keeps_the_bytes(self, monkeypatch):
        ctx = free_ctx(2)
        p0 = random_density(make_rng(53, 11), 2)
        whole = wildtree.mc_solution(ctx, p0, 2.0, 300, make_rng(53, 12))
        monkeypatch.setattr(wildtree, "MEMO_ENTRIES", 4)
        small = wildtree.mc_solution(ctx, p0, 2.0, 300, make_rng(53, 12))
        assert np.array_equal(small.mean, whole.mean)
        assert np.array_equal(small.m2, whole.m2)


def split(proc, frag, u, b, r=0.5):
    """split_fragment on one fragment, as two (A, mark) int pairs."""
    A, mark = (np.array([x]) for x in frag)
    pair = wildtree.split_fragment(A, mark, np.array([u]), np.array([b]), np.array([r]),
                                   proc._cum_K, proc._cum_lazy)
    return tuple((int(a[0]), int(m[0])) for a, m in pair)


EMPTY = (0, -1)


class TestFragments:
    def test_empty_fragment_splits_to_empties(self):
        proc = wildtree.PartitionProcess(collision.mean_field_kernel(3))
        for b in (1, 2, 3, 4):
            assert split(proc, EMPTY, 1, b) == (EMPTY, EMPTY)

    def test_refresh_sheds_a_marked_singleton(self):
        # identity site chain: the shed site keeps its own mark
        proc = wildtree.PartitionProcess(collision.single_site_kernel(3))
        assert split(proc, (0b111, -1), 1, 3) == ((0b101, -1), (0b010, 1))

    def test_refresh_outside_the_set_stands_pat(self):
        proc = wildtree.PartitionProcess(collision.single_site_kernel(3))
        frag = (0b101, -1)
        assert split(proc, frag, 1, 3) == (frag, EMPTY)

    def test_marked_singleton_moves_lazily(self):
        proc = wildtree.PartitionProcess(collision.single_site_kernel(3))
        frag = (0b100, 2)
        # the identity chain cannot move the mark
        assert split(proc, frag, 0, 3) == (frag, EMPTY)

    def test_marks_move_by_inverse_cdf(self):
        # mean-field K on 2 sites steps to site 1 when r >= 1/2; the lazy
        # chain from site 0 goes to site 1 only when r >= 3/4
        proc = wildtree.PartitionProcess(collision.mean_field_kernel(2))
        assert split(proc, (0b11, -1), 0, 3, r=0.4) == ((0b10, -1), (0b01, 0))
        assert split(proc, (0b11, -1), 0, 3, r=0.6) == ((0b10, -1), (0b01, 1))
        assert split(proc, (0b01, 0), 1, 3, r=0.7) == ((0b01, 0), EMPTY)
        assert split(proc, (0b01, 0), 1, 3, r=0.8) == ((0b01, 1), EMPTY)

    def test_move_four_swaps_the_pair(self):
        proc = wildtree.PartitionProcess(collision.single_site_kernel(3))
        assert split(proc, (0b111, -1), 1, 4) == ((0b010, 1), (0b101, -1))
        # including the stand-pat sub-case
        assert split(proc, (0b101, -1), 1, 4) == (EMPTY, (0b101, -1))

    def test_keep_moves(self):
        proc = wildtree.PartitionProcess(collision.mean_field_kernel(2))
        frag = (0b11, -1)
        assert split(proc, frag, 0, 1) == (frag, EMPTY)
        assert split(proc, frag, 0, 2) == (EMPTY, frag)

    def test_step_lays_children_in_tree_order(self):
        # each fragment's two children sit side by side, in its place
        proc = wildtree.PartitionProcess(collision.mean_field_kernel(3))
        A, mark = proc.run(3, 50, make_rng(54, 6))
        assert A.shape == mark.shape == (50, 8)
        A4, mark4 = proc.step(A, mark, make_rng(54, 7))
        assert A4.shape == (50, 16)
        # a step only splits sets: siblings' masks are disjoint and
        # together within their parent's
        left, right = A4[:, 0::2], A4[:, 1::2]
        assert not np.any(left & right)
        assert np.all((left | right) & ~A == 0)

    def test_depth_gate(self):
        proc = wildtree.PartitionProcess(collision.mean_field_kernel(2))
        with pytest.raises(CapacityError, match="depth 20"):
            proc.run(21, 1, make_rng(54, 8))


class TestFragmentation:
    def test_single_site_time_is_geometric(self):
        # one site: each step converts the unmarked set with chance 1/2,
        # so P(H >= u) = 2^{1-u} exactly
        times = np.array(wildtree.fragmentation_times(np.eye(1), 20000, make_rng(55, 0)))
        for u in (1, 2, 3, 4, 5, 6):
            tail = (times >= u).mean()
            want = 2.0 ** (1 - u)
            se = math.sqrt(max(want * (1 - want), 1e-12) / times.size)
            assert abs(tail - want) <= 3 * se + 1e-12
        # the exponential envelope only clears the exact tail from u = 4 on
        for u in (4, 5, 6, 8):
            assert 2.0 ** (1 - u) <= math.exp(-u / 2.0)

    def test_tail_envelope_at_four_sites(self):
        times = wildtree.fragmentation_times(collision.mean_field_kernel(4), 4000, make_rng(55, 1))
        u, tail, se = wildtree.fragmentation_tail(times, 4)
        excess = tail - (4.0 * np.exp(-u / 8.0) + 3.0 * se)
        assert excess.max() <= 0.0

    def test_mean_grows_superlinearly(self):
        means = {}
        for n in (2, 4, 8):
            K = collision.mean_field_kernel(n)
            means[n] = np.mean(wildtree.fragmentation_times(K, 2000, make_rng(55, n)))
        assert means[2] < means[4] < means[8]
        assert means[4] > 2.0 * means[2]
        assert means[8] > 2.0 * means[4]
        for n, m in means.items():
            assert 1.0 < m / (n * math.log(n)) < 8.0

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_mean_time_is_the_coupon_sum(self, n):
        # an unmarked set of k sites sheds with chance k / 2n per step,
        # so E H = sum_{k=1..n} 2n / k
        times = np.array(wildtree.fragmentation_times(
            collision.mean_field_kernel(n), 20000, make_rng(55, 10 + n)))
        exact = sum(2.0 * n / k for k in range(1, n + 1))
        se = times.std() / math.sqrt(times.size)
        assert abs(times.mean() - exact) <= 3 * se

    def test_times_are_one_int64_array(self):
        times = wildtree.fragmentation_times(collision.mean_field_kernel(2), 50, make_rng(55, 22))
        assert times.dtype == np.int64 and times.shape == (50,)
        assert times.min() >= 1

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(wildtree, "MAX_STEPS", 3)
        with pytest.raises(CapacityError, match="3 steps"):
            wildtree.fragmentation_times(collision.mean_field_kernel(8), 100, make_rng(55, 20))

    def test_tail_counts_match_a_per_u_loop(self):
        times = wildtree.fragmentation_times(collision.mean_field_kernel(4), 3000, make_rng(55, 21))
        u, tail, _ = wildtree.fragmentation_tail(times, 4)
        arr = np.asarray(times)
        assert np.array_equal(tail, np.array([(arr >= uu).mean() for uu in u]))


def representation_check(ctx, p, depth, runs, rng):
    """(estimate, exact, max sigmas) of the partition-process estimate
    against the exact depth-fold square iteration of p."""
    est = wildtree.mpp_expectation(ctx.K, p, depth, runs, rng)
    exact = wildtree.discrete_iterate(ctx, p, depth)
    return est, exact, est.sigmas(exact)


class TestRepresentation:
    def test_depth_zero_is_exact(self):
        ctx = free_ctx(2)
        p = random_density(make_rng(56, 0), 2)
        est, exact, sig = representation_check(ctx, p, 0, 20, make_rng(56, 1))
        assert np.abs(est.mean - p).max() < 1e-15
        assert np.array_equal(exact, p)
        assert sig <= 3.0

    def test_depth_one_single_site(self):
        ctx = free_ctx(2, "single-site")
        p = random_density(make_rng(56, 2), 2)
        est, exact, sig = representation_check(ctx, p, 1, 20000, make_rng(56, 3))
        assert np.abs(exact - ctx.product(p, p)).max() < 1e-14
        assert sig <= 3.0

    def test_depth_three_mean_field(self):
        ctx = free_ctx(3)
        p = random_density(make_rng(56, 4), 3)
        est, exact, sig = representation_check(ctx, p, 3, 15000, make_rng(56, 5))
        assert sig <= 3.0
        assert est.samples == 15000

    def test_runs_span_several_blocks(self, monkeypatch):
        # 2**7 fragments per block hold 16 runs at depth 3, so 100 runs
        # take 7 blocks, and the estimate pools all of them
        monkeypatch.setattr(wildtree, "BATCH_FRAGMENTS", 1 << 7)
        blocks = []
        run_block = wildtree._run_estimates

        def recorded(proc, p, depth, runs, rng):
            blocks.append(runs)
            return run_block(proc, p, depth, runs, rng)

        monkeypatch.setattr(wildtree, "_run_estimates", recorded)
        ctx = free_ctx(2)
        p = random_density(make_rng(56, 8), 2)
        est, _, sig = representation_check(ctx, p, 3, 100, make_rng(56, 9))
        assert blocks == [16] * 6 + [4]
        assert est.samples == 100
        assert sig <= 3.0

    def test_marks_moved_by_k_are_detected(self, monkeypatch):
        # away from mean field the marks' law moves the estimate: marks
        # moved by K instead of the lazy chain show at depth 3 with
        # 20,000 runs (about 10 sigma), and the true process passes on
        # the same stream
        K = np.array([[0.9, 0.1], [0.1, 0.9]])
        ctx = CollisionContext(np.zeros((2, 2)), collision.build_transport_kernel("matrix", 2, matrix=K))
        p = random_density(make_rng(57, 2), 2)
        _, _, sig = representation_check(ctx, p, 3, 20000, make_rng(57, 10))
        assert sig <= 3.0
        monkeypatch.setattr(wildtree, "lazy_kernel", lambda K: K)
        _, _, sig = representation_check(ctx, p, 3, 20000, make_rng(57, 10))
        assert sig > 3.0

    def test_needs_a_run(self):
        p = np.full(4, 0.25)
        with pytest.raises(ValueError, match="at least one run"):
            wildtree.mpp_expectation(collision.mean_field_kernel(2), p, 1, 0, make_rng(56, 7))
        for runs in (0, -3):
            with pytest.raises(ValueError, match="at least one run"):
                wildtree.fragmentation_times(collision.mean_field_kernel(2), runs, make_rng(56, 8))
