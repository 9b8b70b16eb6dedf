"""Exchange moves, acceptance probabilities and the collision product."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinkac import collision, core
from spinkac.collision import CollisionContext
from spinkac.errors import CapacityError


def random_symmetric(rng, n, scale):
    a = rng.standard_normal((n, n))
    return scale * (a + a.T)


def random_density(rng, n):
    return rng.dirichlet(np.full(1 << n, 1.5))


def product_reference(ctx, p, q):
    """The collision product by plain loops over the defining sum; slow,
    small n only."""
    size = 1 << ctx.n
    out = np.zeros(size)
    for sigma in range(size):
        for sigma_p in range(size):
            mass = 0.5 * (p[sigma] * q[sigma_p] + p[sigma_p] * q[sigma])
            if mass == 0.0:
                continue
            for l, k, w in ctx.pairs:
                acc = ctx.acceptance(l, k, sigma, sigma_p)
                tau, _ = collision.exchange(sigma, sigma_p, l, k)
                out[tau] += mass * w * acc
                out[sigma] += mass * w * (1.0 - acc)
    return out


def detailed_balance_residual(ctx, h=None):
    """Max over pair transitions of |forward flow - backward flow| for the
    product measure gibbs(J, h) x gibbs(J, h)."""
    mu = core.gibbs(ctx.J, h)
    worst = 0.0
    for w, P, tau, tau_p in ctx.moves():
        flow = np.multiply.outer(mu, mu) * (w * P)
        worst = max(worst, float(np.max(np.abs(flow - flow[tau, tau_p]))))
    return worst


class TestKernels:
    def test_single_site_is_identity(self):
        K = collision.single_site_kernel(3)
        assert np.array_equal(K, np.eye(3))
        assert collision.kernel_components(K) == ((0,), (1,), (2,))

    def test_mean_field_is_flat(self):
        K = collision.mean_field_kernel(4)
        assert np.abs(K - 0.25).max() == 0.0
        assert collision.kernel_components(K) == ((0, 1, 2, 3),)

    def test_blocks_kernel_shape(self):
        K = collision.blocks_kernel(3, ((0, 1), (2,)))
        want = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(K, want)
        assert collision.kernel_components(K) == ((0, 1), (2,))

    def test_components_joined_by_long_paths(self):
        # a 24-site path is one block, and two interleaved paths over the
        # even and the odd sites are two; each site reaches the far end
        # only through a chain of neighbours
        def path_kernel(n, step):
            K = np.zeros((n, n))
            for l in range(n - step):
                K[l, l + step] = K[l + step, l] = 0.5
            K[np.diag_indices(n)] = 1.0 - K.sum(axis=1)
            return collision.build_transport_kernel("matrix", n, matrix=K)

        assert collision.kernel_components(path_kernel(24, 1)) == (tuple(range(24)),)
        two = collision.kernel_components(path_kernel(24, 2))
        assert two == (tuple(range(0, 24, 2)), tuple(range(1, 24, 2)))
        assert all(type(l) is int for block in two for l in block)

    def test_rows_are_stochastic(self):
        for K in (collision.single_site_kernel(5), collision.mean_field_kernel(5),
                  collision.blocks_kernel(5, ((0, 2, 4), (1, 3)))):
            assert np.abs(K.sum(axis=1) - 1.0).max() < 1e-14

    def test_explicit_kernel_validation(self):
        with pytest.raises(ValueError):
            collision.build_transport_kernel("matrix", 2, matrix=np.array([[0.5, 0.5], [0.9, 0.1]]))
        with pytest.raises(ValueError):
            collision.build_transport_kernel("matrix", 2, matrix=np.array([[0.5, 0.6], [0.6, 0.5]]))
        with pytest.raises(ValueError):
            collision.build_transport_kernel("no-such-kind", 2)
        # a nan passes every tolerance test, since nan > tol is False
        with pytest.raises(ValueError, match=r"entries must be finite, got \[nan nan\]"):
            collision.build_transport_kernel("matrix", 2, matrix=np.array([[0.5, np.nan], [np.nan, 0.5]]))


class TestExchange:
    def test_identity_when_spins_agree(self):
        # copying an equal spin changes neither configuration
        assert collision.exchange(0b101, 0b100, 2, 2) == (0b101, 0b100)

    def test_hand_case(self):
        # sigma = (+,-), sigma' = (-,-), swap site 1 of sigma with site 2 of sigma'
        tau, tau_p = collision.exchange(0b01, 0b00, 0, 1)
        assert (tau, tau_p) == (0b00, 0b10)  # (-,-) and (-,+)

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=100)
    def test_involution(self, sigma, sigma_p, l, k):
        tau, tau_p = collision.exchange(sigma, sigma_p, l, k)
        assert collision.exchange(tau, tau_p, l, k) == (sigma, sigma_p)


class TestAcceptance:
    def test_free_case_is_half(self):
        ctx = CollisionContext(np.zeros((2, 2)), collision.mean_field_kernel(2))
        for sigma in range(4):
            for sigma_p in range(4):
                assert ctx.acceptance(0, 1, sigma, sigma_p) == pytest.approx(0.5)

    def test_unchanged_pair_is_half(self):
        rng = np.random.default_rng(21)
        ctx = CollisionContext(random_symmetric(rng, 3, 0.3), collision.mean_field_kernel(3))
        # sigma' carries the same spin at k as sigma at l, so nothing moves
        assert ctx.acceptance(0, 2, 0b001, 0b100) == pytest.approx(0.5)

    def test_complement_identity(self):
        rng = np.random.default_rng(22)
        ctx = CollisionContext(random_symmetric(rng, 3, 0.3), collision.mean_field_kernel(3))
        for sigma in range(8):
            for sigma_p in range(8):
                for l in range(3):
                    for k in range(3):
                        tau, tau_p = collision.exchange(sigma, sigma_p, l, k)
                        if (tau, tau_p) == (sigma, sigma_p):
                            continue
                        back = ctx.acceptance(l, k, tau, tau_p)
                        assert ctx.acceptance(l, k, sigma, sigma_p) + back == pytest.approx(1.0)

    def test_exhaustive_heat_bath_bounds(self):
        rng = np.random.default_rng(23)
        J = random_symmetric(rng, 3, 0.2)
        ctx = CollisionContext(J, collision.mean_field_kernel(3))
        jb = core.interaction_row_norm(J)
        lo = 1.0 / (1.0 + math.exp(4.0 * jb))
        for l in range(3):
            for k in range(3):
                P = ctx.acceptance(l, k, ctx.masks[:, None], ctx.masks[None, :])
                assert P.min() >= lo - 1e-12
                assert P.max() <= 1.0 - lo + 1e-12

    @pytest.mark.parametrize("scale", [0.3, 1000.0])  # 1000: logits past 2000
    def test_moves_match_scalar_calls(self, scale):
        # moves() reads its grid from the broadcast acceptance and its
        # exchanged pair from the broadcast exchange; both equal the
        # scalar calls entry by entry, bit for bit
        A = np.random.default_rng(24).standard_normal((3, 3))
        ctx = CollisionContext(scale * (A + A.T) / 2.0, collision.mean_field_kernel(3))
        moves = list(ctx.moves())
        assert len(moves) == len(ctx.pairs) == 9
        for (l, k, w), (w_m, P, tau, tau_p) in zip(ctx.pairs, moves):
            assert w_m == w
            assert P.shape == tau.shape == tau_p.shape == (8, 8)
            for sigma, sigma_p in itertools.product(range(8), repeat=2):
                assert P[sigma, sigma_p] == ctx.acceptance(l, k, sigma, sigma_p)
                pair = (tau[sigma, sigma_p], tau_p[sigma, sigma_p])
                assert pair == collision.exchange(sigma, sigma_p, l, k)

    def test_diagonal_acceptance(self):
        # the walk's acceptance of a swap of sites l, k inside one configuration
        def one_slot(ctx, l, k, sigma):
            fields, logw = ctx.fields.tolist(), ctx.logw.tolist()
            return collision.walk_acceptance(fields, logw, l, k, sigma, sigma, True)

        ctx0 = CollisionContext(np.zeros((2, 2)), collision.mean_field_kernel(2))
        assert one_slot(ctx0, 0, 1, 0b01) == pytest.approx(0.5)
        J = np.array([[0.0, 0.4], [0.4, 0.0]])
        ctx = CollisionContext(J, collision.mean_field_kernel(2))
        # equal spins swap to themselves
        assert one_slot(ctx, 0, 1, 0b11) == pytest.approx(0.5)
        # 0b01 and 0b10 have equal zero-field weight, so the swap is fair too
        assert one_slot(ctx, 0, 1, 0b01) == pytest.approx(0.5)
        h_ctx = CollisionContext(np.array([[0.3, 0.0], [0.0, 0.0]]), collision.mean_field_kernel(2))
        # weight ratio of the swapped configuration, as a logistic
        want = 1.0 / (1.0 + math.exp(h_ctx.logw[0b01] - h_ctx.logw[0b10]))
        assert one_slot(h_ctx, 0, 1, 0b01) == pytest.approx(want)


def moves_product(ctx, p, q):
    """The defining sum over whole (sigma, sigma') grids, one move at a time."""
    W = 0.5 * (np.multiply.outer(p, q) + np.multiply.outer(q, p))
    out = np.zeros_like(p)
    for w, P, tau, _ in ctx.moves():
        out += w * (W * (1.0 - P)).sum(axis=1)
        out += w * np.bincount(tau.ravel(), (W * P).ravel(), minlength=p.size)
    return out


class TestProduct:
    def test_routes_match_reference(self):
        rng = np.random.default_rng(24)
        for n in range(1, 6):
            blocks = ((0,),) if n == 1 else (tuple(range(n - 1)), (n - 1,))
            kernels = (
                collision.single_site_kernel(n),
                collision.mean_field_kernel(n),
                collision.blocks_kernel(n, blocks),
                0.3 * np.eye(n) + 0.7 * collision.blocks_kernel(n, blocks),
            )
            for K in kernels:
                ctx = CollisionContext(random_symmetric(rng, n, 0.2), K)
                p, q = random_density(rng, n), random_density(rng, n)
                ref = product_reference(ctx, p, q)
                assert np.abs(ctx._product_tensor(p, q) - ref).max() < 1e-13
                assert np.abs(ctx._product_flux(p, q) - ref).max() < 1e-13
                assert np.abs(ctx._product_stream(p, q) - ref).max() < 1e-13
                # n <= 5 takes the tensor route; _product_flux is called
                # directly above so the flux route is checked at n = 1..5 too
                assert np.abs(ctx.product(p, q) - ref).max() < 1e-13
                assert np.array_equal(ctx.product(p, q), ctx.product(q, p))

    def test_stream_matches_moves_past_reference_gate(self):
        # product_reference is too slow past n = 5; there, sum the
        # defining moves over whole (sigma, sigma') grids instead
        def graph_kernel(rng, n):
            # K = I - eps L for the Laplacian L of a random weighted graph
            A = np.triu(rng.uniform(0.1, 1.0, (n, n)), 1)
            A += A.T
            L = np.diag(A.sum(axis=1)) - A
            K = np.eye(n) - L / L.diagonal().max()
            return collision.build_transport_kernel("matrix", n, matrix=K)

        def one_sided_kernel(n):
            K = collision.mean_field_kernel(n)
            K[0, 1], K[1, 0] = 0.0, 5e-13
            K[np.diag_indices(n)] += 1.0 - K.sum(axis=1)
            return collision.build_transport_kernel("matrix", n, matrix=K)

        rng = np.random.default_rng(29)
        for n in (6, 7, 8):
            blocks = (tuple(range(n - 1)), (n - 1,))
            kernels = [
                collision.single_site_kernel(n),
                collision.mean_field_kernel(n),
                0.3 * np.eye(n) + 0.7 * collision.blocks_kernel(n, blocks),
                # every site pair with its own weight, then one pair with
                # one-sided support (within the kernel's 1e-12 symmetry slack)
                graph_kernel(np.random.default_rng(31), n),
                one_sided_kernel(n),
            ]
            for K in kernels:
                ctx = CollisionContext(random_symmetric(rng, n, 0.2), K)
                p, q = random_density(rng, n), random_density(rng, n)
                ref = moves_product(ctx, p, q)
                assert np.abs(ctx._product_stream(p, q) - ref).max() < 1e-14
                # n = 6 and 7 take the flux route, n = 8 the stream route
                assert np.abs(ctx.product(p, q) - ref).max() < 1e-14
                assert np.array_equal(ctx.product(p, q), ctx.product(q, p))

    @pytest.mark.filterwarnings("error")
    def test_stream_survives_exp_overflow(self):
        # max |2 f| is about 1,200 here, so exp(2 f_k - 2 f_l) overflows to
        # inf in the stream route (n = 8); the acceptance must still come
        # out as expit's limit 0, without a warning. The flux route
        # (n = 7) reads its acceptances from expit at the same scale.
        # The product's mass is the sum of the pair weights: exactly 1 at
        # n = 8 (64 weights 1/64), 1 + 6.7e-16 at n = 7 (49 weights 1/49).
        rng = np.random.default_rng(32)
        for n in (8, 7):
            ctx = CollisionContext(random_symmetric(rng, n, 60.0), collision.mean_field_kernel(n))
            assert np.abs(2.0 * ctx.fields).max() > 750.0
            p, q = random_density(rng, n), random_density(rng, n)
            out = ctx.product(p, q)
            assert np.isfinite(out).all()
            assert np.abs(out - moves_product(ctx, p, q)).max() < 1e-14
            assert abs(out.sum() - ctx.total_weight) < 1e-15
            assert np.array_equal(out, ctx.product(q, p))

    def test_square_is_exact(self):
        # product(p, p) forms its pair mass once; the bits equal those of
        # the general path, on every route
        rng = np.random.default_rng(34)
        for n in range(1, 9):
            ctx = CollisionContext(random_symmetric(rng, n, 0.2), collision.mean_field_kernel(n))
            p = random_density(rng, n)
            assert np.array_equal(ctx.product(p, p), ctx.product(p, p.copy()))
            assert np.array_equal(ctx.square_stage()(p), ctx.product(p, p.copy()))

    @pytest.mark.parametrize("n", [2, 5, 6, 8, 9, collision.KEPT_BLOCKS_N_MAX + 1])
    def test_square_stage_is_the_routed_square(self, n):
        # the integrator's stage, its route bound once, has the bits of
        # that route's method: tensor at n = 2, 5, flux at n = 6, stream
        # at n = 8, 9, 10; y is a stage vector of mass 1 with one
        # roundoff-negative entry. At n = 8, 9 calls after a stage's first
        # read the acceptance blocks it kept; above the gate every call
        # refills one buffer. A second stage of the context has the same
        # bits, and the context keeps nothing of either stage beyond the
        # table its route builds once (tensor and flux).
        route = "_product_tensor" if n <= 5 else "_product_flux" if n == 6 else "_product_stream"
        rng = np.random.default_rng(35)
        ctx = CollisionContext(random_symmetric(rng, n, 0.2), collision.mean_field_kernel(n))
        ys = rng.dirichlet(np.full(1 << n, 1.5), size=3)
        ys[:, 1] += ys[:, 0] + 1e-14
        ys[:, 0] = -1e-14
        wants = [getattr(ctx, route)(y, y) for y in ys]
        before = dict(vars(ctx))
        stage, again = ctx.square_stage(), ctx.square_stage()
        for y, want in zip(ys, wants):
            assert np.array_equal(stage(y), want)
            assert np.array_equal(again(y), want)
        assert vars(ctx).keys() == before.keys()
        assert all(vars(ctx)[key] is value for key, value in before.items())

    @pytest.mark.parametrize("n, keeps", [(8, True), (9, True), (10, False)])
    def test_stage_keeps_blocks_up_to_the_gate(self, n, keeps):
        # a stream stage at n = 8, 9 holds one (2^(n-1), 2^(n-1)) block per
        # unordered site pair between its calls (n (n + 1) / 2 pairs under
        # a mean-field kernel), and frees them with the stage; at n = 10,
        # where they would hold 115 MB, it holds less than one block
        rng = np.random.default_rng(36)
        ctx = CollisionContext(random_symmetric(rng, n, 0.2), collision.mean_field_kernel(n))
        y = random_density(rng, n)
        block = 8 << 2 * (n - 1)
        tracemalloc.start()
        try:
            stage = ctx.square_stage()
            stage(y)
            held, _ = tracemalloc.get_traced_memory()
            del stage
            freed, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if keeps:
            assert held >= n * (n + 1) // 2 * block
            assert freed < block
        else:
            assert held < block

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 8])
    def test_stack_stage_rows_are_their_own_stages(self, n):
        # one context per row: the tensor route (n <= 5) squares the whole
        # stack in one batched matmul, the flux and stream routes row by
        # row; each row, and each row of a sub-stack, has the bits of its
        # context's own stage
        rng = np.random.default_rng(37)
        ctxs = [CollisionContext(random_symmetric(rng, n, 0.2), collision.mean_field_kernel(n))
                for _ in range(3)]
        ys = rng.dirichlet(np.full(1 << n, 1.5), size=3)
        wants = [ctx.square_stage()(y) for ctx, y in zip(ctxs, ys)]
        stage = collision.StackStage(ctxs)
        assert np.array_equal(stage(ys), wants)
        for rows in ([1], [2, 0]):
            assert np.array_equal(stage.take(rows)(ys[rows]), [wants[r] for r in rows])
        assert np.array_equal(collision.StackStage(ctxs[1:2])(ys[1:2]), wants[1:2])

    def test_stack_stage_needs_one_size(self):
        ctxs = [CollisionContext(np.zeros((n, n)), collision.mean_field_kernel(n)) for n in (2, 3)]
        with pytest.raises(ValueError, match="one size"):
            collision.StackStage(ctxs)

    def test_commutative(self):
        rng = np.random.default_rng(25)
        ctx = CollisionContext(random_symmetric(rng, 3, 0.25), collision.mean_field_kernel(3))
        p, q = random_density(rng, 3), random_density(rng, 3)
        assert np.array_equal(ctx.product(p, q), ctx.product(q, p))

    def test_gibbs_is_stationary(self):
        rng = np.random.default_rng(26)
        for trial in range(4):
            n = 2 + trial % 2
            J = random_symmetric(rng, n, 0.2)
            blocks = (tuple(range(n)),) if trial % 2 else tuple((l,) for l in range(n))
            K = collision.blocks_kernel(n, blocks)
            h = np.zeros(n)
            for b in blocks:
                h[list(b)] = rng.uniform(-0.5, 0.5)
            mu = core.gibbs(J, h)
            ctx = CollisionContext(J, K)
            assert np.abs(ctx.product(mu, mu) - mu).max() < 1e-12

    def test_free_single_site_closed_form(self):
        # zero coupling, independent sites: the product keeps each input with
        # weight 1/4 and mixes the site marginals for the rest
        rng = np.random.default_rng(27)

        def pair_product(a, b):
            return np.array([a[(m >> 0) & 1] * b[(m >> 1) & 1] for m in range(4)])

        a, b, c, d = (rng.dirichlet([2, 2]) for _ in range(4))
        p, q = pair_product(a, b), pair_product(c, d)
        ctx = CollisionContext(np.zeros((2, 2)), collision.single_site_kernel(2))
        want = 0.25 * p + 0.25 * q + 0.25 * (pair_product(a, d) + pair_product(c, b))
        assert np.abs(ctx.product(p, q) - want).max() < 1e-14

    def test_magnetization_halving(self):
        rng = np.random.default_rng(28)
        ctx = CollisionContext(random_symmetric(rng, 3, 0.2),
                               collision.blocks_kernel(3, ((0, 1), (2,))))
        p, q = random_density(rng, 3), random_density(rng, 3)
        m = core.magnetization_profile(ctx.product(p, q), ctx.blocks)
        half = 0.5 * (core.magnetization_profile(p, ctx.blocks) + core.magnetization_profile(q, ctx.blocks))
        assert np.abs(m - half).max() < 1e-12

    def test_product_gate(self):
        n = collision.PRODUCT_N_MAX + 1
        ctx = CollisionContext(np.zeros((n, n)), collision.mean_field_kernel(n))
        p = np.full(1 << n, 1.0 / (1 << n))
        with pytest.raises(CapacityError):
            ctx.product(p, p)
        with pytest.raises(CapacityError):
            ctx.square_stage()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_product_preserves_densities(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    ctx = CollisionContext(random_symmetric(rng, n, 0.2), collision.mean_field_kernel(n))
    out = ctx.product(random_density(rng, n), random_density(rng, n))
    assert abs(out.sum() - 1.0) < 1e-12
    assert out.min() >= -1e-15


class TestDetailedBalance:
    def test_zero_field(self):
        rng = np.random.default_rng(29)
        ctx = CollisionContext(random_symmetric(rng, 3, 0.3), collision.mean_field_kernel(3))
        assert detailed_balance_residual(ctx) < 1e-12

    def test_block_constant_field(self):
        rng = np.random.default_rng(30)
        ctx = CollisionContext(random_symmetric(rng, 3, 0.3),
                               collision.blocks_kernel(3, ((0, 1), (2,))))
        assert detailed_balance_residual(ctx, np.array([0.4, 0.4, -0.7])) < 1e-12

    def test_inadmissible_field_flagged(self):
        # the acceptance uses zero-field weights, so a field that differs
        # inside a block of K breaks reversibility
        ctx = CollisionContext(np.zeros((2, 2)), collision.mean_field_kernel(2))
        assert detailed_balance_residual(ctx, np.array([0.1, 0.2])) > 1e-3
