"""States, Gibbs measures and information functionals."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.special import expit, logsumexp

from spinkac import collision, core, downup, kac, wildtree
from spinkac.errors import CapacityError, ConvergenceError, DegenerateProfileError, FitError


def random_density(rng, n):
    return rng.dirichlet(np.full(1 << n, 1.5))


class TestMasks:
    def test_spins_of_values(self):
        s = core.spins_of(np.arange(4), 2)
        assert s.dtype == np.float64
        assert s.tolist() == [[-1, -1], [1, -1], [-1, 1], [1, 1]]
        assert core.spins_of(6, 3).tolist() == [-1, 1, 1]

    def test_site_gate(self):
        with pytest.raises(CapacityError):
            core.check_sites(25)


def brute_slice(width, masks, counts):
    return [c for c in range(1 << width)
            if all(bin(c & m).count("1") == k for m, k in zip(masks, counts))]


SLICES = [
    (5, [0b11111], [2]),
    (6, [0b000111, 0b111000], [1, 2]),
    (7, [0b1010101, 0b0101010], [2, 1]),
    (5, [0b00110], [1]),            # bits outside every mask are free
    (4, [], []),                    # no constraint: the whole cube
    (4, [0b0011, 0b1100], [0, 2]),
]


class TestCodeArrays:
    def test_site_mask(self):
        assert core.site_mask(()) == 0
        assert core.site_mask((0, 2, 5)) == 0b100101

    @pytest.mark.parametrize("width, masks, counts", SLICES)
    def test_slice_codes_match_brute_force(self, width, masks, counts):
        codes = core.slice_codes(width, masks, counts)
        assert codes.dtype == np.int64
        assert codes.tolist() == brute_slice(width, masks, counts)

    def test_impossible_count_gives_empty_slice(self):
        assert core.slice_codes(4, [0b0011], [3]).size == 0

    @pytest.mark.parametrize("width, masks, counts", SLICES)
    def test_code_index_finds_every_code(self, width, masks, counts):
        codes = core.slice_codes(width, masks, counts)
        perm = np.random.default_rng(width).permutation(codes.size)
        assert np.array_equal(core.code_index(codes, codes[perm]), perm)

    def test_code_index_rejects_absent_codes(self):
        codes = core.slice_codes(6, [0b000111, 0b111000], [1, 2])
        for absent in (0, 0b000011, 0b111111, 1 << 7):
            with pytest.raises(KeyError):
                core.code_index(codes, np.array([codes[0], absent]))

    @pytest.mark.parametrize("width, masks, counts", SLICES)
    def test_swap_moves_match_brute_force(self, width, masks, counts):
        codes = core.slice_codes(width, masks, counts)
        listed = codes.tolist()
        for a in range(width):
            for b in range(a + 1, width):
                # every unordered exchange once, from its lower position
                flip = (1 << a) | (1 << b)
                want = [(s, listed.index(c ^ flip)) for s, c in enumerate(listed)
                        if (c >> a & 1) != (c >> b & 1) and c ^ flip in listed[s + 1:]]
                src, dst = core.swap_moves(codes, a, b)
                assert list(zip(src.tolist(), dst.tolist())) == want

    def test_swap_moves_need_ordered_bits(self):
        codes = core.slice_codes(4, [0b1111], [2])
        for a, b in ((1, 1), (2, 1)):
            with pytest.raises(ValueError, match="a < bit b"):
                core.swap_moves(codes, a, b)

    def test_swaps_across_blocks_leave_the_slice(self):
        codes = core.slice_codes(4, [0b0011, 0b1100], [1, 1])
        src, dst = core.swap_moves(codes, 0, 2)
        # a swap between the blocks carries a set bit from one block to
        # the other, so no state keeps its counts
        assert src.size == dst.size == 0
        src, dst = core.swap_moves(codes, 0, 1)
        assert np.array_equal(codes[dst], codes[src] ^ 0b0011)

    def test_chain_from_no_moves(self):
        probs = np.array([1.0])
        tab = core.ReversibleChain.from_moves([], [], [], probs, np.log(probs))
        assert tab.src.size == tab.dst.size == tab.rate.size == 0
        assert tab.dirichlet(np.ones(1), np.ones(1)) == 0.0
        assert np.array_equal(tab.symmetric().toarray(), np.zeros((1, 1)))

    def test_chain_from_moves_concatenates(self):
        probs = np.full(3, 1.0 / 3.0)
        tab = core.ReversibleChain.from_moves(
            [np.array([0]), np.array([0, 1])], [np.array([1]), np.array([2, 2])],
            [np.array([0.5]), np.array([0.25, 0.125])], probs, np.log(probs))
        assert tab.src.tolist() == [0, 0, 1]
        assert tab.dst.tolist() == [1, 2, 2]
        assert tab.rate.tolist() == [0.5, 0.25, 0.125]


def chain_generator(tab):
    """Dense generator of a chain, both directions of every edge written
    out from reversibility."""
    size = tab.probs.size
    L = np.zeros((size, size))
    for s, d, r in zip(tab.src.tolist(), tab.dst.tolist(), tab.rate.tolist()):
        L[s, d] += r
        L[d, s] += tab.probs[s] * r / tab.probs[d]
    L[np.diag_indices(size)] = -L.sum(axis=1)
    return L


def complete_graphs(sizes, rng):
    """A chain on disjoint complete graphs of the given sizes, with random
    positive probabilities and rates; reducible when there are two."""
    probs = rng.uniform(0.5, 1.5, sum(sizes))
    probs /= probs.sum()
    srcs, dsts = [], []
    start = 0
    for size in sizes:
        a, b = np.triu_indices(size, 1)
        srcs.append(a + start)
        dsts.append(b + start)
        start += size
    src, dst = np.concatenate(srcs), np.concatenate(dsts)
    rate = rng.uniform(0.5, 1.5, src.size) / probs[src]
    return core.ReversibleChain(src, dst, rate, probs, np.log(probs))


def csr_spectrum(tab):
    """The spectrum as `ReversibleChain.spectrum` took it before it built
    its matrix in NumPy: the symmetrized generator assembled as SciPy CSR,
    made dense by .toarray(), then eigh."""
    size = tab.probs.size
    log_ratio = tab.logw[tab.src] - tab.logw[tab.dst]
    off = tab.rate * np.exp(0.5 * log_ratio)
    back = tab.rate * np.exp(log_ratio)
    exit_rate = np.bincount(tab.src, tab.rate, size) + np.bincount(tab.dst, back, size)
    diag = np.arange(size)
    rows = np.concatenate([tab.src, tab.dst, diag])
    cols = np.concatenate([tab.dst, tab.src, diag])
    S = csr_array((np.concatenate([off, off, -exit_rate]), (rows, cols)), shape=(size, size))
    evals, vecs = np.linalg.eigh(S.toarray())
    return evals, vecs, np.sqrt(tab.probs)


def shell_chain(n, N, kernel, blocks=None):
    """The transition table of a random n-site model on N slots, on the
    shell with half of each block's N * len(block) sites plus; kernel
    "mean-field", "blocks" or None (all pairs)."""
    rng = np.random.default_rng(100 * n + N)
    A = rng.standard_normal((n, n))
    blocks = blocks or (tuple(range(n)),)
    T = tuple(N * len(b) // 2 for b in blocks)
    # a field that varies inside a block, so the product measure is built
    # directly (multicanonical_measure takes block-constant fields only)
    logw = core.log_gibbs_weights(0.2 * (A + A.T), 0.3 * rng.standard_normal(n))
    m = kac.restricted_product_measure(logw, N, blocks, T)
    K = {"mean-field": collision.mean_field_kernel(n),
         "blocks": collision.blocks_kernel(n, blocks), None: None}[kernel]
    return kac.transition_table(m, K)


def slice_chain(sizes, M):
    """The ball walk of a random slice with blocks of the given sizes."""
    L = sum(sizes)
    rng = np.random.default_rng(10 * L + len(sizes))
    A = 0.3 * rng.standard_normal((L, L))
    inst = downup.DuInstance(L, A @ A.T / L, 0.4 * rng.standard_normal(L),
                             downup.contiguous_blocks(sizes), M)
    return downup.du_transitions(downup.du_measure(inst))


SPECTRUM_CHAINS = {
    **{f"shell n=2 N={N} {kernel or 'all-pairs'}": (shell_chain, (2, N, kernel))
       for N in (3, 4, 5) for kernel in ("mean-field", None)},
    **{f"shell n=3 N={N} {kernel or 'all-pairs'}": (shell_chain, (3, N, kernel))
       for N in (2, 3) for kernel in ("mean-field", None)},
    **{f"shell n=3 N={N} two blocks": (shell_chain, (3, N, "blocks", ((0, 1), (2,))))
       for N in (2, 3)},
    **{f"slice L={L} M={M}": (slice_chain, ((L,), (M,)))
       for L, M in ((6, 0), (8, 0), (9, 1), (10, 2))},
    "slice 4:0,4:2": (slice_chain, ((4, 4), (0, 2))),
    "slice 3:1,3:-1,4:0": (slice_chain, ((3, 3, 4), (1, -1, 0))),
}


class TestChainSpectra:
    @pytest.mark.parametrize("name", sorted(SPECTRUM_CHAINS))
    def test_spectrum_matches_the_csr_build(self, name):
        # no position repeats, so the dense scatter is the CSR matrix and
        # eigh returns the same bits
        build, args = SPECTRUM_CHAINS[name]
        tab = build(*args)
        assert tab.probs.size > 1
        for got, want in zip(tab.spectrum(), csr_spectrum(tab)):
            assert np.array_equal(got, want)

    def test_symmetric_is_the_similar_generator(self):
        tab = complete_graphs((5,), np.random.default_rng(20))
        L = chain_generator(tab)
        sq = np.sqrt(tab.probs)
        S = tab.symmetric().toarray()
        assert np.abs(S - sq[:, None] * L / sq[None, :]).max() < 1e-12
        assert np.array_equal(S, S.T)
        assert np.abs(L.sum(axis=1)).max() < 1e-12

    def test_dirichlet_sums_both_directions(self):
        rng = np.random.default_rng(21)
        tab = complete_graphs((6,), rng)
        L = chain_generator(tab)
        F, G = rng.standard_normal(6), rng.standard_normal(6)
        directed = 0.5 * sum(tab.probs[s] * L[s, d] * (F[d] - F[s]) * (G[d] - G[s])
                             for s in range(6) for d in range(6) if d != s)
        assert tab.dirichlet(F, G) == pytest.approx(directed, rel=1e-12)

    @pytest.mark.parametrize("name", ["shell n=3 N=3 mean-field", "slice 3:1,3:-1,4:0"])
    def test_dirichlet_keeps_the_bits_of_the_edge_sum(self, name):
        # the edge weights probs(src) rate are formed once per chain; the
        # sum has the bits of the expression that formed them per call
        build, args = SPECTRUM_CHAINS[name]
        tab = build(*args)
        rng = np.random.default_rng(23)
        for _ in range(3):
            F, G = rng.standard_normal((2, tab.probs.size))
            dF, dG = F[tab.dst] - F[tab.src], G[tab.dst] - G[tab.src]
            want = float(np.sum(tab.probs[tab.src] * tab.rate * dF * dG))
            assert tab.dirichlet(F, G) == want

    @pytest.mark.parametrize("sizes", [(3, 4), (150, 151)])
    def test_reducible_chain_has_zero_gap(self, sizes):
        # two components: the top eigenvalue 0 is double on the dense
        # path (7 states) and the Lanczos path (301 states) alike
        tab = complete_graphs(sizes, np.random.default_rng(22))
        assert (tab.probs.size > core.LANCZOS_STATES) == (sizes[0] > 100)
        gap, g = tab.slow_mode()
        assert gap == pytest.approx(0.0, abs=1e-10)
        assert tab.dirichlet(g, g) == pytest.approx(0.0, abs=1e-10)

    def test_slow_mode_sign_is_fixed(self):
        # eigh's sign is arbitrary; over eight chains, an unsigned mode
        # would come out positive at its peak on all of them 1 time in 256
        for seed in range(8):
            _, g = complete_graphs((5,), np.random.default_rng(seed)).slow_mode()
            assert g[np.argmax(np.abs(g))] > 0.0

    def test_one_state_chain_has_no_slow_mode(self):
        with pytest.raises(ValueError):
            core.ReversibleChain.from_moves([], [], [], np.ones(1), np.zeros(1)).slow_mode()


EXPIT_CHILD = (
    "import sys\n"
    "import numpy as np\n"
    "from spinkac import core\n"
    "x = np.random.default_rng(5).standard_normal(200_000) * 300.0\n"
    "sys.stdout.buffer.write(core.expit(x).tobytes())\n"
)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestExpit:
    @pytest.mark.parametrize("scale", [0.01, 1.0, 30.0, 300.0, 1e4])
    def test_matches_scipy_bit_for_bit(self, scale):
        x = np.random.default_rng(6).standard_normal(200_000) * scale
        assert same_bits(core.expit(x), expit(x))

    def test_tail_where_cexp_rescales(self):
        # below -709 glibc's cexp scales exp(-x); near -709.78 exp(-x)
        # overflows, and below about -745 exp(x) itself is 0
        x = np.linspace(-746.0, -700.0, 460_001)
        assert same_bits(core.expit(x), expit(x))
        x = np.nextafter(-709.0, [-np.inf, np.inf])
        assert same_bits(core.expit(x), expit(x))

    def test_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 709.0, -709.0, -745.2])
        got = core.expit(x)
        assert same_bits(got, expit(x))
        assert got[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
        assert np.isnan(core.expit(np.array([np.nan]))).all()

    @pytest.mark.parametrize("x", [0.75, -720.0, -709.5, -0.0, np.float64(3.0), np.array(-40.0)])
    def test_scalar_gives_float64(self, x):
        got = core.expit(x)
        assert type(got) is np.float64
        assert same_bits(np.array(got), np.array(expit(x)))

    def test_keeps_an_nd_shape(self):
        x = np.random.default_rng(7).standard_normal((3, 4, 5)) * 400.0
        got = core.expit(x)
        assert got.shape == (3, 4, 5) and got.dtype == np.float64
        assert same_bits(got, expit(x))
        assert same_bits(core.expit(x[:, ::2].T), expit(x[:, ::2].T))

    def test_bits_do_not_depend_on_numpy_cpu_dispatch(self, package_python):
        # with every SIMD kernel NumPy dispatches at run time switched off,
        # np.exp changes its bits on most x86 machines; expit must not
        from numpy._core._multiarray_umath import __cpu_dispatch__

        res = package_python(["-c", EXPIT_CHILD], capture_output=True,
                             extra_env={"NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)})
        assert res.returncode == 0, res.stderr.decode()
        x = np.random.default_rng(5).standard_normal(200_000) * 300.0
        assert res.stdout == core.expit(x).tobytes()


class TestGibbs:
    def test_logsumexp_matches_scipy(self):
        # the normalizer of gibbs, the shell measures and the field solve
        rng = np.random.default_rng(9)
        for trial in range(200):
            a = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=int(rng.integers(1, 64)))
            if trial % 4 == 0:
                a[rng.integers(a.size, size=3)] = a.max()  # ties at the maximum
            if trial % 4 == 1:
                a = np.round(a)
            want = logsumexp(a)
            assert abs(core.logsumexp(a) - want) <= 2.0 * np.spacing(abs(want))

    def test_logsumexp_of_a_stack_gives_each_row_its_bits(self):
        rng = np.random.default_rng(11)
        for width in (1, 2, 7, 64, 300):
            a = rng.normal(0.0, 5.0, size=(9, width))
            a[::3, 0] = a[::3].max(axis=1)  # ties at the maximum
            stacked = core.logsumexp(a)
            assert stacked.shape == (9,)
            assert stacked.tolist() == [core.logsumexp(row) for row in a]

    def test_single_free_spin_is_fair(self):
        assert core.gibbs(np.zeros((1, 1))).tolist() == [0.5, 0.5]

    def test_zero_field_flip_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        p = core.gibbs(0.2 * (a + a.T))
        flipped = p[::-1]  # complementing the mask reverses the index order
        assert np.abs(p - flipped).max() < 1e-15

    def test_two_site_ferromagnet_value(self):
        p = core.gibbs(np.array([[0.0, 0.3], [0.3, 0.0]]))
        want = math.exp(0.3) / (2 * math.exp(0.3) + 2 * math.exp(-0.3))
        assert p[0b11] == pytest.approx(want, abs=1e-15)

    def test_normalized_and_positive(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        p = core.gibbs(0.3 * (a + a.T), rng.standard_normal(3))
        assert abs(p.sum() - 1.0) < 1e-12
        assert p.min() > 0.0

    def test_asymmetric_interaction_rejected(self):
        with pytest.raises(ValueError):
            core.gibbs(np.array([[0.0, 0.1], [0.2, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_interaction_entries_must_be_finite(self, bad):
        J = np.array([[0.0, 0.1], [0.1, bad]])
        with pytest.raises(ValueError, match=rf"entries must be finite, got \[{bad}\]"):
            core.check_interaction(J)


class TestSpectrum:
    @pytest.mark.parametrize("J, failing", [
        (np.full((3, 3), 0.1), None),
        (np.array([[0.0, 0.2], [0.2, 0.0]]), "negative"),
        (np.full((2, 2), 0.4), "hot"),
        (np.array([[0.2]]), None),
    ], ids=["admissible", "indefinite", "hot", "one-site"])
    def test_rate_bounds_share_the_eigen_condition(self, J, failing):
        n = J.shape[0]
        lo, lam = (float(x) for x in np.linalg.eigvalsh(J)[[0, -1]])
        reason = {None: "", "negative": f"J has negative eigenvalue {lo}",
                  "hot": f"largest eigenvalue {lam} >= 1/2"}[failing]
        wc = core.weak_coupling(J)
        assert (wc.n, wc.lam, wc.jbar, wc.reason) == (n, lam, core.interaction_row_norm(J), reason)
        assert wc.applicable == (failing is None)
        constants = (wc.alpha, wc.single_block, wc.multi_block, wc.cov_bound,
                     wc.mean_field_alpha(None))
        if failing is None:
            c1 = 1.0 - 2.0 * lam
            assert constants == (c1 ** 2 * math.exp(-16.0 * wc.jbar) / (4.0 * n), c1, c1 * c1,
                                 2.0 / c1, c1 * 0.25 * math.exp(-8.0 * wc.jbar))
        else:
            assert constants == (None,) * 5
        # the comparison constant needs no hypothesis
        assert wc.comparison(np.array([0.1, -0.3])) == 0.25 * math.exp(-8.0 * (wc.jbar + 0.3))

    def test_weak_coupling_is_a_checked_frozen_record(self):
        wc = core.weak_coupling(np.zeros((2, 2)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            wc.lam = 0.1
        with pytest.raises(ValueError, match="not symmetric"):
            core.weak_coupling(np.array([[0.0, 0.1], [0.2, 0.0]]))

    def test_row_norm(self):
        J = np.array([[0.1, -0.2], [-0.2, 0.0]])
        assert core.interaction_row_norm(J) == pytest.approx(0.3)


class TestProfiles:
    def test_uniform_is_unmagnetized(self):
        p = np.full(8, 1.0 / 8)
        m = core.magnetization_profile(p, ((0, 1), (2,)))
        assert np.abs(m).max() < 1e-15

    def test_all_plus_point_mass(self):
        p = np.zeros(8)
        p[7] = 1.0
        m = core.magnetization_profile(p, ((0, 2), (1,)))
        assert m.tolist() == [1.0, 1.0]

    def test_bernoulli_product_means(self):
        # independent sites with P(+1) = alpha_l have mean 2 alpha - 1
        alphas = np.array([0.3, 0.8, 0.6])
        p = np.ones(8)
        for mask in range(8):
            for l in range(3):
                a = alphas[l]
                p[mask] *= a if (mask >> l) & 1 else 1.0 - a
        m = core.magnetization_profile(p, ((0, 1), (2,)))
        want = [np.mean(2 * alphas[:2] - 1), 2 * alphas[2] - 1]
        assert np.abs(m - want).max() < 1e-12

    def test_profile_is_affine(self):
        rng = np.random.default_rng(6)
        p, q = random_density(rng, 3), random_density(rng, 3)
        blocks = ((0, 2), (1,))
        for a in (0.0, 0.25, 0.7, 1.0):
            mix = core.magnetization_profile(a * p + (1 - a) * q, blocks)
            sep = a * core.magnetization_profile(p, blocks) + (1 - a) * core.magnetization_profile(q, blocks)
            assert np.abs(mix - sep).max() < 1e-12

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            core.check_partition(((0, 1), (1, 2)), 3)
        with pytest.raises(ValueError):
            core.check_partition(((0,),), 2)
        with pytest.raises(ValueError):
            core.check_partition(((0,), ()), 1)

    def test_degenerate_profile_names_block(self):
        p = np.zeros(4)
        p[0b11] = 1.0
        with pytest.raises(DegenerateProfileError, match=r"\(1, 2\)"):
            core.check_interior(core.magnetization_profile(p, ((0, 1),)), ((0, 1),))

    def test_profile_and_target_share_one_boundary(self):
        # m = 1 - 1e-13: inside (-1, 1), but within BOUNDARY_TOL of it
        p = np.array([5e-14, 1.0 - 5e-14])
        m = core.magnetization_profile(p, ((0,),))
        assert 1.0 - core.BOUNDARY_TOL <= m[0] < 1.0
        said = r"block \(1,\) has magnetization 0\.9999999999999.*within 1e-12 of the boundary"
        with pytest.raises(DegenerateProfileError, match=said):
            core.check_interior(m, ((0,),))
        with pytest.raises(DegenerateProfileError, match=said):
            core.match_block_means(np.zeros(2), ((0,),), m)
        inside = np.array([1.0 - 2.0 * core.BOUNDARY_TOL])
        assert core.check_interior(inside, ((0,),)) is inside

    @pytest.mark.parametrize("h, blocks, said", [
        ([0.5, -0.3], ((0, 1),), r"block \(1, 2\): 0\.5 vs -0\.3"),
        ([0.1, 0.2, 0.2, 0.1], ((1, 2), (0, 3)), None),
        ([0.1, 0.2, 0.3, 0.1], ((0, 3), (1, 2)), r"block \(2, 3\): 0\.2 vs 0\.3"),
        (None, ((0, 1),), None),
    ])
    def test_field_must_be_constant_on_each_block(self, h, blocks, said):
        if said is None:
            core.check_block_field(h, blocks)
        else:
            with pytest.raises(ValueError, match=said):
                core.check_block_field(h, blocks)


class TestFieldSolve:
    def test_free_spins_solved_by_atanh(self):
        target = np.array([0.4, -0.2])
        h = core.solve_field(np.zeros((3, 3)), ((0, 1), (2,)), target)
        want = np.array([math.atanh(0.4)] * 2 + [math.atanh(-0.2)])
        assert np.abs(h - want).max() < 1e-10

    def test_symmetric_model_zero_target_gives_zero_field(self):
        J = np.array([[0.0, 0.2, 0.1], [0.2, 0.0, 0.2], [0.1, 0.2, 0.0]])
        h = core.solve_field(J, ((0, 1, 2),), np.array([0.0]))
        assert np.abs(h).max() < 1e-10

    def test_random_roundtrip(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            a = rng.standard_normal((3, 3))
            J = 0.15 * (a + a.T)
            blocks = ((0, 1, 2),) if trial % 2 else ((0,), (1, 2))
            target = rng.uniform(-0.6, 0.6, size=len(blocks))
            h = core.solve_field(J, blocks, target)
            m = core.magnetization_profile(core.gibbs(J, h), blocks)
            assert np.abs(m - target).max() < 1e-8
            assert all(np.ptp(h[list(b)]) == 0.0 for b in blocks)

    def test_boundary_target_rejected(self):
        with pytest.raises(DegenerateProfileError):
            core.solve_field(np.zeros((2, 2)), ((0, 1),), np.array([1.0]))

    def test_a_singular_row_fails_alone(self):
        # a point mass (every other log-weight -inf) has zero curvature;
        # the stack solves again row by row, so only that row fails
        logw = np.log(np.random.default_rng(13).dirichlet(np.ones(8), size=4))
        logw[2] = -np.inf
        logw[2, 5] = 0.0
        blocks, target = ((0,), (1, 2)), np.array([0.2, -0.1])
        C, P, converged = core.match_block_means(logw, blocks, target)
        assert converged.tolist() == [True, True, False, True]
        for r in (0, 1, 3):
            c, p = core.match_block_means(logw[r], blocks, target)
            assert same_bits(C[r], c) and same_bits(P[r], p)
        with pytest.raises(ConvergenceError, match="singular curvature"):
            core.match_block_means(logw[2], blocks, target)

    def test_stacked_covariance_gives_each_row_its_bits(self):
        rng = np.random.default_rng(12)
        M = 2.0 * core.block_count_table(4, ((0,), (1, 2), (3,))) - np.array([1.0, 2.0, 1.0])
        p = rng.dirichlet(np.ones(16), size=6)
        stacked = core.covariance(p, M)
        assert stacked.shape == (6, 3, 3)
        assert all(same_bits(s, core.covariance(q, M)) for s, q in zip(stacked, p))

    @pytest.mark.parametrize("blocks", [
        ((0, 1),), ((0,), (1,)),
        ((0, 1, 2),), ((0,), (1, 2)), ((0,), (1,), (2,)),
        ((0, 1, 2, 3),), ((0, 2), (1, 3)), ((0,), (1, 2), (3,)),
    ])
    def test_stacked_rows_equal_one_row_calls(self, blocks):
        # every kind of test function, near point masses among them, so
        # that some rows stall; a row's tilt, density and outcome are
        # those of its own call
        n = sum(len(b) for b in blocks)
        rng = np.random.default_rng(30 + 10 * n + len(blocks))
        a = rng.standard_normal((n, n))
        logw = core.log_gibbs_weights(0.1 * (a + a.T), rng.uniform(-0.5, 0.5, n))
        logw = logw + np.log(core.sample_test_functions(1 << n, 90, rng))
        target = rng.uniform(-0.6, 0.6, len(blocks))
        C, P, converged = core.match_block_means(logw, blocks, target)
        assert C.shape == (90, len(blocks)) and P.shape == (90, 1 << n)
        for r, row in enumerate(logw):
            try:
                c, p = core.match_block_means(row, blocks, target)
            except ConvergenceError as exc:
                assert not converged[r] and exc.residual > core.FIELD_TOL
                continue
            assert converged[r]
            assert same_bits(C[r], c) and same_bits(P[r], p)
        assert converged.any() and not converged.all()

    # 2-site, one-block solves toward a mean of 0.7: under the field
    # (0, 0) the damped Newton needs 4 steps, under (0.2, -0.1) 5 and
    # under (1, 1) 6
    FIELDS = ([0.0, 0.0], [0.2, -0.1], [1.0, 1.0])

    def last_step_rows(self):
        J = np.array([[0.0, 0.4], [0.4, 0.0]])
        return np.array([core.log_gibbs_weights(J, np.array(h)) for h in self.FIELDS])

    def test_row_converging_on_the_last_allowed_step_converges(self, monkeypatch):
        # the FIELD_MAX_ITER-th step may be the one that reaches
        # FIELD_TOL; only a row still above it has exceeded the cap
        logw, blocks, target = self.last_step_rows()[1], ((0, 1),), np.array([0.7])
        c, p = core.match_block_means(logw, blocks, target)
        monkeypatch.setattr(core, "FIELD_MAX_ITER", 5)
        c5, p5 = core.match_block_means(logw, blocks, target)
        assert same_bits(c5, c) and same_bits(p5, p)
        monkeypatch.setattr(core, "FIELD_MAX_ITER", 4)
        with pytest.raises(ConvergenceError, match="exceeded 4 iterations") as exc:
            core.match_block_means(logw, blocks, target)
        assert exc.value.residual > core.FIELD_TOL

    def test_stacked_rows_converging_on_the_last_allowed_step_converge(self, monkeypatch):
        logw, blocks, target = self.last_step_rows(), ((0, 1),), np.array([0.7])
        C, P, converged = core.match_block_means(logw, blocks, target)
        assert converged.all()
        for cap, want in ((4, [True, False, False]), (5, [True, True, False]),
                          (6, [True, True, True])):
            monkeypatch.setattr(core, "FIELD_MAX_ITER", cap)
            C_cap, P_cap, converged = core.match_block_means(logw, blocks, target)
            assert converged.tolist() == want, cap
            assert same_bits(C_cap[converged], C[converged])
            assert same_bits(P_cap[converged], P[converged])


class TestEntropy:
    @pytest.mark.parametrize("p, said", [
        ([], "got 0 in shape"), ([1.0], "got 1 in shape"), ([0.5, 0.25, 0.25], "got 3 in shape"),
        ([[0.5, 0.5]], r"got 2 in shape \(1, 2\)"),
    ])
    def test_density_length_is_named(self, p, said):
        with pytest.raises(ValueError, match=said):
            core.check_probvec(p)

    def test_equal_densities(self):
        p = np.array([0.2, 0.3, 0.1, 0.4])
        assert core.relative_entropy(p, p) == 0.0

    def test_support_violation_is_infinite(self):
        assert core.relative_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf

    def test_point_mass_against_uniform(self):
        val = core.relative_entropy(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert val == pytest.approx(math.log(2.0), abs=1e-15)

    def test_tv_extremes(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        q = np.array([0.0, 0.0, 0.25, 0.75])
        assert core.tv_distance(p, p) == 0.0
        assert core.tv_distance(p, q) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 4, 5, 6, 7, 8])
    def test_stacked_rows_are_their_own_calls(self, n):
        # random rows, a third of them with exact zeros; a row with a zero
        # keeps the masked sum of its own call, the others are one stacked
        # reduction with the same bits. q is one law or a stack of laws.
        rng = np.random.default_rng(40 + n)
        p = rng.dirichlet(np.ones(1 << n), size=12)
        p[::3][rng.uniform(size=p[::3].shape) < 0.3] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        q = rng.dirichlet(np.ones(1 << n), size=12)
        for law in (q[0], q):
            rows = np.broadcast_to(law, p.shape)
            H, tv = core.relative_entropy(p, law), core.tv_distance(p, law)
            assert H.shape == tv.shape == (12,)
            assert np.array_equal(H, [core.relative_entropy(a, b) for a, b in zip(p, rows)])
            assert np.array_equal(tv, [core.tv_distance(a, b) for a, b in zip(p, rows)])

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_rows_with_zeros_are_their_own_calls(self, n):
        # 8 to 256 states, every row with exact zeros, which sit in the
        # sum in place; in rows 0 and 3 p charges a state its row law does
        # not, so H is +inf there. q is a stack of row laws, then one law.
        rng = np.random.default_rng(60 + n)
        p = rng.dirichlet(np.ones(1 << n), size=6)
        p[rng.uniform(size=p.shape) < 0.3] = 0.0
        p[:, 0] = 0.2
        p /= p.sum(axis=1, keepdims=True)
        q = rng.dirichlet(np.ones(1 << n), size=6)
        q[(p == 0.0) & (rng.uniform(size=p.shape) < 0.5)] = 0.0
        q[[0, 3], 0] = 0.0
        q /= q.sum(axis=1, keepdims=True)
        H = core.relative_entropy(p, q)
        assert np.array_equal(H, [core.relative_entropy(a, b) for a, b in zip(p, q)])
        assert np.isinf(H).tolist() == [True, False, False, True, False, False]
        H = core.relative_entropy(p, q[1])
        assert np.array_equal(H, [core.relative_entropy(a, q[1]) for a in p])

    @pytest.mark.parametrize("p, q", [
        (np.full(4, 0.25), [1.0]),
        (np.full(4, 0.25), np.full((3, 4), 0.25)),
        (np.full((2, 4), 0.25), np.full((3, 4), 0.25)),
        (np.full((2, 4), 0.25), np.full(2, 0.5)),
        (np.full((1, 2, 4), 0.25), np.full(4, 0.25)),
    ])
    def test_densities_on_other_state_spaces_are_rejected(self, p, q):
        # one density against one law of its size, or a stack against one
        # law or one law per row; anything else is two state spaces
        for distance in (core.relative_entropy, core.tv_distance):
            with pytest.raises(ValueError, match="share a state space"):
                distance(p, q)

    def test_stacked_support_violation_is_infinite(self):
        p = np.array([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.25, 0.25]])
        q = np.array([0.5, 0.0, 0.25, 0.25])
        H = core.relative_entropy(p, q)
        assert H[0] == H[1] == math.inf
        assert H[2] == core.relative_entropy(p[2], q) < math.inf

    def test_entropy_functional_matches_relative_entropy(self):
        # Ent_mu(f) = H(f mu | mu) when mu[f] = 1
        rng = np.random.default_rng(9)
        mu = random_density(rng, 3)
        f = np.exp(rng.standard_normal(8))
        f /= mu @ f
        assert core.entropy_functional(mu, f) == pytest.approx(core.relative_entropy(f * mu, mu), abs=1e-13)

    def test_constant_function_has_zero_entropy(self):
        mu = np.full(4, 0.25)
        assert core.entropy_functional(mu, np.full(4, 3.0)) == pytest.approx(0.0, abs=1e-15)

    def test_stacked_rows_equal_one_call_per_row(self):
        # a stack of row laws gives each row the bits of its own call,
        # through zero weights and zero entries of F (0 log 0 = 0)
        rng = np.random.default_rng(10)
        for k in range(1, 201):
            mu = rng.uniform(size=(7, k))
            mu[mu < 0.2] = 0.0
            mu[0] = 0.0
            mu /= np.maximum(mu.sum(axis=1, keepdims=True), 1e-300)
            F = np.exp(rng.standard_normal((7, k)))
            F[rng.uniform(size=(7, k)) < 0.2] = 0.0
            F[1] = 0.0
            stacked = core.entropy_functional(mu, F)
            assert stacked.shape == (7,)
            rows = np.array([core.entropy_functional(m, f) for m, f in zip(mu, F)])
            assert same_bits(stacked, rows), k
        assert type(core.entropy_functional(mu[2], F[2])) is float

    def test_stack_under_one_law_equals_one_call_per_row(self):
        # rows of 12,870 entries, the size of the L = 16 slice, past the
        # 8,192-element buffer of a ufunc reduction: every ratio scan
        # takes the entropies of its stack in one call under one law
        rng = np.random.default_rng(11)
        mu = rng.dirichlet(np.ones(12_870))
        F = core.sample_test_functions(12_870, 9, rng)
        F[4] = 1.0
        stacked = core.entropy_functional(mu, F)
        assert stacked.shape == (9,)
        rows = np.array([core.entropy_functional(mu, f) for f in F])
        assert same_bits(stacked, rows)

    def test_negative_function_rejected(self):
        F = np.ones((3, 4))
        F[2, 1] = -1e-300
        with pytest.raises(ValueError, match="nonnegative"):
            core.entropy_functional(np.full((3, 4), 0.25), F)
        with pytest.raises(ValueError, match="nonnegative"):
            core.entropy_functional(np.full(4, 0.25), F[2])

    def test_ratio_scan_on_one_state_is_vacuous(self):
        # the empty stack drawn on a one-state space, or any other stack
        # there, gives the vacuous scan
        for stack in (core.sample_test_functions(1, 40, None), np.full((3, 1), 2.0)):
            scan = core.entropy_ratio_scan(np.ones(1), stack, lambda G: 1.0)
            assert (scan.min_ratio, scan.median_ratio) == (math.inf, math.inf)
            assert (scan.samples, scan.discarded) == (0, 0)

    def test_ratio_scan_of_a_stack_calls_the_numerator_once(self):
        mu = np.full(4, 0.25)
        F = np.array([1.0, 2.0, 3.0, 4.0])
        calls = []

        def numerator(G):
            calls.append(G.shape)
            return G @ mu

        stack = np.array([np.ones(4), F, np.full(4, 3.0), 2.0 * F])
        scan = core.entropy_ratio_scan(mu, stack, numerator)
        assert calls == [(2, 4)]
        assert (scan.samples, scan.discarded) == (2, 2)
        assert scan.min_ratio == pytest.approx(2.5 / core.entropy_functional(mu, F))
        assert scan.gap is None
        with pytest.raises(FitError, match="no usable"):
            core.entropy_ratio_scan(mu, stack[[0, 2]], numerator)
        assert calls == [(2, 4)]

    def test_ratio_scan_without_usable_functions_fails(self):
        # flat rows only, or no rows at all
        for stack in (np.array([np.ones(2), np.full(2, 3.0)]), np.empty((0, 2))):
            with pytest.raises(FitError, match="no usable"):
                core.entropy_ratio_scan(np.full(2, 0.5), stack, lambda G: G.sum(axis=1))


def sample_test_function(size, trial, rng):
    """The test function of trial t, drawn by itself: the oracle that row
    t of `core.sample_test_functions` must equal bit for bit."""
    kind = trial % 3
    if kind == 0:
        s = float(rng.choice([0.5, 1.0, 2.0]))
        return np.exp(s * rng.standard_normal(size))
    if kind == 1:
        F = np.full(size, 1e-4)
        F[int(rng.integers(size))] = 1.0
        return F
    return 1.0 + 0.9 * rng.uniform(-1.0, 1.0, size=size)


class TestSampleTestFunctions:
    @pytest.mark.parametrize("trials", [0, 1, 2, 3, 90])
    @pytest.mark.parametrize("size", [2, 7, 256])
    def test_stack_equals_one_draw_per_trial(self, size, trials):
        # the same rows in the same stream order, and the stream left
        # where the per-trial draws leave it
        rng, oracle = np.random.default_rng(21), np.random.default_rng(21)
        stack = core.sample_test_functions(size, trials, rng)
        want = np.array([sample_test_function(size, t, oracle) for t in range(trials)])
        assert same_bits(stack, want.reshape(trials, size))
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert (stack > 0.0).all()

    def test_one_state_draws_nothing(self):
        rng = np.random.default_rng(22)
        state = rng.bit_generator.state
        for trials in (0, 1, 90):
            assert core.sample_test_functions(1, trials, rng).shape == (0, 1)
        assert rng.bit_generator.state == state


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_pinsker_inequality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    p, q = random_density(rng, n), random_density(rng, n)
    h = core.relative_entropy(p, q)
    assert h >= 2.0 * core.tv_distance(p, q) ** 2 - 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_marginals_are_densities(seed):
    # a fragment's factor at state s is the p-mass of the states that
    # agree with s on A; a marked singleton {j} reads the mark's site
    rng = np.random.default_rng(seed)
    p = random_density(rng, 3)
    states = range(8)
    for A in (0b001, 0b010, 0b110, 0b101, 0b111):
        factor = wildtree.fragment_factor(p, (A, -1), 3)
        brute = [sum(p[t] for t in states if t & A == s & A) for s in states]
        assert np.abs(factor - brute).max() < 1e-15
        # one state per pattern on A: the marginal is a density
        assert abs(sum(factor[s] for s in states if s & ~A == 0) - 1.0) < 1e-12
    for j, mark in ((0, 2), (1, 1), (2, 0)):
        factor = wildtree.fragment_factor(p, (1 << j, mark), 3)
        brute = [sum(p[t] for t in states if t >> mark & 1 == s >> j & 1) for s in states]
        assert np.abs(factor - brute).max() < 1e-15


def test_marginal_of_product_factorizes():
    rng = np.random.default_rng(11)
    a, b = rng.dirichlet([2, 2]), rng.dirichlet([2, 2])
    p = np.array([a[(m >> 0) & 1] * b[(m >> 1) & 1] for m in range(4)])
    on0 = wildtree.fragment_factor(p, (0b01, -1), 2)
    on1 = wildtree.fragment_factor(p, (0b10, -1), 2)
    assert np.abs(on0 - a[[0, 1, 0, 1]]).max() < 1e-14
    assert np.abs(on1 - b[[0, 0, 1, 1]]).max() < 1e-14
    assert np.abs(on0 * on1 - p).max() < 1e-14
