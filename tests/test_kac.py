"""Count shells, conditioned products and the N-slot exchange process."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import expit

from spinkac import collision, core, kac
from spinkac.collision import CollisionContext
from spinkac.errors import CapacityError
from spinkac.rng import make_rng


def mean_field_ctx(J):
    n = np.asarray(J).shape[0]
    return CollisionContext(J, collision.mean_field_kernel(n))


def diagonal_acceptance(ctx, l, k, sigma):
    """Heat-bath acceptance for swapping sites l and k inside one
    configuration, from the zero-field weights."""
    swapped = sigma
    if ((sigma >> l) & 1) != ((sigma >> k) & 1):
        swapped = sigma ^ ((1 << l) | (1 << k))
    return float(expit(ctx.logw[swapped] - ctx.logw[sigma]))


def shell_generator(m, K):
    """Dense generator of the shell process from the heat-bath rule, one
    ordered (slot, site, slot, site) move at a time: rate
    K[l, k] * w(after) / (w(before) + w(after)) / (N n), or weight 1 in
    place of K[l, k] when K is None."""
    n, N = m.n, m.N
    index = {c: i for i, c in enumerate(m.codes.tolist())}
    L = np.zeros((len(index), len(index)))
    for c, s in index.items():
        for i, j, l, k in itertools.product(range(N), range(N), range(n), range(n)):
            a, b = i * n + l, j * n + k
            if (c >> a & 1) == (c >> b & 1) or (c ^ (1 << a | 1 << b)) not in index:
                continue
            d = index[c ^ (1 << a | 1 << b)]
            w = 1.0 if K is None else K[l, k]
            rate = w / (1.0 + math.exp(m.logw[s] - m.logw[d])) / (N * n)
            L[s, d] += rate
            L[s, s] -= rate
    return L


def directed_dirichlet(m, L, F, G):
    """(1/2) sum over ordered state pairs of mu(s) L(s, d) dF dG."""
    dF = F[None, :] - F[:, None]
    dG = G[None, :] - G[:, None]
    off = L - np.diag(np.diag(L))
    return 0.5 * float(np.sum(m.probs[:, None] * off * dF * dG))


class TestShells:
    def test_canonical_density_balanced(self):
        nu = np.full(2, 0.5)
        assert kac.canonical_counts(nu, ((0,),), 4) == (2,)

    def test_canonical_density_saturated(self):
        nu = np.array([0.0, 0.0, 0.0, 1.0])
        assert kac.canonical_counts(nu, ((0, 1),), 3) == (6,)

    def test_canonical_density_rounds_down(self):
        # block mean 0.3 on two sites over five copies: floor(6.5) plus spins
        p_plus = (1.0 + 0.3) / 2.0
        nu = np.array([(1 - p_plus) ** 2, p_plus * (1 - p_plus),
                       (1 - p_plus) * p_plus, p_plus ** 2])
        assert kac.canonical_counts(nu, ((0, 1),), 5) == (6,)

    def test_density_to_counts_roundtrip(self):
        assert kac.density_to_counts((Fraction(3, 5),), 5, ((0, 1),)) == (6,)
        with pytest.raises(ValueError, match="not admissible"):
            kac.density_to_counts((0.3,), 5, ((0,),))

    def test_one_density_per_block(self):
        with pytest.raises(ValueError, match="need 1 block densities, got 2"):
            kac.density_to_counts((0.5, 0.25), 2, ((0, 1),))
        with pytest.raises(ValueError, match="need 2 block densities, got 1"):
            kac.density_to_counts((0.5,), 2, ((0,), (1,)))

    def test_admissible_counts_enumeration(self):
        got = kac.admissible_counts(2, ((0,), (1, 2)))
        assert len(got) == 3 * 5
        assert (0, 0) in got and (2, 4) in got

    @pytest.mark.parametrize("N", [0, -1])
    def test_admissible_counts_need_a_slot(self, N):
        with pytest.raises(ValueError, match=f"N = {N}"):
            kac.admissible_counts(N, ((0,),))

    def test_slot_count_is_an_integer(self):
        # N takes the rule of T's entries: an integral float passes as its
        # int and a fractional one gets the shell's one ValueError
        want = kac.restricted_product_measure(np.zeros(2), 2, ((0,),), (1,))
        got = kac.restricted_product_measure(np.zeros(2), 2.0, ((0,),), (1,))
        assert got.N == 2 and np.array_equal(got.codes, want.codes)
        assert np.array_equal(got.probs, want.probs)
        assert kac.admissible_counts(2.0, ((0,),)) == kac.admissible_counts(2, ((0,),))
        with pytest.raises(ValueError, match=r"need an integer N >= 1, got N = 2\.5, and T"):
            kac.restricted_product_measure(np.zeros(2), 2.5, ((0,),), (1,))
        with pytest.raises(ValueError, match=r"need an integer N >= 1, got N = 2\.5$"):
            kac.admissible_counts(2.5, ((0,),))


class TestMulticanonical:
    def test_free_shell_is_uniform(self):
        m = kac.multicanonical_measure(np.zeros((2, 2)), None, 2, ((0, 1),), (2,))
        assert np.abs(m.probs - 1.0 / m.codes.size).max() < 1e-14

    def test_shell_needs_a_slot(self):
        with pytest.raises(ValueError, match="need an integer N >= 1, got N = 0"):
            kac.restricted_product_measure(np.zeros(2), 0, ((0,),), (0,))

    def test_two_slot_single_site_shell(self):
        m = kac.multicanonical_measure(np.zeros((1, 1)), None, 2, ((0,),), (1,))
        assert m.codes.tolist() == [0b01, 0b10]
        assert np.abs(m.probs - 0.5).max() < 1e-15

    def test_blocked_shell_against_brute_force(self):
        J = np.array([[0.1, 0.3], [0.3, 0.1]])
        h = np.array([0.2, -0.1])
        N, T = 2, (1, 1)
        blocks = ((0,), (1,))
        m = kac.multicanonical_measure(J, h, N, blocks, T)
        logw = core.log_gibbs_weights(J, h)
        table = {}
        for m1, m2 in itertools.product(range(4), repeat=2):
            c0 = ((m1 >> 0) & 1) + ((m2 >> 0) & 1)
            c1 = ((m1 >> 1) & 1) + ((m2 >> 1) & 1)
            if (c0, c1) == T:
                table[m1 | (m2 << 2)] = math.exp(logw[m1] + logw[m2])
        z = sum(table.values())
        assert set(m.codes.tolist()) == set(table)
        for code, p in zip(m.codes, m.probs):
            assert p == pytest.approx(table[int(code)] / z, abs=1e-13)

    def test_permutation_symmetry(self):
        J = np.array([[0.1, 0.2], [0.2, 0.1]])
        m = kac.multicanonical_measure(J, np.array([0.3, 0.3]), 2, ((0, 1),), (2,))
        swapped = ((m.codes & 0b11) << 2) | (m.codes >> 2)
        idx = core.code_index(m.codes, np.sort(swapped))
        assert np.abs(m.probs[np.argsort(swapped)] - m.probs[idx]).max() == 0.0

    def test_matches_conditioned_gibbs_product(self):
        # conditioning the product of Gibbs densities and the equilibrium
        # construction give the same shell law
        J = np.array([[0.0, 0.25], [0.25, 0.0]])
        h = np.array([0.15, 0.15])
        mu = core.gibbs(J, h)
        T = kac.canonical_counts(mu, ((0, 1),), 3)
        g1 = kac.restricted_product_measure(np.log(mu), 3, ((0, 1),), T)
        g2 = kac.multicanonical_measure(J, h, 3, ((0, 1),), T)
        assert np.array_equal(g1.codes, g2.codes)
        assert np.abs(g1.probs - g2.probs).max() < 1e-13


class TestDirichlet:
    def test_constant_function_vanishes(self):
        m = kac.multicanonical_measure(np.array([[0.0, 0.2], [0.2, 0.0]]), None, 2, ((0, 1),), (2,))
        F = np.full(m.codes.size, 2.5)
        assert kac.transition_table(m, None).dirichlet(F, F) == 0.0

    def test_nonnegative_quadratic(self):
        rng = make_rng(61, 0)
        m = kac.multicanonical_measure(np.array([[0.1, 0.15], [0.15, 0.1]]), None, 3, ((0, 1),), (3,))
        tab = kac.transition_table(m, None)
        for _ in range(10):
            F = np.exp(rng.standard_normal(m.codes.size))
            assert tab.dirichlet(F, F) >= 0.0

    def test_matches_generator_pairing(self):
        rng = make_rng(61, 1)
        J = np.array([[0.05, 0.1], [0.1, 0.05]])
        m = kac.multicanonical_measure(J, np.array([0.2, 0.2]), 3, ((0, 1),), (4,))
        K = collision.mean_field_kernel(2)
        L = shell_generator(m, K)
        tab = kac.transition_table(m, K)
        for _ in range(5):
            F = np.exp(rng.standard_normal(m.codes.size))
            G = np.exp(rng.standard_normal(m.codes.size))
            pairing = -float(m.probs @ (F * (L @ G)))
            assert tab.dirichlet(F, G) == pytest.approx(pairing, abs=1e-12)

    def test_reversibility_of_generator(self):
        m = kac.multicanonical_measure(np.array([[0.1, 0.25], [0.25, 0.1]]), np.array([0.3, 0.3]),
                                       2, ((0, 1),), (2,))
        K = collision.mean_field_kernel(2)
        L = shell_generator(m, K)
        flow = m.probs[:, None] * L
        assert np.abs(flow - flow.T).max() < 1e-12
        # the table's one entry per edge carries both directions
        sq = np.sqrt(m.probs)
        S = kac.transition_table(m, K).symmetric().toarray()
        assert np.abs(S - sq[:, None] * L / sq[None, :]).max() < 1e-12

    @pytest.mark.parametrize("kernel", ["none", "skewed", "blocks"])
    def test_edges_match_all_directed_moves(self, kernel):
        # one entry per edge against every ordered move; the skewed
        # kernel has K[l, k] != K[k, l], the blocks kernel two blocks
        rng = make_rng(61, 2)
        J = np.array([[0.1, 0.2, 0.0], [0.2, 0.05, 0.1], [0.0, 0.1, 0.1]])
        h = np.array([0.3, -0.2, 0.1])
        blocks, T = ((0, 1, 2),), (4,)
        K = None
        if kernel == "skewed":
            K = rng.uniform(0.0, 1.0, (3, 3))
            K /= K.sum(axis=1, keepdims=True)
        elif kernel == "blocks":
            blocks, T = ((0, 1), (2,)), (2, 1)
            K = collision.blocks_kernel(3, blocks)
        # a field that varies inside a block: the product measure is built
        # directly, since multicanonical_measure takes block-constant fields only
        m = kac.restricted_product_measure(core.log_gibbs_weights(J, h), 3, blocks, T)
        L = shell_generator(m, K)
        tab = kac.transition_table(m, K)
        assert np.all(tab.src < tab.dst)
        assert tab.src.size == np.count_nonzero(np.triu(L, 1))
        for _ in range(3):
            F = np.exp(rng.standard_normal(m.codes.size))
            G = np.log(F)
            want = directed_dirichlet(m, L, F, G)
            assert tab.dirichlet(F, G) == pytest.approx(want, rel=1e-12)


class TestScan:
    def test_two_point_grid_ratio(self):
        # the smallest nontrivial shell: dense grid of F = (1, x)
        m = kac.multicanonical_measure(np.zeros((1, 1)), None, 2, ((0,),), (1,))
        tab = kac.transition_table(m, collision.mean_field_kernel(1))
        worst = math.inf
        for x in np.logspace(-6.0, 6.0, 2001):
            F = np.array([1.0, x])
            ent = core.entropy_functional(m.probs, F)
            if ent < 1e-13:
                continue
            worst = min(worst, tab.dirichlet(F, np.log(F)) / ent)
        assert worst >= 0.25

    def test_random_model_beats_bound(self):
        J = np.full((2, 2), 0.05)
        m = kac.multicanonical_measure(J, None, 3, ((0, 1),), (2,))
        scan = kac.particle_mlsi_scan(m, collision.mean_field_kernel(2), 150, make_rng(62, 0))
        bound = core.weak_coupling(J)
        assert bound.applicable
        assert scan.min_ratio >= bound.alpha
        assert scan.median_ratio >= scan.min_ratio

    def test_singleton_shell_is_vacuous(self):
        m = kac.multicanonical_measure(np.zeros((1, 1)), None, 2, ((0,),), (2,))
        assert m.codes.size == 1
        scan = kac.particle_mlsi_scan(m, collision.mean_field_kernel(1), 10, make_rng(62, 1))
        assert scan.min_ratio == math.inf
        assert scan.samples == 0


class TestDecay:
    @pytest.mark.parametrize("make, said", [
        (lambda size: np.full(size, 2.0 / size), "nu0 mass 2"),
        (lambda size: np.r_[-1.0, np.full(size - 1, 2.0 / (size - 1))], "nu0 has a negative entry"),
        (lambda size: np.full(size + 1, 1.0 / (size + 1)), "one entry per shell state"),
        (lambda size: np.full((1, size), 1.0 / size), "one entry per shell state"),
    ])
    def test_initial_law_is_checked(self, make, said):
        m = kac.multicanonical_measure(np.array([[0.0, 0.1], [0.1, 0.0]]), None, 3, ((0, 1),), (3,))
        with pytest.raises(ValueError, match=said):
            kac.particle_entropy_decay(m, collision.mean_field_kernel(2), make(m.codes.size), [0.0])

    def test_stationary_start_is_flat(self):
        J = np.array([[0.0, 0.25], [0.25, 0.0]])
        m = kac.multicanonical_measure(J, np.array([0.15, 0.15]), 3, ((0, 1),), (3,))
        curve = kac.particle_entropy_decay(m, collision.mean_field_kernel(2), m.probs,
                                           np.linspace(0.0, 5.0, 6))
        assert np.abs(curve).max() < 1e-12

    def test_point_mass_decays_at_rate(self):
        J = np.array([[0.08, 0.05], [0.05, 0.08]])
        m = kac.multicanonical_measure(J, None, 3, ((0, 1),), (3,))
        nu0 = np.zeros(m.codes.size)
        nu0[0] = 1.0
        t_grid = np.linspace(0.0, 30.0, 16)
        H = kac.particle_entropy_decay(m, collision.mean_field_kernel(2), nu0, t_grid)
        assert H[0] > 0.0
        assert np.all(np.diff(H) <= 1e-12)
        keep = H > 1e-12
        slope = -np.polyfit(t_grid[keep], np.log(H[keep]), 1)[0]
        assert slope >= core.weak_coupling(J).alpha


def full_lattice_log_mass(nu, blocks, N, T=None):
    """The count-shell convolution over the whole (N|b| + 1)^B lattice at
    every copy, one support point at a time: the reference of the
    windowed `kac.shell_log_mass`."""
    nu = np.asarray(nu, dtype=float)
    blocks = core.check_partition(blocks, core.sites_of(nu))
    logq = kac.single_count_logdist(nu, blocks)
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


class TestMasses:
    def test_single_copy_is_direct(self):
        nu = np.array([0.1, 0.2, 0.3, 0.4])
        blocks = ((0, 1),)
        counts = core.block_count_table(2, blocks)[:, 0]
        for t in (0, 1, 2):
            want = float(nu[counts == t].sum())
            assert kac.restricted_mass(nu, blocks, 1, (t,)) == pytest.approx(want, abs=1e-15)

    def test_uniform_mass_is_binomial(self):
        nu = np.full(2, 0.5)
        for N in (2, 4, 10):
            T = kac.density_to_counts((Fraction(1, 2),), N, ((0,),))
            got = kac.restricted_mass(nu, ((0,),), N, T)
            assert got == pytest.approx(math.comb(N, N // 2) / 2.0 ** N, rel=1e-12)

    def test_lattice_against_brute_force(self):
        rng = make_rng(63, 0)
        nu = rng.dirichlet(np.full(4, 2.0))
        blocks = ((0,), (1,))
        counts = core.block_count_table(2, blocks)
        N = 3
        for T in ((1, 2), (0, 0), (3, 1)):
            brute = 0.0
            for combo in itertools.product(range(4), repeat=N):
                if tuple(counts[list(combo)].sum(axis=0)) == T:
                    brute += float(np.prod(nu[list(combo)]))
            got = kac.restricted_mass(nu, blocks, N, T)
            assert got == pytest.approx(brute, rel=1e-12, abs=1e-300)

    def test_shell_mass_vanishes_per_copy(self):
        nu = np.array([0.3, 0.7])
        blocks = ((0,),)
        vals = []
        for N in (50, 100, 200, 400):
            T = kac.canonical_counts(nu, blocks, N)
            vals.append(-kac.shell_log_mass(nu, blocks, N, T) / N)
        assert all(v > 0 for v in vals)
        assert vals[-1] < vals[0]
        assert vals[-1] < 0.02

    @pytest.mark.parametrize("blocks, N", [
        (((0, 1),), 7),
        (((0,), (1,)), 6),
        (((0, 2), (1,)), 4),
        (((0,), (1,), (2,)), 3),
    ])
    def test_windowed_lattice_equals_full_lattice(self, blocks, N):
        # every table cell and every shell, corners 0 and N|b| included,
        # for a density with zero entries and one without
        rng = make_rng(64, 0)
        n = 1 + max(max(b) for b in blocks)
        sparse = rng.dirichlet(np.ones(1 << n))
        sparse[[1, 1 << n - 1]] = 0.0
        for nu in (rng.dirichlet(np.full(1 << n, 2.0)), sparse / sparse.sum()):
            full = full_lattice_log_mass(nu, blocks, N)
            got = kac.shell_log_mass(nu, blocks, N)
            assert got.dtype == full.dtype and np.array_equal(got, full)
            for T in kac.admissible_counts(N, blocks):
                got = kac.shell_log_mass(nu, blocks, N, T)
                assert np.array_equal(got, full[T]), T

    def test_windowed_lattice_at_the_chaos_criterion_size(self):
        # criterion 10's N = 200 shells, one block and two
        J = np.array([[0.0, 0.25], [0.25, 0.0]])
        mu = core.gibbs(J, np.array([0.15, 0.15]))
        for blocks in (((0, 1),), ((0,), (1,))):
            T = kac.canonical_counts(mu, blocks, 200)
            got = kac.shell_log_mass(mu, blocks, 200, T)
            assert np.array_equal(got, full_lattice_log_mass(mu, blocks, 200, T))

    @pytest.mark.parametrize("T", [(-1,), (-2,), (11,), (3, 1), (), (2.5,)])
    def test_shell_outside_the_lattice_raises(self, T):
        # N = 5 copies of one two-site block: T runs over 0..10, and every
        # entry point that takes a shell rejects the same T the same way
        # (a negative entry used to wrap around the lattice table, a
        # fractional one to be truncated)
        nu = np.array([0.1, 0.2, 0.3, 0.4])
        blocks = ((0, 1),)
        ctx = mean_field_ctx(np.zeros((2, 2)))
        entry_points = [
            lambda: kac.restricted_product_measure(np.log(nu), 5, blocks, T),
            lambda: kac.multicanonical_measure(np.zeros((2, 2)), None, 5, blocks, T),
            lambda: kac.initial_state_for_counts(2, blocks, 5, T),
            lambda: kac.simulate_particles(ctx, 5, T, 1.0, make_rng(64, 6)),
            lambda: kac.simulate_particles(ctx, 5, T, 1.0, make_rng(64, 6), init=[0] * 5),
            lambda: kac.shell_log_mass(nu, blocks, 5, T),
            lambda: kac.restricted_mass(nu, blocks, 5, T),
            lambda: kac.canonical_marginal(nu, blocks, 5, T, 1),
            lambda: kac.marginal_tv(nu, blocks, 5, T, 2),
            lambda: kac.local_clt_value(nu, blocks, 5, T),
        ]
        for call in entry_points:
            with pytest.raises(ValueError, match=r"got T = \("):
                call()

    def test_degenerate_block_count_is_named(self):
        # nu charges one configuration only, so block (1,)'s count has
        # zero variance: no Gaussian, and no Cholesky error from numpy
        with pytest.raises(ValueError, match=r"block \(1,\): its count is 0 on the support"):
            kac.local_clt_value(np.array([1.0, 0.0]), ((0,),), 10, (0,))
        # only the second block is pinned (site 2 is + wherever nu > 0)
        nu = np.array([0.0, 0.0, 0.4, 0.6])
        with pytest.raises(ValueError, match=r"block \(2,\): its count is 1"):
            kac.local_clt_value(nu, ((0,), (1,)), 10, (4, 10))

    def test_gaussian_prediction_at_large_N(self):
        nu = np.array([0.35, 0.65])
        blocks = ((0,),)
        T = kac.canonical_counts(nu, blocks, 200)
        ratio = kac.restricted_mass(nu, blocks, 200, T) / kac.local_clt_value(nu, blocks, 200, T)
        assert abs(ratio - 1.0) <= 0.05


class TestChaos:
    def test_marginal_slope(self):
        rep = kac.chaos_scan(np.array([0.25, 0.75]), ((0,),), 2, [8, 16, 32, 64])
        assert abs(rep.slope + 1.0) <= 0.1
        assert np.all(np.diff(rep.tv) < 0)

    def test_marginal_needs_a_slot(self):
        with pytest.raises(ValueError, match="got k = 0 and N = 4"):
            kac.canonical_marginal(np.array([0.25, 0.75]), ((0,),), 4, (2,), 0)

    def test_marginal_needs_k_at_most_N(self):
        with pytest.raises(ValueError, match="got k = 3 and N = 2"):
            kac.canonical_marginal(np.array([0.25, 0.75]), ((0,),), 2, (1,), 3)

    @pytest.mark.parametrize("grid", [[8], [8, 8]])
    def test_slope_needs_two_distinct_N(self, grid):
        with pytest.raises(ValueError, match="two distinct N"):
            kac.chaos_scan(np.array([0.25, 0.75]), ((0,),), 2, grid)

    def test_irreducibility_guard(self):
        frozen = np.array([0.0, 0.5, 0.5, 0.0])  # block count pinned at one
        with pytest.raises(ValueError, match="no [+]1 step"):
            kac.chaos_scan(frozen, ((0, 1),), 1, [2, 4])

    @pytest.mark.parametrize("blocks", [((0, 1, 2),), ((0, 1), (2,)), ((0,), (1,), (2,)),
                                        ((0, 2), (1,))])
    def test_irreducibility_matches_the_support_search(self, blocks):
        # oracle: some support point c has c + e_b in the support too
        rng = np.random.default_rng(66)
        for _ in range(60):
            nu = rng.uniform(size=8) * (rng.uniform(size=8) < 0.35)
            if nu.sum() == 0.0:
                continue
            nu /= nu.sum()
            support = {tuple(c) for c in np.argwhere(np.isfinite(kac.single_count_logdist(nu, blocks)))}
            first_bad = next((b for bi, b in enumerate(blocks) if not any(
                tuple(c[a] + (a == bi) for a in range(len(blocks))) in support for c in support)),
                None)
            if first_bad is None:
                assert kac.check_irreducible(nu, blocks)
            else:
                said = rf"block \({', '.join(str(x + 1) for x in first_bad)},?\): count support"
                with pytest.raises(ValueError, match=said):
                    kac.check_irreducible(nu, blocks)

    def test_entropic_gap_shrinks(self):
        # tilt projected back onto the block mean, so both densities carry
        # the same canonical counts at every N
        nu2 = np.array([0.2, 0.3, 0.1, 0.4])
        blocks = ((0, 1),)
        logf = np.log(np.array([1.15, 0.9, 1.1, 0.85]))
        _, nu1 = core.match_block_means(np.log(nu2) + logf, blocks,
                                        core.magnetization_profile(nu2, blocks))
        gaps = [kac.entropic_chaos_gap(nu1, nu2, blocks, N) for N in (8, 32, 128)]
        assert all(g > 0 for g in gaps)
        assert gaps[2] < gaps[0]

    def test_entropic_gap_rejects_mismatched_shells(self):
        nu1 = np.array([0.7, 0.3])
        nu2 = np.array([0.3, 0.7])
        with pytest.raises(ValueError, match=r"block \(1,\) .* off the shell"):
            kac.entropic_chaos_gap(nu1, nu2, ((0,),), 5)

    def test_profiles_may_differ_by_the_field_solve_slack(self):
        # a profile 2e-11 off nu2's is within the field solve's slack,
        # one 2e-9 off is another density
        nu2 = np.array([0.3, 0.7])
        blocks = ((0,),)
        near = kac.entropic_chaos_gap(nu2 + np.array([1e-11, -1e-11]), nu2, blocks, 8)
        assert math.isfinite(near)
        with pytest.raises(ValueError, match=r"block \(1,\) .* off the shell"):
            kac.entropic_chaos_gap(nu2 + np.array([1e-9, -1e-9]), nu2, blocks, 8)


def projected_tilt(kernel, rng):
    """(ctx, h, nu): a random tilt of the Gibbs law mu, projected back on
    mu's block magnetizations so that both share their canonical shells."""
    J3 = np.array([[0.1, 0.2, 0.0], [0.2, 0.05, 0.1], [0.0, 0.1, 0.1]])
    J, h, K = {
        "mean-field-2": (np.array([[0.0, 0.3], [0.3, 0.0]]), np.array([0.1, 0.1]),
                         collision.mean_field_kernel(2)),
        "mean-field-3": (J3, np.array([0.1, 0.1, 0.1]), collision.mean_field_kernel(3)),
        "blocks": (J3, np.array([0.1, 0.1, -0.2]), collision.blocks_kernel(3, ((0, 1), (2,)))),
        "single-site": (np.array([[0.0, 0.3], [0.3, 0.0]]), np.array([0.1, -0.3]),
                        collision.single_site_kernel(2)),
        "matrix": (J3, np.array([0.1, 0.1, 0.1]),
                   np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])),
    }[kernel]
    ctx = CollisionContext(J, K)
    mu = core.gibbs(J, h)
    f0 = np.exp(0.5 * rng.standard_normal(1 << ctx.n))
    _, nu = core.match_block_means(core.log_gibbs_weights(J, h) + np.log(f0), ctx.blocks,
                                   core.magnetization_profile(mu, ctx.blocks))
    return ctx, h, nu


class TestFisher:
    def test_constant_ratio_vanishes(self):
        J = np.array([[0.0, 0.2], [0.2, 0.0]])
        ctx = mean_field_ctx(J)
        h = np.array([0.1, 0.1])
        tab = kac.fisher_chaos_check(ctx, h, np.ones(4), [2, 4])
        assert tab.target == 0.0
        assert np.abs(tab.per_slot).max() < 1e-12
        assert np.abs(tab.gap).max() < 1e-12

    def test_single_site_is_degenerate(self):
        # with one site the conserved profile pins the whole law: the only
        # admissible ratio is constant and both sides sit at zero
        ctx = mean_field_ctx(np.zeros((1, 1)))
        h = np.array([0.2])
        mu = core.gibbs(np.zeros((1, 1)), h)
        target = core.magnetization_profile(mu, ctx.blocks)
        logf = 0.7 * np.array([1.0, -1.0])
        _, nu = core.match_block_means(core.log_gibbs_weights(np.zeros((1, 1)), h) + logf,
                                       ctx.blocks, target)
        tab = kac.fisher_chaos_check(ctx, h, nu / mu, [2, 4, 6])
        assert tab.target < 1e-12
        assert np.abs(tab.gap).max() < 1e-12

    def test_gap_shrinks_for_projected_tilt(self):
        J = np.array([[0.0, 0.3], [0.3, 0.0]])
        h = np.array([0.1, 0.1])
        ctx = mean_field_ctx(J)
        mu = core.gibbs(J, h)
        rng = make_rng(20260822, 11)
        f0 = np.exp(0.5 * rng.standard_normal(4))
        target = core.magnetization_profile(mu, ctx.blocks)
        _, nu = core.match_block_means(core.log_gibbs_weights(J, h) + np.log(f0),
                                       ctx.blocks, target)
        tab = kac.fisher_chaos_check(ctx, h, nu / mu, [2, 4, 6])
        assert tab.target > 0.0
        assert np.all(np.diff(tab.gap) < 0)

    def test_off_shell_tilt_rejected(self):
        J = np.array([[0.0, 0.2], [0.2, 0.0]])
        ctx = mean_field_ctx(J)
        h = np.array([0.1, 0.1])
        f = np.array([2.0, 0.5, 0.5, 0.8])  # changes the conserved profile
        with pytest.raises(ValueError, match="off the shell"):
            kac.fisher_chaos_check(ctx, h, f, [4])

    @pytest.mark.parametrize("kernel", ["mean-field-2", "mean-field-3", "blocks", "single-site", "matrix"])
    def test_marginal_sum_matches_the_shell_table(self, kernel):
        # the per-slot value from the one- and two-slot marginals against
        # the shell's transition table on the enumerated shell, N*n <= 16
        ctx, h, nu = projected_tilt(kernel, make_rng(20260822, 12))
        mu = core.gibbs(ctx.J, h)
        for N in range(1, 16 // ctx.n + 1):
            T = kac.canonical_counts(mu, ctx.blocks, N)
            gamma_mu = kac.restricted_product_measure(np.log(mu), N, ctx.blocks, T)
            gamma_nu = kac.restricted_product_measure(np.log(nu), N, ctx.blocks, T)
            F = gamma_nu.probs / gamma_mu.probs
            want = kac.transition_table(gamma_mu, ctx.K).dirichlet(F, np.log(F)) / N
            assert kac._fisher_per_slot(ctx, mu, nu, N) == pytest.approx(want, rel=1e-12)

    def test_profile_a_roundoff_below_the_reference_shares_its_shell(self):
        # criterion 11's second case at seed 102: the field solve leaves
        # nu's magnetization 1.3e-11 below mu's, so floor(N (1 + m) + 1e-9)
        # gives nu 127 plus spins at N = 128 where mu has 128; both
        # densities read mu's shell
        J, h = np.array([[0.1, 0.15], [0.15, 0.1]]), np.zeros(2)
        ctx = mean_field_ctx(J)
        mu = core.gibbs(J, h)
        target = core.magnetization_profile(mu, ctx.blocks)
        f0 = np.exp(0.5 * make_rng(102, 1102).standard_normal(4))
        _, nu = core.match_block_means(core.log_gibbs_weights(J, h) + np.log(f0), ctx.blocks, target)
        assert kac.canonical_counts(nu, ctx.blocks, 128) != kac.canonical_counts(mu, ctx.blocks, 128)
        tab = kac.fisher_chaos_check(ctx, h, nu / mu, [128, 256])
        assert np.all(np.isfinite(tab.gap))
        gaps = [kac.entropic_chaos_gap(nu, mu, ctx.blocks, N) for N in (128, 256)]
        assert all(math.isfinite(g) for g in gaps)

    def test_large_N_enumerates_no_shell(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the shell was enumerated")

        monkeypatch.setattr(kac, "restricted_product_measure", refuse)
        monkeypatch.setattr(kac, "transition_table", refuse)
        ctx, h, nu = projected_tilt("mean-field-2", make_rng(20260822, 11))
        tab = kac.fisher_chaos_check(ctx, h, nu / core.gibbs(ctx.J, h), [64, 128])
        assert np.all(np.isfinite(tab.per_slot))
        assert tab.gap[1] < tab.gap[0]


class TestSimulation:
    def test_single_slot_identity_kernel_is_frozen(self):
        ctx = CollisionContext(np.zeros((1, 1)), collision.single_site_kernel(1))
        run = kac.simulate_particles(ctx, 1, (1,), 50.0, make_rng(64, 0))
        assert run.final_state.tolist() == [1]
        assert run.events > 0

    def test_counts_conserved_over_many_events(self):
        J = np.array([[0.1, 0.2], [0.2, 0.1]])
        ctx = CollisionContext(J, collision.blocks_kernel(2, ((0, 1),)))
        T = (7,)
        run = kac.simulate_particles(ctx, 6, T, 100000 / 6.0, make_rng(64, 1))
        counts = core.block_count_table(2, ctx.blocks)[run.final_state].sum(axis=0)
        assert tuple(counts) == T
        assert run.events >= 90000
        assert 0 < run.accepted <= run.events

    def test_occupation_matches_shell_law(self):
        J = np.array([[0.0, 0.15], [0.15, 0.0]])
        ctx = mean_field_ctx(J)
        m = kac.multicanonical_measure(J, None, 2, ((0, 1),), (2,))
        run = kac.simulate_particles(ctx, 2, (2,), 80000.0, make_rng(9, 2),
                                     record_occupation=True)
        assert kac.occupation_tv(m, run) <= 0.02

    @pytest.mark.parametrize("N, t_end", [(0, 1.0), (3, -1.0)])
    def test_no_slots_or_negative_horizon_rejected(self, N, t_end):
        ctx = mean_field_ctx(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="need N >= 1 and t_end >= 0"):
            kac.simulate_particles(ctx, N, (N,), t_end, make_rng(64, 5))

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_horizon_must_be_finite(self, t_end):
        # simulate_particles would run forever on these, so the check
        # is called alone
        said = f"need N >= 1 and t_end >= 0, got N = 3 and t_end = {t_end}"
        with pytest.raises(ValueError, match=said):
            kac.check_run(3, t_end)
        kac.check_run(3, 0.0)

    def test_impossible_counts_rejected(self):
        with pytest.raises(ValueError, match=r"in 0..N\|b\| = \[4\], got T = \(5,\)"):
            kac.initial_state_for_counts(2, ((0, 1),), 2, (5,))

    @pytest.mark.parametrize("T", [(2,), (2, 1, 5)])
    def test_one_count_per_block_of_the_kernel(self, T):
        # the two-site single-site kernel has two blocks, so a walk needs
        # two counts; extra or missing ones used to be dropped or read as 0
        ctx = CollisionContext(np.zeros((2, 2)), collision.single_site_kernel(2))
        with pytest.raises(ValueError, match=r"as 2 integer block counts"):
            kac.simulate_particles(ctx, 3, T, 1.0, make_rng(64, 7))

    def test_fractional_count_with_init_rejected(self):
        # init holds three plus spins, and T = (3.9,) used to be truncated to 3
        ctx = mean_field_ctx(np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"got T = \(3\.9,\)"):
            kac.simulate_particles(ctx, 3, (3.9,), 1.0, make_rng(64, 7), init=[3, 1, 0])

    def test_occupation_recording_is_gated(self):
        ctx = mean_field_ctx(np.zeros((2, 2)))
        with pytest.raises(CapacityError):
            kac.simulate_particles(ctx, 12, (12,), 1.0, make_rng(64, 2),
                                   record_occupation=True)

    @pytest.mark.parametrize("scale", [0.3, 1000.0])  # 1000: logits past 2000
    def test_walk_acceptance_matches_context(self, scale):
        A = make_rng(64, 4).standard_normal((3, 3))
        ctx = mean_field_ctx(scale * (A + A.T) / 2.0)
        fields, logw = ctx.fields.tolist(), ctx.logw.tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l, k, s, sp in itertools.product(range(3), range(3), range(8), range(8)):
                got = collision.walk_acceptance(fields, logw, l, k, s, sp, False)
                assert got == ctx.acceptance(l, k, s, sp)
                got = collision.walk_acceptance(fields, logw, l, k, s, s, True)
                assert got == diagonal_acceptance(ctx, l, k, s)

    def test_walk_acceptance_tail_is_expit(self):
        # logits around -709.78, where exp(-logit) overflows, and -745,
        # where exp(logit) itself underflows to 0: the walk's scalar rule
        # gives core.expit's bits, 0.0 past the overflow
        logits = [-700.0, -709.0, -709.5, -709.78, -709.79, -720.0, -745.0, -745.2, -800.0]
        logits += np.linspace(-709.9, -709.7, 41).tolist()
        for x in logits:
            want = core.expit(np.array([x]))[0]
            # a slot paired with another: logit 2 (f_l(si) - f_k(sj)), bit k of sj set
            got = collision.walk_acceptance([[x / 2.0], [0.0]], None, 0, 0, 0, 1, False)
            assert got.hex() == want.hex()
            # a slot paired with itself: logit logw[0b10] - logw[0b01]
            got = collision.walk_acceptance(None, [0.0, 0.0, x, 0.0], 0, 1, 0b01, 0b01, True)
            assert got.hex() == want.hex()
        assert collision.walk_acceptance([[-360.0], [0.0]], None, 0, 0, 0, 1, False) == 0.0

    def test_huge_logits_do_not_overflow(self):
        J = np.array([[0.0, 300.0, -250.0], [300.0, 0.0, 200.0], [-250.0, 200.0, 0.0]])
        ctx = mean_field_ctx(J)
        assert np.abs(2.0 * np.subtract.outer(ctx.fields, ctx.fields)).max() > 710.0
        assert np.abs(np.subtract.outer(ctx.logw, ctx.logw)).max() > 710.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = kac.simulate_particles(ctx, 4, (6,), 2000.0, make_rng(64, 5))
        assert run.events > 0
        assert core.block_count_table(3, ctx.blocks)[run.final_state].sum() == 6

    def test_same_seed_same_run(self):
        ctx = mean_field_ctx(np.array([[0.0, 0.2, 0.1], [0.2, 0.0, 0.3], [0.1, 0.3, 0.0]]))
        a, b = (kac.simulate_particles(ctx, 3, (4,), 3000.0, make_rng(64, 6),
                                       record_occupation=True) for _ in range(2))
        assert np.array_equal(a.final_state, b.final_state)
        assert (a.events, a.accepted) == (b.events, b.accepted)
        assert a.occupation == b.occupation

    def test_two_block_occupation_matches_shell_law(self):
        # K is the identity, so every event stays in one of two blocks;
        # slots pair with themselves a third of the time at N = 3
        J = np.array([[0.0, 0.3], [0.3, 0.0]])
        ctx = CollisionContext(J, collision.single_site_kernel(2))
        assert ctx.blocks == ((0,), (1,))
        T = (1, 2)
        m = kac.multicanonical_measure(J, None, 3, ctx.blocks, T)
        # TV shrinks like t^(-1/2); at t = 1e5 it stayed below 0.011
        # over 20 seeds
        run = kac.simulate_particles(ctx, 3, T, 100000.0, make_rng(64, 7),
                                     record_occupation=True)
        assert kac.occupation_tv(m, run) <= 0.02

    def test_init_must_sit_on_its_shell(self):
        ctx = mean_field_ctx(np.zeros((2, 2)))
        rng = make_rng(64, 8)
        for init, match in (([3, 0], "N = 3"), ([3, 0, 4], "outside"),
                            ([3, 3, 0], "block counts"), ([-1, 3, 0], "outside")):
            with pytest.raises(ValueError, match=match):
                kac.simulate_particles(ctx, 3, (3,), 1.0, rng, init=np.array(init))
        run = kac.simulate_particles(ctx, 3, (3,), 1.0, rng, init=[3, 1, 0])
        assert core.block_count_table(2, ctx.blocks)[run.final_state].sum() == 3


class TestFieldCondition:
    h = np.array([0.5, -0.3])  # not constant on the one mean-field block

    def test_multicanonical_measure(self):
        J = np.array([[0.0, 0.1], [0.1, 0.0]])
        with pytest.raises(ValueError, match=r"block \(1, 2\): 0\.5 vs -0\.3"):
            kac.multicanonical_measure(J, self.h, 2, ((0, 1),), (2,))
        # the same field is constant on each of two singleton blocks
        kac.multicanonical_measure(J, self.h, 2, ((0,), (1,)), (1, 1))

    def test_fisher_chaos_check(self):
        ctx = mean_field_ctx(np.array([[0.0, 0.1], [0.1, 0.0]]))
        with pytest.raises(ValueError, match=r"block \(1, 2\): 0\.5 vs -0\.3"):
            kac.fisher_chaos_check(ctx, self.h, np.ones(4), [2, 4])


class TestRateBounds:
    def test_mean_field_bound_values(self):
        bd = core.weak_coupling(np.zeros((2, 2)))
        assert bd.applicable
        assert bd.mean_field_alpha(None) == pytest.approx(0.25)
        assert bd.mean_field_alpha(np.array([0.1, 0.1])) == pytest.approx(0.25 * math.exp(-0.8))

    def test_mean_field_bound_inapplicable(self):
        hot = core.weak_coupling(np.full((2, 2), 0.4))
        assert not hot.applicable
        assert hot.mean_field_alpha(None) is None
