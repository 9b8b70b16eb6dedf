"""Ball-relocation walks on magnetization slices."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit

from spinkac import downup as du
from spinkac import core, kac
from spinkac.core import (ReversibleChain, entropy_functional, sample_test_functions, site_mask,
                          spins_of, swap_moves)
from spinkac.errors import CapacityError, FitError
from spinkac.rng import make_rng


def random_psd_instance(L, M, seed):
    rng = make_rng(71, seed)
    A = 0.08 * rng.standard_normal((L, L))
    lam = (A + A.T) / 2.0
    lam = lam @ lam.T * 0.5
    w = 0.3 * rng.standard_normal(L)
    return du.DuInstance(L, lam, w, (tuple(range(L)),), (M,))


def _log_weight_of(inst, code):
    s = spins_of(code, inst.L)
    return 0.5 * float(s @ inst.lam_matrix @ s) + float(s @ inst.w)


def du_rate(meas, code, i, j):
    """Jump rate from one configuration to its (i, j) ball move, from
    scalar weights; zero unless site i holds a ball, site j a hole, and
    both share a block."""
    inst = meas.inst
    if not ((code >> i) & 1) or ((code >> j) & 1 and j != i):
        return 0.0
    bi = next(b for b in inst.blocks if i in b)
    if j not in bi:
        return 0.0
    avail = [k for k in bi if not ((code >> k) & 1)] + [i]
    logs = np.array([_log_weight_of(inst, code ^ ((1 << i) | (1 << k)) if k != i else code) for k in avail])
    target = _log_weight_of(inst, code ^ ((1 << i) | (1 << j)) if j != i else code)
    shift = logs.max()
    return float(np.exp(target - shift) / np.exp(logs - shift).sum())


def rate_generator(meas):
    """Dense generator of the walk from the scalar rates `du_rate`, one
    ordered (ball site, hole site) move at a time."""
    index = {c: s for s, c in enumerate(meas.codes.tolist())}
    G = np.zeros((len(index), len(index)))
    for c, s in index.items():
        for b in meas.inst.blocks:
            for i in b:
                for j in b:
                    if c >> i & 1 and not c >> j & 1:
                        G[s, index[c ^ (1 << i | 1 << j)]] = du_rate(meas, c, i, j)
    G[np.diag_indices(len(index))] = -G.sum(axis=1)
    return G


def rank_one(L, top, v=None):
    if v is None:
        v = np.full(L, 1.0 / math.sqrt(L))
    return top * np.outer(v, v)


class TestInstances:
    def test_balls_from_spin_sums(self):
        inst = du.DuInstance(5, np.zeros((5, 5)), np.zeros(5), ((0, 1, 2), (3, 4)), (1, 0))
        assert inst.balls == (2, 1)

    def test_no_sites_rejected(self):
        with pytest.raises(ValueError, match="need L >= 1"):
            du.single_block_instance(0, 0)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parity"):
            du.single_block_instance(3, 0)

    def test_oversized_spin_sum_rejected(self):
        with pytest.raises(ValueError, match="impossible"):
            du.single_block_instance(2, 6)

    @pytest.mark.parametrize("L, M", [(2, 0.5), (4, 2.9)])
    def test_fractional_spin_sum_rejected(self, L, M):
        # int(M) used to build the slice of the truncated spin sum
        with pytest.raises(ValueError, match=rf"block \(1, .*\): spin sum {M} is not an integer"):
            du.single_block_instance(L, M)

    def test_enumeration_gate(self):
        with pytest.raises(CapacityError):
            du.du_measure(du.single_block_instance(22, 0))

    def test_asymmetric_interaction_names_the_entry(self):
        # a relative asymmetry of 1e-8 is no rounding; it is not averaged away
        lam = np.full((4, 4), 0.1)
        lam[1, 2] *= 1.0 + 1e-8
        with pytest.raises(ValueError, match=r"not symmetric at \(2, 3\)"):
            du.single_block_instance(4, 0, lam)

    def test_contiguous_blocks(self):
        assert du.contiguous_blocks((3, 1, 2)) == ((0, 1, 2), (3,), (4, 5))


class TestMeasure:
    def test_free_slice_is_uniform(self):
        meas = du.du_measure(du.single_block_instance(5, 1))
        assert meas.codes.size == math.comb(5, 3)
        assert np.abs(meas.probs - 1.0 / 10.0).max() < 1e-14

    def test_codes_hold_the_spin_sum(self):
        inst = du.DuInstance(6, np.zeros((6, 6)), np.zeros(6), ((0, 1, 2), (3, 4, 5)), (1, -1))
        meas = du.du_measure(inst)
        assert np.array_equal(meas.spins[:, :3].sum(axis=1), np.ones(meas.codes.size))
        assert np.array_equal(meas.spins[:, 3:].sum(axis=1), -np.ones(meas.codes.size))

    def test_tilt_identity_and_composition(self):
        meas = du.du_measure(random_psd_instance(5, 1, 0))
        assert np.array_equal(du.tilt(meas, np.zeros(5)).probs, meas.probs)
        rng = make_rng(72, 3)
        v1 = rng.standard_normal(5)
        v2 = rng.standard_normal(5)
        once = du.tilt(meas, v1 + v2).probs
        twice = du.tilt(du.tilt(meas, v1), v2).probs
        assert np.abs(once - twice).max() < 1e-12

    def test_tilt_concentrates(self):
        meas = du.du_measure(du.single_block_instance(4, 0))
        v = np.array([30.0, 0.0, 0.0, 0.0])
        tilted = du.tilt(meas, v)
        on = (tilted.codes & 1).astype(bool)
        assert tilted.probs[on].sum() > 1.0 - 1e-9


class TestRates:
    def test_free_rate_counts_vacancies(self):
        # two balls on four free sites: a ball sees two holes plus its
        # own site, all equally weighted
        meas = du.du_measure(du.single_block_instance(4, 0))
        assert du_rate(meas, 0b0011, 0, 2) == pytest.approx(1.0 / 3.0)
        assert du_rate(meas, 0b0011, 0, 0) == pytest.approx(1.0 / 3.0)

    def test_rate_zero_without_ball_or_hole(self):
        meas = du.du_measure(du.single_block_instance(4, 0))
        assert du_rate(meas, 0b0011, 2, 3) == 0.0
        assert du_rate(meas, 0b0011, 0, 1) == 0.0

    def test_field_weights_by_hand(self):
        w = np.array([0.4, -0.1, 0.2])
        meas = du.du_measure(du.single_block_instance(3, -1, w=w))
        # one ball; moving it to site k multiplies the weight by e^{2 w_k}
        z = sum(math.exp(2.0 * x) for x in w)
        assert du_rate(meas, 0b001, 0, 1) == pytest.approx(math.exp(-0.2) / z, rel=1e-12)
        assert du_rate(meas, 0b001, 0, 2) == pytest.approx(math.exp(0.4) / z, rel=1e-12)

    def test_two_state_generator(self):
        meas = du.du_measure(du.single_block_instance(2, 0))
        G = rate_generator(meas)
        assert np.array_equal(G, np.array([[-0.5, 0.5], [0.5, -0.5]]))
        # uniform weights: the symmetrized generator is the generator
        assert np.array_equal(du.du_transitions(meas).symmetric().toarray(), G)

    def test_two_state_generator_with_field(self):
        meas = du.du_measure(du.single_block_instance(2, 0, w=np.array([0.3, -0.1])))
        G = rate_generator(meas)
        assert G[0, 1] == pytest.approx(expit(-0.8), abs=1e-15)
        assert G[1, 0] == pytest.approx(expit(0.8), abs=1e-15)
        assert np.abs(G.sum(axis=1)).max() < 1e-15
        sq = np.sqrt(meas.probs)
        S = du.du_transitions(meas).symmetric().toarray()
        assert np.abs(S - sq[:, None] * G / sq[None, :]).max() < 1e-15

    def test_matches_generator_pairing(self):
        # a two-block slice: the pairing with the generator sums over
        # every directed move, the table over one entry per edge
        rng = make_rng(71, 10)
        A = 0.2 * rng.standard_normal((5, 5))
        inst = du.DuInstance(5, A @ A.T, rng.standard_normal(5), ((0, 1, 2), (3, 4)), (1, 0))
        meas = du.du_measure(inst)
        G = rate_generator(meas)
        tab = du.du_transitions(meas)
        for _ in range(5):
            F = np.exp(rng.standard_normal(meas.codes.size))
            H = np.exp(rng.standard_normal(meas.codes.size))
            pairing = -float(meas.probs @ (F * (G @ H)))
            assert tab.dirichlet(F, H) == pytest.approx(pairing, abs=1e-12)

    def test_every_move_matches_scalar_rate(self):
        # a two-block slice with couplings and fields: each edge appears
        # once, src < dst, and both of its directions match the scalar
        # reference
        rng = make_rng(71, 11)
        A = 0.3 * rng.standard_normal((7, 7))
        inst = du.DuInstance(7, (A + A.T) / 2.0, rng.standard_normal(7),
                             ((0, 2, 4, 6), (1, 3, 5)), (0, -1))
        meas = du.du_measure(inst)
        tab = du.du_transitions(meas)
        codes = meas.codes.tolist()
        seen = set()
        for s, d, r in zip(tab.src.tolist(), tab.dst.tolist(), tab.rate.tolist()):
            assert s < d
            moved = codes[s] ^ codes[d]
            i = (codes[s] & moved).bit_length() - 1
            j = (codes[d] & moved).bit_length() - 1
            assert bin(moved).count("1") == 2
            assert r == pytest.approx(du_rate(meas, codes[s], i, j), rel=1e-12)
            back = meas.probs[s] * r / meas.probs[d]
            assert back == pytest.approx(du_rate(meas, codes[d], j, i), rel=1e-12)
            seen.update({(s, i, j), (d, j, i)})
        want = {(s, i, j) for s, c in enumerate(codes) for b in inst.blocks
                for i in b for j in b if c >> i & 1 and not c >> j & 1}
        assert len(seen) == 2 * tab.src.size
        assert seen == want

    def test_detailed_balance_general_interaction(self):
        # brute force over every directed move: mu(s) q(s, d) = mu(d) q(d, s)
        rng = make_rng(71, 9)
        A = 0.2 * rng.standard_normal((5, 5))
        inst = du.DuInstance(5, (A + A.T) / 2.0, rng.standard_normal(5),
                             ((0, 1, 2), (3, 4)), (1, 0))
        meas = du.du_measure(inst)
        index = {c: s for s, c in enumerate(meas.codes.tolist())}
        moves = 0
        for c, s in index.items():
            for b in inst.blocks:
                for i in b:
                    for j in b:
                        if c >> i & 1 and not c >> j & 1:
                            e = c ^ (1 << i | 1 << j)
                            there = meas.probs[s] * du_rate(meas, c, i, j)
                            back = meas.probs[index[e]] * du_rate(meas, e, j, i)
                            assert there == pytest.approx(back, rel=1e-12)
                            moves += 1
        assert moves == 2 * du.du_transitions(meas).src.size

    @pytest.mark.filterwarnings("error")
    def test_strong_fields_give_finite_rates(self):
        # log-weights reach +-800, past the range of exp; every rate is
        # taken relative to its ball-removal group's largest log-weight
        meas = du.du_measure(du.single_block_instance(8, 0, None, [0.0] * 4 + [200.0] * 4))
        tab = du.du_transitions(meas)
        assert tab.src.size == 560
        assert np.all(np.isfinite(tab.rate))
        assert np.all((tab.rate > 0.0) & (tab.rate <= 1.0))
        # Every move into a member of a group has the member's conditional
        # probability as its rate, which is also the chance to stay there;
        # so in each group, staying plus the moves sums to 1.
        codes, logw = meas.codes.tolist(), meas.logw
        into = {}
        for s, d, r in zip(tab.src.tolist(), tab.dst.tolist(), tab.rate.tolist()):
            back = r * math.exp(logw[s] - logw[d])  # q(d -> s), by detailed balance
            group = into.setdefault(codes[s] & codes[d], {})
            group.setdefault(d, []).append(r)
            group.setdefault(s, []).append(back)
        assert len(into) == math.comb(8, 3)
        for group in into.values():
            assert len(group) == 5
            for rates in group.values():
                assert max(rates) == pytest.approx(min(rates), rel=1e-9)
            assert sum(rates[0] for rates in group.values()) == pytest.approx(1.0, abs=1e-12)

    def test_walk_connects_the_slice(self):
        meas = du.du_measure(du.single_block_instance(4, 0))
        assert du.spectral_gap(meas) > 0.5

    def test_frozen_slice_has_no_moves(self):
        meas = du.du_measure(du.single_block_instance(2, 2))
        assert meas.codes.size == 1
        assert du.du_transitions(meas).src.size == 0
        assert du.spectral_gap(meas) == 0.0

    def test_gap_survives_underflowing_probabilities(self):
        # at field 200 the slice law puts mass below 1e-300 on most
        # states; the chain's probability ratios come from log-weights
        def gap(f):
            return du.spectral_gap(du.du_measure(du.single_block_instance(8, 0, None, [0] * 4 + [f] * 4)))

        assert gap(200) == pytest.approx(gap(80), abs=1e-9)

    @pytest.mark.parametrize("f", [150, 200])
    def test_slow_mode_survives_underflowing_probabilities(self, f):
        # g = v / sqrt(probs) is scaled in the log domain, so no entry is
        # inf or nan where probs underflows, and the scan's probes are usable
        meas = du.du_measure(du.single_block_instance(8, 0, None, [0] * 4 + [f] * 4))
        _, g = du.du_transitions(meas).slow_mode()
        assert np.all(np.isfinite(g))
        assert np.abs(g).max() == g.max() == 1.0
        try:
            min_ratio = du.du_mlsi_scan(meas, 20, make_rng(74, f)).min_ratio
        except FitError:  # no test function keeps Ent above the discard floor
            min_ratio = 0.0
        assert math.isfinite(min_ratio)


class TestSlowMode:
    @pytest.mark.parametrize("L", [10, 12])
    def test_lanczos_matches_dense(self, L):
        # 252 states (just above the crossover) and 924: the Lanczos gap
        # and signed mode agree with dense eigh, so the scan's probes do
        rng = make_rng(73, L)
        A = rng.standard_normal((L, L))
        lam = A @ A.T
        lam *= 0.15 / np.linalg.eigvalsh(lam)[-1]
        meas = du.du_measure(du.single_block_instance(L, 0, lam, 0.4 * rng.standard_normal(L)))
        tab = du.du_transitions(meas)
        assert meas.codes.size > core.LANCZOS_STATES
        gap, g = tab.slow_mode()
        evals, vecs, sq = tab.spectrum()
        want = vecs[:, -2] / sq
        want /= want[np.argmax(np.abs(want))]
        assert gap == pytest.approx(-evals[-2], rel=1e-10)
        assert np.abs(g - want).max() <= 1e-8 * np.abs(want).max()

    def test_gap_gated(self):
        meas = SimpleNamespace(inst=SimpleNamespace(L=du.SPECTRAL_GATE + 1))
        with pytest.raises(CapacityError):
            du.spectral_gap(meas)


class TestScan:
    def test_free_single_block(self):
        inst = du.single_block_instance(4, 0)
        rep = du.du_mlsi_scan(du.du_measure(inst), 60, make_rng(71, 3))
        coupling = core.weak_coupling(inst.lam_matrix)
        assert coupling.single_block == 1.0
        assert coupling.applicable
        assert rep.min_ratio >= 1.0 - 1e-9
        # the slow-mode probes pin the minimum near twice the gap
        assert rep.gap is not None
        assert rep.min_ratio <= 2.0 * rep.gap + 1e-4

    def test_rank_one_interaction_single_block(self):
        v = np.array([0.8, 0.4, 0.4, 0.2])
        v /= np.linalg.norm(v)
        inst = du.single_block_instance(4, 0, rank_one(4, 0.3, v))
        rep = du.du_mlsi_scan(du.du_measure(inst), 60, make_rng(72, 0))
        single = core.weak_coupling(inst.lam_matrix).single_block
        assert single == pytest.approx(0.4)
        assert rep.min_ratio >= single
        assert rep.min_ratio <= 2.0 * rep.gap + 1e-4

    def test_rank_one_interaction_two_blocks(self):
        inst = du.DuInstance(6, rank_one(6, 0.3), np.zeros(6), ((0, 1, 2), (3, 4, 5)), (1, 1))
        rep = du.du_mlsi_scan(du.du_measure(inst), 60, make_rng(71, 2))
        multi = core.weak_coupling(inst.lam_matrix).multi_block
        assert multi == pytest.approx(0.16)
        assert rep.min_ratio >= multi

    def test_hot_interaction_flagged(self):
        inst = du.single_block_instance(4, 0, rank_one(4, 0.6))
        rep = du.du_mlsi_scan(du.du_measure(inst), 30, make_rng(71, 4))
        assert not core.weak_coupling(inst.lam_matrix).applicable
        assert rep.samples + rep.discarded == 32


class TestFactorization:
    def test_single_block_is_exact(self):
        rep = du.factorization_check(du.du_measure(du.single_block_instance(4, 0)), 40, make_rng(71, 4))
        assert abs(rep.min_ratio - 1.0) < 1e-9
        assert abs(rep.median_ratio - 1.0) < 1e-9

    def test_free_blocks_dominate_entropy(self):
        inst = du.DuInstance(6, np.zeros((6, 6)), np.array([0.2, -0.1, 0.3, 0.0, 0.1, -0.2]),
                             ((0, 1, 2), (3, 4, 5)), (1, 1))
        rep = du.factorization_check(du.du_measure(inst), 40, make_rng(71, 5))
        assert rep.min_ratio >= 1.0 - 1e-9

    def test_interacting_blocks_keep_half(self):
        inst = du.DuInstance(6, rank_one(6, 0.25), np.zeros(6), ((0, 1, 2), (3, 4, 5)), (1, 1))
        rep = du.factorization_check(du.du_measure(inst), 40, make_rng(71, 6))
        single = core.weak_coupling(inst.lam_matrix).single_block
        assert single == pytest.approx(0.5)
        assert rep.min_ratio >= single


def loop_conditionals(probs, keys, rows):
    """Yield (mass, conditional law, rows) for each group of entries with
    equal key, one group at a time: the grouped path's oracle."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    rows = rows[order]
    bounds = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])
    for a, b in zip(bounds[:-1], bounds[1:]):
        p = probs[rows[a:b]]
        mass = p.sum()
        if mass > 0:
            yield mass, p / mass, rows[a:b]


def loop_block_factorization(meas, F):
    rows = np.arange(meas.codes.size)
    total = 0.0
    for b in meas.inst.blocks:
        for mass, q, idx in loop_conditionals(meas.probs, meas.codes & ~site_mask(b), rows):
            total += mass * entropy_functional(q, F[idx])
    return total


def loop_ball_groups(meas):
    rows, sites = np.nonzero(meas.spins > 0)
    return loop_conditionals(meas.probs, meas.codes[rows] & ~(1 << sites), rows)


def loop_covariance(q, F, G):
    return float(q @ (F * G)) - float(q @ F) * float(q @ G)


def loop_ball_factorization(meas, F):
    total = 0.0
    for mass, q, idx in loop_ball_groups(meas):
        total += mass * entropy_functional(q, F[idx])
    return total


def loop_ball_dirichlet(meas, F, G):
    total = 0.0
    for mass, q, idx in loop_ball_groups(meas):
        total += mass * loop_covariance(q, F[idx], G[idx])
    return total


def loop_jensen_residual(meas, F):
    logF = np.log(F)
    return max(entropy_functional(q, F[idx]) - loop_covariance(q, F[idx], logF[idx])
               for _, q, idx in loop_ball_groups(meas))


def blocks_instance(sizes, M, seed, field=0.4):
    rng = make_rng(75, seed)
    L = sum(sizes)
    A = rng.standard_normal((L, L))
    lam = A @ A.T
    lam *= 0.15 / np.linalg.eigvalsh(lam)[-1]
    return du.DuInstance(L, lam, field * rng.standard_normal(L), du.contiguous_blocks(sizes), M)


class TestGroupedConditionals:
    @pytest.mark.parametrize("sizes, M, trials", [
        ((5, 5, 4), (1, -1, 0), 36),  # the benchmark's three-block L = 14 slice
        ((3, 2, 2), (1, 0, 0), 300),  # criterion 12, quick
        ((5, 4, 3), (1, 0, 1), 60),   # criterion 12, full
    ])
    def test_block_value_equals_the_loop(self, sizes, M, trials):
        # one grouping per block and one stacked entropy_functional call
        # over its rows: the loop's value up to the order of the additions
        meas = du.du_measure(blocks_instance(sizes, M, len(sizes) + sum(M)))
        value = du.block_factorization(meas)
        rng = make_rng(75, 1)
        for F in sample_test_functions(meas.codes.size, trials, rng):
            assert value(F) == pytest.approx(loop_block_factorization(meas, F), rel=1e-14, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_massless_groups_and_zero_conditionals(self):
        # fields of 400 put weights 800 apart in the log domain, so many
        # states have probability 0: whole groups are massless and kept
        # groups have zero conditional entries
        w = np.array([400.0, 0.0, 0.0, 0.0, 0.0, 400.0, 0.0, 0.0])
        inst = du.DuInstance(8, np.zeros((8, 8)), w, ((0, 1, 2, 3), (4, 5, 6, 7)), (0, 0))
        meas = du.du_measure(inst)
        assert np.count_nonzero(meas.probs == 0.0) > 0
        groups = du._groups(meas.codes & ~site_mask(inst.blocks[0]), np.arange(meas.codes.size))
        mass, q, _ = du._conditionals(meas.probs, groups)
        assert mass.size < meas.codes.size // math.comb(4, 2)
        assert np.count_nonzero(q == 0.0) > 0
        value = du.block_factorization(meas)
        rng = make_rng(75, 2)
        for F in sample_test_functions(meas.codes.size, 30, rng):
            got = value(F)
            assert math.isfinite(got)
            assert got == pytest.approx(loop_block_factorization(meas, F), rel=1e-14, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_zero_entries_of_F(self):
        # 0 log 0 = 0: a point mass on a uniform single-block slice has
        # Ent = log(6) / 6, and zeros inside groups leave every value finite
        meas = du.du_measure(du.single_block_instance(4, 0))
        point = np.zeros(meas.codes.size)
        point[0] = 1.0
        assert du.block_factorization(meas)(point) == pytest.approx(math.log(6.0) / 6.0, rel=1e-15)
        meas = du.du_measure(blocks_instance((3, 3), (1, 1), 3))
        rng = make_rng(75, 3)
        for _ in range(10):
            F = rng.uniform(size=meas.codes.size)
            F[F < 0.4] = 0.0
            got = du.block_factorization(meas)(F)
            assert math.isfinite(got)
            assert got == pytest.approx(loop_block_factorization(meas, F), rel=1e-14, abs=1e-300)
        assert du.block_factorization(meas)(np.zeros(meas.codes.size)) == 0.0

    def test_negative_F_rejected(self):
        meas = du.du_measure(random_psd_instance(5, 1, 0))
        F = np.ones(meas.codes.size)
        F[3] = -1e-9
        with pytest.raises(ValueError, match="nonnegative"):
            du.block_factorization(meas)(F)
        with pytest.raises(ValueError, match="nonnegative"):
            du.ball_factorization_value(meas, F)

    def test_ball_functions_match_the_loop(self):
        meas = du.du_measure(random_psd_instance(7, 1, 2))
        rng = make_rng(75, 4)
        for F in sample_test_functions(meas.codes.size, 12, rng):
            G = np.log(F)
            assert du.ball_factorization_value(meas, F) == pytest.approx(
                loop_ball_factorization(meas, F), rel=1e-14, abs=0.0)
            assert du.ball_dirichlet_value(meas, F, G) == pytest.approx(
                loop_ball_dirichlet(meas, F, G), rel=1e-14, abs=0.0)
            assert du.jensen_residual(meas, F) == pytest.approx(
                loop_jensen_residual(meas, F), rel=1e-14, abs=1e-15)

    def test_unequal_groups_rejected(self):
        with pytest.raises(RuntimeError, match="unequal sizes"):
            du._groups(np.array([0, 0, 1]), np.arange(3))


def swap_transitions(meas):
    """The walk's chain built one site pair at a time: the edges of each
    pair i < j of a block from `swap_moves`, and each group's largest
    log-weight and shifted mass from np.unique, np.maximum.at and
    np.bincount over all (state, ball) entries. The grouped builder's
    oracle."""
    codes, logw = meas.codes, meas.logw
    rows, sites = np.nonzero(meas.spins > 0)
    groups, member = np.unique(codes[rows] & ~(1 << sites), return_inverse=True)
    top = np.full(groups.size, -np.inf)
    np.maximum.at(top, member, logw[rows])
    mass = np.bincount(member, np.exp(logw[rows] - top[member]), groups.size)
    srcs, dsts, rates = [], [], []
    for b in meas.inst.blocks:
        for i, j in itertools.combinations(b, 2):
            src, dst = swap_moves(codes, i, j)
            g = np.searchsorted(groups, codes[src] & codes[dst])
            srcs.append(src)
            dsts.append(dst)
            rates.append(np.exp(logw[dst] - top[g]) / mass[g])
    return ReversibleChain.from_moves(srcs, dsts, rates, meas.probs, meas.logw)


class TestGroupedTransitions:
    @pytest.mark.parametrize("inst", [
        *(pytest.param(blocks_instance((L,), (M,), L), id=f"one-block-L{L}")
          for L, M in ((8, 0), (12, 0), (14, 4), (16, 0))),
        pytest.param(blocks_instance((3, 2, 2), (1, 0, 0), 7), id="criterion-12-quick"),
        pytest.param(blocks_instance((5, 4, 3), (1, 0, 1), 12), id="criterion-12-full"),
        pytest.param(blocks_instance((5, 5, 4), (1, -1, 0), 14), id="three-blocks-L14"),
        pytest.param(du.DuInstance(7, np.zeros((7, 7)), 0.5 * np.arange(7.0),
                                   ((0, 3, 5), (1, 2, 4, 6)), (1, 0)), id="non-contiguous"),
        pytest.param(blocks_instance((3, 4), (-3, 4), 1), id="empty-and-full"),
        pytest.param(blocks_instance((2, 3, 3), (-2, 1, 3), 2), id="empty-moving-full"),
        pytest.param(blocks_instance((4, 4), (0, 0), 3, field=400.0), id="fields-of-400"),
    ])
    def test_equals_the_pairwise_builder(self, inst):
        # the same edges, each once with src < dst, in group order here
        # and in site-pair order there; the same rates up to the order of
        # each group's mass sum
        meas = du.du_measure(inst)
        got, want = du.du_transitions(meas), swap_transitions(meas)
        for name in ("src", "dst", "rate"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
        assert np.all(got.src < got.dst)
        g, w = np.lexsort((got.dst, got.src)), np.lexsort((want.dst, want.src))
        assert np.array_equal(got.src[g], want.src[w])
        assert np.array_equal(got.dst[g], want.dst[w])
        np.testing.assert_allclose(got.rate[g], want.rate[w], rtol=1e-14, atol=0.0)


class TestBallCoordinates:
    def test_dirichlet_identity(self):
        # removing one ball and averaging conditional covariances is the
        # walk's Dirichlet form, weight for weight
        meas = du.du_measure(random_psd_instance(5, 1, 0))
        tab = du.du_transitions(meas)
        rng = make_rng(72, 4)
        for F in sample_test_functions(meas.codes.size, 6, rng):
            lhs = du.ball_dirichlet_value(meas, F, np.log(F))
            rhs = tab.dirichlet(F, np.log(F))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_entropy_chain(self):
        meas = du.du_measure(random_psd_instance(5, 1, 0))
        rng = make_rng(72, 5)
        for F in sample_test_functions(meas.codes.size, 6, rng):
            ent = entropy_functional(meas.probs, F)
            bf = du.ball_factorization_value(meas, F)
            bd = du.ball_dirichlet_value(meas, F, np.log(F))
            assert ent <= bf + 1e-12
            assert bf <= bd + 1e-12

    def test_jensen_residual_nonpositive(self):
        meas = du.du_measure(random_psd_instance(5, 1, 0))
        rng = make_rng(72, 6)
        for F in sample_test_functions(meas.codes.size, 5, rng):
            assert du.jensen_residual(meas, F) <= 1e-12

    def test_multi_block_rejected(self):
        inst = du.DuInstance(4, np.zeros((4, 4)), np.zeros(4), ((0, 1), (2, 3)), (0, 0))
        meas = du.du_measure(inst)
        with pytest.raises(ValueError, match="single-block"):
            du.ball_dirichlet_value(meas, np.ones(meas.codes.size), np.zeros(meas.codes.size))


class TestCovariance:
    def test_two_site_slice_exactly(self):
        meas = du.du_measure(du.single_block_instance(2, 0))
        assert np.array_equal(core.covariance(meas.probs, meas.spins),
                              np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_two_site_slice_tilted(self):
        # one ball on two sites: covariance is 4p(1-p) times the fixed
        # rank-one anticorrelation pattern
        meas = du.du_measure(du.single_block_instance(2, 0))
        tilted = du.tilt(meas, np.array([0.7, 0.0]))
        p = expit(1.4)
        q = 4.0 * p * (1.0 - p)
        cov = core.covariance(tilted.probs, tilted.spins)
        assert np.abs(cov - q * np.array([[1.0, -1.0], [-1.0, 1.0]])).max() < 1e-12
        assert np.linalg.eigvalsh(cov)[-1] == pytest.approx(2.0 * q)

    def test_free_bound(self):
        rep = du.cov_bound_check(du.single_block_instance(4, 0), 25, make_rng(71, 7))
        assert rep.bound == 2.0
        assert rep.max_eigenvalue <= rep.bound

    def test_diagonal_shift_leaves_the_covariance(self):
        # s_i^2 = 1, so J + eps I adds one constant to every log-weight
        free = du.cov_bound_check(du.single_block_instance(4, 0), 25, make_rng(71, 7))
        shifted = du.cov_bound_check(du.single_block_instance(4, 0, 1e-9 * np.eye(4)), 25,
                                     make_rng(71, 7))
        assert abs(free.max_eigenvalue - shifted.max_eigenvalue) <= 1e-15

    def test_warm_bound(self):
        rep = du.cov_bound_check(du.single_block_instance(4, 0, rank_one(4, 0.4)), 25, make_rng(71, 8))
        assert rep.bound == pytest.approx(10.0, rel=1e-6)
        assert rep.max_eigenvalue <= rep.bound

    def test_hot_interaction_rejected(self):
        with pytest.raises(ValueError, match="1/2"):
            du.cov_bound_check(du.single_block_instance(4, 0, rank_one(4, 0.6)), 5, make_rng(71, 9))

    def test_negative_tilt_count_rejected(self):
        with pytest.raises(ValueError, match="tilt_samples = -1"):
            du.cov_bound_check(du.single_block_instance(4, 0), -1, make_rng(71, 9))

    def test_negative_correlation_free_slice(self):
        meas = du.du_measure(du.single_block_instance(4, 0))
        assert du.negcorr_max_offdiag(meas) == pytest.approx(-1.0 / 3.0)
        rng = make_rng(72, 1)
        for _ in range(4):
            tilted = du.tilt(meas, 0.6 * rng.standard_normal(4))
            assert du.negcorr_max_offdiag(tilted) < 0.0

    def test_negative_correlation_needs_zero_interaction(self):
        meas = du.du_measure(du.single_block_instance(4, 0, rank_one(4, 0.1)))
        with pytest.raises(ValueError, match="zero interaction"):
            du.negcorr_max_offdiag(meas)


def one_site_bridge():
    """(slot-system measure, slice measure, bridge report) at n = 1,
    N = 4, two plus spins: six states, twelve edges."""
    J = np.array([[0.2]])
    h = np.array([0.1])
    inst = du.particle_shaped_instance(J, h, 4, 2)
    assert inst.L == 4 and inst.M == (0,)
    pm = kac.multicanonical_measure(J, h, 4, ((0,),), (2,))
    meas = du.du_measure(inst)
    return pm, meas, du.bridge_check(pm, meas)


class TestBridge:
    def test_slot_system_dominates_ball_walk(self):
        _, _, rep = one_site_bridge()
        assert rep.edges == 12
        assert rep.min_ratio == pytest.approx(0.75, rel=1e-12)
        assert rep.constant == pytest.approx(0.25 * math.exp(-2.4), rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_dominates_on_admissible_instances(self, n):
        inst = random_psd_instance(n, n % 2, n)  # its couplings and fields
        J, h = inst.lam_matrix, inst.w
        # h varies across sites, so the product measure is built directly
        # (multicanonical_measure takes block-constant fields only)
        pm = kac.restricted_product_measure(core.log_gibbs_weights(J, h), 4, (tuple(range(n)),), (2 * n,))
        rep = du.bridge_check(pm, du.du_measure(du.particle_shaped_instance(J, h, 4, 2 * n)))
        assert rep.edges > 0
        assert rep.min_ratio >= rep.constant

    def test_sampled_forms_keep_the_comparison(self):
        pm, meas, rep = one_site_bridge()
        ball = du.du_transitions(meas)
        walk = kac.transition_table(pm, None)
        rng = make_rng(73, 0)
        for F in sample_test_functions(meas.codes.size, 40, rng):
            logF = np.log(F)
            gap = walk.dirichlet(F, logF) - rep.constant * ball.dirichlet(F, logF)
            assert gap >= -1e-12

    def test_constants_compose_to_the_rate_bound(self):
        # ball-walk constant (1 - 2 lam) times the comparison constant
        _, meas, rep = one_site_bridge()
        coupling = core.weak_coupling(meas.inst.lam_matrix)
        assert coupling.mean_field_alpha(meas.inst.w) == coupling.single_block * rep.constant
        # the slice's block-diagonal coupling carries the one-slot lam and Jbar
        one_slot = core.weak_coupling(np.array([[0.2]]))
        assert (one_slot.lam, one_slot.jbar) == pytest.approx((coupling.lam, coupling.jbar), rel=1e-14)
        assert one_slot.mean_field_alpha(np.array([0.1])) == pytest.approx(
            coupling.single_block * rep.constant, rel=1e-14)

    def test_mismatched_slices_rejected(self):
        pm = kac.multicanonical_measure(np.array([[0.2]]), None, 4, ((0,),), (2,))
        other = du.du_measure(du.single_block_instance(4, 2))
        with pytest.raises(ValueError, match="state spaces differ"):
            du.bridge_check(pm, other)

    def test_mismatched_laws_rejected(self):
        # same codes, but the slot system couples the two sites of a slot
        J = np.array([[0.0, 0.2], [0.2, 0.0]])
        pm = kac.multicanonical_measure(J, None, 2, ((0, 1),), (2,))
        other = du.du_measure(du.single_block_instance(4, 0))
        with pytest.raises(ValueError, match="different laws"):
            du.bridge_check(pm, other)
