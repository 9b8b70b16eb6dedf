"""Command-line entry point.

Exit codes: 0 on success, 1 on a validation failure (bad file, bad
parameter, inadmissible instance), 2 when verify-all finds a failing
check, 64 on a usage error (unknown flag or subcommand).
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

import numpy as np

from . import downup, kac, verify, wildtree
from .core import check_block_field, gibbs, spins_of, weak_coupling
from .dynamics import dissipation_at, evolve, nonlinear_mlsi_scan
from .errors import ConvergenceError, FitError
from .modelio import load_matrix, load_vector, parse_model
from .report import ResultTable
from .rng import make_rng


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def count(text):
    """argparse type of a count such as --trials: an int >= 0. argparse
    names the option and, for a non-integer, this function."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"need a count >= 0, got {value}")
    return value


def _parse_density(arg, size):
    if arg == "uniform":
        return np.full(size, 1.0 / size)
    if arg.startswith("delta:"):
        mask = int(arg.split(":", 1)[1], 0)
        if not 0 <= mask < size:
            raise ValueError(f"delta mask {mask} outside 0..{size - 1}")
        p = np.zeros(size)
        p[mask] = 1.0
        return p
    if arg.startswith("file:"):
        p = load_vector(arg.split(":", 1)[1])
        if p.size != size:
            raise ValueError(f"initial density has {p.size} entries, model needs {size}")
        return p
    raise ValueError(f"unrecognized initial state {arg!r} (uniform | delta:MASK | file:PATH)")


def cmd_evolve(args):
    model = parse_model(args.model)
    ctx = model.context()
    p0 = _parse_density(args.p0, 1 << model.n)
    traj = evolve(ctx, p0, args.t_end, args.dt)
    cols = ["t", "H_rel", "dissipation", "tv_to_eq"]
    cols += [f"m_block_{i + 1}" for i in range(len(ctx.blocks))]
    cols += ["mass_err"]
    table = ResultTable("flow-trajectory", args.seed, cols)
    table.add_meta("model", args.model)
    table.add_meta("p0", args.p0)
    table.add_meta("t_end", format(args.t_end, ".17g"))
    table.add_meta("dt", format(args.dt, ".17g"))
    spins = ctx.spins
    columns = (traj.times, traj.states, traj.entropies(),
               dissipation_at(ctx, traj.states, traj.mu_eq), traj.tv_to_equilibrium())
    for t, p, h_rel, diss, tv in zip(*columns):
        means = p @ spins
        row = [t, h_rel, diss, tv]
        row += [float(np.mean(means[list(b)])) for b in ctx.blocks]
        row += [abs(float(np.sum(p)) - 1.0)]
        table.append(*row)
    table.write(args.out)
    print(f"wrote {len(traj.times)} states to {args.out}")
    return 0


def cmd_mlsi_nl(args):
    model = parse_model(args.model)
    ctx = model.context()
    rng = make_rng(args.seed)
    scan = nonlinear_mlsi_scan(ctx, model.h, args.trials, rng)
    bound = weak_coupling(ctx.J)
    bound_txt = f"{bound.alpha:.17g}" if bound.applicable else f"n/a ({bound.reason})"
    print(f"min ratio    = {scan.min_ratio:.17g}")
    print(f"median ratio = {scan.median_ratio:.17g}")
    print(f"alpha bound  = {bound_txt}")
    print(f"samples      = {scan.samples} ({scan.discarded} discarded)")
    if args.out:
        table = ResultTable("nonlinear-ratio-scan", args.seed,
                            ("min_ratio", "median_ratio", "samples", "discarded"))
        table.add_meta("model", args.model)
        table.add_meta("alpha_bound", bound_txt)
        table.append(scan.min_ratio, scan.median_ratio, scan.samples, scan.discarded)
        table.write(args.out)
    return 0


def cmd_tree(args):
    model = parse_model(args.model)
    ctx = model.context()
    rng = make_rng(args.seed)
    p0 = _parse_density(args.p0, 1 << model.n)
    sol = wildtree.mc_solution(ctx, p0, args.t, args.samples, rng)
    table = ResultTable("tree-estimate", args.seed,
                        ("state", "estimate", "stderr", "ci_lo", "ci_hi"))
    table.add_meta("model", args.model)
    table.add_meta("t", format(args.t, ".17g"))
    table.add_meta("samples", str(sol.samples))
    table.add_meta("mean_leaves", format(sol.mean_leaves, ".17g"))
    for s in range(p0.size):
        e, se = float(sol.mean[s]), float(sol.stderr[s])
        table.append(s, e, se, e - 3.0 * se, e + 3.0 * se)
    table.write(args.out)
    print(f"wrote {p0.size} state estimates to {args.out} (mean leaves {sol.mean_leaves:.2f})")
    return 0


def cmd_mpp(args):
    model = parse_model(args.model)
    if np.any(model.J != 0.0):
        raise ValueError("the partition representation requires a zero-coupling model")
    ctx = model.context()
    rng = make_rng(args.seed)
    p0 = np.exp(rng.standard_normal(1 << model.n))
    p0 /= p0.sum()
    print("representation check (max deviation in sigmas):")
    for depth in range(1, args.u + 1):
        est = wildtree.mpp_expectation(ctx.K, p0, depth, args.runs, rng)
        sig = est.sigmas(wildtree.discrete_iterate(ctx, p0, depth))
        print(f"  depth {depth}: {sig:.2f}")
    n = model.n
    times = wildtree.fragmentation_times(ctx.K, args.runs, rng)
    u, tail, stderr = wildtree.fragmentation_tail(times, n)
    print("fragmentation-time tail (u, empirical, envelope):")
    rows = []
    for uu, t_emp, se in zip(u, tail, stderr):
        env = n * math.exp(-uu / (2.0 * n))
        rows.append((int(uu), float(t_emp), float(se), env))
        if t_emp > 0 or uu <= 2 * n:
            print(f"  {uu:3d}  {t_emp:.5f}  {env:.5f}")
    if args.out:
        table = ResultTable("fragmentation-tail", args.seed,
                            ("u", "tail", "stderr", "envelope"))
        table.add_meta("model", args.model)
        table.add_meta("runs", str(args.runs))
        for row in rows:
            table.append(*row)
        table.write(args.out)
    return 0


def _parse_rho(arg, model, N, blocks):
    if arg == "auto":
        return kac.canonical_counts(gibbs(model.J, model.h), blocks, N)
    return kac.density_to_counts([Fraction(x) for x in arg.split(",")], N, blocks)


def cmd_kac(args):
    model = parse_model(args.model)
    ctx = model.context()
    n, N = model.n, args.N
    kac.check_run(N, args.t_end)
    blocks = ctx.blocks
    check_block_field(model.h, blocks)  # also past the gate, where no shell measure is built
    T = _parse_rho(args.rho, model, N, blocks)
    rng = make_rng(args.seed)
    exact = N * n <= kac.ENUMERATION_GATE
    measure = kac.multicanonical_measure(model.J, model.h, N, blocks, T) if exact else None
    cols = ["t", "event_count"] + [f"m_block_{i + 1}" for i in range(len(blocks))]
    if exact:
        cols.append("occupation_tv")
    table = ResultTable("particle-run", args.seed, cols)
    table.add_meta("model", args.model)
    table.add_meta("N", str(N))
    table.add_meta("shell", "|".join(str(t) for t in T))
    checkpoints = 50
    step = args.t_end / checkpoints
    state = kac.initial_state_for_counts(n, blocks, N, T)
    events = 0
    occupation = {}
    for i in range(1, checkpoints + 1):
        run = kac.simulate_particles(ctx, N, T, step, rng, init=state,
                                     record_occupation=exact)
        state = run.final_state
        events += run.events
        row = [i * step, events]
        spins = spins_of(state, n)
        for b in blocks:
            row.append(float(np.mean(spins[:, list(b)])))
        if exact:
            for code, w in run.occupation.items():
                occupation[code] = occupation.get(code, 0.0) + w
            merged = kac.ParticleRun(state, events, 0, occupation)
            row.append(kac.occupation_tv(measure, merged))
        table.append(*row)
    table.write(args.out)
    mode = "exact comparison on" if exact else "counts beyond the enumeration gate"
    print(f"wrote {checkpoints} checkpoints to {args.out} ({mode})")
    return 0


def cmd_chaos(args):
    model = parse_model(args.model)
    nu = gibbs(model.J, model.h)
    grid = [int(x) for x in args.n_grid.split(",")]
    rep = kac.chaos_scan(nu, model.blocks, args.k, grid)
    table = ResultTable("marginal-chaos", args.seed, ("N", "tv"))
    table.add_meta("model", args.model)
    table.add_meta("k", str(args.k))
    table.add_meta("slope", format(rep.slope, ".17g"))
    for N, tv in zip(rep.N_grid, rep.tv):
        table.append(int(N), float(tv))
    table.write(args.out)
    print(f"log-log tv slope over N in {grid}: {rep.slope:+.4f}")
    return 0


def cmd_kac_mlsi(args):
    model = parse_model(args.model)
    ctx = model.context()
    blocks = ctx.blocks
    rng = make_rng(args.seed)
    bound = weak_coupling(model.J)
    rows = []
    overall = math.inf
    for N in (int(x) for x in args.N.split(",")):
        if args.rho_grid == "all":
            shells = kac.admissible_counts(N, blocks)
        else:
            shells = [kac.density_to_counts([Fraction(x) for x in spec.split(",")], N, blocks)
                      for spec in args.rho_grid.split(";")]
        for T in shells:
            measure = kac.multicanonical_measure(model.J, model.h, N, blocks, T)
            scan = kac.particle_mlsi_scan(measure, ctx.K, args.trials, rng)
            rows.append((N, "|".join(str(t) for t in T), scan.min_ratio,
                         scan.median_ratio, scan.samples))
            overall = min(overall, scan.min_ratio)
    if args.out:
        table = ResultTable("particle-ratio-scan", args.seed,
                            ("N", "shell", "min_ratio", "median_ratio", "samples"))
        table.add_meta("model", args.model)
        if bound.applicable:
            table.add_meta("alpha_bound", format(bound.alpha, ".17g"))
        for row in rows:
            table.append(*row)
        table.write(args.out)
    bound_txt = f"{bound.alpha:.6g}" if bound.applicable else f"n/a ({bound.reason})"
    print(f"scanned {len(rows)} shells; min ratio = {overall:.6g}, rate bound = {bound_txt}")
    return 0


def _parse_downup_instance(args):
    lam = load_matrix(args.lambda_matrix) if args.lambda_matrix else None
    w = load_vector(args.w) if args.w else None
    if args.blocks_spec:
        sizes_m = []
        for part in args.blocks_spec.split(","):
            try:
                size, m = (int(x) for x in part.split(":"))
            except ValueError:
                raise ValueError(f"--blocks-spec part {part!r} is not SIZE:M") from None
            if size < 1:
                raise ValueError(f"--blocks-spec part {part!r} needs SIZE >= 1")
            sizes_m.append((size, m))
        sizes = [s for s, _ in sizes_m]
        L = sum(sizes)
        M = tuple(m for _, m in sizes_m)
        return downup.DuInstance(L, lam, w, downup.contiguous_blocks(sizes), M)
    if args.L is None or args.M is None:
        raise ValueError("need either --blocks-spec or both --L and --M")
    return downup.single_block_instance(args.L, args.M, lam, w)


def cmd_downup(args):
    inst = _parse_downup_instance(args)
    rng = make_rng(args.seed)
    coupling = weak_coupling(inst.lam_matrix)
    constant = coupling.single_block if len(inst.blocks) == 1 else coupling.multi_block
    if args.mode == "cov":
        rep = downup.cov_bound_check(inst, args.trials, rng)
        print(f"max covariance eigenvalue over {rep.samples} tilts = {rep.max_eigenvalue:.6g}")
        print(f"bound 2/(1-2 lam) = {rep.bound:.6g}")
        if args.out:
            table = ResultTable("tilted-covariance", args.seed, ("max_eigenvalue", "bound", "samples"))
            table.append(rep.max_eigenvalue, rep.bound, rep.samples)
            table.write(args.out)
        return 0
    meas = downup.du_measure(inst)
    if args.mode == "mlsi":
        scan = downup.du_mlsi_scan(meas, args.trials, rng)
        claim = "relocation-ratio-scan"
    else:
        scan = downup.factorization_check(meas, args.trials, rng)
        claim = "block-factorization-scan"
    const_txt = f"{constant:.6g}" if coupling.applicable else f"n/a ({coupling.reason})"
    print(f"min ratio    = {scan.min_ratio:.6g}")
    print(f"median ratio = {scan.median_ratio:.6g}")
    print(f"constant     = {const_txt}")
    if scan.gap is not None:
        print(f"spectral gap = {scan.gap:.6g}")
    if args.out:
        table = ResultTable(claim, args.seed,
                            ("min_ratio", "median_ratio", "samples", "discarded"))
        table.add_meta("constant", const_txt)
        table.append(scan.min_ratio, scan.median_ratio, scan.samples, scan.discarded)
        table.write(args.out)
    return 0


def cmd_verify_all(args):
    _, ok = verify.run_all(seed=args.seed, quick=args.quick, workers=args.workers, out=args.out)
    return 0 if ok else 2


def build_parser():
    parser = _Parser(prog="spinkac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("evolve", cmd_evolve, help="integrate the flow and tabulate its entropy budget")
    p.add_argument("--model", required=True)
    p.add_argument("--p0", default="uniform", help="uniform | delta:MASK | file:PATH")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--out", required=True)

    p = add("mlsi-nl", cmd_mlsi_nl, help="scan dissipation/entropy ratios of the flow")
    p.add_argument("--model", required=True)
    p.add_argument("--trials", type=count, default=1000)
    p.add_argument("--out")

    p = add("tree", cmd_tree, help="Monte Carlo flow solution by branching trees")
    p.add_argument("--model", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--p0", default="uniform")
    p.add_argument("--out", required=True)

    p = add("mpp", cmd_mpp, help="partition-process representation and tail checks")
    p.add_argument("--model", required=True)
    p.add_argument("--u", type=int, default=4)
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--out")

    p = add("kac", cmd_kac, help="simulate N exchanging configurations")
    p.add_argument("--model", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--rho", default="auto", help="auto | comma list of block densities")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--out", required=True)

    p = add("chaos", cmd_chaos, help="marginal chaos of the conditioned product")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--N-grid", dest="n_grid", default="8,16,32,64,128,256")
    p.add_argument("--out", required=True)

    p = add("kac-mlsi", cmd_kac_mlsi, help="ratio scan of the N-configuration walk")
    p.add_argument("--model", required=True)
    p.add_argument("--trials", type=count, default=200)
    p.add_argument("--N", default="2,3,4", help="comma list")
    p.add_argument("--rho-grid", default="all",
                   help="all | semicolon list of comma block-density lists")
    p.add_argument("--out")

    p = add("downup", cmd_downup, help="ball-relocation walk checks on a slice")
    p.add_argument("--L", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--blocks-spec", help="comma list of size:M pairs")
    p.add_argument("--lambda-matrix", help="file with a symmetric L x L matrix")
    p.add_argument("--w", help="file with L field values")
    p.add_argument("--mode", choices=("mlsi", "factorize", "cov"), default="mlsi")
    p.add_argument("--trials", type=count, default=200)
    p.add_argument("--out")

    p = add("verify-all", cmd_verify_all, help="run the acceptance suite")
    p.set_defaults(seed=verify.DEFAULT_SEED)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: cpu count, max 8)")
    p.add_argument("--out", help="write the per-criterion result table here")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, ConvergenceError, FitError) as exc:
        print(f"spinkac: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
