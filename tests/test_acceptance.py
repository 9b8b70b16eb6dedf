"""Acceptance suite: every shipped claim at its stated tolerance.

Each test prints its criterion's pass/fail line past pytest's capture so
the run log always shows the thirteen verdicts in order. Criterion
defaults (master seed, full problem sizes) are the acceptance
configuration; quick mode is only for the reproducibility double run,
which exercises the CLI end to end: the entry module, ``python -m
spinkac.cli``, under the test's own interpreter and package.
"""

import time
from pathlib import Path

from spinkac import verify

REPO = Path(__file__).resolve().parents[1]
QUICK_TABLE = REPO / "tests" / "data" / "verify-all-quick.csv"
QUICK_STDOUT = REPO / "tests" / "data" / "verify-all-quick.txt"


def report(capfd, res):
    with capfd.disabled():
        print(res.line())
    assert res.passed, res.detail


def test_criterion_01_stationarity(capfd):
    report(capfd, verify.c01_stationarity())


def test_criterion_02_conservation(capfd):
    report(capfd, verify.c02_conservation())


def test_criterion_03_entropy_budget(capfd):
    report(capfd, verify.c03_entropy_budget())


def test_criterion_04_convergence(capfd):
    report(capfd, verify.c04_convergence())


def test_criterion_05_decay_rate(capfd):
    report(capfd, verify.c05_decay_rate())


def test_criterion_06_nonlinear_scan(capfd):
    report(capfd, verify.c06_nonlinear_scan())


def test_criterion_07_tree_solution(capfd):
    report(capfd, verify.c07_tree_solution())


def test_criterion_08_partition_process(capfd):
    report(capfd, verify.c08_partition_process())


def test_criterion_09_particle_system(capfd):
    report(capfd, verify.c09_particle_system())


def test_criterion_10_chaos(capfd):
    report(capfd, verify.c10_chaos())


def test_criterion_11_fisher_chaos(capfd):
    report(capfd, verify.c11_fisher_chaos())


def test_criterion_12_ball_walks(capfd):
    report(capfd, verify.c12_ball_walks())


def test_criterion_13_reproducibility(tmp_path, capfd, spinkac_cli):
    # the CLI entry module (python -m spinkac.cli), run twice under this
    # interpreter and package: same verdict lines, same table, byte for
    # byte, inside the time budget, and both equal to the committed golden
    # files (criterion 13's own line names the worker count, so the golden
    # stdout leaves it out)
    stdouts, tables, times = [], [], []
    for i in range(2):
        out = tmp_path / f"run{i}.csv"
        t0 = time.perf_counter()
        res = spinkac_cli(
            ["verify-all", "--quick", "--out", str(out)],
            cwd=REPO, capture_output=True,
        )
        times.append(time.perf_counter() - t0)
        assert res.returncode == 0, res.stderr.decode()
        stdouts.append(res.stdout)
        tables.append(out.read_bytes())
    identical = stdouts[0] == stdouts[1] and tables[0] == tables[1]
    tag = "PASS" if identical else "FAIL"
    with capfd.disabled():
        print(f"{tag} criterion 13 reproducibility: verify-all --quick run twice, "
              f"stdout and result table byte-identical = {identical} "
              f"({times[0]:.1f} s and {times[1]:.1f} s)")
    assert identical
    assert max(times) < 600.0
    assert tables[0] == QUICK_TABLE.read_bytes()
    verdicts = b"".join(line for line in stdouts[0].splitlines(keepends=True)
                        if b"criterion 13 " not in line)
    assert verdicts == QUICK_STDOUT.read_bytes()


def test_repro_payload_is_worker_count_invariant():
    # Monte Carlo partial sums are added in stream order, so the probe's
    # bytes do not depend on how many processes computed them
    assert verify._repro_payload(verify.DEFAULT_SEED, 1) == verify._repro_payload(verify.DEFAULT_SEED, 2)
