"""Acceptance suite: every shipped claim at its stated tolerance.

Each test prints its criterion's pass/fail line past pytest's capture so
the run log always shows the thirteen verdicts in order. Criterion
defaults (master seed, full problem sizes) are the acceptance
configuration; quick mode is only for the reproducibility double run,
which exercises the CLI end to end under the test's own interpreter and
package: once through the entry module, ``python -m spinkac.cli``, and
once through ``spinkac.cli.main`` in a fresh interpreter.
"""

from spinkac import verify


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


def test_criterion_13_reproducibility(capfd, quick_suite_runs):
    # the quick suite run twice under this interpreter and package, once
    # through the CLI entry module (python -m spinkac.cli) on two workers
    # and once through spinkac.cli.main in a fresh interpreter on one
    # worker: same stdout, same table, byte for byte, inside the time
    # budget (the golden registry's "quick" row compares both runs with
    # the committed golden files)
    first, second = quick_suite_runs
    identical = first["stdout"] == second["stdout"] and first["table"] == second["table"]
    tag = "PASS" if identical else "FAIL"
    with capfd.disabled():
        print(f"{tag} criterion 13 reproducibility: verify-all --quick run twice, "
              f"stdout and result table byte-identical = {identical} "
              f"({first['seconds']:.1f} s and {second['seconds']:.1f} s)")
    assert identical
    assert max(first["seconds"], second["seconds"]) < 600.0
