"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from spinkac import collision, core, dynamics, downup, verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section):
    out = _run("--workload", "flow-stream", "--seconds", "0.01", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_match_benchmark_json():
    from workloads import WORKLOADS

    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run("--workload", "suite-quick", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "metrics" not in out.stdout


def _live_objects():
    """Every attribute of every loaded spinkac module and of every class
    those modules define."""
    for modname, mod in list(sys.modules.items()):
        if modname != "spinkac" and not modname.startswith("spinkac."):
            continue
        for attr, obj in vars(mod).items():
            yield (modname, attr), obj
            if inspect.isclass(obj) and obj.__module__ == modname:
                for mattr, meth in vars(obj).items():
                    yield (modname, attr, mattr), meth


def _bindings():
    return {key: id(obj) for key, obj in _live_objects()}


def _wrapped():
    return [key for key, obj in _live_objects() if hasattr(obj, "__traced__")
            or (isinstance(obj, tuple) and any(hasattr(x, "__traced__") for x in obj))]


def test_tracer_patches_every_binding_and_restores_them():
    before = _bindings()
    evolve, jacobi, product = dynamics.evolve, core.jacobi_eigvals, collision.CollisionContext.product
    tracer = Tracer("spinkac", layers.LAYERS, layers.PRIVATE, layers.HOT)
    with tracer:
        # from-imports, the criteria tuple and class methods are all wrapped
        assert verify.evolve.__traced__ is evolve
        assert downup.jacobi_eigvals.__traced__ is jacobi
        assert all(hasattr(fn, "__traced__") for fn in verify.ALL_CRITERIA)
        assert collision.CollisionContext.product.__traced__ is product
        verify.ALL_CRITERIA[0](quick=True)
    assert _bindings() == before
    assert _wrapped() == []
    assert tracer.calls("verify.c01_stationarity") == 1
    assert tracer.calls("dynamics.stationarity_residual", caller="verify.c01_stationarity") == 8


def test_tracer_restores_bindings_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer("spinkac", layers.LAYERS, layers.PRIVATE, layers.HOT):
            core.check_probvec([0.5, 0.6])
    assert _bindings() == before
    assert _wrapped() == []


def test_self_time_excludes_traced_children():
    tracer = Tracer("spinkac", layers.LAYERS, layers.PRIVATE, layers.HOT)
    ctx = collision.CollisionContext([[0.0, 0.1], [0.1, 0.0]],
                                     collision.build_transport_kernel("mean-field", 2))
    mu = core.gibbs(ctx.J)
    with tracer:
        dynamics.stationarity_residual(ctx, mu)
    name = "dynamics.stationarity_residual"
    children = sum(e[1] for (callee, caller), e in tracer.edges.items() if caller == name)
    assert children > 0
    assert tracer.self_s(name) == pytest.approx(tracer.total_s(name) - children)


def test_sampler_rescales_and_restores_the_alarm():
    import signal
    import time

    from speed import NOMINAL_S, Sampler

    before = signal.getsignal(signal.SIGALRM)
    with Sampler(interval=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.times) >= 5
    speed = sum(NOMINAL_S / t for t in sampler.times) / len(sampler.times)
    assert sampler.speed() == pytest.approx(speed)
    # every sample fell inside [t0, t1]: its time is taken out, its speed applied
    assert sampler.scaled(t0, t1) == pytest.approx((t1 - t0 - sum(sampler.times)) * speed)
    # an interval holding no sample is rescaled by the run's mean speed
    assert sampler.scaled(t1, t1 + 1.0) == pytest.approx(speed)
