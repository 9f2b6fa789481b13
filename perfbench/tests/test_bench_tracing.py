"""Span bookkeeping and wrapper installation of perfbench/tracing.py."""

import importlib

import pytest

import tracing
from greedy_eig import greedy, problems
from greedy_eig.greedy import GreedyConfig, Variant


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        wrapped_leaf(2.0)
        wrapped_leaf(3.0)
        clock.now += 0.5

    wrapped_leaf = tr.wrap("a.leaf", leaf)
    wrapped_middle = tr.wrap("b.middle", middle)
    with tr.span("root"):
        clock.now += 0.25
        wrapped_middle()

    spans = {s.name: s for s in tr.spans}
    leaves = [s for s in tr.spans if s.name == "a.leaf"]
    assert [s.duration for s in leaves] == [2.0, 3.0]
    assert all(s.self_time == s.duration for s in leaves)
    assert spans["b.middle"].duration == 6.5
    assert spans["b.middle"].self_time == 1.5
    assert spans["root"].duration == 6.75
    assert spans["root"].self_time == 0.25
    assert all(s.parent is spans["b.middle"] for s in leaves)


def test_failed_span_is_marked_and_closed():
    tr = tracing.Tracer(FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("a.boom", boom)()
    assert [s.failed for s in tr.spans] == [True]
    assert tr._stack == []


def _current_hooked():
    out = {}
    for hook in tracing.HOOKS:
        module = importlib.import_module(f"greedy_eig.{hook.module}")
        out[(hook.module, hook.attr)] = getattr(module, hook.attr)
    return out


def _small_solve():
    op, m = problems.gen_random_kronecker(2, (6, 5), 2, seed=1)
    cfg = GreedyConfig(variant=Variant.RAYLEIGH, orthogonal=True, max_iter=3,
                       rng_seed=0)
    return greedy.run(op, m, cfg)


def test_wrappers_restored_after_traced_run():
    before = _current_hooked()
    tr = tracing.Tracer()
    with tracing.installed(tr) as missing:
        assert missing == []
        assert greedy.run is not before[("greedy", "run")]
        _small_solve()
    assert _current_hooked() == before
    assert all(after is before[key] for key, after in _current_hooked().items())
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("job crashed")
    assert all(after is before[key] for key, after in _current_hooked().items())


def test_layer_self_times_account_for_the_wall():
    tr = tracing.Tracer()
    with tracing.installed(tr):
        t0 = tr.clock()
        for job in range(2):
            tr.job = job
            with tr.span(tracing.JOB_SPAN):
                result = _small_solve()
        wall = tr.clock() - t0
    names = {s.name for s in tr.spans}
    for layer in ("greedy.run", "adm.adm_rayleigh_step", "tensor_core.reduce",
                  "tensor_core.eig_residual", "secular.reduce",
                  "dense_kernels.cholesky_spd", "adm.seed_rank_one"):
        assert layer in names
    metrics = tracing.layer_metrics(tr.spans, 2, wall, wall, [])
    layer_sum = sum(metrics[f"{layer}.self_ms"][0] for layer in tracing.LAYERS)
    total = layer_sum + metrics["other.self_ms"][0]
    assert total == pytest.approx(metrics["trace.wall_ms"][0], rel=1e-9)
    assert metrics["other.self_ms"][0] >= 0.0
    assert metrics["greedy.iterations"][0] == result.iterations
    assert metrics["adm.calls"][0] == result.iterations + 1
    assert metrics["adm.reseeds"][0] == 0.0
