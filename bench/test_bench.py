"""Self-tests of the benchmark: python3 -m pytest bench -q (from the repo root)."""

import json
import os
import sys

import pytest

import metrics
import run
import workloads

sys.path.insert(0, run.SRC)


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, (50.0, 10)), (39, (50.0, 20)), (40, (75.0, 30)),
    (99, (75.0, 75)), (100, (90.0, 90)), (199, (90.0, 180)), (200, (95.0, 190)),
    (1000, (99.0, 990)), (10000, (99.9, 9990)),
])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # order must not matter
    assert metrics.tail_percentile(samples) == expected
    if expected is not None:
        p, value = expected
        assert sum(s > value for s in samples) >= metrics.MIN_BEYOND


def test_describe_states_count_and_missing_tail():
    assert metrics.describe([3.0, 1.0, 2.0], "s") == (
        "median 2 s, n=3; no percentile has >= 10 samples beyond it")
    assert metrics.describe(list(range(1, 21)), "s").endswith("n=20; p50 10 s")


def span(name, parent, start, end, extra=None):
    return [name, parent, start, end, extra]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", -1, 0, 100),
        span("b", 0, 10, 40),
        span("d", 1, 15, 25),
        span("c", 0, 50, 70),
    ]
    assert metrics.self_times(spans) == [50, 20, 10, 20]


@pytest.mark.parametrize("sweep_s, cpu_s, threads, busy, dispatch", [
    (10.0, 10.0, 2, 0.5, 5.0),    # one of two workers idle
    (10.0, 19.0, 2, 0.95, 0.5),
    (4.0, 3.8, 1, 0.95, 0.2),     # in-process sweep
])
def test_pool_split_arithmetic(sweep_s, cpu_s, threads, busy, dispatch):
    got_busy, got_dispatch = metrics.pool_split(sweep_s, cpu_s, threads)
    assert got_busy == pytest.approx(busy)
    assert got_dispatch == pytest.approx(dispatch)


def test_lmg_level_count():
    assert metrics.lmg_levels(800) == 401 ** 2
    assert metrics.lmg_levels(3) == 4 + 2  # S = 3/2 and S = 1/2


MS = 1_000_000


def test_layer_metrics_from_synthetic_spans():
    main = {"pid": 1, "role": "main", "spans": [
        span("cli.cmd_scan", -1, 0, 100 * MS),
        span("cli.resolve_scan_config", 0, 0, 1 * MS),
        span("scan.sweep", 0, 1 * MS, 51 * MS, {"threads": 2, "worker_cpu_s": 0.08}),
        span("cli.write_field_csv", 0, 51 * MS, 53 * MS),
        span("scan.locate_jumps", 0, 53 * MS, 54 * MS),
        span("scan.classify_transition", 0, 54 * MS, 90 * MS),
        span("core.specific_heat", 5, 55 * MS, 65 * MS),
        span("models.tim1d.log_z", 6, 56 * MS, 60 * MS),
        span("quadrature.adaptive_simpson", 7, 56 * MS, 59 * MS, 500),
        span("cli.json.dump", 0, 95 * MS, 96 * MS),
    ]}
    worker = {"pid": 2, "role": "worker", "spans": [
        span("core.fidelity_beta", -1, 0, 10 * MS),
        span("models.tim1d.log_z", 0, 1 * MS, 3 * MS),
        span("quadrature.adaptive_simpson", 1, 1 * MS, 2 * MS, 300),
        span("models.tim1d.log_z", 0, 4 * MS, 6 * MS),
        span("quadrature.adaptive_simpson", 3, 4 * MS, 5 * MS, 400),
        span("core.specific_heat", -1, 10 * MS, 14 * MS),
    ]}
    values, samples = metrics.layer_metrics([main, worker])
    assert values["core.values"] == 2                    # classify's Cv is not a sweep value
    assert values["core.lnz_calls_per_value"] == 1.0
    assert values["core.overhead_us_per_value"] == pytest.approx((6 + 4) * 1e3 / 2)
    assert values["scan.classify_log_z_calls"] == 1
    assert values["models.log_z_calls"] == 3
    assert values["models.tim1d.log_z_us"] == pytest.approx(2000.0)
    assert values["models.ising2d.log_z_us"] is None
    assert values["quadrature.calls"] == 3
    assert values["quadrature.nodes_per_call"] == pytest.approx(400.0)
    assert values["scan.sweep_s"] == pytest.approx(0.05)
    assert values["scan.worker_busy_frac"] == pytest.approx(0.08 / (2 * 0.05))
    assert values["scan.pool_dispatch_s"] == pytest.approx(0.05 - 0.04)
    assert values["scan.detect_s"] == pytest.approx(0.001)
    assert values["scan.classify_s"] == pytest.approx(0.036)
    assert values["cli.resolve_s"] == pytest.approx(0.001)
    assert values["cli.write_s"] == pytest.approx(0.003)
    assert values["lmg.level_builds"] == 0 and values["lmg.level_build_s"] is None
    assert values["trace.worker_dumps"] == 1


def test_lmg_build_is_first_call_per_key_and_process():
    def calls(pid, durations_keys):
        spans, t = [], 0
        for us, key in durations_keys:
            spans.append(span("models.lmg.log_z", -1, t, t + us * 1000, key))
            t += us * 1000
        return {"pid": pid, "role": "worker", "spans": spans}

    a, b = [800, 0.2, 0.2], [800, 0.2, 0.4]
    dumps = [calls(1, [(1000, a), (10, a), (12, a), (900, b)]),
             calls(2, [(1100, a), (10, a)])]
    values, _ = metrics.layer_metrics(dumps)
    assert values["lmg.level_builds"] == 3
    assert values["lmg.log_z_warm_us"] == 10
    assert values["lmg.level_build_s"] == pytest.approx((990 + 890 + 1090) * 1e-6)
    assert values["lmg.levels_bytes"] == 3 * 401 ** 2 * 16


def test_seed_zero_is_the_acceptance_grid_and_seeds_shift_within_a_step():
    assert workloads.build("ising_ridge", 0)[0][1]["grid"]["t"] == {
        "start": 1.5, "stop": 3.5, "step": 0.005}
    assert workloads.build("dicke_typeb", 0)[0][1]["grid"]["t"] == {
        "start": 0.85, "stop": 1.30, "num": 91}
    for name in workloads.WHY:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        for (_, base), (_, shifted) in zip(workloads.build(name, 0), workloads.build(name, 7)):
            step = base["grid"]["t"].get("step", 0.005)
            delta = shifted["grid"]["t"]["start"] - base["grid"]["t"]["start"]
            assert 0.0 < delta < step
            assert shifted["grid"]["lambda"] == base["grid"]["lambda"]


def test_benchmark_json_matches_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == (
        set(workloads.WHY) - set(workloads.NOT_IN_BENCHMARK))
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_tiny_grid_smoke_run(workload):
    lines = []
    result = run.measure(workload, seed=1, seconds=0, trace=True, tiny=True, log=lines.append)
    text = "\n".join(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["attempted"] == 1 + 2 * len(workloads.build(workload, 1, tiny=True))
    assert "scan exits 0" not in text
    assert "[PASS] validate: cmd_validate() all_passed" in text
    ops = [op for op, _ in workloads.build(workload, 1, tiny=True)]
    for op in ops:
        assert f"[PASS] {op}: traced CSVs byte-identical to untraced" in text
    for name in ("scan_s", "setup_s", "peak_rss_mb", "cell_fail_frac", "op_fail_frac",
                 "tc_abs_err"):
        assert f"  {name} " in text
    assert result["metrics"]["core.values"]["value"] > 0
    assert result["metrics"]["models.log_z_calls"]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    result = run.measure("ising_ridge", seed=0, seconds=0, trace=False, tiny=True,
                         log=lambda line: None)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
