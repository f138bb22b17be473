"""Tests of the benchmark's own logic (run: python -m pytest perfbench/tests)."""

import json
import os

import pytest

import checks
import spans
import workloads
from summary import tail_percentile

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXTRA_LAYER_METRICS = ("cli.csv_identical_ratio", "trace.overhead_ratio")


def _reference(workload):
    with open(os.path.join(BENCH, "reference", f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)["commands"]


# --- tail percentiles -------------------------------------------------------


def test_p90_needs_ten_samples_beyond():
    xs = list(range(1, 101))
    assert tail_percentile(xs, 0.9) == 90
    assert tail_percentile(xs, 0.5) == 50
    with pytest.raises(ValueError):
        tail_percentile(xs[:99], 0.9)
    with pytest.raises(ValueError):
        tail_percentile([], 0.5)


def test_percentile_ignores_input_order():
    xs = [0.3, 0.1, 0.2] * 40
    assert tail_percentile(xs, 0.9) == 0.3
    assert tail_percentile(xs, 0.3) == 0.1


# --- self time with nested spans ----------------------------------------------


def test_self_time_subtracts_child_coverage():
    # [name, parent, cmd, start, end, raised, counts, counting seconds]
    tree = [
        [0, -1, 0, 0.0, 10.0, 0, None, 0.0],  # root
        [1, 0, 0, 1.0, 4.0, 0, None, 0.0],  # child
        [2, 1, 0, 2.0, 3.0, 0, None, 0.0],  # grandchild
        [1, 0, 0, 5.0, 6.0, 0, None, 0.0],  # second child
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]
    assert sum(spans.self_times(tree)) == 10.0


def test_self_time_merges_overlapping_children():
    tree = [[0, -1, 0, 0.0, 10.0, 0, None, 0.0], [1, 0, 0, 1.0, 5.0, 0, None, 0.0],
            [1, 0, 0, 3.0, 7.0, 0, None, 0.0]]
    assert spans.self_times(tree)[0] == 4.0


def test_counting_time_is_charged_to_no_layer():
    dump = {"names": ["cli.main", "secrecy.leakage_estimate"], "installed": [],
            "spans": [[0, -1, 0, 0.0, 10.0, 0, None, 0.0],
                      [1, 0, 0, 2.0, 5.0, 0, {"dense": 4}, 1.5]]}
    assert spans.self_times(dump["spans"]) == [5.5, 3.0]
    metrics = spans.layer_metrics(dump)
    assert metrics["cli.self_s"] == 5.5 and metrics["secrecy.self_s"] == 3.0
    assert metrics["trace.command_s"] == 8.5


def test_tracer_records_parent_command_and_raised():
    tracer = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap("codec.inner", inner)
    outer = tracer.wrap("cli.main", lambda x: traced_inner(x) + traced_inner(x))
    tracer.cmd = 3
    assert outer(2) == 4
    with pytest.raises(ValueError):
        outer(-1)
    dump = tracer.dump()
    dump["installed"] = ["codec.inner"]
    names = [dump["names"][s[0]] for s in dump["spans"]]
    assert names == ["cli.main", "codec.inner", "codec.inner", "cli.main", "codec.inner"]
    assert [s[1] for s in dump["spans"]] == [-1, 0, 0, -1, 3]
    assert {s[2] for s in dump["spans"]} == {3}
    assert [s[5] for s in dump["spans"]] == [0, 0, 0, 1, 1]
    metrics = spans.layer_metrics(dump)
    assert metrics["codec.raised"] == 1 and metrics["cli.raised"] == 1
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(metrics["trace.command_s"], rel=1e-9)


def test_missing_site_reports_metric_absent():
    tracer = spans.Tracer()
    tracer.install((spans.Site("secmac.codec:no_such_function", "codec.lookup"),
                    spans.Site("no_such_module:f", "codec.encode")))
    assert tracer.missing == ["secmac.codec:no_such_function", "no_such_module:f"]
    dump = tracer.dump()
    metrics = spans.layer_metrics(dump)
    assert "codec.lookups" not in metrics and "codec.encode_s" not in metrics
    assert metrics["codec.self_s"] == 0.0


def test_traced_commands_account_for_command_time(tmp_path, monkeypatch):
    from secmac import cli

    monkeypatch.chdir(tmp_path)
    block = workloads.member("block", 10, 0)
    dmin = workloads.member("analysis", 0, 0)
    for cmd in (block, dmin):
        for name, text in cmd.files:
            (tmp_path / name).write_text(text)
    tracer = spans.Tracer()
    tracer.install()
    try:
        main = tracer.wrap(spans.ROOT, cli.main)
        for i, cmd in enumerate((block, dmin)):
            tracer.cmd = i
            assert main(list(cmd.argv)) == 0
    finally:
        tracer.uninstall()
    assert not tracer.missing
    metrics = spans.layer_metrics(tracer.dump())
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(metrics["trace.command_s"], rel=1e-9)
    # K=2 block trial: messages, encode seed, 2 encodes, noise seed, 2 noises
    assert metrics["rng.streams_per_trial"] == pytest.approx(7.0, abs=0.1)
    assert metrics["simulate.trials"] == 100
    assert metrics["constellation.exact_builds"] == 1
    assert metrics["codec.lookups"] == 200
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")


# --- Wilson agreement ---------------------------------------------------------


def test_wilson_interval_contains_estimate_and_handles_zero():
    lo, hi = checks.wilson(0, 1000)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = checks.wilson(500, 1000)
    assert lo < 0.5 < hi


def test_wilson_agreement():
    assert checks.wilson_agree(50, 1000, 50, 1000)
    assert checks.wilson_agree(50, 1000, 70, 1000)  # sampling noise
    assert not checks.wilson_agree(0, 20_000, 500, 20_000)  # a broken decoder
    assert not checks.wilson_agree(100, 100_000, 10_000, 100_000)


def _sweep_ref():
    return next(r for r in _reference("campaign").values()
                if r["kind"] == "sweep" and float(_last_row(r["csv"])["pe_mc"]) > 0.001)


def _edit_last_row(csv_text, **cells):
    lines = csv_text.splitlines()
    row = _last_row(csv_text)
    row.update(cells)
    lines[-1] = ",".join(row.values())
    return "\n".join(lines) + "\n", row


def test_compare_accepts_reference_and_rejects_wrong_fields():
    ref = _sweep_ref()
    assert checks.compare("sweep", ref, ref["csv"]) is None
    moved, row = _edit_last_row(ref["csv"], d_min="1.5")
    assert "d_min" in checks.compare("sweep", ref, moved)
    broken, _ = _edit_last_row(ref["csv"], pe_mc="0.75", pe_mc_ci_low="0.7", pe_mc_ci_high="0.8")
    assert "pe_mc" in checks.compare("sweep", ref, broken)


def _last_row(csv_text):
    header, *rows = csv_text.splitlines()
    return dict(zip(header.split(","), rows[-1].split(",")))


def test_compare_accepts_statistically_equal_block_rerun():
    ref = next(r for r in _reference("block").values()
               if 5 < int(_last_row(r["csv"])["block_errors"]) < 0.2 * int(_last_row(r["csv"])["trials"]))
    cells = _last_row(ref["csv"])
    trials = int(cells["trials"])
    errors = int(cells["block_errors"]) + 1  # another stream layout, one more error
    lo, hi = checks.wilson(errors, trials, 1.959963984540054)
    rerun, _ = _edit_last_row(ref["csv"], block_errors=str(errors), bler=repr(errors / trials),
                              bler_ci_low=repr(lo), bler_ci_high=repr(hi))
    assert checks.compare("block", ref, rerun) is None
    wrong, _ = _edit_last_row(ref["csv"], block_errors=str(trials), bler="1",
                              bler_ci_low="0.9", bler_ci_high="1")
    assert "block_errors" in checks.compare("block", ref, wrong)


def test_compare_requires_identical_analysis_output():
    ref = next(iter(_reference("analysis").values()))
    assert checks.compare(ref["kind"], ref, ref["csv"]) is None
    assert checks.compare(ref["kind"], ref, ref["csv"].replace("\n", "\r\n")) is not None


# --- generator ------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_seeded(workload):
    ref = _reference(workload)
    a = workloads.plan(workload, 11, ref)
    assert a == workloads.plan(workload, 11, ref)
    assert [c.argv for c in a] != [c.argv for c in workloads.plan(workload, 12, ref)]
    assert len(a) >= 100 and len({c.id for c in a}) == len(a)
    assert sorted(int(c.id[1:4]) for c in a) == list(range(len(a)))  # one member per slot
    cat = {c.id: c for c in workloads.catalog(workload)}
    assert all(c == cat[c.id] for c in a)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_catalog_member_succeeded_at_reference_commit(workload):
    """The reference holds only commands that exited 0 when it was built,
    so a generator whose output matches it emits only valid commands."""
    ref = _reference(workload)
    cat = workloads.catalog(workload)
    assert sorted(ref) == sorted(c.id for c in cat)
    for cmd in cat:
        assert ref[cmd.id]["argv"] == list(cmd.argv), cmd.id
        assert ref[cmd.id]["files"] == dict(cmd.files), cmd.id
        assert ref[cmd.id]["work"] == cmd.work, cmd.id


def test_generator_respects_caps():
    from secmac import ChannelGains, effective_power, select_params

    for cmd in workloads.catalog("campaign") + workloads.catalog("block"):
        cfg = checks.config_values(cmd.files[0][1])
        K, eps = int(cfg["k"]), float(cfg["epsilon"])
        gains = ChannelGains(h=tuple(map(float, cfg["h"].split(","))),
                             h_e=tuple(map(float, cfg["h_e"].split(","))))
        assert not workloads._near_relation(gains)
        for P in map(float, cfg["p_grid"].split(",")):
            assert 1e4 <= P <= 1e12
            Q, A = select_params(effective_power(gains, P), K, eps)
            assert (2 * Q + 1) ** K <= workloads.MATERIALIZE_CAP
        if cmd.kind == "leakage":
            dense = workloads.dense_estimate(K, Q, A, int(cfg["leakage_samples"]))
            assert dense <= workloads.LARGE_DENSE_BAND[1]


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    expected = {name: (unit, better) for name, unit, better, *_ in spans.METRICS}
    assert {k: v for k, v in layer.items() if k not in EXTRA_LAYER_METRICS} == expected
    assert set(EXTRA_LAYER_METRICS) <= set(layer)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    import run

    assert run.WORKLOADS == workloads.WORKLOADS


def test_speed_factor_scales_to_reference_speed():
    import run

    at_reference = {"calibration_s": [run.CAL_REF_S] * 11}
    twice_slower = {"calibration_s": [2 * run.CAL_REF_S] * 11}
    assert run.speed_factor(at_reference) == pytest.approx(1.0)
    assert run.speed_factor(twice_slower) == pytest.approx(0.5)
