"""Self-tests of the benchmark: checker, self-time arithmetic, names, tracer."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from check import check_output, check_pooled, parse_csv, pool_ensembles, read_reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BLP = WORKLOADS["blp-scan"]
TPM = WORKLOADS["tpm-ensemble"]


def _edit_row(text, row, col, value):
    lines = text.splitlines()
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    header = lines[header_at].split(",")
    fields = lines[header_at + 1 + row].split(",")
    fields[header.index(col)] = value(fields[header.index(col)])
    lines[header_at + 1 + row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _check(wl, text, rc=None, seed=DEFAULT_SEED):
    rc = wl.expected_exit if rc is None else rc
    return check_output(wl, read_reference(wl), text, rc, seed)


def test_reference_passes_its_own_check():
    for wl in WORKLOADS.values():
        result = _check(wl, read_reference(wl))
        assert result.failed == 0 and result.attempted > 0, result.problems


def test_checker_flags_perturbed_value():
    ref = read_reference(BLP)
    tiny = _edit_row(ref, 1, "blp_value", lambda v: repr(float(v) * (1 + 1e-11)))
    assert _check(BLP, tiny).failed == 0
    bad = _edit_row(ref, 1, "blp_value", lambda v: repr(float(v) * (1 + 1e-8)))
    result = _check(BLP, bad)
    assert (result.attempted, result.failed) == (2, 1)


def test_checker_flags_flipped_status():
    ref = read_reference(BLP)
    _, header, rows = parse_csv(ref)
    flagged = [i for i, r in enumerate(rows) if r[header.index("status")] != "ok"]
    assert len(flagged) == 1  # delta = 0.95 pi/2 is unconverged by design
    bad = _edit_row(ref, flagged[0], "status", lambda v: "ok")
    assert _check(BLP, bad).failed == 1
    bad = _edit_row(ref, 0, "status", lambda v: "unconverged")
    assert _check(BLP, bad).failed == 1


def test_checker_flags_missing_row():
    lines = read_reference(BLP).splitlines()
    del lines[-1]
    result = _check(BLP, "\n".join(lines) + "\n")
    assert result.failed == 1 and result.attempted == 2


def test_checker_flags_crashed_child_and_wrong_exit_code():
    ref = read_reference(BLP)
    assert _check(BLP, None, rc=70).failed == 2
    assert _check(BLP, ref, rc=0).failed == 2  # the unconverged row must exit 1


def test_spawned_crashed_child_fails_every_row(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "no-src")
    monkeypatch.setattr(run, "OUT", tmp_path)
    child, result, text = run.measured_run(BLP, DEFAULT_SEED, read_reference(BLP), traced=False)
    assert text is None
    assert child.report is None and child.rc != 0
    assert result.failed == result.attempted == 2


def test_tpm_seeded_columns_exact_only_at_default_seed():
    ref = read_reference(TPM)
    nudged = _edit_row(ref, 50, "mean_stoch_heat", lambda v: repr(float(v) * (1 + 1e-11)))
    assert _check(TPM, nudged).failed == 1  # exact at the reference seed
    nudged = _edit_row(ref, 50, "mean_stoch_heat", lambda v: repr(float(v) * 1.001))
    assert _check(TPM, nudged).failed == 1
    other_seed = nudged.replace(f"# seed={DEFAULT_SEED}\n", "# seed=5\n")
    assert _check(TPM, other_seed, seed=5).failed == 0
    assert _check(TPM, ref, seed=5).failed == 100  # comment block names the wrong seed


def test_pooled_chunks_give_the_whole_ensemble_statistics():
    heats = np.random.default_rng(1).exponential(size=(3 * 40, 5))
    header = ["m", "mean_stoch_heat", "std_error", "unconditional_heat"]

    def rows(h):
        m = len(h)
        se = h.std(axis=0, ddof=1) / np.sqrt(m)
        return [[str(m), repr(float(h[:, k].mean())), repr(float(se[k])), "1"]
                for k in range(h.shape[1])]

    pooled = pool_ensembles(header, [rows(heats[i::3]) for i in range(3)])
    whole = rows(heats)
    for (mean, se, _), row in zip(pooled, whole):
        assert mean == pytest.approx(float(row[1]), rel=1e-12)
        assert se == pytest.approx(float(row[2]), rel=1e-9)


def test_tpm_statistical_check_flags_a_biased_ensemble():
    ref = read_reference(TPM)
    _, header, rows = parse_csv(ref)
    exact = [row[header.index("unconditional_heat")] for row in rows]

    def chunk(shift):
        text = ref
        for i, heat in enumerate(exact):
            text = _edit_row(text, i, "mean_stoch_heat", lambda v: repr(float(heat) + shift))
            text = _edit_row(text, i, "std_error", lambda v: "0.01")
        return text

    assert check_pooled(TPM, ref, [chunk(0.0)] * 30).failed == 0
    result = check_pooled(TPM, ref, [chunk(1.0)] * 30)
    assert result.failed == 100 and any("coverage" in p for p in result.problems)
    assert check_pooled(TPM, ref, []).failed == 100


def test_self_times_on_nested_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["engine.evolve", 1.0, 6.0, 0],
        ["metrics.fidelity", 2.0, 3.0, 1],
        ["tensor.DensityMatrix", 4.0, 4.5, 1],
        ["cli.write_csv", 7.0, 9.5, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 3.5, 1.0, 0.5, 2.5])
    metrics = tracing.layer_metrics(spans, {})
    assert metrics["cli.self_s"] == pytest.approx(5.0)
    assert metrics["engine.evolve.calls"] == 1 and metrics["blp.blp_measure.calls"] == 0
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.TRACED)
    assert total == pytest.approx(10.0)  # self times partition the root span


def test_self_time_counts_overlapping_children_once():
    spans = [["a.x", 0.0, 10.0, -1], ["b.y", 1.0, 4.0, 0], ["b.z", 3.0, 12.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m[0] for m in run.END_TO_END]
    layers = [m[0] for m in run.per_layer_metrics()]
    names = list(WORKLOADS) + e2e + layers
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == e2e
    assert [m["name"] for m in spec["per_layer"]] == layers


def _collideq_bindings():
    mods = tracing._collideq_modules()
    out = {}
    for mod in mods:
        for attr, val in vars(mod).items():
            out[(mod.__name__, attr)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for m, v in vars(val).items():
                    out[(mod.__name__, attr, m)] = v
    return out


def test_traced_run_restores_every_wrapped_function(tmp_path):
    import collideq.cli as cli
    import collideq.engine as engine

    before = _collideq_bindings()
    original = engine.steady_state
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert cli.steady_state is engine.steady_state is not original
        rc = cli.main(["heat", "--setting", "II", "--beta", "1", "--dt", "0.1",
                       "--delta", "0.3", "--out", str(tmp_path / "h.csv")])
    assert rc == 0
    after = _collideq_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tracing.leftover_wrappers() == []
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.Resolved", "engine.steady_state", "tensor.DensityMatrix",
            "cli.write_csv"} <= names
    assert tracer.counts["cli.rows"] == 1
