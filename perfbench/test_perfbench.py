"""Tests of the benchmark itself: metric coverage, span accounting, and
failure counting.  Small sizes keep them to a few seconds:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_library()

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def test_spec_matches_catalog():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert _units("end_to_end") == metrics.END_TO_END
    assert _units("per_layer") == metrics.per_layer_catalog()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_reports_every_metric_with_unit(name, workdir):
    wl = workloads.make(name, seed=3, workdir=workdir, small=True)
    try:
        plain = run.measure(wl, seconds=0.0, trace=0, probe=lambda: 0.5, min_ops=0)
        traced = run.measure(wl, seconds=0.0, trace=1)
    finally:
        wl.close()
    for res, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert not res.failures
        assert res.attempted >= wl.cycle
        assert {k: res.units[k] for k in res.values} == _units(section)
        assert all(isinstance(v, (int, float)) for v in res.values.values())


def _traced_cycles(wl, cycles=1):
    tracer = Tracer()
    tracer.install()
    try:
        lat, failures, wall, gates = run.closed_loop(
            wl, 0.0, tracer.run_op, min_ops=cycles * wl.cycle
        )
    finally:
        tracer.uninstall()
    assert not failures
    return tracer, lat


def test_self_times_sum_to_op_wall_time(workdir):
    wl = workloads.make("cli_session", seed=4, workdir=workdir, small=True)
    try:
        wl.op(0)
        tracer, lat = _traced_cycles(wl)
    finally:
        wl.close()
    m = metrics.layer_metrics(tracer.spans, {}, 1.0)
    layer_sum = sum(m[f"{layer}.self_ms_per_op"] for layer in metrics.LAYERS)
    own = layer_sum + m["harness.self_ms_per_op"]
    assert own == pytest.approx(m["op.ms_per_op"], rel=1e-9)
    # the loop's own timing differs from the root spans only by the tracer's
    # per-op bookkeeping, and the library, not the harness, holds the time
    wall_ms = 1e3 * sum(lat) / len(lat)
    assert m["op.ms_per_op"] <= wall_ms
    assert m["op.ms_per_op"] >= 0.98 * wall_ms
    assert layer_sum >= 0.95 * own


def test_certify_stream_call_counts_per_op(workdir):
    wl = workloads.make("certify_stream", seed=5, workdir=workdir, small=True)
    wl.op(0)
    tracer, _ = _traced_cycles(wl)
    per_op = {}
    for name, _, _, _, op_id, _ in tracer.spans:
        counts = per_op.setdefault(op_id, {})
        counts[name] = counts.get(name, 0) + 1
    for op_id, counts in per_op.items():
        alternative = wl.inputs[op_id % wl.pool][1]
        assert counts.get("symplectic.pre_iwasawa", 0) == (4 if alternative == "II" else 3)
        assert counts.get("gaussian.partial_stft_log_modulus", 0) == (
            3 if alternative == "II" else 0
        )
        assert counts.get("gaussian.apply_word", 0) == (9 if alternative == "II" else 0)
        assert not any(name.startswith("grid.") for name in counts)


def test_tracer_uninstall_restores_library():
    certify_mod = sys.modules["mtfr.certify"]
    original = certify_mod.pre_iwasawa
    tracer = Tracer()
    tracer.install()
    try:
        assert certify_mod.pre_iwasawa is not original
        assert sys.modules["mtfr.symplectic"].pre_iwasawa is certify_mod.pre_iwasawa
    finally:
        tracer.uninstall()
    assert certify_mod.pre_iwasawa is original


def test_corrupted_certificate_counts_as_failure(workdir, capsys):
    wl = workloads.make("grid_transform", seed=6, workdir=workdir, small=True)
    cert = wl.alt2[0]
    omega = cert.alt2.omega * 1.01  # perturbed Omega: the identity no longer holds
    wl.alt2[0] = dataclasses.replace(cert, alt2=dataclasses.replace(cert.alt2, omega=omega))
    lat, failures, wall, gates = run.closed_loop(wl, 0.0, min_ops=wl.cycle)
    # in the first cycle kinds a, a and b use certificate 0; c and d do not
    assert [op for op, _ in failures] == [0, 1, 5]
    assert all("GateMiss" in message for _, message in failures)
    assert len(lat) == wl.cycle
    run.report(run.Result({}, {}, len(lat), failures, []))
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("FAILED op") for line in lines) == 3
    last = json.loads(lines[-1])
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 6, 3)


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
