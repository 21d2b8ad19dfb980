"""Tests for the benchmark itself (not for chiprank).

    python3 -m pytest perfbench/tests -q

Smoke runs of every workload on a tiny op list, the oracles' ability to
flag corrupted outputs, input determinism, and wrapper clean-up.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_names_the_workloads():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_metrics_and_units(name, trace, tmp_path):
    report, result = run.run_workload(name, 3, 0.05, trace, root=ROOT, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(run.WORKLOADS[name].make(
        random.Random(3), True, tmp_path).ops)
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # the fuller report carries all six end-to-end metrics, the seed and backend
    assert {k: v["unit"] for k, v in report["metrics"].items()} == {
        "ops_per_s": "ops/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
        "fail_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MiB",
    }
    assert report["metrics"]["fail_frac"]["value"] == 0
    assert report["seed"] == 3
    assert report["backend"] in ("pure", "compiled")
    assert report["kernels.fallbacks"] == 0 or report["backend"] == "compiled"


def _first_pass(name, seed=5, tmp=None):
    cr = run.load_chiprank(ROOT / "src")
    wl = run.WORKLOADS[name]
    inputs = wl.make(random.Random(seed), True, tmp)
    _, outs, _ = run.run_pass(cr, wl, inputs)
    for op, out in zip(inputs.ops, outs):
        assert wl.check(cr, op, inputs.graphs, out) is None
    return cr, wl, inputs, outs


def _flags(cr, wl, inputs, op, out):
    return wl.check(cr, op, inputs.graphs, out) is not None


def test_rank_sweep_oracle_flags_corruption():
    cr, wl, inputs, outs = _first_pass("rank-sweep")
    for op, (rf, wf, rd, wd) in zip(inputs.ops, outs):
        assert _flags(cr, wl, inputs, op, (rf + 1, wf, rd, wd))  # breaks symmetry
        # both ranks up by one keeps the symmetry; the formula or the
        # witness degree catches it
        assert _flags(cr, wl, inputs, op, (rf + 1, wf, rd + 1, wd))
    # a witness of the right degree whose removal leaves f effective
    for op, (rf, wf, rd, wd) in zip(inputs.ops, outs):
        if rf >= 0 and op[0].startswith("R"):
            zero_removal = tuple([0] * (len(wf) - 1) + [rf + 1])
            cfg = op[1]
            if cr.dynamics.parking_representative(
                cr.graphs.MultiGraph(inputs.graphs[op[0]]),
                tuple(x - y for x, y in zip(cfg, zero_removal)),
            )[-1] >= 0:
                assert _flags(cr, wl, inputs, op, (rf, zero_removal, rd, wd))
                break


def test_kn_cli_oracle_flags_corruption(tmp_path):
    cr, wl, inputs, outs = _first_pass("kn-cli", tmp=tmp_path)
    for op, (code, payload) in zip(inputs.ops, outs):
        assert _flags(cr, wl, inputs, op, (1, payload))
        assert _flags(cr, wl, inputs, op, (code, dict(payload, rank=payload["rank"] + 1)))


def test_sandpile_oracle_flags_corruption():
    cr, wl, inputs, outs = _first_pass("sandpile")
    kinds = set()
    for op, out in zip(inputs.ops, outs):
        kind = op[0]
        kinds.add(kind)
        if kind == "stabilize":
            stable, odo = out
            assert _flags(cr, wl, inputs, op, (stable[:-1] + (stable[-1] + 1,), odo))
            bumped = (odo[0] + 1,) + odo[1:]
            assert _flags(cr, wl, inputs, op, (stable, bumped))
        elif kind == "class_counts":
            assert _flags(cr, wl, inputs, op, {**out, 0: out[0] + 1})
            top = max(out)
            assert _flags(cr, wl, inputs, op, {**out, top: out[top] - 1})
            assert _flags(cr, wl, inputs, op, {**out, 1: out[2] + 1})
        else:
            # one more chip on the sink leaves the toppling class
            assert _flags(cr, wl, inputs, op, out[:-1] + (out[-1] + 1,))
    assert kinds == {"stabilize", "parking", "recurrent", "class_counts"}
    # on K_n the cyclic lemma catches a same-class but wrong representative
    K3 = cr.graphs.MultiGraph(workloads.complete_matrix(3))
    same_class = tuple(cr.graphs.topple(K3, (0, 1, 5), 3))  # (1, 2, 3)
    assert not _flags(cr, wl, inputs, ("parking", "K3", same_class), (0, 1, 5))
    assert _flags(cr, wl, inputs, ("parking", "K3", same_class), (1, 2, 3))


def test_genfun_oracle_flags_corruption():
    cr, wl, inputs, outs = _first_pass("genfun")
    S = cr.series.TruncatedSeries
    for op, out in zip(inputs.ops, outs):
        kind = op[0]
        if kind in ("identity", "bistatistic"):
            assert _flags(cr, wl, inputs, op, False)
        elif kind == "ln":
            direct, toxy = out
            off = S(2, toxy.trunc, {(0, 1): 1})
            assert _flags(cr, wl, inputs, op, (direct, toxy + off))
        elif kind == "carlitz":
            assert _flags(cr, wl, inputs, op, out + S(2, out.trunc, {(0, 1): 1}))
        else:
            prerank, dinv, cdinv, phi, zeta = out
            assert _flags(cr, wl, inputs, op, (prerank + 1, dinv, cdinv, phi, zeta))
            assert _flags(cr, wl, inputs, op, (prerank, dinv + 1, dinv + 1, phi, zeta))
            assert _flags(cr, wl, inputs, op, (prerank, dinv, cdinv + 1, phi, zeta))
            assert _flags(cr, wl, inputs, op, (prerank, dinv, cdinv, op[1], zeta)) or (
                cr.dyck.phi_involution(op[1]) == op[1])
            assert _flags(cr, wl, inputs, op, (prerank, dinv, cdinv, phi, zeta[::-1])) or (
                zeta == zeta[::-1])


@pytest.mark.parametrize("name", NAMES)
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    wl = run.WORKLOADS[name]
    a = wl.make(random.Random(11), False, tmp_path)
    b = wl.make(random.Random(11), False, tmp_path)
    c = wl.make(random.Random(12), False, tmp_path)
    assert a == b
    assert a != c
    assert run.input_digest(a, tmp_path) == run.input_digest(b, tmp_path)


def test_tracer_uninstall_restores_every_binding():
    cr = run.load_chiprank(ROOT / "src")
    modules = [m for m in vars(cr).values()]
    before = [dict(vars(m)) for m in modules]
    classes = [cr.graphs.MultiGraph, cr.series.TruncatedSeries]
    before_cls = [dict(vars(c)) for c in classes]
    tracer = Tracer()
    tracer.install(cr)
    assert cr.rank._residue is not before[modules.index(cr.rank)]["_residue"]
    tracer.uninstall()
    for m, old in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in old.items())
    for c, old in zip(classes, before_cls):
        assert all(vars(c)[k] is v for k, v in old.items())


def test_refuses_a_directory_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
