"""Tests for the output checks and for BENCHMARK.json's metric names."""

import contextlib
import copy
import io
import json
import os

import invariants
import kernels
import run
import tracer as tracer_mod
import workloads
from bflab import cli


def _report(fn, prime):
    out = io.StringIO()
    argv = ["check", "--group", os.path.join(workloads.CATALOG_DIR, fn),
            "--prime", str(prime), "--out", "-", "--findings-dir",
            os.devnull]
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def test_checker_accepts_report_and_rejects_one_flipped_verdict():
    expected = invariants.load_expected()
    report = _report("s3.json", 3)
    assert invariants.check(report, expected, 6) == []
    flipped = copy.deepcopy(report)
    eq = flipped["blocks"][0]["equivalence"]
    eq["unital_basis"] = not eq["unital_basis"]
    assert invariants.check(flipped, expected, 6) != []


def test_checker_rejects_wrong_block_dims():
    expected = invariants.load_expected()
    report = _report("c2.json", 2)
    assert invariants.check(report, expected, 2) == []
    assert invariants.check(report, expected, 4) != []


def test_checker_rejects_defect_group_other_than_normal_sylow():
    expected = invariants.load_expected()
    report = _report("c4.json", 2)
    assert invariants.check(report, expected, 4) == []
    wrong = copy.deepcopy(report)
    elements = wrong["blocks"][0]["defect_group"]["elements"]
    elements[-1] = elements[0]
    assert invariants.check(wrong, expected, 4) != []


def test_self_centralizing_sylow_oracle():
    def doc(directory, fn):
        with open(os.path.join(directory, fn)) as fh:
            return json.load(fh)
    catalog = workloads.CATALOG_DIR
    assert len(invariants.self_centralizing_sylow(doc(catalog, "d8.json"),
                                                  2)) == 8
    assert len(invariants.self_centralizing_sylow(doc(catalog, "sl23.json"),
                                                  2)) == 8
    assert invariants.self_centralizing_sylow(doc(catalog, "s4.json"),
                                              2) is None
    a5 = doc(workloads.GROUPS_DIR, "a5.json")
    assert invariants.self_centralizing_sylow(a5, 3) is None
    assert invariants.self_centralizing_sylow(a5, 5) is None


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = set(run.end_to_end([run.Pass()], 1.0, 1.0))
    assert {m["name"] for m in bench["end_to_end"]} == e2e
    layers = set(tracer_mod.layer_metrics([], {})) | \
        set(kernels.metric_names()) | {"trace.overhead_ratio"}
    assert {m["name"] for m in bench["per_layer"]} == layers
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
