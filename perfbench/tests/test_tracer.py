"""Tests for the outside-in tracer: self times, patching, restoring."""

import contextlib
import importlib
import io
import json
import os

import pytest

import tracer as tracer_mod
import workloads
from bflab import cli


def _span(id, parent, name, total, calls=1):
    return {"id": id, "parent": parent, "pipeline": "p", "name": name,
            "start": 0.0, "end": total, "calls": calls, "total_s": total}


def test_self_times_on_synthetic_tree():
    records = [
        _span(1, 0, "pipeline", 10.0),
        _span(2, 1, "a", 6.0, calls=2),
        _span(3, 1, "b", 3.0),
        _span(4, 2, "k", 2.5, calls=100),
        _span(5, 3, "k", 1.0, calls=7),
        _span(6, 4, "a", 0.5),          # recursion through a kernel
    ]
    self_s, calls = tracer_mod.self_times(records)
    assert self_s == pytest.approx({"pipeline": 1.0, "a": 4.0, "b": 2.0,
                                    "k": 3.0})
    assert calls == {"pipeline": 1, "a": 3, "b": 1, "k": 107}
    assert sum(self_s.values()) == pytest.approx(10.0)


def _bindings():
    """Every place a target is reachable from: (owner, attr) -> object."""
    out = {}
    for t in tracer_mod.TARGETS:
        owner = importlib.import_module(t.module)
        *path, attr = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        out[(owner, attr)] = getattr(owner, attr)
    return out


def test_wrappers_patch_by_name_imports_and_restore_originals():
    from bflab import idempotents, points, radical
    before = _bindings()
    by_name = {m: m.radical_rows for m in (idempotents, points)}
    assert all(v is radical.radical_rows for v in by_name.values())
    class_dicts = {owner: dict(vars(owner)) for owner, _ in before
                   if isinstance(owner, type)}

    with tracer_mod.Tracer():
        for (owner, attr), original in before.items():
            assert getattr(owner, attr) is not original
        assert idempotents.radical_rows is radical.radical_rows
        assert points.radical_rows is not by_name[points]

    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original
    for m, original in by_name.items():
        assert m.radical_rows is original
    for owner, d in class_dicts.items():
        assert dict(vars(owner)) == d


def _run_check(argv, tracer=None):
    out = io.StringIO()
    span = tracer.pipeline("c3") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), span:
        assert cli.main(argv) == 0
    return out.getvalue()


def test_traced_report_is_byte_identical_and_spans_add_up(tmp_path):
    path = os.path.join(workloads.CATALOG_DIR, "s3.json")
    argv = ["check", "--group", path, "--prime", "3", "--seed", "5",
            "--out", "-", "--findings-dir", str(tmp_path)]
    plain = _run_check(argv)
    with tracer_mod.Tracer() as tracer:
        traced = _run_check(argv, tracer)
    assert traced == plain
    records = tracer.records()
    roots = [r for r in records if r["name"] == "pipeline"]
    assert len(roots) == 1
    self_s, calls = tracer_mod.self_times(records)
    assert min(self_s.values()) >= 0
    assert sum(self_s.values()) == pytest.approx(roots[0]["total_s"])
    assert calls["blocks.analyze_block"] == 1
    assert calls["report.dump_report"] == 1
    metrics = tracer_mod.layer_metrics(records, tracer.counts)
    assert metrics["linalg.matmul.mac"][0] > 0
    assert metrics["cli.field_retries"][0] == 0

    sidecar = tmp_path / "trace.jsonl"
    tracer.write_jsonl(sidecar)
    lines = [json.loads(x) for x in sidecar.read_text().splitlines()]
    assert {"id", "parent", "pipeline", "name", "start", "end"} <= \
        set(lines[0])
    assert lines[-1]["counts"]["linalg.matmul.mac"] == \
        metrics["linalg.matmul.mac"][0]
