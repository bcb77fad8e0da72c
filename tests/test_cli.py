import hashlib
import json
import os
import subprocess
import sys

import pytest

from bflab import cli, idempotents
from bflab.cli import main
from bflab.groups import group_from_generators

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "bflab", "data")


def run(args):
    return main(args)


def test_analyze_exit_zero_and_schema(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["analyze", "--group", os.path.join(DATA, "c2.json"),
                "--prime", "2", "--out", str(out),
                "--findings-dir", str(tmp_path / "f")])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == "bflab-report/1"
    assert rep["ok"] and len(rep["blocks"]) == 1
    blk = rep["blocks"][0]
    for key in ("block_index", "block_dim", "defect_group",
                "source_idempotent", "source_dim", "source_shape",
                "source_fusion_identity"):
        assert key in blk


def test_check_s3_both_primes(tmp_path):
    for prime, nblocks in ((3, 1), (2, 2)):
        out = tmp_path / f"s3p{prime}.json"
        code = run(["check", "--group", os.path.join(DATA, "s3.json"),
                    "--prime", str(prime), "--out", str(out),
                    "--findings-dir", str(tmp_path / "f")])
        assert code == 0
        rep = json.loads(out.read_text())
        assert len(rep["blocks"]) == nblocks
        for blk in rep["blocks"]:
            assert blk["equivalence"]["conditions_agree"]
            assert blk["characteristic"]["all"]


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["analyze", "--group", str(bad), "--prime", "2",
                "--findings-dir", str(tmp_path / "f")])
    assert code == 2
    code = run(["analyze", "--group", str(tmp_path / "missing.json"),
                "--prime", "2", "--findings-dir", str(tmp_path / "f")])
    assert code == 2
    c2 = os.path.join(DATA, "c2.json")
    for prime in ("4", "1", "0"):
        assert run(["analyze", "--group", c2, "--prime", prime,
                    "--findings-dir", str(tmp_path / "f")]) == 2
    for i, doc in enumerate(({"label": "X", "degree": 3},
                             {"label": "X", "degree": 3,
                              "generators": [[1, 1, 2]]})):
        gpath = tmp_path / f"malformed{i}.json"
        gpath.write_text(json.dumps(doc))
        assert run(["analyze", "--group", str(gpath), "--prime", "2",
                    "--findings-dir", str(tmp_path / "f")]) == 2


def test_pipeline_error_is_not_an_input_error(tmp_path, monkeypatch):
    # FusionError is a ValueError; raised inside the pipeline it is a
    # fault of the program, not of the input, so it must not exit 2
    from bflab.fusion import FusionError

    def broken(pairs, b, index, rng):
        raise FusionError("maximal pair subgroup is not a defect group")

    monkeypatch.setattr(cli, "analyze_block", broken)
    with pytest.raises(FusionError):
        run(["analyze", "--group", os.path.join(DATA, "c2.json"),
             "--prime", "2", "--findings-dir", str(tmp_path / "f")])


def test_order_cap_exit_code(tmp_path):
    doc = {"label": "C6", "degree": 6, "generators": [[2, 3, 4, 5, 6, 1]]}
    gpath = tmp_path / "c6.json"
    gpath.write_text(json.dumps(doc))
    code = run(["analyze", "--group", str(gpath), "--prime", "2",
                "--order-cap", "3", "--findings-dir", str(tmp_path / "f")])
    assert code == 3
    # catalog marks the file order-cap, not input-error
    out = tmp_path / "catalog.json"
    code = run(["catalog", "--dir", str(tmp_path), "--order-cap", "3",
                "--out", str(out), "--no-cache",
                "--cache-dir", str(tmp_path / "cache"),
                "--findings-dir", str(tmp_path / "f")])
    assert code == 3
    assert json.loads(out.read_text())["rows"] == [
        {"file": "c6.json", "status": "order-cap"}]


def test_reports_byte_identical_same_seed(tmp_path):
    outs = []
    for t in range(2):
        out = tmp_path / f"rep{t}.json"
        code = run(["check", "--group", os.path.join(DATA, "s3.json"),
                    "--prime", "3", "--out", str(out), "--seed", "12345",
                    "--findings-dir", str(tmp_path / "f")])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verdicts_stable_across_seeds(tmp_path):
    verdicts = []
    for seed in (1, 99991):
        out = tmp_path / f"rep{seed}.json"
        code = run(["check", "--group", os.path.join(DATA, "a4.json"),
                    "--prime", "2", "--out", str(out), "--seed", str(seed),
                    "--findings-dir", str(tmp_path / "f")])
        assert code == 0
        rep = json.loads(out.read_text())
        verdicts.append([
            (blk["defect_group"]["order"],
             blk["characteristic"]["all"],
             blk["equivalence"]["conditions_agree"],
             blk["equivalence"]["unital_basis"],
             blk["equivalence"]["all_twisted_units"],
             blk["equivalence"]["intrinsic_balance"],
             blk["source_shape"])
            for blk in rep["blocks"]])
    assert verdicts[0] == verdicts[1]


def test_catalog_on_small_dir(tmp_path):
    gdir = tmp_path / "groups"
    gdir.mkdir()
    for name in ("c2.json", "s3.json"):
        (gdir / name).write_text(
            open(os.path.join(DATA, name)).read())
    (gdir / "broken.json").write_text("{oops")
    out = tmp_path / "catalog.json"
    code = run(["catalog", "--dir", str(gdir), "--out", str(out),
                "--cache-dir", str(tmp_path / "cache"),
                "--findings-dir", str(tmp_path / "f")])
    assert code == 2          # the corrupt file marks input-error
    table = json.loads(out.read_text())
    statuses = {r["file"]: r["status"] for r in table["rows"]}
    assert statuses["broken.json"] == "input-error"
    ok_rows = [r for r in table["rows"] if r["file"] != "broken.json"]
    assert all(r["status"].startswith("ok") for r in ok_rows)
    # c2 at p=2, s3 at p=2 and p=3
    assert len(ok_rows) == 3
    # cache hits do not change verdicts
    code2 = run(["catalog", "--dir", str(gdir), "--out",
                 str(tmp_path / "catalog2.json"),
                 "--cache-dir", str(tmp_path / "cache"),
                 "--findings-dir", str(tmp_path / "f")])
    table2 = json.loads((tmp_path / "catalog2.json").read_text())
    for r1, r2 in zip(table["rows"], table2["rows"]):
        if r1["file"] == "broken.json":
            continue
        assert r2["status"].endswith("(cached)") or r2["status"] == r1["status"]
        assert r1.get("blocks") == r2.get("blocks")
        assert r1.get("defects") == r2.get("defects")


def _catalog_c2(tmp_path, name):
    gdir = tmp_path / "groups"
    gdir.mkdir(exist_ok=True)
    (gdir / "c2.json").write_text(open(os.path.join(DATA, "c2.json")).read())
    out = tmp_path / name
    code = run(["catalog", "--dir", str(gdir), "--out", str(out),
                "--cache-dir", str(tmp_path / "cache"),
                "--findings-dir", str(tmp_path / "f")])
    assert code == 0
    return [r["status"] for r in json.loads(out.read_text())["rows"]]


def test_catalog_cache_follows_source_digest(tmp_path, monkeypatch):
    assert _catalog_c2(tmp_path, "1.json") == ["ok"]
    assert _catalog_c2(tmp_path, "2.json") == ["ok(cached)"]
    monkeypatch.setattr(cli, "_source_digest", lambda: "changed sources")
    assert _catalog_c2(tmp_path, "3.json") == ["ok"]
    assert _catalog_c2(tmp_path, "4.json") == ["ok(cached)"]
    assert len(os.listdir(tmp_path / "cache")) == 2


def test_catalog_cache_write_failure_leaves_no_entry(tmp_path, monkeypatch):
    def broken_dump(obj, fh, **kwargs):
        fh.write('{"blocks": [')
        raise OSError("disk full")
    monkeypatch.setattr(cli.json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        _catalog_c2(tmp_path, "1.json")
    assert os.listdir(tmp_path / "cache") == []
    monkeypatch.undo()
    assert _catalog_c2(tmp_path, "2.json") == ["ok"]


def test_catalog_empty_dir(tmp_path):
    gdir = tmp_path / "empty"
    gdir.mkdir()
    out = tmp_path / "catalog.json"
    code = run(["catalog", "--dir", str(gdir), "--out", str(out),
                "--cache-dir", str(tmp_path / "cache"),
                "--findings-dir", str(tmp_path / "f")])
    assert code == 0
    assert json.loads(out.read_text())["rows"] == []


def test_finding_exit_code_and_artifact(tmp_path, monkeypatch):
    # force a disagreement to exercise the finding path end to end
    import bflab.cli as cli
    from bflab.conjecture import Finding

    def explode(data, rng, thorough=False, exhaustive=False):
        raise Finding("equivalence_conditions_disagree", {"forced": True})

    monkeypatch.setattr(cli, "equivalence_report", explode)
    out = tmp_path / "rep.json"
    fdir = tmp_path / "findings"
    code = run(["check", "--group", os.path.join(DATA, "c2.json"),
                "--prime", "2", "--out", str(out),
                "--findings-dir", str(fdir)])
    assert code == 4
    files = list(fdir.iterdir())
    assert files, "finding artifact not written"
    doc = json.loads(files[0].read_text())
    assert doc["condition"] == "equivalence_conditions_disagree"
    assert doc["witnesses"] == {"forced": True}
    assert set(doc["choices"]) >= {"defect_group", "source_idempotent"}
    rep = json.loads(out.read_text())
    assert not rep["ok"] and rep["findings"]


def test_reports_and_findings_name_their_field(tmp_path, monkeypatch):
    # A4 at p = 2 runs over GF(4) = GF(2)[x]/(x^2 + x + 1): the report
    # and each finding say so, and no field was abandoned
    from bflab.conjecture import Finding

    def explode(data, rng, thorough=False, exhaustive=False):
        raise Finding("equivalence_conditions_disagree", {"forced": True})

    monkeypatch.setattr(cli, "equivalence_report", explode)
    out = tmp_path / "rep.json"
    fdir = tmp_path / "findings"
    code = run(["check", "--group", os.path.join(DATA, "a4.json"),
                "--prime", "2", "--out", str(out),
                "--findings-dir", str(fdir)])
    assert code == 4
    gf4 = {"p": 2, "m": 2, "modulus": [1, 1, 1]}
    rep = json.loads(out.read_text())
    assert rep["field"] == gf4 and rep["field_retries"] == []
    docs = rep["findings"] + [json.loads(f.read_text())
                              for f in fdir.iterdir()]
    assert docs and all(doc["field"] == gf4 for doc in docs)


def test_field_extension_restart(tmp_path, monkeypatch):
    # force the first attempt onto a non-splitting field: kC3 blocks over
    # GF(2) need GF(4), so the analysis must restart over GF(4)
    import bflab.cli as cli
    from bflab.gf import field

    calls = []

    def skewed(G, prime):
        calls.append(prime)
        from bflab.algebra import group_algebra
        return group_algebra(G, field(prime, 1))   # GF(2): too small

    monkeypatch.setattr(cli, "build_group_algebra", skewed)
    out = tmp_path / "rep.json"
    code = run(["analyze", "--group", os.path.join(DATA, "c3.json"),
                "--prime", "2", "--out", str(out),
                "--findings-dir", str(tmp_path / "f")])
    assert code == 0
    rep = json.loads(out.read_text())
    # over the splitting field GF(4), kC3 has three defect-zero blocks
    assert len(rep["blocks"]) == 3
    assert all(b["defect_group"]["order"] == 1 for b in rep["blocks"])
    assert rep["field"] == {"p": 2, "m": 2, "modulus": [1, 1, 1]}
    assert [r["m"] for r in rep["field_retries"]] == [1]
    assert "budget" in rep["field_retries"][0]["reason"] or \
        "field of degree" in rep["field_retries"][0]["reason"]


def _psl27_doc():
    """PSL(2,7) on the projective line {0..6, oo} by x+1, 2x and -1/x."""
    def perm(f):
        return [f(i) + 1 for i in range(8)]
    inverse = {i: pow(i, 5, 7) for i in range(1, 7)}
    return {"label": "PSL(2,7)", "degree": 8, "generators": [
        perm(lambda i: i if i == 7 else (i + 1) % 7),
        perm(lambda i: i if i == 7 else 2 * i % 7),
        perm(lambda i: 0 if i == 7 else 7 if i == 0 else -inverse[i] % 7)]}


def test_restart_walks_the_divisors_up_to_the_exponent_field(tmp_path,
                                                             monkeypatch):
    # At p = 2, GF(2) splits every kC_G(P) of PSL(2,7) (order 168), and
    # the exponent field is GF(2^6) (21 | 2^6 - 1).  When no field splits
    # the run, it tries GF(2), GF(4), GF(8) and GF(64) in turn, then the
    # last error propagates.
    from bflab.blocks import exponent_degree, splitting_field
    from bflab.groups import load_group
    doc = _psl27_doc()
    G = load_group(doc)
    assert G.order == 168
    assert (splitting_field(G, 2).m, exponent_degree(G, 2)) == (1, 6)
    degrees = []

    def never_splits(A, *args):
        degrees.append(A.field.m)
        raise idempotents.NonSplitError(
            f"nothing splits over GF(2^{A.field.m})")

    monkeypatch.setattr(cli, "_analyze_blocks_over", never_splits)
    path = tmp_path / "psl27.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(idempotents.NonSplitError, match=r"GF\(2\^6\)"):
        run(["analyze", "--group", str(path), "--prime", "2",
             "--out", str(tmp_path / "rep.json"),
             "--findings-dir", str(tmp_path / "f")])
    assert degrees == [1, 2, 3, 6]


# sha256 of `check --out - --seed 1` reports, hashed from the session's
# one pass (`seed1_reports`).  A change that alters an answer or the path
# the rng takes fails here; one that does so on purpose updates the pin
# and says why.
GOLDEN_CHECK_SHA256 = {
    ("a4", 2): "10e152edb4c202c885f735be362e32b9"
               "90123217efd131921168ad83ad069fdb",
    ("d8", 2): "c12b626246589f79d116785817ba8fb5"
               "99d3882f3a64c22a710f06ec3978d9c0",
    ("q8", 2): "da4410d070220498331417e75c6b0f31"
               "bef900d86cf7c834a712513e80a70af8",
    ("s3", 3): "8cb4ed6999166b8d687b502c66e0c401"
               "fb321ac3f37ec49ed706e31c4dd93767",
    ("s4", 3): "72c67a8e44203675ae84a9bc4a608882"
               "00e49e2018eae40b0055883ee85fd1b5",
}


@pytest.mark.parametrize("name,prime", sorted(GOLDEN_CHECK_SHA256))
def test_check_report_matches_pinned_hash(name, prime, seed1_reports):
    got = hashlib.sha256(seed1_reports[(name, prime)]).hexdigest()
    assert got == GOLDEN_CHECK_SHA256[(name, prime)]


@pytest.mark.parametrize("name,prime", [("a4", 2), ("s4", 3)])
def test_check_report_under_python_O(name, prime, tmp_path):
    # proved checks raise typed errors, not asserts, so -O runs them too
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bflab.cli", "check", "--group",
         os.path.join(DATA, f"{name}.json"), "--prime", str(prime),
         "--seed", "1", "--out", "-", "--findings-dir", str(tmp_path / "f")],
        env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = hashlib.sha256(proc.stdout).hexdigest()
    assert got == GOLDEN_CHECK_SHA256[(name, prime)]


def test_python_m_bflab_runs_the_cli(seed1_reports, tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "bflab", "check", "--group",
         os.path.join(DATA, "c2.json"), "--prime", "2", "--seed", "1",
         "--out", "-", "--findings-dir", str(tmp_path / "f")],
        env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == seed1_reports[("c2", 2)]


def _a5_doc():
    A5 = group_from_generators(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], "A5")
    assert A5.order == 60
    return {"label": "A5", "degree": 5,
            "generators": [[i + 1 for i in (1, 2, 3, 4, 0)],
                           [i + 1 for i in (1, 2, 0, 3, 4)]]}


# sha256 of `analyze --out - --seed 1` on A5 at p = 3, hashed from the
# session's one pass: three blocks over GF(9), the least field that splits
# kA5 and its Brauer quotients (kG)(P), the algebras kC_G(P).
GOLDEN_A5_ANALYZE_SHA256 = ("d5c5d268fdc2633bbd3cd59299ad822d"
                            "830883d1f918c4df49b10eda260fb9ef")


def test_a5_analyze_report_matches_pinned_hash(seed1_reports):
    got = hashlib.sha256(seed1_reports[("a5", 3)]).hexdigest()
    assert got == GOLDEN_A5_ANALYZE_SHA256


@pytest.mark.parametrize("name", ["a5", "s4"])
def test_one_brauer_pair_engine_per_run(name, tmp_path, monkeypatch, capsys):
    # A5 and S4 at p = 3 have three blocks and Sylow subgroup C3.  The
    # blocks of kG = (kG)(1) and those of (kG)(C3) are found once each
    # for the whole run, not once per block that reaches them.
    if name == "a5":
        path = tmp_path / "a5.json"
        path.write_text(json.dumps(_a5_doc()))
    else:
        path = os.path.join(DATA, "s4.json")
    real = idempotents.block_idempotents
    dims = []

    def counted(A, rng):
        dims.append(A.dim)
        return real(A, rng)
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("bflab") and \
                getattr(mod, "block_idempotents", None) is real:
            monkeypatch.setattr(mod, "block_idempotents", counted)
    code = run(["analyze", "--group", str(path), "--prime", "3",
                "--seed", "1", "--out", "-",
                "--findings-dir", str(tmp_path / "f")])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["blocks"]) == 3
    order = 60 if name == "a5" else 24
    assert dims[0] == order                 # kG itself
    assert len(dims) == 2, dims


def test_one_twisted_unit_search_per_isomorphism(tmp_path, monkeypatch,
                                                  capsys):
    # A4 at p = 2 has one block; fF_D(S) on its Klein four defect group
    # has 13 isomorphisms, each its own D x D-class as D is abelian.  The
    # 5 identities are inner and need no search; the equivalence and the
    # law suite share one search for each of the other 8.
    from bflab import conjecture
    real = conjecture._search_twisted_unit
    searched = []

    def counted(ia, phi, rng):
        searched.append(conjecture._phi_label(phi))
        return real(ia, phi, rng)
    monkeypatch.setattr(conjecture, "_search_twisted_unit", counted)
    code = run(["check", "--group", os.path.join(DATA, "a4.json"),
                "--prime", "2", "--seed", "1", "--out", "-",
                "--findings-dir", str(tmp_path / "f")])
    assert code == 0
    blocks = json.loads(capsys.readouterr().out)["blocks"]
    assert len(blocks) == 1
    assert len(searched) == len(set(searched)) == 8
    assert all(any(x != y for x, y in graph) for _, graph in searched)


def test_block_record_surfaces_only_biset_errors():
    # a BisetError from the shape lands in the record as a string; any
    # other exception is a bug and propagates
    from bflab import report
    from bflab.bisets import BisetError

    C2 = group_from_generators(2, [(1, 0)], "C2")

    class Stub:
        index, b, D, eD_index, ell = 0, [1, 0], C2.full_subgroup(), 0, [1, 0]
        source_candidates, principal = [[1, 0]], True
        ia_B = ia_S = type("IA", (), {"A": type("A", (), {"dim": 2})})

        def __init__(self, exc):
            self.exc = exc

        @property
        def source_shape(self):
            raise self.exc

    rec = report.block_record(Stub(BisetError("marks inversion fails")))
    assert rec["source_shape_error"] == \
        repr(BisetError("marks inversion fails"))
    assert "source_shape" not in rec
    with pytest.raises(KeyError):
        report.block_record(Stub(KeyError("bug")))
