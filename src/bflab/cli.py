"""Command-line front end.

    bflab analyze --group FILE --prime P [--out FILE] [--seed N] ...
    bflab check   --group FILE --prime P [--out FILE] ...
    bflab catalog --dir DIR [--out FILE] ...

`analyze` runs the block pipeline (blocks, defect groups, maximal pairs,
source algebras, shapes, fusion systems).  `check` adds the deep
checkers: the unital-basis/twisted-unit/balance equivalences, the
characteristic-biset verdict of the source shape, and the twisted-unit
law suite.  `catalog` maps
`check` over a directory of group files at every dividing prime, with a
content-hash cache: a report is stored under a key of the group file, the
prime, the seed, the options, the package version and a digest of the
package's sources, so a changed kernel never serves an old report, and
it is written through a temporary file, so a failed write leaves none.

Exit codes: 0 success, 2 input error, 3 order cap exceeded, 4 a finding
was emitted (a proved statement failed or the equivalences disagreed).
The input (the group file, the group it loads and the prime) is checked
before the pipeline runs, and only its failures are input errors; an
error raised inside the pipeline is a fault of the program and
propagates with its traceback.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, report as report_mod
from .algebra import group_algebra
from .blocks import (analyze_block, build_group_algebra, exponent_degree,
                     proved_conditions_report, source_fusion_identity_report)
from .conjecture import (ExtensionNeeded, Finding, equivalence_report,
                         twisted_unit_laws_report)
from .fusion import BrauerPairs
# `_dividing_primes` is the name perfbench/workloads.py imports
from .gf import _prime_factors as _dividing_primes, field, is_prime
from .groups import OrderCapExceeded, load_group
from .idempotents import NonSplitError

DEFAULT_SEED = 0xB10CF


def _log(msg):
    print(msg, file=sys.stderr)


def _group_doc(path):
    with open(path) as fh:
        return json.load(fh)


def _analyze_blocks(doc, G, prime, seed, deep, thorough=False,
                    exhaustive=False):
    """Returns (block_records, findings, field, field_retries) of the
    group G loaded from doc.

    The analysis starts over `splitting_field`, GF(p^m).  When a corner
    fails to split, or a unital basis's orbit replacement finds no lambda
    (`ExtensionNeeded`, not certified), it restarts over GF(p^d) for the
    next d with m | d | M, ascending, M = `exponent_degree`, as GF(p^M)
    splits every algebra of the pipeline: every verdict is over one field.
    Each abandoned field is recorded as {"m", "reason"}.
    """
    A = build_group_algebra(G, prime)
    m, top = A.field.m, exponent_degree(G, prime)
    larger = (d for d in range(m + 1, top + 1)
              if top % d == 0 and d % m == 0)
    retries = []
    while True:
        try:
            records, findings = _analyze_blocks_over(
                A, doc, seed, deep, thorough, exhaustive)
            return records, findings, A.field, retries
        except (NonSplitError, ExtensionNeeded) as exc:
            degree = next(larger, None)
            if degree is None:
                raise
            retries.append({"m": A.field.m, "reason": str(exc)})
            _log(f"  field {A.field} too small ({exc}); retrying over "
                 f"GF({prime}^{degree})")
            A = group_algebra_over(G, prime, degree)


def group_algebra_over(G, prime, degree):
    """kG over GF(prime^degree), built only when the analysis restarts
    (perfbench counts its calls as field retries)."""
    return group_algebra(G, field(prime, degree))


def _analyze_blocks_over(A, doc, seed, deep, thorough, exhaustive):
    rng = np.random.default_rng(seed)
    records = []
    findings = []

    def finding(condition, payload):
        findings.append(report_mod.finding_document(
            doc, A.field, index, condition, payload, choices=choices))

    pairs = BrauerPairs(A, rng)
    for index, b in enumerate(pairs.blocks):
        t0 = time.time()
        data = analyze_block(pairs, b, index, rng)
        choices = {
            "defect_group": [list(g) for g in data.D.elements],
            "maximal_pair_block_index": int(data.eD_index),
            "source_idempotent": [int(c) for c in data.ell],
        }
        extra = {}
        extra["source_fusion_identity"] = source_fusion_identity_report(data)
        if deep:
            proved = proved_conditions_report(data)
            extra["characteristic"] = {
                k: proved[k] for k in
                ("bifree", "symmetric", "f_generated", "f_stable", "sylow",
                 "rank_formula", "top_orbits_multiplicity_one", "size", "all")}
            for cond in ("bifree", "symmetric", "f_generated", "sylow",
                         "rank_formula", "top_orbits_multiplicity_one"):
                if not proved[cond]:
                    finding(f"proved_condition_{cond}", {"report": proved})
            if not proved["f_stable"]:
                finding("stability_of_source_shape",
                        proved.get("f_stable_witness", {}))
            for cond, val in extra["source_fusion_identity"].items():
                if not val:
                    finding(f"source_fusion_identity_{cond}", {})
            try:
                eq = equivalence_report(data, rng, thorough=thorough,
                                        exhaustive=exhaustive)
                extra["equivalence"] = eq
            except Finding as f:
                finding(f.condition, f.payload)
                extra["equivalence"] = {"finding": f.condition}
            extra["twisted_unit_laws"] = twisted_unit_laws_report(
                data.ia_S, data.source_presystem, rng)
            for law, val in extra["twisted_unit_laws"].items():
                if not val:
                    finding(f"twisted_unit_law_{law}", {})
            fdb = data.block_fusion_system
            ffs = data.source_presystem
            extra["fusion_summary"] = {
                "F_D(b)": fdb.summary(), "fF_D(S)": ffs.summary()}
            extra["fusion_detail"] = {
                "F_D(b)": fdb.serialize(), "fF_D(S)": ffs.serialize()}
        records.append(report_mod.block_record(data, extra))
        _log(f"  block {index}: |D|={data.D.order} dim S={data.ia_S.A.dim} "
             f"({time.time() - t0:.2f}s)")
    return records, findings


def _run_one(doc, G, prime, args, deep):
    seed = args.seed
    config = {"order_cap": args.order_cap, "exhaustive": args.exhaustive,
              "thorough": args.thorough, "mode": "check" if deep
              else "analyze"}
    records, findings, k, retries = _analyze_blocks(
        doc, G, prime, seed, deep,
        thorough=args.thorough, exhaustive=args.exhaustive)
    rep = report_mod.make_report(doc, k, seed, config, records, findings,
                                 retries)
    return rep, findings


def _write_findings(findings, out_dir):
    paths = []
    os.makedirs(out_dir, exist_ok=True)
    for i, f in enumerate(findings):
        path = os.path.join(out_dir, f"finding-{i}-{f['condition']}.json")
        with open(path, "w") as fh:
            json.dump(f, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def cmd_analyze(args, deep=False):
    try:
        doc = _group_doc(args.group)
        G = load_group(doc, order_cap=args.order_cap)
        if not is_prime(args.prime):
            raise ValueError(f"{args.prime} is not prime")
    except OrderCapExceeded as exc:
        _log(f"order cap: {exc}")
        return 3
    except (OSError, ValueError, KeyError) as exc:
        _log(f"input error: {exc}")
        return 2
    rep, findings = _run_one(doc, G, args.prime, args, deep)
    report_mod.dump_report(rep, args.out)
    if findings:
        paths = _write_findings(findings, args.findings_dir)
        _log(f"FINDINGS written: {paths}")
        return 4
    return 0


def cmd_check(args):
    return cmd_analyze(args, deep=True)


@functools.cache
def _source_digest():
    """sha256 of the package's *.py sources, read once per process."""
    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _cache_key(doc, prime, seed, config):
    blob = json.dumps([doc, prime, seed, config, __version__,
                       _source_digest()], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _write_json_atomic(path, obj):
    """Write obj to path through a temporary file in the same directory."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cmd_catalog(args):
    if not os.path.isdir(args.dir):
        _log(f"input error: {args.dir} is not a directory")
        return 2
    rows = []
    worst = 0
    cache_dir = args.cache_dir
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
    entries = sorted(os.listdir(args.dir))
    for name in entries:
        if not name.endswith(".json"):
            continue
        path = os.path.join(args.dir, name)
        try:
            doc = _group_doc(path)
            G = load_group(doc, order_cap=args.order_cap)
        except OrderCapExceeded:
            rows.append({"file": name, "status": "order-cap"})
            worst = max(worst, 3)
            continue
        except (OSError, ValueError, KeyError) as exc:
            rows.append({"file": name, "status": "input-error",
                         "detail": str(exc)})
            worst = max(worst, 2)
            continue
        for prime in _dividing_primes(G.order):
            config = {"order_cap": args.order_cap,
                      "exhaustive": args.exhaustive,
                      "thorough": args.thorough, "mode": "check"}
            key = _cache_key(doc, prime, args.seed, config)
            cached = os.path.join(cache_dir, key + ".json") if cache_dir \
                else None
            t0 = time.time()
            if cached and os.path.exists(cached) and not args.no_cache:
                with open(cached) as fh:
                    rep = json.load(fh)
                findings = rep["findings"]
                status = "ok(cached)" if not findings else "FINDING(cached)"
            else:
                rep, findings = _run_one(doc, G, prime, args, deep=True)
                if cached:
                    _write_json_atomic(cached, rep)
                status = "ok" if not findings else "FINDING"
            if findings:
                _write_findings(findings, args.findings_dir)
                worst = max(worst, 4)
            rows.append({
                "file": name, "label": doc.get("label"), "prime": prime,
                "status": status,
                "blocks": len(rep["blocks"]),
                "defects": [b["defect_group"]["order"]
                            for b in rep["blocks"]],
                "seconds": round(time.time() - t0, 2)})
            _log(f"{name} p={prime}: {status} "
                 f"({rows[-1]['seconds']}s)")
    table = {"schema": report_mod.SCHEMA + "/catalog", "rows":
             [{k: v for k, v in r.items() if k != "seconds"} for r in rows]}
    report_mod.dump_report(table, args.out)
    return worst


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bflab",
        description="Block-theory invariants over finite fields: blocks, "
                    "defect groups, source algebras, biset shapes, fusion "
                    "systems, and the unital-basis/twisted-unit/balance "
                    "equivalences.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--order-cap", type=int, default=500)
        p.add_argument("--exhaustive", action="store_true",
                       help="enumerate small search spaces exhaustively")
        p.add_argument("--thorough", action="store_true",
                       help="check every source-idempotent candidate")
        p.add_argument("--findings-dir", default="findings")

    pa = sub.add_parser("analyze", help="block pipeline and shapes")
    pa.add_argument("--group", required=True)
    pa.add_argument("--prime", type=int, required=True)
    common(pa)
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("check", help="analyze + equivalence and law checkers")
    pc.add_argument("--group", required=True)
    pc.add_argument("--prime", type=int, required=True)
    common(pc)
    pc.set_defaults(func=cmd_check)

    pk = sub.add_parser("catalog", help="run check over a directory")
    pk.add_argument("--dir", required=True)
    pk.add_argument("--cache-dir", default=".bflab-cache")
    pk.add_argument("--no-cache", action="store_true")
    common(pk)
    pk.set_defaults(func=cmd_catalog)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
