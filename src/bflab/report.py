"""Report assembly and serialization.

Reports are plain JSON documents under the pinned schema tag
"bflab-report/1", fully determined by (inputs, seed, config): no wall
clock, no environment.  Per-run timings are therefore logged to stderr
by the CLI instead of entering the document.  Findings (a proved
statement failing on a concrete instance, or the three Theorem-1.6
conditions disagreeing) are written as standalone JSON artifacts with
exact witness vectors.
"""

import json
import sys

import numpy as np

from .bisets import BisetError

SCHEMA = "bflab-report/1"


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [int(v) for v in obj.reshape(-1)]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, frozenset):
        return sorted(_plain(v) for v in obj)
    return obj


def subgroup_descriptor(P):
    return {"order": P.order,
            "elements": [list(g) for g in P.elements]}


def block_record(data, extra=None):
    rec = {
        "block_index": data.index,
        "block_idempotent": _plain(data.b),
        "block_dim": int(data.ia_B.A.dim),
        "defect_group": subgroup_descriptor(data.D),
        "maximal_pair_block_index": int(data.eD_index),
        "source_idempotent": _plain(data.ell),
        "source_candidates": len(data.source_candidates),
        "source_dim": int(data.ia_S.A.dim),
        "principal": bool(data.principal),
    }
    try:
        rec["source_shape"] = data.source_shape.describe()
    except BisetError as exc:           # surfaced, never silently dropped
        rec["source_shape_error"] = repr(exc)
    if extra:
        rec.update(extra)
    return _plain(rec)


def make_report(group_doc, prime, seed, config, block_records, findings):
    return _plain({
        "schema": SCHEMA,
        "group": group_doc,
        "prime": prime,
        "seed": seed,
        "config": config,
        "blocks": block_records,
        "findings": findings,
        "ok": not findings,
    })


def dump_report(report, path=None):
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def finding_document(group_doc, prime, block_index, condition, payload,
                     choices=None):
    return _plain({
        "schema": SCHEMA + "/finding",
        "group": group_doc,
        "prime": prime,
        "block_index": block_index,
        "condition": condition,
        "witnesses": payload,
        "choices": choices or {},
    })
