"""Report assembly and serialization.

Reports are plain JSON documents under the pinned schema tag
"bflab-report/1", fully determined by (inputs, seed, config): no wall
clock, no environment.  Per-run timings are therefore logged to stderr
by the CLI instead of entering the document.  Findings (a proved
statement failing on a concrete instance, or the three Theorem-1.6
conditions disagreeing) are written as standalone JSON artifacts with
exact witness vectors.
"""

import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .bisets import BisetError

SCHEMA = "bflab-report/1"


_ATOMS = frozenset({int, str, bool, type(None)})


def _plain(obj):
    if type(obj) in _ATOMS:
        return obj
    if isinstance(obj, dict):
        return {str(k): v if type(v) in _ATOMS else _plain(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _ATOMS else _plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return np.asarray(obj, dtype=np.int64).reshape(-1).tolist()
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


def field_descriptor(k):
    """The field a report's coefficient codes live in: GF(p^m) modulo the
    monic irreducible `modulus`, its coefficients from x^0 up."""
    return {"p": k.p, "m": k.m, "modulus": list(k.modulus)}


def make_report(group_doc, k, seed, config, block_records, findings,
                field_retries):
    """The report of a run over the field k; `field_retries` holds one
    {"m", "reason"} record per field abandoned before k."""
    return _plain({
        "schema": SCHEMA,
        "group": group_doc,
        "prime": k.p,
        "field": field_descriptor(k),
        "field_retries": field_retries,
        "seed": seed,
        "config": config,
        "blocks": block_records,
        "findings": findings,
        "ok": not findings,
    })


def _encode(obj, pad=""):
    """The text `json.dumps(obj, indent=1, sort_keys=True)` writes for a
    document of dicts with string keys, lists, ints, bools, strings and
    None, at nesting pad; a list of ints is one join."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if t is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = pad + " "
    sep = ",\n" + inner
    if t is dict:
        if not obj:
            return "{}"
        body = sep.join([encode_basestring_ascii(k) + ": " + _encode(v, inner)
                         for k, v in sorted(obj.items())])
        return "{\n" + inner + body + "\n" + pad + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        if all(type(v) is int for v in obj):
            body = sep.join(map(int.__repr__, obj))
        else:
            body = sep.join([_encode(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + pad + "]"
    raise TypeError(f"cannot write {t.__name__} into a report")


def dump_report(report, path=None):
    """Write the report as `json.dumps(report, indent=1, sort_keys=True)`
    would, plus a newline, by `_encode` (CPython's encoder falls back to
    pure Python when it indents)."""
    text = _encode(report) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def finding_document(group_doc, k, block_index, condition, payload,
                     choices=None):
    return _plain({
        "schema": SCHEMA + "/finding",
        "group": group_doc,
        "prime": k.p,
        "field": field_descriptor(k),
        "block_index": block_index,
        "condition": condition,
        "witnesses": payload,
        "choices": choices or {},
    })
