"""Output checks: seed-independent invariants and independent oracles.

`expected.json` pins, for every (group, prime, command), the invariants
that do not depend on the run seed: per block the defect order, block
and source dimensions and every boolean verdict of the report.  The
oracles below come from representation theory, not from bflab.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Defect orders from character theory (sorted), by (label, prime).
DEFECT_ORACLE = {("A5", 3): [1, 1, 3]}


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def key(report):
    return (f"{report['group']['label']}/p{report['prime']}/"
            f"{report['config']['mode']}")


def _verdicts(record, prefix=""):
    out = {}
    for k, v in record.items():
        if isinstance(v, bool):
            out[prefix + k] = v
        elif isinstance(v, dict):
            out.update(_verdicts(v, prefix + k + "."))
    return out


def extract(report):
    """The seed-independent invariants of one report."""
    blocks = [{"defect_order": b["defect_group"]["order"],
               "block_dim": b["block_dim"],
               "source_dim": b["source_dim"],
               "verdicts": _verdicts(b)} for b in report["blocks"]]
    blocks.sort(key=lambda b: json.dumps(b, sort_keys=True))
    return {"ok": report["ok"], "findings": len(report["findings"]),
            "blocks": blocks}


def check(report, expected, order):
    """Problems found in `report` of a group of the given order."""
    problems = []
    want = expected.get(key(report))
    got = extract(report)
    if want is None:
        problems.append(f"{key(report)}: no expected invariants")
    elif got != want:
        problems.append(f"{key(report)}: invariants differ from expected")
    blocks = report["blocks"]
    if sum(b["block_dim"] for b in blocks) != order:
        problems.append(f"{key(report)}: block dims do not add up to |G|")
    label, prime = report["group"]["label"], report["prime"]
    defects = sorted(b["defect_group"]["order"] for b in blocks)
    oracle = DEFECT_ORACLE.get((label, prime))
    if oracle is not None and defects != oracle:
        problems.append(f"{key(report)}: defect orders {defects}, "
                        f"character theory gives {oracle}")
    # When the Sylow p-subgroup P is normal and C_G(P) <= P, kG has
    # exactly one block, and its defect group is P.
    sylow = self_centralizing_sylow(report["group"], prime)
    if sylow is not None and (len(blocks) != 1 or {tuple(g) for g in blocks[
            0]["defect_group"]["elements"]} != sylow):
        problems.append(f"{key(report)}: expected one block with the "
                        "Sylow subgroup as defect group")
    return problems


# -- a small permutation-group oracle, independent of bflab.groups --------

def _compose(a, b):
    return tuple(a[i] for i in b)


def _elements(doc):
    gens = [tuple(x - 1 for x in g) for g in doc["generators"]]
    identity = tuple(range(doc["degree"]))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _compose(g, x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def _order(x):
    identity = tuple(range(len(x)))
    n, y = 1, x
    while y != identity:
        y = _compose(x, y)
        n += 1
    return n


def _is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def self_centralizing_sylow(doc, p):
    """The Sylow p-subgroup as a set of 0-based permutations, when it is
    normal and contains its centralizer; otherwise None."""
    G = _elements(doc)
    sylow = {x for x in G if _is_power_of(_order(x), p)}
    n, p_part = len(G), 1
    while n % p == 0:
        n //= p
        p_part *= p
    if len(sylow) != p_part:
        return None          # the p-elements do not form one subgroup
    centralizer = {g for g in G
                   if all(_compose(g, x) == _compose(x, g) for x in sylow)}
    return sylow if centralizer <= sylow else None
