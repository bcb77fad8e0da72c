"""Seed-independent answers of the session's reports (`seed1_reports`),
against the invariants `perfbench/expected.json` pins and against
representation theory: the class number, which no Brauer pair enters,
and defect orders from character theory."""

import importlib.util
import json
import os

import numpy as np
from hypothesis import given, strategies as st

from bflab import linalg, report
from bflab.algebra import class_sum_rows
from bflab.blocks import build_group_algebra
from bflab.fusion import BrauerPairs, defect_groups
from bflab.groups import group_from_generators, load_group

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_invariants", os.path.join(ROOT, "perfbench", "invariants.py"))
invariants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(invariants)


def _reports(seed1_reports):
    return [json.loads(text) for text in seed1_reports.values()]


def test_reports_keep_the_expected_invariants(seed1_reports):
    expected = invariants.load_expected()
    reports = _reports(seed1_reports)
    assert sorted(invariants.key(r) for r in reports) == sorted(expected)
    for rep in reports:
        order = load_group(rep["group"]).order
        assert invariants.check(rep, expected, order) == []


def test_reports_are_the_bytes_json_dumps_writes(seed1_reports):
    # `dump_report` writes every catalog report and the A5 report as the
    # standard library's indented, key-sorted encoder does
    for text in seed1_reports.values():
        doc = json.loads(text)
        assert text.decode() == json.dumps(doc, indent=1,
                                           sort_keys=True) + "\n"
        assert report.dump_report(doc, os.devnull) == text.decode()


# documents of every type a report holds; lists of ints take their own
# path in the writer
DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6) |
    st.lists(st.integers(), max_size=4),
    lambda inner: st.lists(inner, max_size=4) |
    st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=20)


@given(DOCUMENTS)
def test_encode_matches_json_dumps(doc):
    assert report._encode(doc) == json.dumps(doc, indent=1, sort_keys=True)


def test_block_centres_add_up_to_the_class_number(seed1_reports):
    # Z(kG) is the direct sum of the Z(kG.b) = Z(kG).b, so their dims
    # add up to the number of conjugacy classes of G
    for rep in _reports(seed1_reports):
        G = load_group(rep["group"])
        A = build_group_algebra(G, rep["prime"])
        centre = class_sum_rows(A)
        dims = 0
        for blk in rep["blocks"]:
            b = np.array(blk["block_idempotent"], dtype=np.int64)
            dims += linalg.rank(A.field, np.array([A.mul(z, b)
                                                   for z in centre]))
        assert dims == len(centre), invariants.key(rep)


def test_a5_defect_orders_at_5_from_character_theory():
    # the principal 5-block of A5 holds the characters of degree 1, 3, 3
    # and 4; the one of degree 5 is a block of defect zero
    A5 = group_from_generators(5, [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], "A5")
    engine = BrauerPairs(build_group_algebra(A5, 5),
                         np.random.default_rng(1))
    assert sorted(defect_groups(engine, b)[0].order
                  for b in engine.blocks) == [1, 5]
