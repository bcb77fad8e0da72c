"""Workloads: the (group, prime) pipelines each one runs, and their set-up.

- `catalog`: `check` on every group file of `src/bflab/data`, at every
  dividing prime, in sorted file order.
- `a5-analyze`: `analyze` on A5 at p = 3.

There is no workload of `check` on D16 at p = 2, where group
combinatorics dominates: on a shared 2-core host its 20 s passes spread
past the 0.25 bound from run to run.  Group combinatorics, fusion and
shapes are traced on the 2-groups of `catalog` instead.
"""

import json
import os
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CATALOG_DIR = os.path.join(SRC, "bflab", "data")
GROUPS_DIR = os.path.join(HERE, "groups")

# name -> (command, [(group file, expected order or None, primes or None)])
# A prime list of None means every prime dividing the group order.
WORKLOADS = {
    "catalog": ("check", None),
    "a5-analyze": ("analyze", [("a5.json", 60, [3])]),
}


class SetupError(ValueError):
    """A workload's input files are missing or not what they should be."""


@dataclass(frozen=True)
class Pipeline:
    command: str            # "check" or "analyze"
    path: str               # group file
    label: str
    order: int
    prime: int

    @property
    def id(self):
        return f"{self.command}:{self.label}:p{self.prime}"

    def argv(self, seed, findings_dir):
        return [self.command, "--group", self.path, "--prime",
                str(self.prime), "--seed", str(seed), "--out", "-",
                "--findings-dir", findings_dir]


def bootstrap():
    """Import bflab from this checkout's `src`, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import bflab.cli
    except ImportError as exc:
        raise SetupError(f"cannot import bflab from {SRC}: {exc}") from exc
    if not os.path.abspath(bflab.cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"bflab was imported from {bflab.cli.__file__}, "
                         f"not from {SRC}")


def setup(name):
    """Import bflab, read and load the workload's group files, and return
    its pipelines."""
    bootstrap()
    from bflab.cli import _dividing_primes
    from bflab.groups import load_group

    command, entries = WORKLOADS[name]
    if entries is None:
        entries = [(os.path.join(CATALOG_DIR, fn), None, None)
                   for fn in sorted(os.listdir(CATALOG_DIR))
                   if fn.endswith(".json")]
        if not entries:
            raise SetupError(f"no group files in {CATALOG_DIR}")
    pipelines = []
    for fn, expected_order, primes in entries:
        path = os.path.join(GROUPS_DIR, fn)
        with open(path) as fh:
            doc = json.load(fh)
        order = load_group(doc).order
        if expected_order is not None and order != expected_order:
            raise SetupError(f"{fn}: order {order}, expected {expected_order}")
        for prime in primes or _dividing_primes(order):
            pipelines.append(Pipeline(command, path, doc["label"], order,
                                      prime))
    return pipelines
