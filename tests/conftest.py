import os

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so Tier-1 results
# and timings repeat; no per-example deadline on a shared host.
settings.register_profile("bflab", derandomize=True, deadline=None)
settings.load_profile("bflab")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "src", "bflab", "data")
A5_PATH = os.path.join(ROOT, "perfbench", "groups", "a5.json")


@pytest.fixture(scope="session")
def seed1_reports(tmp_path_factory):
    """The bytes of `check --seed 1` on every catalog (group, prime) and
    of `analyze --seed 1` on A5 at p = 3, keyed by (file stem, prime):
    one pass per session, shared by the pin and invariant tests."""
    from bflab.cli import _dividing_primes, main
    from bflab.groups import load_group

    paths = [os.path.join(DATA, fn) for fn in sorted(os.listdir(DATA))
             if fn.endswith(".json")]
    runs = [("check", path, p) for path in paths
            for p in _dividing_primes(load_group(path).order)]
    runs.append(("analyze", A5_PATH, 3))
    tmp = tmp_path_factory.mktemp("seed1")
    reports = {}
    for command, path, p in runs:
        name = os.path.basename(path)[:-5]
        out = tmp / f"{name}-{p}.json"
        code = main([command, "--group", path, "--prime", str(p),
                     "--seed", "1", "--out", str(out),
                     "--findings-dir", str(tmp / "findings")])
        assert code == 0, (command, name, p)
        reports[(name, p)] = out.read_bytes()
    return reports
