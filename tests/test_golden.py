"""The bit contract as a fixture: every recipe's CSV bodies against
``golden.json``.

Each recipe runs at its ``SMALL_CONFIGS`` entry with seed 3, once as it is
and once in path chunks of 64 on one and on two workers (the two must give
the same bodies).  A body is a CSV without its comment header.  The fixture
holds the sha256 of every body under the numpy version and SIMD dispatch
target that produced it, and the bodies of its reference platform.

- On a platform the fixture names, every digest must match, so a one-ulp
  change in any printed value fails.
- numpy's transcendental ufuncs can differ by an ulp between dispatch
  targets. On any other platform, values are compared with the reference
  bodies at ``RTOL`` relative.

A change that moves bits rewrites the fixture in the same diff, and says
why.  Rewrite it for this platform, then add the digests of another
dispatch target on the same box:

    PYTHONPATH=src python tests/test_golden.py
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \\
        PYTHONPATH=src python tests/test_golden.py --add
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from langsplit import cli, montecarlo

from test_cli import SMALL_CONFIGS

FIXTURE = Path(__file__).with_name("golden.json")

# With numpy's AVX-512 dispatch switched off (numpy 2.4.6), 4 of the 12
# recipes at SMALL_CONFIGS differ from the AVX-512 run, by at most 5.5e-16
# relative (msd: 539 of 3074 values); the other 8 are identical.
RTOL = 1e-15

# Each run of every recipe: (name, PATH_CHUNK, WORKERS), None keeping the
# module's own setting.  Both chunked runs must give the "chunk64" bodies.
RUNS = [("small", None, None), ("chunk64", 64, 1), ("chunk64", 64, 2)]


def platform_key():
    """``numpy <version> <highest SIMD dispatch target this CPU runs>``."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    enabled = [t for t in getattr(umath, "__cpu_dispatch__", ())
               if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__} {enabled[-1] if enabled else 'baseline'}"


def body(path):
    return "".join(line for line in path.read_text().splitlines(True)
                   if not line.startswith("#"))


def run_bodies(tmp_path, names=tuple(SMALL_CONFIGS)):
    """``[(entry, body)]`` of every run of every recipe in ``names``, an
    entry being ``<run>/<recipe>/<csv>``."""
    out = []
    setting = (montecarlo.PATH_CHUNK, montecarlo.WORKERS)
    try:
        for i, (run, chunk, workers) in enumerate(RUNS):
            montecarlo.PATH_CHUNK = chunk or setting[0]
            montecarlo.WORKERS = workers or setting[1]
            for name in names:
                where = tmp_path / f"{i}-{name}"
                where.mkdir(parents=True)
                (where / "run.cfg").write_text(SMALL_CONFIGS[name])
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["--experiment", name, "--config",
                                     str(where / "run.cfg"), "--seed", "3",
                                     "--out", str(where / "out")])
                assert code == 0, (run, name)
                out += [(f"{run}/{name}/{csv.name}", body(csv))
                        for csv in sorted((where / "out").glob("*.csv"))]
    finally:
        montecarlo.PATH_CHUNK, montecarlo.WORKERS = setting
    return out


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _close(text, ref):
    """Whether two bodies agree cell by cell, numbers within ``RTOL``."""
    rows, ref_rows = text.splitlines(), ref.splitlines()
    if len(rows) != len(ref_rows):
        return False
    for row, ref_row in zip(rows, ref_rows):
        cells, ref_cells = row.split(","), ref_row.split(",")
        if len(cells) != len(ref_cells):
            return False
        for a, b in zip(cells, ref_cells):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                return False
            if not abs(x - y) <= RTOL * max(abs(x), abs(y)):
                return False
    return True


def off_reference(bodies, golden):
    """The entries of ``bodies`` not within ``RTOL`` of the reference."""
    ref = golden["digests"][golden["reference"]]
    return sorted({entry for entry, text in bodies if entry not in ref
                   or not _close(text, golden["bodies"][ref[entry]])})


def differences(bodies, golden, key):
    """The entries of ``bodies`` that ``golden`` does not accept: against
    the digests of ``key`` where it names them, else at ``RTOL``."""
    digests = golden["digests"].get(key)
    if digests is None:
        return off_reference(bodies, golden)
    return sorted({entry for entry, text in bodies
                   if digests.get(entry) != digest(text)})


def test_bodies_match_the_fixture(tmp_path):
    golden = json.loads(FIXTURE.read_text())
    bodies = run_bodies(tmp_path)
    assert {entry for entry, _ in bodies} == set(golden["digests"][
        golden["reference"]]), "the runs or their tables changed"
    assert differences(bodies, golden, platform_key()) == []
    assert off_reference(bodies, golden) == []


def test_one_ulp_in_one_recipe_fails(tmp_path, monkeypatch):
    golden = json.loads(FIXTURE.read_text())
    if platform_key() not in golden["digests"]:
        pytest.skip(f"{platform_key()} has no digests: values are compared "
                    f"at {RTOL:g}, wider than one ulp")
    run = cli.RECIPES["simulate"]

    def planted(cfg):
        tables, metrics, checks = run(cfg)
        columns, rows = tables["trajectory.csv"]
        rows = list(rows)
        t, p, q = rows[-1]
        rows[-1] = (t, np.nextafter(p, np.inf), q)
        return {"trajectory.csv": (columns, rows)}, metrics, checks

    monkeypatch.setitem(cli.RECIPES, "simulate", planted)
    bodies = run_bodies(tmp_path, names=("simulate",))
    assert differences(bodies, golden, platform_key()) == [
        "chunk64/simulate/trajectory.csv", "small/simulate/trajectory.csv"]


def write_fixture(tmp_path, add):
    """Record this platform's digests; without ``add`` it becomes the
    reference and the fixture holds nothing else."""
    bodies = run_bodies(tmp_path)
    key = platform_key()
    if add:
        golden = json.loads(FIXTURE.read_text())
        bad = off_reference(bodies, golden)
        if bad:
            sys.exit(f"not within {RTOL:g} of the reference: {bad}")
    else:
        golden = {"reference": key, "digests": {},
                  "bodies": {digest(text): text for _, text in bodies}}
    digests = golden["digests"][key] = {}
    for entry, text in bodies:
        if digests.setdefault(entry, digest(text)) != digest(text):
            sys.exit(f"{entry}: the runs on one and two workers differ")
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_fixture(Path(tmp), add="--add" in sys.argv[1:])
