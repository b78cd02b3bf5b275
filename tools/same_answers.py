#!/usr/bin/env python3
"""Check that the working tree gives the same CLI answers as a parent revision.

Usage (from anywhere inside the repository):

    python3 tools/same_answers.py PARENT_REV

Exports PARENT_REV with ``git archive`` into a temporary directory, then
runs, in that tree and in this one, on 48 surface descriptions (the four
gallery surfaces as shipped, seeds 0-5 of each of the seven
``bench/specgen.py`` kinds, and two with transcendental data,
``TRANSCENDENTAL``, whose constant subtrees such as ``sin(2)`` stay floats
inside an array evaluation):

* ``verify --seed 0``: stdout;
* ``singular --grid 512``: the CSV and stdout;
* ``sample --fields`` at 32x32, 64x64, 24x20 and 2x2: the OBJ and the CSV
  (at 32x32, 64x64 and 2x2 every grid point lies on a node of the position
  integrals' ladder; at 24x20 most do not, so the tail integrals are
  compared too), and ``sample`` without ``--fields`` at 64x64: the OBJ
  alone, whose coordinates are formatted with no CSV to share them;
* ``gallery --name N`` for each bundled name N: stdout and the files it
  writes (the description, the 64x64 OBJ and the grid-256 singular CSV);
* then ``classify --u=U --v=V``: stdout, at the first, middle and last
  points of PARENT_REV's ``singular`` CSV of each surface that has one
  (``%.17g`` round-trips, so both trees classify the same points);
* then ``curvature --method M --u=U --v=V`` for M in closed, extrinsic and
  intrinsic: stdout, stderr and exit code, at the domain centre, at the
  point a quarter of the way along both axes, and at the first point of
  PARENT_REV's ``singular`` CSV where it has one (there every route exits
  on ``SingularPoint``);
* and on four descriptions that fail (``FAILING``): ``sample --fields``
  at 4x4 and ``sample`` at 24x20, ``verify --seed 0``, ``singular --grid
  32`` and ``curvature`` by the closed and intrinsic routes at the domain
  centre, where the error each command names is the answer compared.

Each tree's commands run in one interpreter per round, through
``minface.cli.main``, with stdout, stderr and the exit code recorded per
command (``<stem>.log``; every ``sample`` run has one too). Prints every file that differs and exits 1 if any does, 0 if none
does.
"""

from __future__ import annotations

import filecmp
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import specgen  # noqa: E402

SEEDS = range(6)

_SQUARE = {"u": [-1.0, 1.0], "v": [-1.0, 1.0]}
TRANSCENDENTAL = {
    "transc-a": {"mode": "weierstrass", "g1": "exp(0.5*u)-sin(2)",
                 "g2": "2*atan(v)+cosh(1)", "w1": "cosh(u)",
                 "w2": "sqrt(v+2)", "domain": _SQUARE},
    "transc-b": {"mode": "weierstrass", "g1": "log(u+2)*u",
                 "g2": "tan(0.5*v)+1", "w1": "1+0.5*sin(3*u)",
                 "w2": "-exp(-v)", "domain": _SQUARE},
}
# Descriptions the commands below fail on, at loading or on evaluation.
# The first is the pinned case: point by point the positions meet w1's
# division at u = 0 before g1's at u = 0.5. The log and sqrt cases load,
# because the 64-point validation grid skips u = 0, and fail where a command
# evaluates u = 0, naming the offending element (``verify`` and
# ``singular`` never evaluate w1 there, so fail-sqrt passes those two).
FAILING = {
    "fail-pole": {"mode": "weierstrass", "g1": "1/(u-0.5)", "g2": "v",
                  "w1": "2+0*(1/u)", "w2": "1", "domain": _SQUARE},
    "fail-log": {"mode": "weierstrass", "g1": "1+log(u^2)/9", "g2": "v",
                 "w1": "1", "w2": "1", "domain": _SQUARE},
    "fail-sqrt": {"mode": "weierstrass", "g1": "u", "g2": "v",
                  "w1": "1+sqrt(u^2)", "w2": "1", "domain": _SQUARE},
    "fail-non-null": {"mode": "curves", "phi": ["u", "2*u", "0"],
                      "psi": ["v", "v", "0"], "domain": _SQUARE},
}

# Runs every command of a job list in one interpreter: argv[1] is the src
# directory, argv[2] the job list (JSON); outputs go to the working
# directory, named by each job's stem.
_WORKER = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from minface import cli
for stem, argv in json.load(open(sys.argv[2])):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    with open(stem + ".log", "w") as fh:
        fh.write(f"exit {code}\n{out.getvalue()}--- stderr\n{err.getvalue()}")
"""


def specs():
    """(name, description) of every surface compared."""
    out = [(f"{kind}-shipped", specgen.gallery_spec(kind).doc)
           for kind in specgen.GALLERY]
    out += [(f"{kind}-{seed}", specgen.make_spec(kind, seed, 0, 0).doc)
            for kind in specgen.KINDS for seed in SEEDS]
    return out + list(TRANSCENDENTAL.items())


def jobs(spec_dir: Path):
    """(output stem, CLI argv) of every command, on specs in spec_dir."""
    out = []
    for name, _ in specs():
        spec = str(spec_dir / f"{name}.json")
        out += [
            (f"{name}.verify", ["verify", "--spec", spec, "--seed", "0"]),
            (f"{name}.singular", ["singular", "--spec", spec, "--grid", "512",
                                  "--out", f"{name}.singular.csv"]),
        ]
        out += [(f"{name}.sample{nu}x{nv}",
                 ["sample", "--spec", spec, "--nu", str(nu), "--nv", str(nv),
                  "--out", f"{name}.{nu}x{nv}.obj",
                  "--fields", f"{name}.{nu}x{nv}.csv"])
                for nu, nv in ((32, 32), (64, 64), (24, 20), (2, 2))]
        out.append((f"{name}.sample64x64-obj",
                    ["sample", "--spec", spec, "--nu", "64", "--nv", "64",
                     "--out", f"{name}.64x64-obj.obj"]))
    out += [(f"gallery-{name}", ["gallery", "--name", name, "--out", "."])
            for name in specgen.GALLERY]
    return out


def failing_jobs(spec_dir: Path):
    """(output stem, CLI argv) of the runs on the FAILING descriptions."""
    out = []
    for name in FAILING:
        spec = str(spec_dir / f"{name}.json")
        out += [
            (f"{name}.sample4x4",
             ["sample", "--spec", spec, "--nu", "4", "--nv", "4",
              "--out", f"{name}.4x4.obj", "--fields", f"{name}.4x4.csv"]),
            (f"{name}.sample24x20",
             ["sample", "--spec", spec, "--nu", "24", "--nv", "20",
              "--out", f"{name}.24x20.obj"]),
            (f"{name}.verify", ["verify", "--spec", spec, "--seed", "0"]),
            (f"{name}.singular", ["singular", "--spec", spec, "--grid", "32",
                                  "--out", f"{name}.singular.csv"]),
        ]
        out += [(f"{name}.curvature.{method}",
                 ["curvature", "--spec", spec, "--method", method,
                  "--u=0.0", "--v=0.0"]) for method in ("closed", "intrinsic")]
    return out


def classify_jobs(spec_dir: Path, csv_dir: Path):
    """(output stem, CLI argv) of the classify runs: the first, middle and
    last points of each singular CSV in csv_dir."""
    out = []
    for name, _ in specs():
        path = csv_dir / f"{name}.singular.csv"
        rows = path.read_text().splitlines()[1:] if path.exists() else []
        for k in sorted({0, len(rows) // 2, len(rows) - 1} if rows else ()):
            u, v = rows[k].split(",")[:2]
            out.append((f"{name}.classify{k}",
                        ["classify", "--spec", str(spec_dir / f"{name}.json"),
                         f"--u={u}", f"--v={v}"]))
    return out


def curvature_jobs(spec_dir: Path, csv_dir: Path):
    """(output stem, CLI argv) of the curvature runs: every method at the
    domain centre, the quarter point and the first singular CSV point."""
    out = []
    for name, doc in specs():
        (u0, u1), (v0, v1) = doc["domain"]["u"], doc["domain"]["v"]
        points = [(repr(0.5 * (u0 + u1)), repr(0.5 * (v0 + v1))),
                  (repr(u0 + 0.25 * (u1 - u0)), repr(v0 + 0.25 * (v1 - v0)))]
        path = csv_dir / f"{name}.singular.csv"
        rows = path.read_text().splitlines()[1:] if path.exists() else []
        points += [tuple(rows[0].split(",")[:2])] if rows else []
        for k, (u, v) in enumerate(points):
            for method in ("closed", "extrinsic", "intrinsic"):
                out.append((f"{name}.curvature{k}.{method}",
                            ["curvature", "--spec",
                             str(spec_dir / f"{name}.json"),
                             "--method", method, f"--u={u}", f"--v={v}"]))
    return out


def run_round(tmp: Path, label: str, job_list) -> None:
    """Runs job_list in both trees at once, into tmp/out-<tree>."""
    (tmp / f"{label}.json").write_text(json.dumps(job_list))
    runs = []
    for tree, src in (("parent", tmp / "parent" / "src"),
                      ("tree", ROOT / "src")):
        out = tmp / f"out-{tree}"
        out.mkdir(exist_ok=True)
        runs.append(subprocess.Popen(
            [sys.executable, "-c", _WORKER, str(src),
             str(tmp / f"{label}.json")], cwd=out))
    if any([p.wait() != 0 for p in runs]):  # wait for both
        raise RuntimeError("a worker failed")


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv) -> int:
    if len(argv) != 1:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export(argv[0], tmp / "parent")
        spec_dir = tmp / "specs"
        spec_dir.mkdir()
        for name, doc in specs() + list(FAILING.items()):
            (spec_dir / f"{name}.json").write_text(json.dumps(doc))
        a, b = tmp / "out-parent", tmp / "out-tree"
        try:
            run_round(tmp, "jobs", jobs(spec_dir) + failing_jobs(spec_dir))
            run_round(tmp, "classify", classify_jobs(spec_dir, a))
            run_round(tmp, "curvature", curvature_jobs(spec_dir, a))
        except RuntimeError as err:
            print(err, file=sys.stderr)
            return 2
        names = sorted({p.name for p in a.iterdir()}
                       | {p.name for p in b.iterdir()})
        differ = [n for n in names
                  if not ((a / n).exists() and (b / n).exists()
                          and filecmp.cmp(a / n, b / n, shallow=False))]
        for n in differ:
            print(f"differs: {n}")
        print(f"{len(names) - len(differ)} of {len(names)} files identical "
              f"on {len(specs())} specs and {len(FAILING)} failing ones")
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
