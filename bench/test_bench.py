"""Self-tests of the benchmark: generator, oracles and tracer.

Run with ``python3 -m pytest -q bench/test_bench.py`` from the repository
root. Each oracle must pass real program output and reject a corrupted
copy of it.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import specgen  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

import minface.cli as cli  # noqa: E402
from minface import gallery  # noqa: E402
from minface.expr import eval_value  # noqa: E402
from minface.surface import surface_from_dict  # noqa: E402


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.doc))
    return path


@pytest.mark.parametrize("kind", specgen.KINDS)
def test_generator_is_deterministic_per_seed(kind):
    a = specgen.make_spec(kind, 7, 0, 3)
    assert a.doc == specgen.make_spec(kind, 7, 0, 3).doc
    assert a.doc != specgen.make_spec(kind, 8, 0, 3).doc
    assert a.doc != specgen.make_spec(kind, 7, 0, 4).doc


@pytest.mark.parametrize("kind", specgen.KINDS)
def test_every_generated_spec_loads_and_matches_its_polynomials(kind):
    for seed in range(4):
        for index in range(3):
            spec = specgen.make_spec(kind, seed, index % 4, index)
            surface = surface_from_dict(spec.doc)
            if not spec.weierstrass:
                continue
            u0, u1, v0, v1 = spec.domain
            for name, lo, hi in (("g1", u0, u1), ("w1", u0, u1),
                                 ("g2", v0, v1), ("w2", v0, v1)):
                expr = getattr(surface, name)
                for t in np.linspace(lo, hi, 7):
                    want = getattr(spec, name)(t)
                    got = eval_value(expr, t)
                    assert abs(got - want) <= 1e-13 * (1 + abs(want))


@pytest.mark.parametrize("name", specgen.GALLERY)
def test_gallery_specs_are_the_programs(name):
    doc = dict(specgen.make_spec(name, 1, 0, 0).doc)
    want = gallery.spec_dict(name)
    assert doc.pop("f0") != want.pop("f0")
    assert doc == want


@pytest.mark.parametrize("kind", ["enneper", "ce-quasiumbilic", "kchange",
                                  "poly", "cross"])
def test_mesh_oracle_passes_output_and_rejects_corruption(tmp_path, kind):
    spec = specgen.make_spec(kind, 3, 0, 1)
    obj, fields = tmp_path / "m.obj", tmp_path / "m.csv"
    code, _ = _cli("sample", "--spec", _write_spec(tmp_path, spec),
                   "--nu", 8, "--nv", 8, "--out", obj, "--fields", fields)
    assert code == 0
    obj_text, csv_text = obj.read_text(), fields.read_text()
    assert oracle.check_mesh(spec, 8, obj_text, csv_text) == []

    lines = obj_text.splitlines()
    x = lines[5].split()
    x[2] = repr(float(x[2]) + 1e-6 * (1 + abs(float(x[2]))))
    moved = "\n".join(lines[:5] + [" ".join(x)] + lines[6:])
    assert oracle.check_mesh(spec, 8, moved, csv_text)

    # flip a tag, on the flat line v = 0 where there is one
    rows = csv_text.splitlines()
    k = next((i for i, r in enumerate(rows) if r.split(",")[1] == "0"), 7)
    cells = rows[k].split(",")
    if spec.kind == "ce-quasiumbilic":
        assert cells[7] == "1"
    cells[7] = {"0": "1", "1": "0", "2": "1", "": "0"}[cells[7]]
    flipped = "\n".join(rows[:k] + [",".join(cells)] + rows[k + 1:])
    assert oracle.check_mesh(spec, 8, obj_text, flipped)


@pytest.mark.parametrize("kind", ["enneper", "enneper-conj",
                                  "ce-quasiumbilic", "cross", "poly"])
def test_singular_oracle_passes_output_and_rejects_dropped_row(tmp_path, kind):
    spec = specgen.make_spec(kind, 2, 2, 0)
    out = tmp_path / "s.csv"
    code, stdout = _cli("singular", "--spec", _write_spec(tmp_path, spec),
                        "--grid", 64, "--out", out)
    assert code == 0
    text = out.read_text()
    assert oracle.check_singular(spec, 64, text, stdout) == []
    rows = text.splitlines()
    if len(rows) < 3:
        return
    special = [k for k, r in enumerate(rows) if ",Swallowtail," in r
               or ",CuspidalCrossCap," in r]
    drop = special[0] if special else len(rows) // 2
    dropped = "\n".join(rows[:drop] + rows[drop + 1:])
    assert oracle.check_singular(spec, 64, dropped, stdout)


def test_singular_oracle_rejects_a_missed_crossing(tmp_path):
    spec = specgen.make_spec("cross", 2, 2, 0)
    out = tmp_path / "s.csv"
    _, stdout = _cli("singular", "--spec", _write_spec(tmp_path, spec),
                     "--grid", 64, "--out", out)
    rows = out.read_text().splitlines()
    kept = [rows[0]] + [r for r in rows[1:] if float(r.split(",")[0]) < 0]
    fake_stdout = stdout.replace(f"{len(rows) - 1} point",
                                 f"{len(kept) - 1} point")
    problems = oracle.check_singular(spec, 64, "\n".join(kept), fake_stdout)
    assert any("column crossings" in p for p in problems)


@pytest.mark.parametrize("kind", ["kchange", "regular"])
def test_battery_oracle_passes_output_and_rejects_short_counts(tmp_path, kind):
    spec = specgen.make_spec(kind, 1, 3, 0)
    code, stdout = _cli("verify", "--spec", _write_spec(tmp_path, spec),
                        "--seed", 0)
    assert oracle.check_battery(spec, code, stdout) == []
    short = stdout.replace("n=1000", "n=999", 1)
    assert oracle.check_battery(spec, code, short)
    assert oracle.check_battery(spec, 3, stdout)
    lines = stdout.strip().splitlines()
    assert oracle.check_battery(spec, code, "\n".join(lines[1:]))


def test_tracer_reports_every_metric_and_restores_bindings(tmp_path):
    spec = specgen.make_spec("cross", 1, 3, 0)
    path = _write_spec(tmp_path, spec)
    original = cli.main
    tracer = Tracer()
    tracer.install()
    try:
        code, _ = _cli("verify", "--spec", path, "--seed", 0)
    finally:
        tracer.uninstall()
    assert code == 0 and cli.main is original
    metrics = tracer.metrics(1, 0.0)
    assert [(k, v["unit"]) for k, v in metrics.items()] == PER_LAYER
    assert metrics["verify.traces_per_battery"]["value"] == 5
    assert metrics["quadrature.adaptive_quad.calls"]["value"] == 0
    assert metrics["verify.points_obtained_frac"]["value"] == 1.0
    assert metrics["cli.main.self_s"]["value"] > 0


def test_benchmark_json_matches_the_runner():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in doc["end_to_end"]]
            == list(run.END_TO_END))
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == PER_LAYER


def test_tail_has_ten_jobs_beyond_it():
    times = list(range(40))
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10 and pct == 75.0
