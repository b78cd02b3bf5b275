"""End-to-end command-line runs through main(argv), checking exit codes."""

import csv
import json

import pytest

from minface import cli, gallery
from minface.cli import main
from minface.errors import MinfaceError
from minface.expr import eval_value
from minface.surface import get_data, load_spec


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    for name in ("enneper", "enneper-conj", "kchange"):
        with open(d / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(gallery.spec_dict(name), fh)
    return d


def enneper_spec(spec_dir):
    return str(spec_dir / "enneper.json")


# --- curvature ---------------------------------------------------------------


def test_curvature_prints_full_precision(spec_dir, capsys):
    code = main(["curvature", "--spec", enneper_spec(spec_dir),
                 "--u", "1", "--v", "1"])
    assert code == 0
    assert capsys.readouterr().out == "-1.0\n"


def test_curvature_methods_agree(spec_dir, capsys):
    values = []
    for method in ("closed", "extrinsic", "intrinsic"):
        assert main(["curvature", "--spec", enneper_spec(spec_dir),
                     "--u", "0.25", "--v", "0.5", "--method", method]) == 0
        values.append(float(capsys.readouterr().out))
    assert values[0] == pytest.approx(values[1], rel=1e-9)
    assert values[0] == pytest.approx(values[2], rel=1e-3)


def test_curvature_at_singular_point_is_numeric_failure(spec_dir, capsys):
    code = main(["curvature", "--spec", enneper_spec(spec_dir),
                 "--u", "1", "--v", "-1"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("g1, u", [("u^400", "10"), ("sin(u)", "inf")])
def test_evaluation_failure_is_numeric_failure(g1, u, tmp_path, capsys):
    spec = {"mode": "weierstrass", "g1": g1, "g2": "v", "w1": "1", "w2": "1",
            "domain": {"u": [0.5, 1.5], "v": [0.5, 1.5]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["curvature", "--spec", str(path),
                 "--u", u, "--v", "0.5"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


# --- classify ----------------------------------------------------------------


def test_classify_words(spec_dir, capsys):
    assert main(["classify", "--spec", enneper_spec(spec_dir),
                 "--u", "1", "--v", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "swallowtail"
    assert main(["classify", "--spec", enneper_spec(spec_dir),
                 "--u", "2", "--v", "-0.5"]) == 0
    assert capsys.readouterr().out.strip() == "cuspidal edge"
    assert main(["classify", "--spec", str(spec_dir / "enneper-conj.json"),
                 "--u", "1", "--v", "-1"]) == 0
    assert capsys.readouterr().out.strip() == "cuspidal cross cap"


def test_classify_off_singular_set_fails(spec_dir, capsys):
    code = main(["classify", "--spec", enneper_spec(spec_dir),
                 "--u", "0", "--v", "0"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_classify_needs_data_mode(spec_dir, capsys):
    code = main(["classify", "--spec", str(spec_dir / "kchange.json"),
                 "--u", "1", "--v", "1"])
    assert code == 2


# --- singular / sample / conjugate --------------------------------------------


def test_singular_trace_writes_csv(spec_dir, tmp_path, capsys):
    out = tmp_path / "sing.csv"
    code = main(["singular", "--spec", enneper_spec(spec_dir),
                 "--grid", "64", "--out", str(out)])
    assert code == 0
    msg = capsys.readouterr().out
    assert msg.startswith("2 curve(s), ")
    assert msg.strip().endswith(str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "u"
    assert len(rows) > 50


def test_sample_writes_obj_and_fields(spec_dir, tmp_path):
    obj = tmp_path / "m.obj"
    fields = tmp_path / "m.csv"
    code = main(["sample", "--spec", enneper_spec(spec_dir),
                 "--nu", "8", "--nv", "8",
                 "--out", str(obj), "--fields", str(fields)])
    assert code == 0
    lines = obj.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 81
    assert sum(1 for l in lines if l.startswith("f ")) == 128
    with open(fields, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 82


def test_conjugate_round_trip(spec_dir, tmp_path):
    out = tmp_path / "conj.json"
    assert main(["conjugate", "--spec", enneper_spec(spec_dir),
                 "--out", str(out)]) == 0
    conj = load_spec(out)
    orig = load_spec(enneper_spec(spec_dir))
    dc, do = get_data(conj), get_data(orig)
    for t in (-1.0, 0.3, 2.0):
        assert eval_value(dc.w2, t) == pytest.approx(-eval_value(do.w2, t),
                                                     rel=1e-15)
        assert eval_value(dc.w1, t) == pytest.approx(eval_value(do.w1, t),
                                                     rel=1e-15)
        assert eval_value(dc.g2, t) == eval_value(do.g2, t)


# --- verify and gallery --------------------------------------------------------


def test_verify_battery_passes(spec_dir, capsys):
    code = main(["verify", "--spec", enneper_spec(spec_dir), "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("all checks passed")
    assert "pass" in out


def test_gallery_writes_bundle(tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    code = main(["gallery", "--name", "enneper", "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "enneper.json").exists()
    assert (out_dir / "enneper.obj").exists()
    assert (out_dir / "enneper-singular.csv").exists()
    assert "wrote enneper" in capsys.readouterr().out
    # the written spec is itself loadable
    load_spec(out_dir / "enneper.json")


def test_gallery_raw_pair_skips_singular_csv(tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    code = main(["gallery", "--name", "kchange", "--out", str(out_dir)])
    assert code == 0
    captured = capsys.readouterr()
    assert (out_dir / "kchange.json").exists()
    assert (out_dir / "kchange.obj").exists()
    assert not (out_dir / "kchange-singular.csv").exists()
    assert "no singular CSV" in captured.err


# --- exit codes ----------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["curvature", "--u", "0", "--v", "0"]) == 1
    assert main(["gallery", "--name", "nope", "--out", "x"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_small_grids_are_usage_errors(spec_dir, tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["sample", "--spec", enneper_spec(spec_dir), "--nu", "1",
                 "--out", out]) == 1
    assert main(["singular", "--spec", enneper_spec(spec_dir),
                 "--grid", "8", "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(e.startswith("usage error:") for e in err)
    assert "--nu" in err[0] and "--grid" in err[1]


def test_non_finite_domain_exits_two(tmp_path, capsys):
    spec = dict(gallery.spec_dict("enneper"))
    spec["domain"] = {"u": [0, 1e400], "v": [0, 1]}
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(spec).replace("Infinity", "1e400"))
    assert main(["sample", "--spec", str(path), "--nu", "2", "--nv", "2",
                 "--out", str(tmp_path / "m.obj")]) == 2
    assert "finite" in capsys.readouterr().err


def test_bad_spec_files_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["curvature", "--spec", str(missing),
                 "--u", "0", "--v", "0"]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["curvature", "--spec", str(broken),
                 "--u", "0", "--v", "0"]) == 2
    bad_expr = tmp_path / "badexpr.json"
    spec = dict(gallery.spec_dict("enneper"))
    spec["g1"] = "sec(u)"
    bad_expr.write_text(json.dumps(spec))
    assert main(["curvature", "--spec", str(bad_expr),
                 "--u", "0", "--v", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# Exit 2: the surface description could not be read; 3: any other failure.
_EXIT_CODES = {
    "SpecFileError": 2, "ExpressionSyntaxError": 2, "NonIntegerExponent": 2,
    "MultipleVariables": 2, "InvalidWeierstrassData": 2,
    "InvalidCurveData": 2, "ModeUnsupported": 2,
    "DomainError": 3, "DivisionByZero": 3, "NonFiniteResult": 3,
    "DataConversionDegenerate": 3, "QuadratureError": 3, "SingularPoint": 3,
    "SingularNeighborhood": 3, "NotSingular": 3, "NotCuspidalEdge": 3,
    "FlatPoint": 3, "DegenerateAtPoint": 3, "DegenerateOnInterval": 3,
    "DegenerateSingular": 3,
}


def test_every_library_error_has_a_pinned_exit_code():
    assert {c.__name__ for c in _subclasses(MinfaceError)} == set(_EXIT_CODES)


@pytest.mark.parametrize("cls", sorted(_subclasses(MinfaceError),
                                       key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_library_errors_map_to_exit_codes_by_class(cls, spec_dir,
                                                   monkeypatch, capsys):
    def fail(args):
        raise cls.__new__(cls, "boom")

    monkeypatch.setitem(cli._COMMANDS, "curvature", fail)
    assert main(["curvature", "--spec", enneper_spec(spec_dir),
                 "--u", "0", "--v", "0"]) == _EXIT_CODES[cls.__name__]
    assert capsys.readouterr().err == "error: boom\n"
