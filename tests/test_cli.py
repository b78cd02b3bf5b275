"""End-to-end command-line runs through main(argv), checking exit codes."""

import csv
import gc
import json
import subprocess
import sys

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


def _write_data_spec(tmp_path, g1: str) -> str:
    spec = {"mode": "weierstrass", "g1": g1, "g2": "v", "w1": "1", "w2": "1",
            "domain": {"u": [0.5, 1.5], "v": [0.5, 1.5]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


# in the domain but off the 64-point validation grid
@pytest.mark.parametrize("g1, u", [("1/(u-0.7)", "0.7"),
                                   ("(u-0.7)^-2", "0.7")])
def test_evaluation_failure_is_numeric_failure(g1, u, tmp_path, capsys):
    assert main(["curvature", "--spec", _write_data_spec(tmp_path, g1),
                 "--u", u, "--v", "0.5"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command", ["curvature", "classify"])
def test_point_outside_domain_exits_three(command, tmp_path, capsys):
    # u^400 would overflow at u = 10; the point is rejected before that
    assert main([command, "--spec", _write_data_spec(tmp_path, "u^400"),
                 "--u", "10", "--v", "0.5"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: point (10.0, 0.5) lies outside the domain "
                   "[0.5, 1.5] x [0.5, 1.5]"]


@pytest.mark.parametrize("command, u, v", [("curvature", "inf", "0.5"),
                                           ("curvature", "1", "1e999"),
                                           ("classify", "nan", "1")])
def test_non_finite_point_is_usage_error(command, u, v, spec_dir, capsys):
    assert main([command, "--spec", enneper_spec(spec_dir),
                 "--u", u, "--v", v]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")
    assert "must be finite" in err[0]


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


@pytest.mark.parametrize("fields", ["m.obj", "./sub/../m.obj"])
def test_sample_to_one_file_twice_is_usage_error(fields, spec_dir, tmp_path,
                                                 capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code = main(["sample", "--spec", enneper_spec(spec_dir), "--nu", "4",
                 "--nv", "4", "--out", "m.obj", "--fields", fields])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1
    assert err[0] == "usage error: --out and --fields name the same file"
    assert not (tmp_path / "m.obj").exists()


def test_sample_leaves_no_obj_when_fields_cannot_be_written(spec_dir,
                                                            tmp_path, capsys):
    obj = tmp_path / "m.obj"
    code = main(["sample", "--spec", enneper_spec(spec_dir), "--nu", "4",
                 "--nv", "4", "--out", str(obj),
                 "--fields", str(tmp_path / "missing" / "m.csv")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("error: ")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("spec", ["enneper", "kchange"])
@pytest.mark.parametrize("command", ["sample", "singular", "verify"])
def test_commands_leave_no_cyclic_garbage(command, spec, spec_dir, tmp_path,
                                          capsys):
    """A repeated run frees all it made by reference counting alone."""
    extra = {"sample": ["--nu", "8", "--nv", "8",
                        "--out", str(tmp_path / "m.obj"),
                        "--fields", str(tmp_path / "m.csv")],
             "singular": ["--grid", "32", "--out", str(tmp_path / "s.csv")],
             "verify": []}[command]
    argv = [command, "--spec", str(spec_dir / f"{spec}.json")] + extra
    main(argv)  # the first run builds the parser and compiles closures
    gc.collect()
    gc.disable()
    try:
        main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_domain_whose_width_overflows_exits_two(tmp_path, capsys):
    spec = dict(gallery.spec_dict("enneper"))
    spec["domain"] = {"u": [-1e308, 1e308], "v": [-3, 3]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    assert main(["verify", "--spec", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad domain:")


@pytest.mark.parametrize("key, value, message", [
    ("f0", "[Infinity, 0, NaN]", "f0 must be a finite 3-vector"),
    ("base", "[50, NaN]", "base parameters outside the domain"),
    ("base", "[50, 0]", "base parameters outside the domain"),
])
def test_raw_curve_base_and_f0_are_validated(key, value, message, tmp_path,
                                             capsys):
    spec = gallery.spec_dict("kchange")
    spec[key] = "VALUE"
    path = tmp_path / "curves.json"
    # json.dumps writes no NaN or Infinity into a list from a string
    path.write_text(json.dumps(spec).replace('"VALUE"', value))
    assert main(["sample", "--spec", str(path), "--nu", "2", "--nv", "2",
                 "--out", str(tmp_path / "m.obj")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m.obj").exists()


def test_negative_seed_is_usage_error(spec_dir, capsys):
    assert main(["verify", "--spec", enneper_spec(spec_dir),
                 "--seed", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")
    assert "--seed" in err[0]


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_overflowing_literal_in_spec_exits_two(command, tmp_path, capsys):
    spec = dict(gallery.spec_dict("enneper"))
    spec["w1"] = "1e400*0+1"
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(spec))
    argv = [command, "--spec", str(path)]
    assert main(argv + (["--u", "1", "--v", "-1"]
                        if command == "classify" else [])) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "offset 0: expected a finite number, found '1e400'" in err[0]


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


@pytest.mark.parametrize("name, key, value, field", [
    ("kchange", "phi", [1, "2/3*u^3", "u-u^5/5"], "'phi'[0]"),
    ("enneper", "base", {"a": 1}, "base"),
    # exactly two or three JSON numbers: no extra element, no boolean, no
    # string, and no integer beyond the float range
    ("enneper", "base", [0, 0, 5], "base"),
    ("enneper", "base", [True, 0], "base"),
    ("enneper", "domain", {"u": [-3, 3, 99], "v": [-3, 3]}, "domain: u"),
    ("enneper", "domain", {"u": ["-3", 3], "v": [-3, 3]}, "domain: u"),
    ("enneper", "domain", {"u": [-3, 3], "v": [-3, 10**400]}, "domain: v"),
    ("enneper", "f0", [0, False, 0], "f0"),
])
def test_malformed_spec_field_exits_two_naming_it(name, key, value, field,
                                                  tmp_path, capsys):
    spec = dict(gallery.spec_dict(name))
    spec[key] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(spec))
    for argv in (["curvature", "--u", "0", "--v", "0"], ["verify"]):
        assert main(argv + ["--spec", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert field in err[0]


@pytest.mark.parametrize("g1, g2", [
    # phi' itself is too large to square at u = 1
    ("exp(200*u)", "v"),
    # each curve is moderate, (1 - g1 g2)^4 and Lambda^2 overflow
    ("1e40*u", "1e40*v"),
])
@pytest.mark.parametrize("route", ["sample", "closed", "extrinsic"])
def test_overflowing_curvature_is_numeric_failure(g1, g2, route, tmp_path,
                                                  capsys):
    # the true K at (1, 1) is tiny but a float (about 2e-258 for the
    # first), so neither a traceback nor K = 0 is an answer
    spec = {"mode": "weierstrass", "g1": g1, "g2": g2, "w1": "1", "w2": "1",
            "domain": {"u": [-1, 1], "v": [-1, 1]}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(spec))
    argv = (["sample", "--nu", "4", "--nv", "4",
             "--out", str(tmp_path / "m.obj")] if route == "sample" else
            ["curvature", "--u", "1", "--v", "1", "--method", route])
    assert main(argv + ["--spec", str(path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "non-finite" in err[0] or "too large" in err[0]


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
    "FlatPoint": 3, "DegenerateAtPoint": 3, "DegenerateSingular": 3,
    "RootNotConverged": 3, "OutsideDomain": 3,
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


def test_module_entry_point_runs_the_cli(tmp_path, child_env):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "minface.cli", *args],
                              capture_output=True, text=True, timeout=120,
                              env=child_env)

    missing = run("curvature", "--spec", str(tmp_path / "no.json"), "--u",
                  "0", "--v", "0")
    assert missing.returncode == 2
    assert missing.stdout == ""
    assert [line[:7] for line in missing.stderr.splitlines()] == ["error: "]
    made = run("gallery", "--name", "enneper", "--out", str(tmp_path / "out"))
    assert made.returncode == 0, made.stderr
    assert (json.loads((tmp_path / "out" / "enneper.json").read_text())
            == gallery.spec_dict("enneper"))
