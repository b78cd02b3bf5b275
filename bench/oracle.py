"""Output checks that share no code with the program: numpy polynomials only.

Each check takes a spec from ``specgen`` and the raw outputs of one CLI job
and returns a list of problems; an empty list means the job passed.

Values are compared with a relative tolerance of 1e-9 plus an allowance for
rounding: 1000 ulp of the magnitude the terms of the formula would have
without cancellation. Where the program applies a threshold (masking K on
the singular band, withholding flat tags off the regular set, tagging flat
axes) the oracle applies the documented rule and accepts either answer in a
gray band of a factor 2 around the threshold.
"""

from __future__ import annotations

import csv
import io
import re
from typing import List

import numpy as np
from numpy.polynomial import Polynomial as P

ULPS = 1e3 * np.finfo(float).eps
REL = 1e-9
# K is withheld where |g1 g2 - 1| <= MESH_SINGULAR_TOL; the flat tag where
# |Lambda| <= REGULAR_TOL |f_u| |f_v|; an axis is flat where
# |<c2, c2>| <= FLAT_TOL (1 + |c1| + |c2|)^2 for its curve jets c1, c2.
MESH_SINGULAR_TOL = 1e-8
REGULAR_TOL = 1e-13
FLAT_TOL = 1e-9
SINGULAR_RESIDUAL = 1e-9
MAX_REPORTS = 5

MESH_HEADER = ["u", "v", "x0", "x1", "x2", "K", "lambda", "flat_tag",
               "sing_proxy"]
SINGULAR_HEADER = ["u", "v", "tag", "a", "b", "a_minus_b", "a_plus_b",
                   "kappa_s", "is_front", "lambda_gradient_norm"]
# n= that the program's battery requests for each point-sampled check
BATTERY_N = {"null_generators": 200, "curvature_routes": 1000,
             "minimality": 1000, "sign_theorem": 200, "milnor_winding": 100,
             "energy_gauge": 50, "data_roundtrip": 100}
BATTERY_ORDER = ("null_generators", "curvature_routes", "minimality",
                 "sign_theorem", "milnor_winding", "energy_gauge",
                 "data_roundtrip", "singular_identities", "duality",
                 "kappa_zero_locus", "main_theorem", "flat_accumulation")


def _mag(p: P, t):
    """Sum of |terms| of p at t: the scale of its rounding error."""
    return P(np.abs(p.coef))(np.abs(t))


def _mdot(a, b):
    return (-a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2])


def _norm(a):
    return np.sqrt(np.sum(a * a, axis=-1))


class _Sides:
    """Velocity and position polynomials of the two generating curves."""

    def __init__(self, spec):
        if spec.weierstrass:
            g1, g2, w1, w2 = spec.g1, spec.g2, spec.w1, spec.w2
            self.vel_u = (w1 * (-1 - g1 ** 2), w1 * (1 - g1 ** 2), 2 * g1 * w1)
            self.vel_v = (w2 * (1 + g2 ** 2), w2 * (1 - g2 ** 2), -2 * g2 * w2)
            self.pos_u = tuple(p.integ() for p in self.vel_u)
            self.pos_v = tuple(p.integ() for p in self.vel_v)
        else:
            self.pos_u, self.pos_v = spec.phi, spec.psi
            self.vel_u = tuple(p.deriv() for p in spec.phi)
            self.vel_v = tuple(p.deriv() for p in spec.psi)

    @staticmethod
    def _eval(polys, t):
        return np.stack([p(t) for p in polys], axis=-1)

    def jets(self, axis: str, t):
        """(gamma', gamma'') at parameters t, shape (len(t), 3) each."""
        vel = self.vel_u if axis == "u" else self.vel_v
        return (self._eval(vel, t),
                self._eval(tuple(p.deriv() for p in vel), t))

    def delta(self, axis: str, t, t0: float):
        pos = self.pos_u if axis == "u" else self.pos_v
        return self._eval(pos, t) - self._eval(pos, np.array([t0]))


def _parse_obj(text: str):
    verts, faces = [], []
    for line in text.splitlines():
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:4]])
        elif line.startswith("f "):
            faces.append([int(x) for x in line.split()[1:4]])
    return np.array(verts).reshape(-1, 3), np.array(faces, dtype=int)


def _read_csv(text: str, header: List[str]):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return None
    return rows[1:]


def _column(rows, k):
    return np.array([float(r[k]) if r[k] != "" else np.nan for r in rows])


def _gray(value, threshold):
    """1 where value <= threshold/2, 0 where > 2*threshold, -1 in between."""
    out = np.where(value <= 0.5 * threshold, 1, 0)
    return np.where((value > 0.5 * threshold) & (value <= 2 * threshold),
                    -1, out)


def _withheld_bad(state, got, ok):
    """Entries that should be empty (state 1) or correct (state 0) and are
    not; in the gray band (state -1) either is accepted."""
    empty = np.isnan(got)
    return np.where(state == 1, ~empty,
                    np.where(state == 0, ~ok, ~empty & ~ok))


def _report(problems: List[str], what: str, bad) -> None:
    idx = np.flatnonzero(bad)
    if idx.size:
        problems.append(f"{what} at {idx.size} rows, "
                        f"first {idx[:MAX_REPORTS].tolist()}")


@np.errstate(divide="ignore", invalid="ignore")
def check_mesh(spec, n: int, obj_text: str, csv_text: str) -> List[str]:
    """OBJ and per-vertex CSV of ``sample --nu n --nv n --fields``."""
    problems: List[str] = []
    u0, u1, v0, v1 = spec.domain
    bu, bv = spec.base
    us, vs = np.linspace(u0, u1, n + 1), np.linspace(v0, v1, n + 1)
    iu = np.repeat(np.arange(n + 1), n + 1)
    iv = np.tile(np.arange(n + 1), n + 1)
    uu, vv = us[iu], vs[iv]  # vertex (i, j) is row i*(n+1)+j
    n_v = (n + 1) ** 2

    sides = _Sides(spec)
    pos = 0.5 * (sides.delta("u", us, bu)[iu] + sides.delta("v", vs, bv)[iv])
    pos = pos + spec.f0
    pos_tol = 1e-9 * (1.0 + _norm(pos))

    verts, faces = _parse_obj(obj_text)
    if len(verts) != n_v:
        problems.append(f"OBJ has {len(verts)} vertices, want {n_v}")
    else:
        _report(problems, "OBJ position off",
                ~(np.max(np.abs(verts - pos), axis=1) <= pos_tol))
    if len(faces) != 2 * n * n:
        problems.append(f"OBJ has {len(faces)} faces, want {2 * n * n}")
    elif faces.min() < 1 or faces.max() > n_v:
        problems.append("OBJ face index out of range")

    rows = _read_csv(csv_text, MESH_HEADER)
    if rows is None or len(rows) != n_v:
        return problems + [f"CSV is not {n_v} rows under {MESH_HEADER}"]
    col = {name: _column(rows, k) for k, name in enumerate(MESH_HEADER)}
    _report(problems, "CSV (u, v) off the grid",
            (col["u"] != uu) | (col["v"] != vv))
    xs = np.stack([col["x0"], col["x1"], col["x2"]], axis=1)
    _report(problems, "CSV position off",
            ~(np.max(np.abs(xs - pos), axis=1) <= pos_tol))

    c1u, c2u = (a[iu] for a in sides.jets("u", us))
    c1v, c2v = (a[iv] for a in sides.jets("v", vs))
    lam = 0.25 * _mdot(c1u, c1v)
    vel_scale = _norm(c1u) * _norm(c1v)

    if spec.weierstrass:
        g1, g2 = spec.g1(uu), spec.g2(vv)
        w1, w2 = spec.w1(uu), spec.w2(vv)
        d1, d2 = spec.g1.deriv(), spec.g2.deriv()
        mag_g = 1.0 + _mag(spec.g1, uu) * _mag(spec.g2, vv)
        one_m = 1.0 - g1 * g2
        k_want = 4.0 * d1(uu) * d2(vv) / (w1 * w2 * one_m ** 4)
        k_mag = (4.0 * _mag(d1, uu) * _mag(d2, vv)
                 / np.abs(w1 * w2 * one_m ** 4))
        k_tol = (REL * np.abs(k_want)
                 + ULPS * k_mag * (1.0 + 4.0 * mag_g / np.abs(one_m)))
        k_state = _gray(np.abs(one_m), MESH_SINGULAR_TOL)
        lam_want = (-0.5 * w1 * w2 * one_m
                    * np.sqrt(one_m ** 2 + 2.0 * (g1 + g2) ** 2))
        lam_mag = (0.5 * np.abs(w1 * w2) * mag_g
                   * (mag_g + np.abs(g1) + np.abs(g2) + 1.0))
        lam_ok = np.abs(col["lambda"] - lam_want) <= (
            REL * np.abs(lam_want) + ULPS * lam_mag)
        proxy_ok = np.abs(col["sing_proxy"] - np.abs(one_m)) <= ULPS * mag_g
    else:
        f_u, f_v = 0.5 * c1u, 0.5 * c1v
        f_uu, f_vv = 0.5 * c2u, 0.5 * c2v
        w_l = np.cross(f_u, f_v) * np.array([-1.0, 1.0, 1.0])
        s2 = _mdot(w_l, w_l)
        lam_f = _mdot(f_u, f_v)
        k_want = -_mdot(f_uu, w_l) * _mdot(f_vv, w_l) / (s2 * lam_f ** 2)
        k_mag = (_norm(f_uu) * _norm(f_vv) * _norm(w_l) ** 2
                 / np.abs(s2 * lam_f ** 2))
        k_tol = REL * np.abs(k_want) + ULPS * k_mag
        k_state = _gray(np.abs(lam_f), REGULAR_TOL * _norm(f_u) * _norm(f_v))
        lam_ok = np.isnan(col["lambda"])
        proxy_ok = (np.abs(col["sing_proxy"] - np.abs(lam))
                    <= REL * np.abs(lam) + ULPS * vel_scale)

    k_ok = np.abs(col["K"] - k_want) <= k_tol
    _report(problems, "K wrong or wrongly withheld",
            _withheld_bad(k_state, col["K"], k_ok))
    _report(problems, "lambda wrong", ~lam_ok)
    _report(problems, "sing_proxy wrong", ~proxy_ok)

    # flat tags: withheld off the regular set, else the number of flat axes
    flat_u = _gray(np.abs(_mdot(c2u, c2u)),
                   FLAT_TOL * (1.0 + _norm(c1u) + _norm(c2u)) ** 2)
    flat_v = _gray(np.abs(_mdot(c2v, c2v)),
                   FLAT_TOL * (1.0 + _norm(c1v) + _norm(c2v)) ** 2)
    lo = (flat_u == 1).astype(int) + (flat_v == 1)
    hi = (flat_u != 0).astype(int) + (flat_v != 0)
    tag = col["flat_tag"]
    _report(problems, "flat_tag wrong",
            _withheld_bad(_gray(np.abs(lam), REGULAR_TOL * vel_scale), tag,
                          (tag >= lo) & (tag <= hi)))
    return problems


_COUNT_RE = re.compile(r"(\d+) curve\(s\), (\d+) point\(s\)")


@np.errstate(divide="ignore", invalid="ignore")
def check_singular(spec, grid: int, csv_text: str, stdout: str) -> List[str]:
    """CSV and summary line of ``singular --grid grid``."""
    rows = _read_csv(csv_text, SINGULAR_HEADER)
    if rows is None:
        return [f"CSV header is not {SINGULAR_HEADER}"]
    problems: List[str] = []
    m = _COUNT_RE.search(stdout)
    if m is None or int(m.group(2)) != len(rows):
        problems.append(f"printed {stdout.strip()!r} for {len(rows)} rows")
    u, v = _column(rows, 0), _column(rows, 1)
    tags = np.array([r[2] for r in rows], dtype=str)
    if rows:
        _check_singular_rows(problems, spec, rows, u, v, tags)
    _check_column_crossings(problems, spec, grid, u, v)

    special = {t: sorted(zip(u[tags == t].tolist(), v[tags == t].tolist()))
               for t in ("Swallowtail", "CuspidalCrossCap")}
    expect = {"enneper": ("Swallowtail", "CuspidalCrossCap"),
              "enneper-conj": ("CuspidalCrossCap", "Swallowtail")}
    if spec.kind in expect:
        want, absent = expect[spec.kind]
        pts = special[want]
        if not (len(pts) == 2 and np.allclose(
                pts, [(-1.0, 1.0), (1.0, -1.0)], atol=1e-8)):
            problems.append(f"{spec.kind}: {want} rows at {pts}, "
                            "want (-1, 1) and (1, -1)")
        if special[absent]:
            problems.append(f"{spec.kind}: unexpected {absent} rows")
    if spec.kind == "ce-quasiumbilic" and np.any(tags != "CuspidalEdge"):
        problems.append("ce-quasiumbilic: rows other than CuspidalEdge")
    return problems


def _check_singular_rows(problems, spec, rows, u, v, tags) -> None:
    """Residual, a, b, their sum and difference, tags, is_front, kappa_s."""
    g1, g2, w1, w2 = spec.g1, spec.g2, spec.w1, spec.w2
    d1, d2 = g1.deriv(), g2.deriv()
    gu, gv = g1(u), g2(v)
    _report(problems, "row off the singular set",
            ~(np.abs(gu * gv - 1.0) <= SINGULAR_RESIDUAL))
    a = d1(u) / (gu ** 2 * w1(u))
    b = d2(v) / (gv ** 2 * w2(v))
    a_mag = (_mag(d1, u) / np.abs(gu ** 2 * w1(u))
             * (1 + 2 * _mag(g1, u) / np.abs(gu)))
    b_mag = (_mag(d2, v) / np.abs(gv ** 2 * w2(v))
             * (1 + 2 * _mag(g2, v) / np.abs(gv)))
    ab_tol = REL * (np.abs(a) + np.abs(b)) + ULPS * (a_mag + b_mag)
    got = {name: _column(rows, k) for k, name in
           ((3, "a"), (4, "b"), (5, "a - b"), (6, "a + b"), (7, "kappa"))}
    for name, want, tol in (
            ("a", a, REL * np.abs(a) + ULPS * a_mag),
            ("b", b, REL * np.abs(b) + ULPS * b_mag),
            ("a - b", a - b, ab_tol), ("a + b", a + b, ab_tol)):
        _report(problems, f"{name} wrong", ~(np.abs(got[name] - want) <= tol))

    # tags where a +- b leave no doubt (band as the classifier documents)
    band = 1e-9 * (1.0 + np.abs(a) + np.abs(b))
    gp1, gp2 = np.abs(d1(u)), np.abs(d2(v))
    nondeg = np.maximum(gp1, gp2) > 2e-9 * (1.0 + gp1 + gp2)
    front = np.abs(a - b) > 2 * band + ab_tol
    non_front = np.abs(a - b) < 0.5 * band - ab_tol
    edge_side = np.abs(a + b) > 2 * band + ab_tol
    zero_sum = np.abs(a + b) < 0.5 * band - ab_tol
    _report(problems, "tag should be CuspidalEdge",
            nondeg & front & edge_side & (tags != "CuspidalEdge"))
    _report(problems, "tag should be Swallowtail or Unresolved",
            nondeg & front & zero_sum
            & ~np.isin(tags, ["Swallowtail", "Unresolved"]))
    _report(problems, "tag should be CuspidalCrossCap or Unresolved",
            nondeg & non_front & edge_side
            & ~np.isin(tags, ["CuspidalCrossCap", "Unresolved"]))
    is_front = np.array([r[8] for r in rows], dtype=str)
    _report(problems, "is_front wrong",
            (front & (is_front != "1")) | (non_front & (is_front != "0")))
    edge = tags == "CuspidalEdge"
    kappa = (2.0 * d1(u) * d2(v) / (w1(u) * w2(v) * (gu + gv) ** 2)
             / np.abs(a + b))
    kappa_tol = (REL + ULPS * (a_mag + b_mag + 1) / np.abs(a + b)) * np.abs(
        kappa)
    _report(problems, "kappa_s wrong",
            edge & ~(np.abs(got["kappa"] - kappa) <= kappa_tol))
    _report(problems, "kappa_s off a cuspidal edge",
            ~edge & ~np.isnan(got["kappa"]))


def _check_column_crossings(problems, spec, grid: int, u, v) -> None:
    """Every isolated root of g2(v) = 1/g1(u_i) on each grid column u_i has
    a row within 2 grid steps."""
    u0, u1, v0, v1 = spec.domain
    hu, hv = (u1 - u0) / grid, (v1 - v0) / grid
    missed = []
    for ui in np.linspace(u0, u1, grid + 1):
        column = spec.g1(ui) * spec.g2 - 1.0
        if not np.any(column.coef[1:]):
            continue
        roots = column.roots()
        real = np.abs(roots.imag) <= 1e-9 * (1 + np.abs(roots))
        roots = np.sort(roots[real].real)
        for k, vr in enumerate(roots):
            isolated = not np.any(np.abs(np.delete(roots, k) - vr) <= 2 * hv)
            near = (np.abs(u - ui) <= 2 * hu) & (np.abs(v - vr) <= 2 * hv)
            if v0 <= vr <= v1 and isolated and not np.any(near):
                missed.append((float(ui), float(vr)))
    if missed:
        problems.append(f"{len(missed)} column crossings without a row, "
                        f"first {missed[:MAX_REPORTS]}")


_LINE_RE = re.compile(r"^(pass|FAIL)\s+(\S+)\s+n=(\d+)")


def check_battery(spec, code: int, stdout: str) -> List[str]:
    """Exit code and report of ``verify``: all checks, each at full size."""
    problems: List[str] = []
    if code != 0:
        problems.append(f"exit code {code}")
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "all checks passed":
        problems.append("no 'all checks passed' line")
    want = BATTERY_ORDER if spec.weierstrass else BATTERY_ORDER[:5]
    got = [_LINE_RE.match(line) for line in lines[:-1]]
    names = [m.group(2) if m else None for m in got]
    if names != list(want):
        return problems + [f"checks {names}, want {list(want)}"]
    for m in got:
        if m.group(1) != "pass":
            problems.append(f"{m.group(2)} failed")
        n_want = BATTERY_N.get(m.group(2))
        if n_want is not None and int(m.group(3)) != n_want:
            problems.append(f"{m.group(2)} n={m.group(3)}, want {n_want}")
    return problems
