"""Seeded surface descriptions for the benchmark, built with numpy only.

Every spec carries two views of the same surface: the JSON object the
program reads, and the polynomials the oracles evaluate. The JSON text is
written from the very floats the polynomials hold (``float(c)!r``), so both
views describe one surface and no parsing is shared with the program.

Kinds:

* the four gallery surfaces (``enneper``, ``enneper-conj``,
  ``ce-quasiumbilic``, ``kchange``) with a jittered ``f0``;
* ``poly``: cubic g1, g2 with coefficients in (-1, 1); the singular set may
  or may not meet the domain;
* ``cross``: g1 = a (u - c)^2 + d and linear g2, arranged so that g1 g2 = 1
  crosses the domain and meets the flat line u = c;
* ``regular``: cubic g1, g2 with |g| <= 0.9 on the domain, so there is no
  singular set.

Generated kinds use densities +-(c + (a t + b)^2) with c >= 0.4 and the
rectangle [-1, 1]^2, the admissibility rules of the program's own random
data, so every spec is admissible by construction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial import Polynomial as P

GALLERY = ("enneper", "enneper-conj", "ce-quasiumbilic", "kchange")
GENERATED = ("poly", "cross", "regular")
KINDS = GALLERY + GENERATED

# The gallery surfaces as the program ships them, plus their polynomials.
_GALLERY_SPECS = {
    "enneper": {
        "mode": "weierstrass",
        "g1": "u", "g2": "-v", "w1": "1/2", "w2": "1/2",
        "domain": {"u": [-3.0, 3.0], "v": [-3.0, 3.0]},
        "base": [0.0, 0.0], "f0": [0.0, 0.0, 0.0],
    },
    "enneper-conj": {
        "mode": "weierstrass",
        "g1": "u", "g2": "-v", "w1": "1/2", "w2": "-1/2",
        "domain": {"u": [-3.0, 3.0], "v": [-3.0, 3.0]},
        "base": [0.0, 0.0], "f0": [0.0, 0.0, 0.0],
    },
    "ce-quasiumbilic": {
        "mode": "weierstrass",
        "g1": "u", "g2": "1+v^2", "w1": "1", "w2": "1",
        "domain": {"u": [0.0, 2.0], "v": [-2.0, 2.0]},
        "base": [0.0, 0.0], "f0": [0.0, 0.0, 0.0],
    },
    "kchange": {
        "mode": "curves",
        "phi": ["u+u^5/5", "2/3*u^3", "u-u^5/5"],
        "psi": ["-v-v^5/5", "2/3*v^3", "v-v^5/5"],
        "domain": {"u": [-2.0, 2.0], "v": [-2.0, 2.0]},
        "base": [0.0, 0.0], "f0": [0.0, 0.0, 0.0],
    },
}

_GALLERY_POLYS = {
    "enneper": dict(g1=P([0, 1]), g2=P([0, -1]), w1=P([0.5]), w2=P([0.5])),
    "enneper-conj": dict(g1=P([0, 1]), g2=P([0, -1]), w1=P([0.5]),
                         w2=P([-0.5])),
    "ce-quasiumbilic": dict(g1=P([0, 1]), g2=P([1, 0, 1]), w1=P([1]),
                            w2=P([1])),
    "kchange": dict(phi=(P([0, 1, 0, 0, 0, 0.2]), P([0, 0, 0, 2 / 3]),
                         P([0, 1, 0, 0, 0, -0.2])),
                    psi=(P([0, -1, 0, 0, 0, -0.2]), P([0, 0, 0, 2 / 3]),
                         P([0, 1, 0, 0, 0, -0.2]))),
}


@dataclass(frozen=True)
class Spec:
    """One surface: the JSON the program reads and the oracle's polynomials.

    Weierstrass specs set ``g1, g2, w1, w2``; raw-curve specs set ``phi``
    and ``psi`` (three position polynomials each).
    """

    kind: str
    doc: dict
    g1: Optional[P] = None
    g2: Optional[P] = None
    w1: Optional[P] = None
    w2: Optional[P] = None
    phi: Optional[Tuple[P, P, P]] = None
    psi: Optional[Tuple[P, P, P]] = None

    @property
    def weierstrass(self) -> bool:
        return self.doc["mode"] == "weierstrass"

    @property
    def domain(self) -> Tuple[float, float, float, float]:
        d = self.doc["domain"]
        return (d["u"][0], d["u"][1], d["v"][0], d["v"][1])

    @property
    def base(self) -> Tuple[float, float]:
        return tuple(self.doc["base"])

    @property
    def f0(self) -> np.ndarray:
        return np.array(self.doc["f0"], dtype=float)


def _num(c) -> str:
    return "(%r)" % float(c)


def _poly_text(p: P, var: str) -> str:
    terms = []
    for k, c in enumerate(p.coef):
        if k == 0:
            terms.append(_num(c))
        elif k == 1:
            terms.append("%s*%s" % (_num(c), var))
        else:
            terms.append("%s*%s^%d" % (_num(c), var, k))
    return "+".join(terms)


def _density(rng, var: str) -> Tuple[str, P]:
    """+-(c + (a t + b)^2) with c >= 0.4: one-signed, bounded away from 0."""
    c = 0.4 + abs(float(rng.uniform(-1, 1)))
    a, b = (float(x) for x in rng.uniform(-1, 1, 2))
    sign = -1.0 if rng.uniform() < 0.5 else 1.0
    text = "((%r) + ((%r)*%s + (%r))^2)" % (c, a, var, b)
    if sign < 0:
        text = "-" + text
    return text, sign * (P([c]) + P([b, a]) ** 2)


def _weierstrass(kind: str, rng, g1: P, g2: P, g1_text: str,
                 g2_text: str) -> Spec:
    w1_text, w1 = _density(rng, "u")
    w2_text, w2 = _density(rng, "v")
    doc = {
        "mode": "weierstrass",
        "g1": g1_text, "g2": g2_text, "w1": w1_text, "w2": w2_text,
        "domain": {"u": [-1.0, 1.0], "v": [-1.0, 1.0]},
        "base": [0.0, 0.0],
        "f0": [float(x) for x in rng.uniform(-1, 1, 3)],
    }
    return Spec(kind, doc, g1=g1, g2=g2, w1=w1, w2=w2)


def _cubic(rng, abs_sum: Optional[float] = None) -> P:
    coef = rng.uniform(-1, 1, 4)
    if abs_sum is not None:
        coef = coef * (abs_sum / np.sum(np.abs(coef)))
    return P([float(c) for c in coef])


def make_spec(kind: str, seed: int, stream: int, index: int) -> Spec:
    """The spec for job ``index`` of a stream; same arguments, same spec."""
    rng = np.random.default_rng([seed, stream, index])
    if kind in GALLERY:
        doc = copy.deepcopy(_GALLERY_SPECS[kind])
        doc["f0"] = [float(x) for x in rng.uniform(-1, 1, 3)]
        return Spec(kind, doc, **_GALLERY_POLYS[kind])
    if kind == "poly":
        g1, g2 = _cubic(rng), _cubic(rng)
        return _weierstrass(kind, rng, g1, g2, _poly_text(g1, "u"),
                            _poly_text(g2, "v"))
    if kind == "regular":
        g1 = _cubic(rng, float(rng.uniform(0.5, 0.9)))
        g2 = _cubic(rng, float(rng.uniform(0.5, 0.9)))
        return _weierstrass(kind, rng, g1, g2, _poly_text(g1, "u"),
                            _poly_text(g2, "v"))
    if kind == "cross":
        # g1(c) g2(v_star) = 1 with (c, v_star) inside the domain, and
        # g1'(c) = 0: the flat line u = c meets the singular curve.
        a = float(rng.uniform(0.5, 1.5))
        c = float(rng.uniform(-0.4, 0.4))
        d = float(rng.uniform(0.6, 1.4))
        v_star = float(rng.uniform(-0.4, 0.4))
        e = float(rng.uniform(0.7, 1.3))
        f2 = 1.0 / d - e * v_star
        g1 = a * P([-c, 1]) ** 2 + d
        g2 = P([f2, e])
        return _weierstrass(kind, rng, g1, g2,
                            "(%r)*(u-(%r))^2+(%r)" % (a, c, d),
                            "(%r)*v+(%r)" % (e, f2))
    raise ValueError(f"unknown spec kind {kind!r}")


def gallery_spec(kind: str) -> Spec:
    """A gallery surface exactly as shipped (f0 = 0), for warm-up jobs."""
    return Spec(kind, copy.deepcopy(_GALLERY_SPECS[kind]),
                **_GALLERY_POLYS[kind])
