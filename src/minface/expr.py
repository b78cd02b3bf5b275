"""Tiny expression language for data functions of one real variable.

GRAMMAR (EBNF):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" integer)?
    atom    := number | ident | ident "(" expr ")" | "(" expr ")"

Numbers are decimal literals, scientific notation allowed ("1e-3", "2.5E+1").
An integer exponent may carry a leading '-'. ``pi`` and ``e`` are named
constants and fold to numbers at parse time. Any other identifier not followed
by "(" is the variable; an expression may use at most one distinct variable
name (``MultipleVariables`` otherwise). The callable identifiers are exactly
sin, cos, tan, exp, log, sqrt, atan, sinh, cosh.

Each ``Expression`` is compiled once, when it is built, into one closure from
a ``Jet3`` to a ``Jet3`` (univariate Taylor-mode differentiation through the
``jets`` operations). ``eval_jet`` calls it; ``eval_value`` reads the value
slot of the jet at the variable, so a value is reported only where its
third-order jet is finite.

Parse errors carry the byte offset of the offending token and a hint of what
was expected. Every evaluation error is typed: ``DomainError`` (log of a
non-positive jet), ``DivisionByZero`` and ``NonFiniteResult``. Those raised
by an operation of the tree carry the source span of that subexpression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from . import jets
from .errors import (DivisionByZero, DomainError, ExpressionSyntaxError,
                     MultipleVariables, NonFiniteResult, NonIntegerExponent)
from .jets import Jet3

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "atan", "sinh", "cosh")
CONSTANTS = {"pi": math.pi, "e": math.e}

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"-?\d+\Z")


# --- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Neg:
    child: "Node"
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"
    span: tuple = field(default=(0, 0), compare=False)


Node = Union[Num, Var, Neg, BinOp, Pow, Call]


@dataclass(frozen=True)
class Expression:
    """A parsed expression plus its single variable name (None if constant).

    The tree is compiled once, on construction, into the jet function that
    ``eval_jet`` and ``eval_value`` call.
    """

    root: Node
    variable: Optional[str]
    text: str = field(default="", compare=False)
    _jet: Callable[[Jet3], Jet3] = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_jet", _compile(self.root))

    def __str__(self):
        return to_string(self)


# --- tokenizer --------------------------------------------------------------


@dataclass(frozen=True)
class _Tok:
    kind: str  # NUM IDENT OP END
    text: str
    pos: int


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(text, i)
            if not m:
                raise ExpressionSyntaxError(i, "a number", ch)
            toks.append(_Tok("NUM", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(text, i)
            toks.append(_Tok("IDENT", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            toks.append(_Tok("OP", ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(i, "a number, name, or operator", ch)
    toks.append(_Tok("END", "", n))
    return toks


# --- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.names = set()  # variable names, recorded as each Var is built

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.peek()
        if t.kind != "OP" or t.text != op:
            raise ExpressionSyntaxError(t.pos, f"'{op}'", t.text or "end of input")
        return self.take()

    def parse(self) -> Node:
        node = self.expr()
        t = self.peek()
        if t.kind != "END":
            raise ExpressionSyntaxError(t.pos, "end of input", t.text)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            node = BinOp(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.take().text
            rhs = self.factor()
            node = BinOp(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def factor(self) -> Node:
        t = self.peek()
        if t.kind == "OP" and t.text == "-":
            self.take()
            child = self.factor()
            return Neg(child, (t.pos, child.span[1]))
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        t = self.peek()
        if t.kind == "OP" and t.text == "^":
            self.take()
            exp_tok = self.peek()
            # Exponent must be an integer literal, optional leading '-'.
            sign = ""
            if exp_tok.kind == "OP" and exp_tok.text == "-":
                self.take()
                sign = "-"
                exp_tok = self.peek()
            if exp_tok.kind != "NUM":
                raise NonIntegerExponent(exp_tok.pos, exp_tok.text or "end of input")
            if not _INT_RE.match(exp_tok.text):
                raise NonIntegerExponent(exp_tok.pos, exp_tok.text)
            self.take()
            n = int(sign + exp_tok.text)
            return Pow(base, n, (base.span[0], exp_tok.pos + len(exp_tok.text)))
        return base

    def atom(self) -> Node:
        t = self.peek()
        if t.kind == "NUM":
            self.take()
            return Num(float(t.text), (t.pos, t.pos + len(t.text)))
        if t.kind == "IDENT":
            self.take()
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                if t.text not in FUNCTIONS:
                    raise ExpressionSyntaxError(
                        t.pos, "one of " + ", ".join(FUNCTIONS), t.text)
                self.take()
                arg = self.expr()
                close = self.expect_op(")")
                return Call(t.text, arg, (t.pos, close.pos + 1))
            if t.text in CONSTANTS:
                return Num(CONSTANTS[t.text], (t.pos, t.pos + len(t.text)))
            if t.text in FUNCTIONS:
                raise ExpressionSyntaxError(t.pos, f"'(' after function {t.text}",
                                            t.text)
            self.names.add(t.text)
            return Var(t.text, (t.pos, t.pos + len(t.text)))
        if t.kind == "OP" and t.text == "(":
            self.take()
            inner = self.expr()
            close = self.expect_op(")")
            # Keep the child node; widen its span to include the parens.
            return _respan(inner, (t.pos, close.pos + 1))
        raise ExpressionSyntaxError(t.pos, "a number, name, or '('",
                                    t.text or "end of input")


def _respan(node: Node, span) -> Node:
    kwargs = {f: getattr(node, f) for f in node.__dataclass_fields__}
    kwargs["span"] = span
    return type(node)(**kwargs)


def parse(text: str) -> Expression:
    """Parse source text into an Expression; see the module grammar."""
    parser = _Parser(text)
    root = parser.parse()
    names = parser.names
    if len(names) > 1:
        raise MultipleVariables(names)
    return Expression(root, names.pop() if names else None, text)


# --- evaluation -------------------------------------------------------------


def eval_jet(e: Expression, x: Jet3) -> Jet3:
    """Evaluate on a jet; the single variable is bound to x."""
    return e._jet(x)


def eval_value(e: Expression, x: float) -> float:
    """Value of e at x: the value slot of its jet at the variable x.

    Raises ``NonFiniteResult`` where that jet is not finite, even if the
    value alone would be.
    """
    return e._jet(jets.lift_variable(x)).value


_BINARY = {"+": jets.add, "-": jets.sub, "*": jets.mul, "/": jets.div}


def _compile(node: Node) -> Callable[[Jet3], Jet3]:
    """The jet function of the tree under node, as one closure.

    Literals are lifted to jets here, once. Operations that can fail run
    through ``_located``; children are evaluated outside it, so an error
    carries the span of the innermost node that raised it.
    """
    if isinstance(node, Num):
        c = jets.constant(node.value)
        return lambda x: c
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Neg):
        f = _compile(node.child)
        return lambda x: jets.neg(f(x))
    if isinstance(node, BinOp):
        f, g = _compile(node.left), _compile(node.right)
        op = _BINARY[node.op]
        if node.op == "/":
            op = _located(op, node)
        return lambda x: op(f(x), g(x))
    if isinstance(node, Pow):
        f, n = _compile(node.base), node.exponent
        op = _located(jets.int_pow, node)
        return lambda x: op(f(x), n)
    if isinstance(node, Call):
        f = _compile(node.arg)
        op = _located(jets.ELEMENTARY[node.fn], node)
        return lambda x: op(f(x))
    raise TypeError(f"unknown node {node!r}")


def _located(op, node: Node):
    """op, with every error it raises typed and located at node's span.

    An outer derivative can overflow a float ``**`` (OverflowError) or
    divide by an underflowed zero (ZeroDivisionError) before the jet's own
    finiteness check; either way the jet is not representable. ``math``
    functions raise ValueError only on an infinite argument.
    """
    span = node.span

    def at(*args):
        try:
            return op(*args)
        except DivisionByZero:
            raise DivisionByZero(span=span) from None
        except DomainError as err:
            raise DomainError(err.fn, err.value, span=span) from None
        except ValueError:
            raise DomainError(op.__name__, args[0].value, span=span) from None
        except (ZeroDivisionError, OverflowError):
            raise NonFiniteResult(f"non-finite result in jet {op.__name__} "
                                  f"at offset {span[0]}..{span[1]}") from None

    return at


# --- canonical printing ------------------------------------------------------

# Precedence levels for minimal parenthesization.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _fmt(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_fmt(node.arg)})"
    if isinstance(node, Neg):
        inner = _fmt(node.child)
        if _prec(node.child) < _PREC_NEG:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(node, Pow):
        base = _fmt(node.base)
        if _prec(node.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        p = _prec(node)
        left = _fmt(node.left)
        if _prec(node.left) < p:
            left = f"({left})"
        right = _fmt(node.right)
        # Left-associative: the right child needs parens at equal precedence
        # for the non-commutative spellings.
        if _prec(node.right) < p or (_prec(node.right) == p and node.op in "-/"):
            right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"unknown node {node!r}")


def to_string(e: Expression) -> str:
    """Canonical text form; parse(to_string(e)) reproduces the same AST."""
    return _fmt(e.root)


def negated(e: Expression) -> Expression:
    """The expression -(e), used to build conjugate surface data."""
    root = Neg(e.root, e.root.span)
    return Expression(root, e.variable, _fmt(root))
