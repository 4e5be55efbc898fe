"""A small imperative language for randomized mechanisms with noise holes.

Programs are integer-valued, line-oriented, and indentation-structured.  A
*sketch* is a program whose noise scales are left abstract: every noisy
assignment names a hole (``x <- e + Lap(?1)``) whose scale is supplied later,
either as a concrete number or as a symbolic expression.  All randomness is
externalized: running a sketch consumes pre-drawn integer noise values, which
makes replay fully deterministic.

:func:`parse_sketch` tokenizes each line once.  After the header lines,
each line is one statement chosen by its first token (``skip``, ``break``,
``return``, ``append``, ``prepend``, ``if``, ``while``, ``else``), or else
an assignment ``x <- e``, which is noisy when it ends ``+ Lap(?N)`` (or
``Exp``, ``LapVec``, ``ExpVec``).  A name is a letter, then letters, digits
or underscores, and not a keyword: one rule for every target, the private
input, each argument and each variable.

Lists are 1-indexed (``a[1]`` is the first element) so that reported indices
match the usual presentation of mechanisms like noisy-argmax.  Lists are
values (assignment copies) and an element reads as an integer.  The checker
gives every variable one type for the whole sketch, every list one element
type (integer or boolean), and every ``return`` one output type.  Integers
are int64: a result outside that range is a fault, never a wrapped value.
A sketch reads its answer vector, ``qlen`` and its declared arguments; the
rational ``eps`` appears only in noise-scale expressions, so reading it is a
check error.

One engine runs sketches: :func:`compile_sketch` turns a sketch into a
*lane kernel*, numpy code that executes many runs ("lanes") in lock-step,
every lane on one shared answer vector or each on its own row of an answer
matrix, and keeps one kernel per sketch and off-mask.  Hole
``h``'s noise is a ``(lanes, cap)`` int64 matrix, lane ``j`` reading row
``j`` in order; the kernel returns the lanes' :class:`Outputs` and a
``(lanes, n_holes)`` count of the draws each consumed.  Control flow
becomes per-lane masks.  A value that every lane holds equally (a loop
counter, a draw cursor, a list length, a mask of all lanes or none) stays
one Python int or bool, and becomes a ``(lanes,)`` array only when a write
under a mask that splits the lanes gives them different values, so a loop
whose trip count does not depend on the noise pays no per-lane work for
its own bookkeeping.  A fault (unassigned read, index outside
``1..len``, division by zero, int64 overflow, exhausted draws, exhausted
loop fuel) raises :class:`RunError` as soon as a lane that executes the
faulting operation reaches it; masked-off lanes and short-circuited
operands never fault.  The tree interpreter :func:`run`,
one run over a :class:`NoiseTrace`, is the reference semantics that tests
hold the kernel to.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "LangError", "ParseError", "TypeCheckError", "RunError",
    "Var", "IntLit", "BoolLit", "EmptyList", "BinOp", "Not", "Length", "Index",
    "Skip", "Assign", "NoisyAssign", "VecNoisyAssign", "If", "While",
    "Append", "Prepend", "Break", "Return",
    "Hole", "MechanismSketch", "NoiseTrace", "Outputs",
    "parse_sketch", "run", "count_hole_draws", "compile_sketch",
]


class LangError(Exception):
    pass


class ParseError(LangError):
    def __init__(self, msg, line, col=None):
        at = f"line {line}" if col is None else f"line {line}, col {col}"
        super().__init__(f"{msg} ({at})")


class TypeCheckError(LangError):
    pass


class RunError(LangError):
    pass


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class EmptyList:
    pass


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / mod == != < > <= >= and or
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class Length:
    operand: "Expr"


@dataclass(frozen=True)
class Index:
    base: "Expr"
    index: "Expr"  # 1-based


Expr = Union[Var, IntLit, BoolLit, EmptyList, BinOp, Not, Length, Index]


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Assign:
    target: str
    expr: Expr


@dataclass(frozen=True)
class NoisyAssign:
    target: str
    expr: Expr
    hole: int


@dataclass(frozen=True)
class VecNoisyAssign:
    target: str
    expr: Expr
    hole: int


@dataclass(frozen=True)
class If:
    cond: Expr
    then_body: tuple
    else_body: tuple


@dataclass(frozen=True)
class While:
    cond: Expr
    body: tuple


@dataclass(frozen=True)
class Append:
    target: str
    expr: Expr


@dataclass(frozen=True)
class Prepend:
    target: str
    expr: Expr


@dataclass(frozen=True)
class Break:
    pass


@dataclass(frozen=True)
class Return:
    expr: Expr


Command = Union[Skip, Assign, NoisyAssign, VecNoisyAssign, If, While,
                Append, Prepend, Break, Return]


@dataclass(frozen=True)
class Hole:
    hole_id: int          # dense, 0-based
    family: str           # "lap" | "exp"
    vector: bool          # True when drawn elementwise over a list


@dataclass(frozen=True)
class MechanismSketch:
    name: str
    private_input: str                 # symbol bound to the answer vector
    args: tuple                        # extra argument names (qlen implicit)
    adjacency: str                     # "one" | "all"
    holes: tuple                       # tuple[Hole, ...]
    body: tuple                        # tuple[Command, ...]

    @property
    def n_holes(self) -> int:
        return len(self.holes)


class NoiseTrace:
    """Pre-drawn integer noise, one queue per hole.

    ``draws[h]`` holds at most ``capacity[h]`` values; a run that consumes more
    raises rather than recycling values.
    """

    __slots__ = ("draws", "cursors")

    def __init__(self, draws):
        self.draws = [list(d) for d in draws]
        self.cursors = [0] * len(self.draws)

    def take(self, hole: int) -> int:
        cur = self.cursors[hole]
        if cur >= len(self.draws[hole]):
            raise RunError(f"noise draws exhausted for hole {hole + 1}")
        self.cursors[hole] = cur + 1
        return self.draws[hole][cur]

    def consumed(self) -> tuple:
        return tuple(self.cursors)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_KEYWORDS = {"if", "else", "while", "return", "break", "skip", "append",
             "prepend", "len", "true", "false", "and", "or", "not", "mod"}
_NOISE_FAMS = {"Lap": ("lap", False), "Exp": ("exp", False),
               "LapVec": ("lap", True), "ExpVec": ("exp", True)}

# leading blanks, then a token (number, name, arrow, operator) or a stray character
_TOKEN_RE = re.compile(
    r"(\s*)(?:(\d+|[A-Za-z][A-Za-z0-9_]*|<-|[<>=!]=|[-+*/<>(),:\[\]?])|(\S))")


def _tokenize(text: str, lineno: int) -> list:
    """(token, 1-based column) pairs of one line."""
    tokens, col = [], 1
    for blanks, tok, bad in _TOKEN_RE.findall(text):
        col += len(blanks)
        if bad:
            raise ParseError(f"unexpected character {bad!r}", lineno, col)
        tokens.append((tok, col))
        col += len(tok)
    return tokens


def _is_name(tok: str) -> bool:
    """The one name rule: a letter first (the name token's form), not a keyword."""
    return tok[:1].isalpha() and tok not in _KEYWORDS


class _ExprParser:
    """Recursive-descent expression parser over a token list."""

    def __init__(self, tokens, lineno):
        self.tokens = tokens + [(None, None)]  # the end of the expression
        self.lineno = lineno
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] is None:
            raise ParseError("unexpected end of expression", self.lineno)
        self.i += 1
        return tok

    def expect(self, tok):
        got, col = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.lineno, col)

    def parse(self) -> Expr:
        e = self.or_expr()
        tok, col = self.tokens[self.i]
        if tok is not None:
            raise ParseError(f"trailing token {tok!r}", self.lineno, col)
        return e

    def chain(self, ops, operand):
        """A left-associative run of ``operand``s joined by any of ``ops``."""
        e = operand()
        while self.peek() in ops:
            op, _ = self.next()
            e = BinOp(op, e, operand())
        return e

    def or_expr(self):
        return self.chain(("or",), self.and_expr)

    def and_expr(self):
        return self.chain(("and",), self.not_expr)

    def not_expr(self):
        if self.peek() == "not":
            self.next()
            return Not(self.not_expr())
        return self.comparison()

    def comparison(self):
        e = self.additive()
        if self.peek() in ("==", "!=", "<", ">", "<=", ">="):
            op, _ = self.next()
            e = BinOp(op, e, self.additive())
        return e

    def additive(self):
        return self.chain(("+", "-"), self.multiplicative)

    def multiplicative(self):
        return self.chain(("*", "/", "mod"), self.unary)

    def unary(self):
        if self.peek() == "-":
            self.next()
            operand = self.unary()
            if isinstance(operand, IntLit):
                return IntLit(-operand.value)
            return BinOp("-", IntLit(0), operand)
        return self.postfix()

    def postfix(self):
        e = self.atom()
        while self.peek() == "[":
            self.next()
            idx = self.or_expr()
            self.expect("]")
            e = Index(e, idx)
        return e

    def atom(self):
        tok, col = self.next()
        if tok == "(":
            e = self.or_expr()
            self.expect(")")
            return e
        if tok == "[":
            self.expect("]")
            return EmptyList()
        if tok == "true":
            return BoolLit(True)
        if tok == "false":
            return BoolLit(False)
        if tok == "len":
            self.expect("(")
            e = self.or_expr()
            self.expect(")")
            return Length(e)
        if tok.isdigit():
            if int(tok) > _I64_MAX:
                raise ParseError(f"integer literal {tok} exceeds int64", self.lineno, col)
            return IntLit(int(tok))
        if _is_name(tok):
            return Var(tok)
        raise ParseError(f"unexpected token {tok!r}", self.lineno, col)


def _split_lines(source: str):
    """Yield (lineno, indent, line) for non-blank, non-comment lines; ``line``
    keeps its indentation, so token columns count from the line start."""
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        if "\t" in raw[:len(raw) - len(raw.lstrip())]:
            raise ParseError("tabs are not allowed in indentation", lineno)
        yield lineno, len(line) - len(line.lstrip()), line


class _BlockParser:
    def __init__(self, lines):
        self.lines = lines      # list of (lineno, indent, tokens)
        self.pos = 0
        self.holes = []         # list of Hole in textual order

    def parse_block(self, indent) -> tuple:
        body = []
        while self.pos < len(self.lines):
            lineno, ind, _ = self.lines[self.pos]
            if ind < indent:
                break
            if ind > indent:
                raise ParseError("unexpected indentation", lineno)
            body.append(self.statement(indent))
        return tuple(body)

    def _block_after_colon(self, parent_indent, lineno):
        if self.pos >= len(self.lines) or self.lines[self.pos][1] <= parent_indent:
            raise ParseError("expected an indented block", lineno)
        return self.parse_block(self.lines[self.pos][1])

    def statement(self, indent) -> Command:
        lineno, _, toks = self.lines[self.pos]
        self.pos += 1
        words = [t for t, _ in toks]
        head = words[0]

        def expr(lo, hi=None) -> Expr:
            return _ExprParser(toks[lo:hi], lineno).parse()

        if words == ["skip"]:
            return Skip()
        if words == ["break"]:
            return Break()
        if head == "return":
            return Return(expr(1))
        if head in ("append", "prepend"):
            if words[2:3] != [","]:
                raise ParseError(f"{head} takes a list variable and a value", lineno)
            if not _is_name(words[1]):
                raise ParseError(f"bad {head} target {words[1]!r}", lineno, toks[1][1])
            return (Append if head == "append" else Prepend)(words[1], expr(3))
        if head in ("if", "while") and words[-1] == ":":
            cond = expr(1, -1)
            body = self._block_after_colon(indent, lineno)
            if head == "while":
                return While(cond, body)
            else_body = ()
            if self.pos < len(self.lines):
                nlineno, nind, ntoks = self.lines[self.pos]
                if nind == indent and [t for t, _ in ntoks] == ["else", ":"]:
                    self.pos += 1
                    else_body = self._block_after_colon(indent, nlineno)
            return If(cond, body, else_body)
        if head == "else":
            raise ParseError("else without matching if", lineno)
        if "<-" not in words:
            raise ParseError(f"cannot parse statement starting {head!r}", lineno, toks[0][1])
        if words[1:2] != ["<-"] or not _is_name(head):
            target = " ".join(words[:words.index("<-")])
            raise ParseError(f"bad assignment target {target!r}", lineno, toks[0][1])

        # NAME <- expr + Fam ( ? N ): a noisy assignment that opens hole N
        tail = words[-6:]
        if not (len(words) > 7 and tail[1] in _NOISE_FAMS and tail[4].isdigit()
                and (tail[0], tail[2], tail[3], tail[5]) == ("+", "(", "?", ")")):
            return Assign(head, expr(2))
        hole_num, expected = int(tail[4]), len(self.holes) + 1
        if 0 < hole_num < expected:
            raise ParseError(f"hole ?{hole_num} referenced twice", lineno, toks[-2][1])
        if hole_num != expected:
            raise ParseError(
                f"holes must be numbered in textual order; expected ?{expected}, got ?{hole_num}",
                lineno, toks[-2][1])
        hole = Hole(hole_num - 1, *_NOISE_FAMS[tail[1]])
        self.holes.append(hole)
        return (VecNoisyAssign if hole.vector else NoisyAssign)(head, expr(2, -6), hole.hole_id)


def parse_sketch(source: str) -> MechanismSketch:
    """Parse a ``.dpm`` sketch: header lines, then one statement per line.

    A header line's first word is ``mechanism`` (then one free-form word),
    ``private`` (one name, not ``eps``, ``qlen`` or an ``args`` entry),
    ``args`` (distinct names, comma-separated, not ``eps`` or ``qlen``) or
    ``adjacency`` (``one`` or ``all``), and it holds
    no ``<-``.  A body line is tokenized once and chosen by its first token:
    ``skip``; ``break``; ``return E``; ``append X, E``; ``prepend X, E``;
    ``if E :``, ``while E :`` or ``else :``, each opening an indented block;
    otherwise ``X <- E``, a noisy assignment to hole ``N`` when its last six
    tokens are ``+ Lap|Exp|LapVec|ExpVec ( ? N )``, holes numbered 1, 2, ...
    in textual order.  One rule, :func:`_is_name`, admits every name (X, the
    private input, an argument, a variable read): a letter, then letters,
    digits or underscores, and not a keyword.
    """
    lines = list(_split_lines(source))
    if not lines:
        raise ParseError("empty sketch", 1)

    header = {"args": ()}
    private_line = None
    pos = 0
    while pos < len(lines):
        lineno, indent, text = lines[pos]
        first = text.split(None, 1)[0]
        if first not in ("mechanism", "private", "args", "adjacency") or "<-" in text:
            break
        if indent != 0:
            raise ParseError("header lines must not be indented", lineno)
        rest = (text.split()[1:] if first in ("mechanism", "adjacency")
                else [t for t, _ in _tokenize(text, lineno)[1:]])
        if first == "args":
            names = tuple(rest[::2])
            if (not names or rest[1::2] != [","] * (len(names) - 1)
                    or not all(map(_is_name, names)) or len(set(names)) < len(names)):
                raise ParseError("bad argument list", lineno)
            if {"eps", "qlen"} & set(names):
                raise ParseError("'eps' and 'qlen' are implicit, not arguments",
                                 lineno)
            header["args"] = names
        else:
            if len(rest) != 1 or (first == "private" and not _is_name(rest[0])):
                raise ParseError(f"'{first}' takes a single name", lineno)
            header[first] = rest[0]
            if first == "private":
                private_line = lineno
        pos += 1

    for key in ("mechanism", "private", "adjacency"):
        if key not in header:
            raise ParseError(f"missing '{key}' header line", lines[0][0])
    if header["adjacency"] not in ("one", "all"):
        raise ParseError("adjacency must be 'one' or 'all'", lines[0][0])
    private = header["private"]
    if private in ("eps", "qlen"):
        raise ParseError("'eps' and 'qlen' are implicit, not the private "
                         "input", private_line)
    if private in header["args"]:
        raise ParseError(f"'{private}' is both the private input and an "
                         "argument", private_line)

    bp = _BlockParser([(n, ind, _tokenize(text, n)) for n, ind, text in lines[pos:]])
    body = bp.parse_block(0)
    if not bp.holes:
        raise ParseError("sketch declares no noise holes", lines[0][0])

    sketch = MechanismSketch(
        name=header["mechanism"],
        private_input=header["private"],
        args=header["args"],
        adjacency=header["adjacency"],
        holes=tuple(bp.holes),
        body=body,
    )
    _check_sketch(sketch)
    return sketch


# ---------------------------------------------------------------------------
# Static checks
# ---------------------------------------------------------------------------

_INT, _BOOL, _LIST = "int", "bool", "list"


def _check_expr(e: Expr, types: dict) -> str:
    if isinstance(e, Var):
        if e.name == "eps" and "eps" not in types:
            raise TypeCheckError("'eps' is rational and only scales noise; "
                                 "a sketch cannot read it")
        if e.name not in types:
            raise TypeCheckError(f"undeclared symbol {e.name!r}")
        return types[e.name]
    if isinstance(e, IntLit):
        return _INT
    if isinstance(e, BoolLit):
        return _BOOL
    if isinstance(e, EmptyList):
        return _LIST
    if isinstance(e, Not):
        if _check_expr(e.operand, types) != _BOOL:
            raise TypeCheckError("'not' needs a boolean operand")
        return _BOOL
    if isinstance(e, Length):
        if _check_expr(e.operand, types) != _LIST:
            raise TypeCheckError("len() needs a list operand")
        return _INT
    if isinstance(e, Index):
        if _check_expr(e.base, types) != _LIST:
            raise TypeCheckError("indexing needs a list")
        if _check_expr(e.index, types) != _INT:
            raise TypeCheckError("index must be an integer")
        return _INT
    if isinstance(e, BinOp):
        lt = _check_expr(e.left, types)
        rt = _check_expr(e.right, types)
        if e.op in ("and", "or"):
            if lt != _BOOL or rt != _BOOL:
                raise TypeCheckError(f"'{e.op}' needs boolean operands")
            return _BOOL
        if e.op in ("==", "!="):
            if lt != rt:
                raise TypeCheckError("comparison operands must have one type")
            return _BOOL
        if e.op in ("<", ">", "<=", ">="):
            if lt != _INT or rt != _INT:
                raise TypeCheckError(f"'{e.op}' compares integers")
            return _BOOL
        if lt != _INT or rt != _INT:
            raise TypeCheckError(f"'{e.op}' needs integer operands")
        return _INT
    raise TypeCheckError(f"unknown expression {e!r}")


def _merge_scopes(outer: dict, t1: dict, t2: dict):
    # a variable keeps one type sketch-wide (_Decls), so branches agree
    outer.update(t1)
    outer.update(t2)


class _Decls:
    """Sketch-wide typing: every variable keeps one type, every list one
    element type (lists that flow into each other, and every returned list,
    share it) and every ``return`` one output type."""

    def __init__(self, types: dict):
        self.types = dict(types)   # name -> _INT | _BOOL | _LIST
        self.parent = {}           # union-find over list names and "return"
        self.elem = {}             # root -> element type

    def declare(self, name: str, t: str):
        old = self.types.setdefault(name, t)
        if old != t:
            what = "the output" if name == "return" else repr(name)
            raise TypeCheckError(f"{what} holds both {old} and {t} values")

    def _root(self, x: str) -> str:
        while self.parent.get(x, x) != x:
            x = self.parent[x]
        return x

    def elements(self, name: str, t: str):
        root = self._root(name)
        old = self.elem.setdefault(root, t)
        if old != t:
            raise TypeCheckError(f"list {name!r} mixes {old} and {t} elements")

    def link(self, x: str, y: str):
        rx, ry = self._root(x), self._root(y)
        if rx != ry:
            self.parent[rx] = ry
            if rx in self.elem:
                self.elements(ry, self.elem.pop(rx))

    def output(self) -> tuple:
        """(type, boolean): the output type, and whether its values (or its
        elements, for a list) are booleans."""
        t = self.types.get("return", _INT)
        if t == _LIST:
            return t, self.elem.get(self._root("return")) == _BOOL
        return t, t == _BOOL


def _check_body(body, types: dict, in_loop: bool, decls: _Decls):
    """Single textual pass; branch and loop assignments join the enclosing
    scope (the checker flags typos, the runtime flags genuinely unassigned
    reads)."""
    for cmd in body:
        if isinstance(cmd, Skip) or isinstance(cmd, Break):
            if isinstance(cmd, Break) and not in_loop:
                raise TypeCheckError("break outside of a loop")
        elif isinstance(cmd, Assign):
            t = types[cmd.target] = _check_expr(cmd.expr, types)
            decls.declare(cmd.target, t)
            if isinstance(cmd.expr, Var) and t == _LIST:
                decls.link(cmd.target, cmd.expr.name)
        elif isinstance(cmd, (NoisyAssign, VecNoisyAssign)):
            t = _check_expr(cmd.expr, types)
            want = _LIST if isinstance(cmd, VecNoisyAssign) else _INT
            if t != want:
                raise TypeCheckError(
                    f"noisy assignment to {cmd.target!r} needs a {want} expression")
            types[cmd.target] = want
            decls.declare(cmd.target, want)
            if want == _LIST:
                decls.elements(cmd.target, _INT)
                if isinstance(cmd.expr, Var):
                    decls.elements(cmd.expr.name, _INT)
        elif isinstance(cmd, (Append, Prepend)):
            if types.get(cmd.target) != _LIST:
                raise TypeCheckError(f"{cmd.target!r} is not a list")
            t = _check_expr(cmd.expr, types)
            if t not in (_INT, _BOOL):
                raise TypeCheckError("list elements must be integers or booleans")
            decls.elements(cmd.target, t)
        elif isinstance(cmd, If):
            if _check_expr(cmd.cond, types) != _BOOL:
                raise TypeCheckError("if condition must be boolean")
            t1, t2 = dict(types), dict(types)
            _check_body(cmd.then_body, t1, in_loop, decls)
            _check_body(cmd.else_body, t2, in_loop, decls)
            _merge_scopes(types, t1, t2)
        elif isinstance(cmd, While):
            if _check_expr(cmd.cond, types) != _BOOL:
                raise TypeCheckError("while condition must be boolean")
            t1 = dict(types)
            _check_body(cmd.body, t1, True, decls)
            _merge_scopes(types, t1, types)
        elif isinstance(cmd, Return):
            t = _check_expr(cmd.expr, types)
            decls.declare("return", t)
            if isinstance(cmd.expr, Var) and t == _LIST:
                decls.link(cmd.expr.name, "return")
        else:
            raise TypeCheckError(f"unknown command {cmd!r}")


def _check_sketch(sketch: MechanismSketch) -> _Decls:
    types = {sketch.private_input: _LIST, "qlen": _INT}
    for a in sketch.args:
        types[a] = _INT
    decls = _Decls(types)
    decls.elements(sketch.private_input, _INT)
    _check_body(sketch.body, types, False, decls)
    return decls


# ---------------------------------------------------------------------------
# Interpretation: the reference semantics, one run at a time (tests check
# the kernel against it)
# ---------------------------------------------------------------------------

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class _BreakSignal(Exception):
    pass


def _int64(v: int) -> int:
    if not _I64_MIN <= v <= _I64_MAX:
        raise RunError("integer overflow")
    return v


def _idiv(a: int, b: int) -> int:
    if b == 0:
        raise RunError("division by zero")
    q = abs(a) // abs(b)
    return _int64(q if (a >= 0) == (b >= 0) else -q)


def _imod(a: int, b: int) -> int:
    return a - b * _idiv(a, b)


def _eval(e: Expr, mem: dict):
    if isinstance(e, Var):
        try:
            return mem[e.name]
        except KeyError:
            raise RunError(f"read of unassigned variable {e.name!r}") from None
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, EmptyList):
        return []
    if isinstance(e, Not):
        return not _eval(e.operand, mem)
    if isinstance(e, Length):
        return len(_eval(e.operand, mem))
    if isinstance(e, Index):
        base = _eval(e.base, mem)
        i = _eval(e.index, mem)
        if not 1 <= i <= len(base):
            raise RunError(f"index {i} out of range 1..{len(base)}")
        # an element reads as an integer, as the checker types it
        return int(base[i - 1])
    if isinstance(e, BinOp):
        if e.op == "and":
            return _eval(e.left, mem) and _eval(e.right, mem)
        if e.op == "or":
            return _eval(e.left, mem) or _eval(e.right, mem)
        l = _eval(e.left, mem)
        r = _eval(e.right, mem)
        if e.op == "+":
            return _int64(l + r)
        if e.op == "-":
            return _int64(l - r)
        if e.op == "*":
            return _int64(l * r)
        if e.op == "/":
            return _idiv(l, r)
        if e.op == "mod":
            return _imod(l, r)
        if e.op == "==":
            return l == r
        if e.op == "!=":
            return l != r
        if e.op == "<":
            return l < r
        if e.op == ">":
            return l > r
        if e.op == "<=":
            return l <= r
        if e.op == ">=":
            return l >= r
    raise RunError(f"cannot evaluate {e!r}")


def _exec_body(body, mem, trace, fuel_limit, bottoms):
    for cmd in body:
        if isinstance(cmd, Assign):
            v = _eval(cmd.expr, mem)
            # lists are values: assignment copies
            mem[cmd.target] = list(v) if isinstance(v, list) else v
        elif isinstance(cmd, NoisyAssign):
            base = _eval(cmd.expr, mem)
            mem[cmd.target] = (base if bottoms[cmd.hole]
                               else _int64(base + trace.take(cmd.hole)))
        elif isinstance(cmd, VecNoisyAssign):
            base = _eval(cmd.expr, mem)
            if bottoms[cmd.hole]:
                mem[cmd.target] = list(base)
            else:
                noise = [trace.take(cmd.hole) for _ in base]
                mem[cmd.target] = [_int64(v + d) for v, d in zip(base, noise)]
        elif isinstance(cmd, If):
            branch = cmd.then_body if _eval(cmd.cond, mem) else cmd.else_body
            _exec_body(branch, mem, trace, fuel_limit, bottoms)
        elif isinstance(cmd, While):
            fuel = fuel_limit
            while _eval(cmd.cond, mem):
                fuel -= 1
                if fuel < 0:
                    raise RunError("loop fuel exhausted")
                try:
                    _exec_body(cmd.body, mem, trace, fuel_limit, bottoms)
                except _BreakSignal:
                    break
        elif isinstance(cmd, (Append, Prepend)):
            target = _eval(Var(cmd.target), mem)
            v = _eval(cmd.expr, mem)
            target.insert(len(target) if isinstance(cmd, Append) else 0, v)
        elif isinstance(cmd, Break):
            raise _BreakSignal()
        elif isinstance(cmd, Return):
            raise _ReturnSignal(_eval(cmd.expr, mem))
        elif isinstance(cmd, Skip):
            pass
        else:
            raise RunError(f"unknown command {cmd!r}")


def run(sketch: MechanismSketch, args: dict, answers, trace: NoiseTrace,
        bottoms=None):
    """Execute the sketch on an answer vector, consuming noise from ``trace``.

    ``bottoms``, when given, is a per-hole boolean vector marking holes whose
    noise term is dropped entirely (the "no noise here" completion); such
    holes consume no draws.  Returns the program's output with lists frozen
    to tuples.
    """
    answers = list(answers)
    if bottoms is None:
        bottoms = [False] * sketch.n_holes
    mem = {sketch.private_input: answers, "qlen": len(answers)}
    for a in sketch.args:
        if a not in args:
            raise RunError(f"missing argument {a!r}")
        mem[a] = args[a]
    fuel_limit = 10 * len(answers) + 100
    try:
        _exec_body(sketch.body, mem, trace, fuel_limit, bottoms)
    except _ReturnSignal as sig:
        out = sig.value
        return tuple(out) if isinstance(out, list) else out
    raise RunError(f"sketch {sketch.name} finished without returning")


# ---------------------------------------------------------------------------
# Draw counting
# ---------------------------------------------------------------------------

def count_hole_draws(sketch: MechanismSketch, qlen: int) -> tuple:
    """Per-hole upper bound on draws a single run may consume.

    Vector holes and scalar holes under a loop draw up to ``qlen`` values;
    holes in straight-line code draw one.
    """

    caps = [0] * sketch.n_holes

    def walk(body, in_loop):
        for cmd in body:
            if isinstance(cmd, NoisyAssign):
                caps[cmd.hole] = max(caps[cmd.hole], qlen if in_loop else 1)
            elif isinstance(cmd, VecNoisyAssign):
                caps[cmd.hole] = max(caps[cmd.hole], qlen)
            elif isinstance(cmd, If):
                walk(cmd.then_body, in_loop)
                walk(cmd.else_body, in_loop)
            elif isinstance(cmd, While):
                walk(cmd.body, True)

    walk(sketch.body, False)
    return tuple(caps)


# ---------------------------------------------------------------------------
# Lane outputs
# ---------------------------------------------------------------------------

def _pad(d: np.ndarray, width: int) -> np.ndarray:
    """``d`` widened with zero columns to at least ``width``."""
    if d.shape[1] >= width:
        return d
    return np.concatenate(
        [d, np.zeros((len(d), width - d.shape[1]), dtype=np.int64)], axis=1)


class Outputs:
    """The per-lane outputs of one kernel call.

    ``values`` is an int64 array: shape (lanes,) for scalar outputs, or
    (lanes, width) for list outputs, whose ``lengths`` hold each lane's
    length (entries at or past it are 0; ``lengths`` is None for scalars).
    Booleans are stored as 0/1 and flagged by ``boolean``.  Lane ``j``,
    ``outputs[j]``, is the value :func:`run` returns: an int, a bool, or a
    tuple of either.  A slice gives the outputs of those lanes."""

    __slots__ = ("values", "lengths", "boolean")

    def __init__(self, values, lengths=None, boolean=False):
        self.values = values
        self.lengths = lengths
        self.boolean = bool(boolean)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Outputs(self.values[key],
                           None if self.lengths is None else self.lengths[key],
                           self.boolean)
        cast = bool if self.boolean else int
        if self.lengths is None:
            return cast(self.values[key])
        return tuple(cast(v) for v in self.values[key, :self.lengths[key]])

    def __iter__(self):
        return (self[j] for j in range(len(self)))


# ---------------------------------------------------------------------------
# The lane kernel: compile_sketch emits numpy code that runs every lane in
# lock-step.  These helpers are the kernel's runtime; ``m`` is the mask of
# the lanes that execute the operation, and a fault raises only when one of
# those lanes reaches it.  A value that every lane holds equally stays a
# Python int or bool: an int or bool variable, a draw cursor, a list's
# length, and a mask of all lanes (True) or none (False).  A write under a
# mask that splits the lanes (``_k_set``, ``_k_lset``, a draw or a list
# update) turns it into a (lanes,) int64 or bool array, and the helpers
# accept either form.  Masks are combined through ``_k_and``, ``_k_or`` and
# ``_k_not``, because ``~True`` is -2.  Reads and writes of one element per
# lane at per-lane positions go through ``_lanes_at``, which avoids numpy's
# generic two-array index; a lane-uniform position takes one column.
# ---------------------------------------------------------------------------

def _k_any(m) -> bool:
    return m.any() if isinstance(m, np.ndarray) else m


def _k_not(a):
    return ~a if isinstance(a, np.ndarray) else not a


def _k_and(a, b):
    if not isinstance(a, np.ndarray):
        return b if a else False
    if not isinstance(b, np.ndarray):
        return a if b else False
    return a & b


def _k_or(a, b):
    if not isinstance(a, np.ndarray):
        return True if a else b
    if not isinstance(b, np.ndarray):
        return True if b else a
    return a | b


def _k_set(m, new, old):
    """``new`` on the lanes in ``m``, ``old`` on the others."""
    if not isinstance(m, np.ndarray):
        return new if m else old
    if isinstance(new, np.ndarray) or isinstance(old, np.ndarray):
        kind = (new if isinstance(new, np.ndarray) else old).dtype
        if kind == bool:
            return (m & new) | (old & ~m)
        # np.where branches per lane, which costs about twice this on a
        # mask that splits the lanes at random; int64 wraps, so it is exact
        d = new - old
        d *= m
        d += old
        return d
    return np.where(m, new, old)


def _col(x):
    """``x`` as a column against (lanes, w) arrays."""
    return x[:, None] if isinstance(x, np.ndarray) else x


def _lane(bad, m) -> int:
    """First lane active in ``m`` that ``bad`` flags, or -1."""
    if not _k_any(bad):
        return -1
    hit = np.flatnonzero(bad & m)
    return int(hit[0]) if hit.size else -1


def _at(x, j: int) -> int:
    return int(x[j]) if isinstance(x, np.ndarray) else int(x)


def _lanes_at(d, k) -> tuple:
    """``(a, at)`` such that ``a[at]`` holds the elements that
    ``d[np.arange(lanes), k]`` picks, or with a ``(lanes, w)`` ``k``
    ``d[np.arange(lanes)[:, None], k]``; every entry of ``k`` is a column
    of ``d``.  ``a`` is ``d`` or a view of it when ``d`` is C-contiguous,
    so ``a[at] = v`` writes into ``d``.

    numpy's two-array fancy index costs 70-90 us at 8,192 lanes.  This
    takes a column (or a set of columns) when ``k`` is the same on every
    lane, indexes the one row when all lanes share it (a broadcast answer
    row, ``strides[0] == 0``), and takes flat offsets otherwise."""
    if len(k) and (k == k[0]).all():
        return d, (slice(None), k[0])
    if d.strides[0] == 0 and len(d):
        return d[0], k
    offsets = np.arange(len(d)) * d.shape[1]
    return d.reshape(-1), (offsets if k.ndim == 1 else offsets[:, None]) + k


def _k_const(v: int, m):
    """A lane-uniform result computed in Python ints."""
    if not _I64_MIN <= v <= _I64_MAX:
        if _k_any(m):
            raise RunError("integer overflow")
        return 0
    return v


def _k_add(l, r, m):
    if not isinstance(r, np.ndarray):
        if not isinstance(l, np.ndarray):
            return _k_const(l + r, m)
        l, r = r, l
    if not isinstance(l, np.ndarray):
        # one bound, on the side the sign of the uniform term pushes to
        bad = (r > _I64_MAX - l) if l > 0 else (r < _I64_MIN - l) if l < 0 \
            else False
        if _lane(bad, m) >= 0:
            raise RunError("integer overflow")
        return l + r
    s = l + r
    # the wrapped sum moved against the sign of r
    if _lane((s < l) != (r < 0), m) >= 0:
        raise RunError("integer overflow")
    return s


def _k_sub(l, r, m):
    if not isinstance(r, np.ndarray):
        if not isinstance(l, np.ndarray):
            return _k_const(l - r, m)
        bad = (l < _I64_MIN + r) if r > 0 else (l > _I64_MAX + r) if r < 0 \
            else False
    elif not isinstance(l, np.ndarray):
        bad = (r < l - _I64_MAX) if l >= 0 else (r > l - _I64_MIN)
    else:
        s = l - r
        if _lane((s > l) != (r < 0), m) >= 0:
            raise RunError("integer overflow")
        return s
    if _lane(bad, m) >= 0:
        raise RunError("integer overflow")
    return l - r


def _k_mul(l, r, m):
    if not isinstance(l, np.ndarray) and not isinstance(r, np.ndarray):
        return _k_const(l * r, m)
    p = l * r
    # the float product finds the lanes that may have left int64; Python
    # ints settle them exactly
    near = np.abs(np.multiply(l, r, dtype=np.float64)) >= 2.0 ** 62
    if near.any():
        for j in np.flatnonzero(near & m):
            if not _I64_MIN <= _at(l, j) * _at(r, j) <= _I64_MAX:
                raise RunError("integer overflow")
    return p


def _k_div(l, r, m, mod=False):
    """Division truncating toward zero, or the remainder that goes with it."""
    if not isinstance(l, np.ndarray) and not isinstance(r, np.ndarray):
        try:
            return _imod(l, r) if mod else _idiv(l, r)
        except RunError:
            if _k_any(m):
                raise
            return 0
    zero = r == 0
    if _lane(zero, m) >= 0:
        raise RunError("division by zero")
    wrap = (l == _I64_MIN) & (r == -1)
    if _lane(wrap, m) >= 0:
        raise RunError("integer overflow")
    safe = np.where(zero | wrap, 1, r)
    q = l // safe
    rem = l - q * safe
    # floor to truncation: one up where the signs differ and it was inexact
    q = q + ((rem != 0) & ((l < 0) != (safe < 0)))
    return l - safe * q if mod else q


def _k_read(x, assigned, m, name: str):
    if _lane(_k_not(assigned), m) >= 0:
        raise RunError(f"read of unassigned variable {name!r}")
    return x


def _k_arg(args: dict, name: str) -> int:
    value = args.get(name)
    if value is None:
        raise RunError(f"missing argument {name!r}")
    try:
        return _int64(operator.index(value))
    except TypeError:
        raise RunError(f"argument {name!r} must be an integer, "
                       f"got {value!r}") from None


def _k_empty(lanes: int) -> tuple:
    return np.zeros((lanes, 1), dtype=np.int64), 0


def _k_answers(answers, lanes: int) -> tuple:
    """The private input as a list pair, and its length: ``answers`` is one
    row that every lane shares or an int64 ``(lanes, qlen)`` matrix, one
    row per lane."""
    arr = np.asarray(answers, dtype=np.int64)
    if arr.ndim == 1:
        arr = np.broadcast_to(arr, (lanes, len(arr)))
    elif arr.ndim != 2 or arr.shape[0] != lanes:
        raise ValueError(f"answers must be one row or a ({lanes}, qlen) "
                         f"matrix, got shape {arr.shape}")
    qlen = arr.shape[1]
    if qlen == 0:
        return _k_empty(lanes), 0
    return (arr, qlen), qlen


def _k_index(lst, i, m):
    d, n = lst
    j = _lane((i < 1) | (i > n), m)
    if j >= 0:
        raise RunError(f"index {_at(i, j)} out of range 1..{_at(n, j)}")
    if isinstance(i, np.ndarray):
        a, at = _lanes_at(d, np.clip(i - 1, 0, d.shape[1] - 1))
        return a[at]
    k = min(max(i - 1, 0), d.shape[1] - 1)
    # every lane reads one element of the one row they share
    if d.strides[0] == 0 and len(d):
        return int(d[0, k])
    return d[:, k]


def _k_leq(a, b):
    (da, na), (db, nb) = a, b
    w = max(da.shape[1], db.shape[1])
    same = (_pad(da, w) == _pad(db, w)) | (np.arange(w) >= _col(na))
    return (na == nb) & same.all(axis=1)


def _k_lset(m, new, old) -> tuple:
    if not isinstance(m, np.ndarray):
        return new if m else old
    (dn, nn), (do, no) = new, old
    w = max(dn.shape[1], do.shape[1])
    return (np.where(m[:, None], _pad(dn, w), _pad(do, w)),
            np.where(m, nn, no))


def _k_append(lst, v, m) -> tuple:
    d, n = lst
    top = int(np.max(n, initial=0))
    d = _pad(d, top + 1) if top >= d.shape[1] else d.copy()
    # lanes off the mask get v just past their end, where nothing reads
    if isinstance(n, np.ndarray):
        a, at = _lanes_at(d, n)
        a[at] = v
    else:
        d[:, n] = v
    return d, n + m


def _k_prepend(lst, v, m) -> tuple:
    d, n = lst
    shifted = np.empty((len(d), d.shape[1] + 1), dtype=np.int64)
    shifted[:, 0] = v
    shifted[:, 1:] = d
    if not isinstance(m, np.ndarray):
        return (shifted, n + 1) if m else lst
    return (np.where(m[:, None], shifted, _pad(d, d.shape[1] + 1)),
            n + m)


def _k_draw(v, draws, cursor, m, hole: int):
    """``v`` plus each lane's next draw of ``hole``; the advanced cursor."""
    cap = draws.shape[1]
    if _lane(cursor >= cap, m) >= 0:
        raise RunError(f"noise draws exhausted for hole {hole + 1}")
    if cap == 0:
        return v, cursor
    if isinstance(cursor, np.ndarray):
        a, at = _lanes_at(draws, np.minimum(cursor, cap - 1))
        noise = a[at]
    else:
        noise = draws[:, min(cursor, cap - 1)]
    return _k_add(v, noise, m), cursor + m


def _k_vdraw(lst, draws, cursor, m, hole: int):
    """Each element of ``lst`` plus its own draw of ``hole``."""
    d, n = lst
    cap = draws.shape[1]
    if _lane(cursor + n > cap, m) >= 0:
        raise RunError(f"noise draws exhausted for hole {hole + 1}")
    if cap == 0:
        return lst, cursor
    cols = np.arange(d.shape[1])
    k = np.minimum(_col(cursor) + cols, cap - 1)
    if isinstance(cursor, np.ndarray):
        a, at = _lanes_at(draws, k)
        noise = a[at]
    else:
        noise = draws[:, k]
    s = d + noise
    live = (cols < _col(n)) & _col(m)
    if (((s < d) != (noise < 0)) & live).any():
        raise RunError("integer overflow")
    return (s, n), cursor + _k_set(m, n, 0)


def _k_matrix(draws, lanes: int, hole: int) -> np.ndarray:
    arr = np.asarray(draws, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != lanes:
        raise ValueError(f"draws of hole {hole + 1} must be a "
                         f"({lanes}, cap) matrix, got shape {arr.shape}")
    return arr


def _k_finish(lanes: int, out, cursors, is_list: bool, boolean: bool):
    """The call's :class:`Outputs` and consumed counts, lane-uniform
    values broadcast to every lane."""
    consumed = np.empty((lanes, len(cursors)), dtype=np.int64)
    for h, c in enumerate(cursors):
        consumed[:, h] = c
    if not is_list:
        values = np.array(np.broadcast_to(out, lanes), dtype=np.int64)
        return Outputs(values, None, boolean), consumed
    d, n = out
    n = np.array(np.broadcast_to(n, lanes), dtype=np.int64)
    w = int(n.max(initial=0))
    values = np.where(np.arange(w) < n[:, None], _pad(d, w)[:, :w], 0)
    return Outputs(values, n, boolean), consumed


_KERNEL_NAMES = {k: v for k, v in globals().items() if k.startswith("_k_")}


def _contains(cmd, kind, into_loops: bool) -> bool:
    if isinstance(cmd, kind):
        return True
    if isinstance(cmd, If):
        return any(_contains(c, kind, into_loops)
                   for c in cmd.then_body + cmd.else_body)
    if isinstance(cmd, While) and into_loops:
        return any(_contains(c, kind, into_loops) for c in cmd.body)
    return False


class _Emitter:
    """Python source of one kernel.

    Sketch variable ``x`` lives in ``v_x``: a Python int or bool while
    every lane holds the same value, an int64 or bool (lanes,) array once
    the lanes differ, or a ``(data, lengths)`` list pair whose lengths
    follow the same rule.  Masks, draw cursors and ``_out`` do too; the
    code is the same either way, since the runtime helpers take both
    forms.  ``defd`` sets hold the variables assigned on every path to
    the current point; a read outside it checks ``_s_x``, the mask of lanes
    that assigned ``x``, kept only for the variables in ``tracked``."""

    def __init__(self, sketch, bottoms, decls, tracked):
        self.sketch = sketch
        self.bottoms = bottoms
        self.decls = decls
        self.types = decls.types
        self.tracked = tracked
        self.unsafe = set()     # variables read outside ``defd``
        self.lines = []
        self.count = 0
        self.loops = []         # ids of the enclosing loops, innermost last

    def next_id(self) -> int:
        self.count += 1
        return self.count

    def fresh(self, stem: str) -> str:
        return f"_{stem}{self.next_id()}"

    def emit(self, pad: int, text: str):
        self.lines.append("    " * pad + text)

    # -- expressions -------------------------------------------------------

    def can_fault(self, e, defd) -> bool:
        if isinstance(e, Var):
            return e.name not in defd
        if isinstance(e, (IntLit, BoolLit, EmptyList)):
            return False
        if isinstance(e, (Not, Length)):
            return self.can_fault(e.operand, defd)
        if isinstance(e, Index):
            return True
        if e.op in ("+", "-", "*", "/", "mod"):
            return True
        return self.can_fault(e.left, defd) or self.can_fault(e.right, defd)

    def emits(self, e, defd) -> bool:
        """Whether compiling ``e`` emits statements (a short-circuit whose
        right operand can fault)."""
        if isinstance(e, (Not, Length)):
            return self.emits(e.operand, defd)
        if isinstance(e, Index):
            return self.emits(e.base, defd) or self.emits(e.index, defd)
        if isinstance(e, BinOp):
            if e.op in ("and", "or") and self.can_fault(e.right, defd):
                return True
            return self.emits(e.left, defd) or self.emits(e.right, defd)
        return False

    def pair(self, left, right, m, pad, defd) -> tuple:
        """Both operands, left evaluated first as in :func:`run`."""
        l = self.expr(left, m, pad, defd)
        if self.emits(right, defd):
            t = self.fresh("t")
            self.emit(pad, f"{t} = {l}")
            l = t
        return l, self.expr(right, m, pad, defd)

    def expr(self, e, m: str, pad: int, defd) -> str:
        if isinstance(e, Var):
            if e.name in defd:
                return f"v_{e.name}"
            self.unsafe.add(e.name)
            return f"_k_read(v_{e.name}, _s_{e.name}, {m}, {e.name!r})"
        if isinstance(e, (IntLit, BoolLit)):
            return repr(e.value)
        if isinstance(e, EmptyList):
            return "_k_empty(_L)"
        if isinstance(e, Not):
            return f"_k_not({self.expr(e.operand, m, pad, defd)})"
        if isinstance(e, Length):
            return f"{self.expr(e.operand, m, pad, defd)}[1]"
        if isinstance(e, Index):
            base, i = self.pair(e.base, e.index, m, pad, defd)
            return f"_k_index({base}, {i}, {m})"
        if e.op in ("and", "or"):
            l = self.expr(e.left, m, pad, defd)
            fn = "_k_and" if e.op == "and" else "_k_or"
            if not self.can_fault(e.right, defd):
                return f"{fn}({l}, {self.expr(e.right, m, pad, defd)})"
            # the right operand runs only where the left did not decide
            t, mr = self.fresh("t"), self.fresh("m")
            self.emit(pad, f"{t} = {l}")
            gate = t if e.op == "and" else f"_k_not({t})"
            self.emit(pad, f"{mr} = _k_and({m}, {gate})")
            return f"{fn}({t}, {self.expr(e.right, mr, pad, defd)})"
        l, r = self.pair(e.left, e.right, m, pad, defd)
        if e.op == "mod":
            return f"_k_div({l}, {r}, {m}, True)"
        fn = {"+": "_k_add", "-": "_k_sub", "*": "_k_mul", "/": "_k_div"}.get(e.op)
        if fn:
            return f"{fn}({l}, {r}, {m})"
        if e.op in ("==", "!=") and _check_expr(e.left, self.types) == _LIST:
            eq = f"_k_leq({l}, {r})"
            return eq if e.op == "==" else f"_k_not({eq})"
        return f"({l} {e.op} {r})"

    # -- statements --------------------------------------------------------

    def assign(self, name: str, value: str, m: str, pad: int, defd):
        fn = "_k_lset" if self.types[name] == _LIST else "_k_set"
        self.emit(pad, f"v_{name} = {fn}({m}, {value}, v_{name})")
        if name in self.tracked:
            self.emit(pad, f"_s_{name} = _k_or(_s_{name}, {m})")
        defd.add(name)

    def stop(self, m: str, stops: list, pad: int):
        """Take the lanes that stopped (returned or broke) out of ``m``."""
        stopped = stops[0] if len(stops) == 1 else f"_k_or({', '.join(stops)})"
        self.emit(pad, f"{m} = _k_and({m}, _k_not({stopped}))")

    def block(self, body, m: str, pad: int, defd) -> set:
        """Emit ``body`` for the lanes in mask variable ``m``, which the
        block may narrow; returns the variables assigned on every path."""
        self.emit(pad, "pass")
        for idx, cmd in enumerate(body):
            self.stmt(cmd, m, pad, defd)
            stops = ["_ret"] if _contains(cmd, Return, True) else []
            if self.loops and _contains(cmd, Break, False):
                stops.append(f"_brk{self.loops[-1]}")
            if stops and idx < len(body) - 1:
                self.stop(m, stops, pad)
                self.emit(pad, f"if _k_any({m}):")
                pad += 1
                self.emit(pad, "pass")
        return defd

    def stmt(self, cmd, m: str, pad: int, defd):
        if isinstance(cmd, Assign):
            self.assign(cmd.target, self.expr(cmd.expr, m, pad, defd), m, pad,
                        defd)
        elif isinstance(cmd, (NoisyAssign, VecNoisyAssign)):
            value = self.expr(cmd.expr, m, pad, defd)
            h = cmd.hole
            if not self.bottoms[h]:
                fn = "_k_vdraw" if isinstance(cmd, VecNoisyAssign) else "_k_draw"
                t = self.fresh("t")
                self.emit(pad, f"{t}, _cur{h} = {fn}({value}, _D{h}, _cur{h}, {m}, {h})")
                value = t
            self.assign(cmd.target, value, m, pad, defd)
        elif isinstance(cmd, (Append, Prepend)):
            lst, value = self.pair(Var(cmd.target), cmd.expr, m, pad, defd)
            fn = "_k_append" if isinstance(cmd, Append) else "_k_prepend"
            self.emit(pad, f"v_{cmd.target} = {fn}({lst}, {value}, {m})")
        elif isinstance(cmd, If):
            c, mt = self.fresh("c"), self.fresh("m")
            self.emit(pad, f"{c} = {self.expr(cmd.cond, m, pad, defd)}")
            self.emit(pad, f"{mt} = _k_and({m}, {c})")
            self.emit(pad, f"if _k_any({mt}):")
            then_defd = self.block(cmd.then_body, mt, pad + 1, set(defd))
            else_defd = set(defd)
            if cmd.else_body:
                me = self.fresh("m")
                self.emit(pad, f"{me} = _k_and({m}, _k_not({c}))")
                self.emit(pad, f"if _k_any({me}):")
                else_defd = self.block(cmd.else_body, me, pad + 1, else_defd)
            defd |= then_defd & else_defd
        elif isinstance(cmd, While):
            k = self.next_id()
            w, mb = f"_w{k}", f"_mb{k}"
            self.emit(pad, f"{w} = {m}")
            self.emit(pad, f"_n{k} = 0")
            breaks = any(_contains(c, Break, False) for c in cmd.body)
            if breaks:
                self.emit(pad, f"_brk{k} = False")
            self.emit(pad, "while True:")
            self.emit(pad + 1, f"{w} = _k_and({w}, "
                               f"{self.expr(cmd.cond, w, pad + 1, defd)})")
            self.emit(pad + 1, f"if not _k_any({w}):")
            self.emit(pad + 2, "break")
            self.emit(pad + 1, f"_n{k} += 1")
            self.emit(pad + 1, f"if _n{k} > _fuel:")
            self.emit(pad + 2, "raise RunError('loop fuel exhausted')")
            self.emit(pad + 1, f"{mb} = {w}")
            self.loops.append(k)
            self.block(cmd.body, mb, pad + 1, set(defd))
            self.loops.pop()
            stops = ([f"_brk{k}"] if breaks else []) + (
                ["_ret"] if any(_contains(c, Return, True) for c in cmd.body)
                else [])
            if stops:
                self.stop(w, stops, pad + 1)
        elif isinstance(cmd, Break):
            b = f"_brk{self.loops[-1]}"
            self.emit(pad, f"{b} = _k_or({b}, {m})")
        elif isinstance(cmd, Return):
            value = self.expr(cmd.expr, m, pad, defd)
            is_list = _check_expr(cmd.expr, self.types) == _LIST
            fn = "_k_lset" if is_list else "_k_set"
            self.emit(pad, f"_out = {fn}({m}, {value}, _out)")
            self.emit(pad, f"_ret = _k_or(_ret, {m})")
        elif not isinstance(cmd, Skip):
            raise LangError(f"cannot compile {cmd!r}")

    def kernel(self) -> str:
        sk = self.sketch
        out_type, boolean = self.decls.output()
        inputs = {sk.private_input, "qlen", *sk.args}
        self.emit(1, "_L = len(_draws[0])")
        self.emit(1, f"if len(_draws) != {sk.n_holes}:")
        self.emit(2, f"raise ValueError('need draws for {sk.n_holes} hole(s)')")
        for a in sk.args:
            self.emit(1, f"v_{a} = _k_arg(_args, {a!r})")
        self.emit(1, f"v_{sk.private_input}, v_qlen = _k_answers(_answers, _L)")
        self.emit(1, "_fuel = 10 * v_qlen + 100")
        for h in range(sk.n_holes):
            self.emit(1, f"_cur{h} = 0")
            if not self.bottoms[h]:
                self.emit(1, f"_D{h} = _k_matrix(_draws[{h}], _L, {h})")
        for name, t in self.types.items():
            if name in inputs or name == "return":
                continue
            init = {_INT: "0", _BOOL: "False", _LIST: "_k_empty(_L)"}[t]
            self.emit(1, f"v_{name} = {init}")
            if name in self.tracked:
                self.emit(1, f"_s_{name} = False")
        is_list = out_type == _LIST
        self.emit(1, "_out = " + ("_k_empty(_L)" if is_list else "0"))
        self.emit(1, "_ret = False")
        # a call of no lanes executes nothing
        self.emit(1, "_m0 = _L > 0")
        self.block(sk.body, "_m0", 1, set(inputs))
        self.emit(1, "if _k_any(_k_and(_m0, _k_not(_ret))):")
        self.emit(2, f"raise RunError({f'sketch {sk.name} finished without returning'!r})")
        cursors = ", ".join(f"_cur{h}" for h in range(sk.n_holes))
        self.emit(1, f"return _k_finish(_L, _out, ({cursors},), {is_list}, "
                     f"{boolean})")
        return "\n".join(["def _kernel(_args, _answers, _draws):"] + self.lines)


_KERNELS = {}   # (sketch, off-mask) -> kernel


def compile_sketch(sketch: MechanismSketch, bottoms=None):
    """Compile to the lane kernel ``fn(args, answers, draws) -> (outputs,
    consumed)``, which runs many runs of the sketch at once.

    Every lane is one run on the same ``args``.  ``answers`` is either one
    answer vector that every lane runs on, or an int64 ``(lanes, qlen)``
    matrix whose row ``j`` is lane ``j``'s answer vector; ``qlen`` and the
    loop fuel come from its last axis.  ``draws[h]`` is an int64 ``(lanes,
    cap)`` matrix for hole ``h`` (its row count sets the lane count; holes
    marked in ``bottoms`` are compiled out, read nothing and may pass
    ``(lanes, 0)``).  Lane ``j`` reads hole ``h``'s draws in order from
    ``draws[h][j, 0]``, so it consumes exactly the values :func:`run`
    takes from a trace holding that row.  Returns an :class:`Outputs`,
    whose lane ``j`` equals :func:`run`'s output on its answers, and the
    ``(lanes, n_holes)`` int64 array of draws each lane consumed.

    The lanes run in lock-step: ``if``, ``while``, ``break`` and
    ``return`` become per-lane masks.  Values are int64 and booleans.  A
    value that every lane holds equally (a variable, a draw cursor, a
    list length or a mask) is kept as one Python int or bool, and a write
    under a mask that splits the lanes turns it into a ``(lanes,)`` array:
    on one shared answer row noisymax1's counter, cursor and loop mask
    stay scalars, while svt's become arrays after the first ``break``.
    The returned arrays are the same either way.  The
    call raises :class:`RunError`, with :func:`run`'s message, when any
    lane that executes an operation faults there: a read of an unassigned
    variable, an index outside ``1..len``, a division by zero, a result
    outside int64 (which never wraps), a hole with no draws left or a loop
    out of fuel.  Lanes masked off by a branch, a loop exit, ``break`` or
    ``return``, and the right operand of an ``and``/``or`` the left one
    decided, raise nothing.  When lanes fault at different operations, the
    operation the lock-step run reaches first raises, with the message of
    its first faulting lane.

    Kernels are memoized for the life of the process on the sketch's value
    and the off-mask as a tuple of bools: every call with equal arguments
    returns the same function, and a sketch of n holes has at most 2^n.
    """
    if bottoms is None:
        bottoms = [False] * sketch.n_holes
    bottoms = tuple(bool(b) for b in bottoms)
    key = (sketch, bottoms)
    kernel = _KERNELS.get(key)
    if kernel is None:
        decls = _check_sketch(sketch)
        probe = _Emitter(sketch, bottoms, decls, set())
        probe.kernel()
        emitter = _Emitter(sketch, bottoms, decls, probe.unsafe)
        namespace = {"np": np, "RunError": RunError, **_KERNEL_NAMES}
        exec(compile(emitter.kernel(), f"<sketch:{sketch.name}>", "exec"),
             namespace)
        kernel = _KERNELS[key] = namespace["_kernel"]
    return kernel
