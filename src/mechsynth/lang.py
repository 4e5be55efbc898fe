"""A small imperative language for randomized mechanisms with noise holes.

Programs are integer-valued, line-oriented, and indentation-structured.  A
*sketch* is a program whose noise scales are left abstract: every noisy
assignment names a hole (``x <- e + Lap(?1)``) whose scale is supplied later,
either as a concrete number or as a symbolic expression.  All randomness is
externalized: running a sketch consumes pre-drawn integer noise values from a
:class:`NoiseTrace`, which makes replay fully deterministic.

Lists are 1-indexed (``a[1]`` is the first element) so that reported indices
match the usual presentation of mechanisms like noisy-argmax.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional, Union

__all__ = [
    "LangError", "ParseError", "TypeCheckError", "RunError",
    "Var", "IntLit", "BoolLit", "EmptyList", "BinOp", "Not", "Length", "Index",
    "Skip", "Assign", "NoisyAssign", "VecNoisyAssign", "If", "While",
    "Append", "Prepend", "Break", "Return",
    "Hole", "MechanismSketch", "NoiseTrace",
    "parse_sketch", "run", "count_hole_draws", "compile_sketch",
]


class LangError(Exception):
    pass


class ParseError(LangError):
    def __init__(self, msg, line=None, col=None):
        loc = "" if line is None else f" (line {line}" + ("" if col is None else f", col {col}") + ")"
        super().__init__(msg + loc)
        self.line = line
        self.col = col


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
    args: tuple                        # extra argument names (eps, qlen implicit)
    adjacency: str                     # "one" | "all"
    holes: tuple                       # tuple[Hole, ...]
    body: tuple                        # tuple[Command, ...]
    source: str = ""
    output_var: Optional[str] = None

    @property
    def n_holes(self) -> int:
        return len(self.holes)

    def all_args(self) -> tuple:
        return ("qlen", "eps") + tuple(self.args)


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
            raise RunError(f"noise trace exhausted for hole {hole + 1}")
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

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<arrow><-)
  | (?P<op><=|>=|==|!=|[+\-*/<>(),:\[\]?])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str, lineno: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", lineno, pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.group(), pos + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive-descent expression parser over a token list."""

    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of expression", self.lineno)
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, tok):
        got, col = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.lineno, col)

    def done(self):
        return self.i >= len(self.tokens)

    def parse(self) -> Expr:
        e = self.or_expr()
        if not self.done():
            tok, col = self.tokens[self.i]
            raise ParseError(f"trailing token {tok!r}", self.lineno, col)
        return e

    def or_expr(self):
        e = self.and_expr()
        while self.peek() == "or":
            self.next()
            e = BinOp("or", e, self.and_expr())
        return e

    def and_expr(self):
        e = self.not_expr()
        while self.peek() == "and":
            self.next()
            e = BinOp("and", e, self.not_expr())
        return e

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
        e = self.multiplicative()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            e = BinOp(op, e, self.multiplicative())
        return e

    def multiplicative(self):
        e = self.unary()
        while self.peek() in ("*", "/", "mod"):
            op, _ = self.next()
            e = BinOp(op, e, self.unary())
        return e

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
            return IntLit(int(tok))
        if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok) and tok not in _KEYWORDS:
            return Var(tok)
        raise ParseError(f"unexpected token {tok!r}", self.lineno, col)


_NOISY_RE = re.compile(
    r"^(?P<target>[A-Za-z][A-Za-z0-9_]*)\s*<-\s*(?P<expr>.*?)\s*\+\s*"
    r"(?P<fam>Lap|Exp|LapVec|ExpVec)\(\s*\?(?P<hole>\d+)\s*\)\s*$")


def _split_lines(source: str):
    """Yield (lineno, indent, content) for non-blank, non-comment lines."""
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "\t" in raw[:len(raw) - len(raw.lstrip())]:
            raise ParseError("tabs are not allowed in indentation", lineno)
        indent = len(line) - len(line.lstrip())
        yield lineno, indent, line.strip()


class _BlockParser:
    def __init__(self, lines, holes_seen):
        self.lines = lines      # list of (lineno, indent, text)
        self.pos = 0
        self.holes_seen = holes_seen  # list of Hole in textual order

    def parse_block(self, indent) -> tuple:
        body = []
        while self.pos < len(self.lines):
            lineno, ind, text = self.lines[self.pos]
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
        lineno, _, text = self.lines[self.pos]
        self.pos += 1

        if text == "skip":
            return Skip()
        if text == "break":
            return Break()
        if text.startswith("return"):
            tokens = _tokenize(text[len("return"):], lineno)
            return Return(_ExprParser(tokens, lineno).parse())
        for kw, node in (("append", Append), ("prepend", Prepend)):
            if text.startswith(kw + " "):
                rest = text[len(kw) + 1:]
                if "," not in rest:
                    raise ParseError(f"{kw} takes a list variable and a value", lineno)
                target, expr_text = rest.split(",", 1)
                target = target.strip()
                if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", target):
                    raise ParseError(f"bad {kw} target {target!r}", lineno)
                expr = _ExprParser(_tokenize(expr_text, lineno), lineno).parse()
                return node(target, expr)
        if text.startswith("if ") and text.endswith(":"):
            cond = _ExprParser(_tokenize(text[3:-1], lineno), lineno).parse()
            then_body = self._block_after_colon(indent, lineno)
            else_body = ()
            if self.pos < len(self.lines):
                nlineno, nind, ntext = self.lines[self.pos]
                if nind == indent and ntext == "else:":
                    self.pos += 1
                    else_body = self._block_after_colon(indent, nlineno)
            return If(cond, then_body, else_body)
        if text.startswith("while ") and text.endswith(":"):
            cond = _ExprParser(_tokenize(text[6:-1], lineno), lineno).parse()
            return While(cond, self._block_after_colon(indent, lineno))
        if text == "else:":
            raise ParseError("else without matching if", lineno)

        m = _NOISY_RE.match(text)
        if m:
            fam, vector = _NOISE_FAMS[m.group("fam")]
            hole_num = int(m.group("hole"))
            expected = len(self.holes_seen) + 1
            for h in self.holes_seen:
                if h.hole_id == hole_num - 1:
                    raise ParseError(f"hole ?{hole_num} referenced twice", lineno)
            if hole_num != expected:
                raise ParseError(
                    f"holes must be numbered in textual order; expected ?{expected}, got ?{hole_num}",
                    lineno)
            hole = Hole(hole_num - 1, fam, vector)
            self.holes_seen.append(hole)
            expr = _ExprParser(_tokenize(m.group("expr"), lineno), lineno).parse()
            cls = VecNoisyAssign if vector else NoisyAssign
            return cls(m.group("target"), expr, hole.hole_id)
        if "<-" in text:
            target, expr_text = text.split("<-", 1)
            target = target.strip()
            if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", target) or target in _KEYWORDS:
                raise ParseError(f"bad assignment target {target!r}", lineno)
            if target.startswith("_"):
                raise ParseError("identifiers may not start with underscore", lineno)
            expr = _ExprParser(_tokenize(expr_text, lineno), lineno).parse()
            return Assign(target, expr)
        raise ParseError(f"cannot parse statement {text!r}", lineno)


def parse_sketch(source: str) -> MechanismSketch:
    """Parse a ``.dpm`` sketch: a header block followed by the program body."""
    lines = list(_split_lines(source))
    if not lines:
        raise ParseError("empty sketch", 1)

    header = {"args": ()}
    pos = 0
    while pos < len(lines):
        lineno, indent, text = lines[pos]
        first = text.split(None, 1)[0]
        if first not in ("mechanism", "private", "args", "adjacency"):
            break
        if indent != 0:
            raise ParseError("header lines must not be indented", lineno)
        rest = text[len(first):].strip()
        if first == "args":
            names = tuple(n.strip() for n in rest.split(","))
            if not all(re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", n) for n in names):
                raise ParseError("bad argument list", lineno)
            header["args"] = names
        else:
            if not rest or len(rest.split()) != 1:
                raise ParseError(f"'{first}' takes a single name", lineno)
            header[first] = rest
        pos += 1

    for key in ("mechanism", "private", "adjacency"):
        if key not in header:
            raise ParseError(f"missing '{key}' header line", lines[0][0])
    if header["adjacency"] not in ("one", "all"):
        raise ParseError("adjacency must be 'one' or 'all'", lines[0][0])

    holes_seen: list = []
    bp = _BlockParser(lines[pos:], holes_seen)
    body = bp.parse_block(0)
    if bp.pos != len(bp.lines):
        raise ParseError("unparsed trailing statements", bp.lines[bp.pos][0])
    if not holes_seen:
        raise ParseError("sketch declares no noise holes", lines[0][0])

    output_var = None
    if body and isinstance(body[-1], Return) and isinstance(body[-1].expr, Var):
        output_var = body[-1].expr.name

    sketch = MechanismSketch(
        name=header["mechanism"],
        private_input=header["private"],
        args=header["args"],
        adjacency=header["adjacency"],
        holes=tuple(holes_seen),
        body=body,
        source=source,
        output_var=output_var,
    )
    _check_sketch(sketch)
    return sketch


# ---------------------------------------------------------------------------
# Static checks
# ---------------------------------------------------------------------------

_INT, _BOOL, _LIST = "int", "bool", "list"


def _check_expr(e: Expr, types: dict) -> str:
    if isinstance(e, Var):
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
    for k in set(t1) | set(t2):
        a, b = t1.get(k), t2.get(k)
        if a is not None and b is not None and a != b:
            raise TypeCheckError(f"{k!r} has conflicting types across branches")
        outer[k] = a if a is not None else b


def _check_body(body, types: dict, in_loop: bool):
    """Single textual pass; branch and loop assignments join the enclosing
    scope (the checker flags typos, the runtime flags genuinely unassigned
    reads)."""
    for cmd in body:
        if isinstance(cmd, Skip) or isinstance(cmd, Break):
            if isinstance(cmd, Break) and not in_loop:
                raise TypeCheckError("break outside of a loop")
        elif isinstance(cmd, Assign):
            types[cmd.target] = _check_expr(cmd.expr, types)
        elif isinstance(cmd, (NoisyAssign, VecNoisyAssign)):
            t = _check_expr(cmd.expr, types)
            want = _LIST if isinstance(cmd, VecNoisyAssign) else _INT
            if t != want:
                raise TypeCheckError(
                    f"noisy assignment to {cmd.target!r} needs a {want} expression")
            types[cmd.target] = want
        elif isinstance(cmd, (Append, Prepend)):
            if types.get(cmd.target) != _LIST:
                raise TypeCheckError(f"{cmd.target!r} is not a list")
            if _check_expr(cmd.expr, types) not in (_INT, _BOOL):
                raise TypeCheckError("list elements must be integers or booleans")
        elif isinstance(cmd, If):
            if _check_expr(cmd.cond, types) != _BOOL:
                raise TypeCheckError("if condition must be boolean")
            t1, t2 = dict(types), dict(types)
            _check_body(cmd.then_body, t1, in_loop)
            _check_body(cmd.else_body, t2, in_loop)
            _merge_scopes(types, t1, t2)
        elif isinstance(cmd, While):
            if _check_expr(cmd.cond, types) != _BOOL:
                raise TypeCheckError("while condition must be boolean")
            t1 = dict(types)
            _check_body(cmd.body, t1, True)
            _merge_scopes(types, t1, types)
        elif isinstance(cmd, Return):
            _check_expr(cmd.expr, types)
        else:
            raise TypeCheckError(f"unknown command {cmd!r}")


def _check_sketch(sketch: MechanismSketch):
    types = {sketch.private_input: _LIST, "qlen": _INT, "eps": _INT}
    for a in sketch.args:
        types[a] = _INT
    _check_body(sketch.body, types, False)


# ---------------------------------------------------------------------------
# Interpretation
# ---------------------------------------------------------------------------

class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class _BreakSignal(Exception):
    pass


def _idiv(a: int, b: int) -> int:
    if b == 0:
        raise RunError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


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
        return base[i - 1]
    if isinstance(e, BinOp):
        if e.op == "and":
            return _eval(e.left, mem) and _eval(e.right, mem)
        if e.op == "or":
            return _eval(e.left, mem) or _eval(e.right, mem)
        l = _eval(e.left, mem)
        r = _eval(e.right, mem)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
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
            mem[cmd.target] = _eval(cmd.expr, mem)
        elif isinstance(cmd, NoisyAssign):
            base = _eval(cmd.expr, mem)
            mem[cmd.target] = base if bottoms[cmd.hole] else base + trace.take(cmd.hole)
        elif isinstance(cmd, VecNoisyAssign):
            base = _eval(cmd.expr, mem)
            if bottoms[cmd.hole]:
                mem[cmd.target] = list(base)
            else:
                mem[cmd.target] = [v + trace.take(cmd.hole) for v in base]
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
        elif isinstance(cmd, Append):
            mem[cmd.target].append(_eval(cmd.expr, mem))
        elif isinstance(cmd, Prepend):
            mem[cmd.target].insert(0, _eval(cmd.expr, mem))
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
    # eps participates in scale expressions, not in program control flow;
    # bind it as 0 if absent so sketches referring to it still run.
    mem["eps"] = args.get("eps", 0)
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

def count_hole_draws(sketch: MechanismSketch, args: dict, qlen: int) -> tuple:
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
# Compilation to a Python closure (fast path; same outputs as run(), and
# RunError wherever run() raises it)
# ---------------------------------------------------------------------------

def _compile_expr(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, IntLit):
        return repr(e.value)
    if isinstance(e, BoolLit):
        return repr(e.value)
    if isinstance(e, EmptyList):
        return "[]"
    if isinstance(e, Not):
        return f"(not {_compile_expr(e.operand)})"
    if isinstance(e, Length):
        return f"len({_compile_expr(e.operand)})"
    if isinstance(e, Index):
        # the base is a variable or [], so naming it twice costs nothing
        base = _compile_expr(e.base)
        return (f"{base}[_i - 1 if 0 < (_i := {_compile_expr(e.index)}) "
                f"<= len({base}) else _bad_index(_i, {base})]")
    if isinstance(e, BinOp):
        op = {"mod": None, "/": None, "==": "==", "!=": "!=", "and": "and",
              "or": "or"}.get(e.op, e.op)
        l, r = _compile_expr(e.left), _compile_expr(e.right)
        if e.op == "/":
            return f"_idiv({l}, {r})"
        if e.op == "mod":
            return f"_imod({l}, {r})"
        return f"({l} {op} {r})"
    raise LangError(f"cannot compile {e!r}")


def _compile_body(body, lines, indent, bottoms, loop_depth):
    pad = "    " * indent
    for cmd in body:
        if isinstance(cmd, Assign):
            lines.append(f"{pad}{cmd.target} = {_compile_expr(cmd.expr)}")
        elif isinstance(cmd, NoisyAssign):
            h = cmd.hole
            if bottoms[h]:
                lines.append(f"{pad}{cmd.target} = {_compile_expr(cmd.expr)}")
            else:
                lines.append(f"{pad}{cmd.target} = {_compile_expr(cmd.expr)} + _d{h}[_c{h}]")
                lines.append(f"{pad}_c{h} += 1")
        elif isinstance(cmd, VecNoisyAssign):
            h = cmd.hole
            if bottoms[h]:
                lines.append(f"{pad}{cmd.target} = list({_compile_expr(cmd.expr)})")
            else:
                lines.append(f"{pad}_base = {_compile_expr(cmd.expr)}")
                lines.append(f"{pad}{cmd.target} = [_v + _d{h}[_c{h} + _k] "
                             f"for _k, _v in enumerate(_base)]")
                lines.append(f"{pad}_c{h} += len(_base)")
        elif isinstance(cmd, If):
            lines.append(f"{pad}if {_compile_expr(cmd.cond)}:")
            if cmd.then_body:
                _compile_body(cmd.then_body, lines, indent + 1, bottoms, loop_depth)
            else:
                lines.append(f"{pad}    pass")
            if cmd.else_body:
                lines.append(f"{pad}else:")
                _compile_body(cmd.else_body, lines, indent + 1, bottoms, loop_depth)
        elif isinstance(cmd, While):
            lines.append(f"{pad}_fuel{loop_depth} = _fuel_limit")
            lines.append(f"{pad}while {_compile_expr(cmd.cond)}:")
            lines.append(f"{pad}    _fuel{loop_depth} -= 1")
            lines.append(f"{pad}    if _fuel{loop_depth} < 0:")
            lines.append(f"{pad}        raise RunError('loop fuel exhausted')")
            _compile_body(cmd.body, lines, indent + 1, bottoms, loop_depth + 1)
        elif isinstance(cmd, Append):
            lines.append(f"{pad}{cmd.target}.append({_compile_expr(cmd.expr)})")
        elif isinstance(cmd, Prepend):
            lines.append(f"{pad}{cmd.target}.insert(0, {_compile_expr(cmd.expr)})")
        elif isinstance(cmd, Break):
            lines.append(f"{pad}break")
        elif isinstance(cmd, Return):
            lines.append(f"{pad}_out = {_compile_expr(cmd.expr)}")
            lines.append(f"{pad}raise _Done()")
        elif isinstance(cmd, Skip):
            lines.append(f"{pad}pass")
        else:
            raise LangError(f"cannot compile {cmd!r}")


class _Done(Exception):
    pass


def _bad_index(i: int, base: list):
    raise RunError(f"index {i} out of range 1..{len(base)}")


def compile_sketch(sketch: MechanismSketch, bottoms=None):
    """Compile to ``fn(args, answers, draws) -> (output, consumed)``.

    ``draws`` is a per-hole sequence of pre-drawn values (indexable), and
    ``consumed`` the per-hole number of values read.  Holes marked in
    ``bottoms`` are compiled out and consume nothing.  Outputs match
    :func:`run`; an out-of-range index, a read of an unassigned variable
    and a run that needs more draws than ``draws`` holds raise
    :class:`RunError`, as in :func:`run`.
    """
    if bottoms is None:
        bottoms = [False] * sketch.n_holes
    bottoms = tuple(bool(b) for b in bottoms)

    n = sketch.n_holes
    lines = ["def _mech(_args, _answers, _draws):"]
    lines.append(f"    {sketch.private_input} = _answers")
    lines.append("    qlen = len(_answers)")
    lines.append("    eps = _args.get('eps', 0)")
    for a in sketch.args:
        lines.append(f"    {a} = _args[{a!r}]")
    for h in range(n):
        lines.append(f"    _d{h} = _draws[{h}]")
        lines.append(f"    _c{h} = 0")
    lines.append("    _fuel_limit = 10 * qlen + 100")
    lines.append("    _out = None")
    lines.append("    try:")
    _compile_body(sketch.body, lines, 2, bottoms, 0)
    lines.append("        raise RunError('sketch finished without returning')")
    lines.append("    except _Done:")
    lines.append("        pass")
    # checked indexing leaves reads of ``_draws`` as the only IndexError
    lines.append("    except IndexError:")
    lines.append("        raise RunError('noise draws exhausted') from None")
    lines.append("    except UnboundLocalError as _exc:")
    lines.append("        raise RunError(f'unassigned variable: {_exc}') from None")
    consumed = ", ".join(f"_c{h}" for h in range(n))
    lines.append("    if isinstance(_out, list):")
    lines.append("        _out = tuple(_out)")
    lines.append(f"    return _out, ({consumed}{',' if n == 1 else ''})")

    namespace = {"_idiv": _idiv, "_imod": _imod, "RunError": RunError,
                 "_Done": _Done, "_bad_index": _bad_index}
    exec(compile("\n".join(lines), f"<sketch:{sketch.name}>", "exec"), namespace)
    return namespace["_mech"]
