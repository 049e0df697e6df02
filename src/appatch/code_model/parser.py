"""Recursive-descent frontend for the supported C subset.

The subset covers what desk-scale vulnerable samples need: functions,
scalar/pointer/array declarations, assignments, calls, if/else, while/for,
return, string literals.  No preprocessor, no structs, no typedefs.
Anything richer has to come in through the graph-interchange importer.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union

from .model import (
    FunctionDef,
    ParseError,
    Program,
    UnsupportedConstructError,
    infer_entry_function,
    node_id_for,
)

TYPE_KEYWORDS = {
    "void", "int", "char", "long", "short", "float", "double",
    "unsigned", "signed", "const", "static", "size_t",
}

CONTROL_KEYWORDS = {"if", "else", "while", "for", "return", "sizeof"}

_PUNCT = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
    "=", "(", ")", "{", "}", "[", "]", ";", ",", "?", ":", ".",
]

_BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}


class Token(NamedTuple):
    kind: str        # ident | num | string | char | punct | eof
    value: str
    line: int
    col: int
    start: int       # offsets into the source text, for excerpting
    end: int


# One alternation in lexing order; ``lastgroup`` names the token kind.
# Branches start with disjoint characters except ``/``, where the comments
# come first, and ``_PUNCT`` is already ordered longest match first.
_TOKEN_RE = re.compile("|".join([
    r"(?P<newline>\n)",
    r"(?P<skip>[ \t\r\f\v]+|//[^\n]*)",
    r"(?P<comment>/\*)",
    r"(?P<ident>[A-Za-z_]\w*)",
    r"(?P<num>\d[\w.]*)",
    # A start outside ASCII that \d does not take: str.isalpha and
    # str.isdigit decide below (``²1`` is a number, ``½`` starts nothing).
    r"(?P<word>[^\W\d][\w.]*)",
    r'(?P<string>"[^"\\\n]*(?:\\.[^"\\\n]*)*")',
    r"(?P<char>'[^'\\\n]*(?:\\.[^'\\\n]*)*')",
    "(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")",
]))


def _lex_error(file: str, ch: str, line: int, col: int) -> ParseError:
    if ch == "#":
        return UnsupportedConstructError("preprocessor directive", file, line, col)
    if ch in "\"'":
        return ParseError("unterminated literal", file, line, col)
    return ParseError(f"unexpected character {ch!r}", file, line, col)


def tokenize(file: str, text: str) -> List[Token]:
    tokens: List[Token] = []
    line = 1
    line_start = 0
    pos = 0
    n = len(text)
    match = _TOKEN_RE.match
    make = Token._make      # tuple.__new__: no Python-level __new__ per token
    while pos < n:
        m = match(text, pos)
        col = pos - line_start + 1
        if m is None:
            raise _lex_error(file, text[pos], line, col)
        kind = m.lastgroup
        end = m.end()
        if kind == "newline":
            line += 1
            line_start = end
        elif kind == "comment":
            close = text.find("*/", end)
            if close < 0:
                raise ParseError("unterminated comment", file, line, col)
            nl = text.rfind("\n", pos, close)
            if nl >= 0:
                line += text.count("\n", pos, close)
                line_start = nl + 1
            end = close + 2
        elif kind != "skip":
            if kind == "word":
                ch = text[pos]
                if ch.isalpha():
                    kind = "ident"
                    end = pos + len(m.group().partition(".")[0])
                elif ch.isdigit():
                    kind = "num"
                else:
                    raise _lex_error(file, ch, line, col)
            tokens.append(make((kind, text[pos:end], line, col, pos, end)))
        pos = end

    tokens.append(Token("eof", "", line, max(1, n - line_start + 1), n, n))
    return tokens


# ── expression AST ──────────────────────────────────────────────────────

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Name(Expr):
    ident: str


@dataclass(frozen=True)
class Literal(Expr):
    text: str


@dataclass(frozen=True)
class Call(Expr):
    callee: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class SizeOf(Expr):
    idents: FrozenSet[str]


def expr_uses(expr: Expr) -> FrozenSet[str]:
    if isinstance(expr, Name):
        return frozenset([expr.ident])
    if isinstance(expr, Literal):
        return frozenset()
    if isinstance(expr, Call):
        out = frozenset()
        for arg in expr.args:
            out |= expr_uses(arg)
        return out
    if isinstance(expr, Index):
        return expr_uses(expr.base) | expr_uses(expr.index)
    if isinstance(expr, Unary):
        return expr_uses(expr.operand)
    if isinstance(expr, Binary):
        return expr_uses(expr.left) | expr_uses(expr.right)
    if isinstance(expr, SizeOf):
        return expr.idents
    raise TypeError(expr)


def expr_calls(expr: Expr) -> List[Tuple[str, Tuple[FrozenSet[str], ...]]]:
    """All calls inside ``expr``: (callee, per-argument use sets)."""
    out: List[Tuple[str, Tuple[FrozenSet[str], ...]]] = []
    if isinstance(expr, Call):
        out.append((expr.callee, tuple(expr_uses(a) for a in expr.args)))
        for arg in expr.args:
            out.extend(expr_calls(arg))
    elif isinstance(expr, Index):
        out.extend(expr_calls(expr.base))
        out.extend(expr_calls(expr.index))
    elif isinstance(expr, Unary):
        out.extend(expr_calls(expr.operand))
    elif isinstance(expr, Binary):
        out.extend(expr_calls(expr.left))
        out.extend(expr_calls(expr.right))
    return out


# ── statement IR (consumed by the dependence builder) ───────────────────

@dataclass(frozen=True)
class NodeInfo:
    """Everything the graph builder needs to know about one node."""

    kind: str
    line: int
    col: int
    text: str
    defs: FrozenSet[str]
    uses: FrozenSet[str]
    calls: Tuple[Tuple[str, Tuple[FrozenSet[str], ...]], ...] = ()
    is_return: bool = False


@dataclass(frozen=True)
class SimpleStmt:
    node: NodeInfo


@dataclass(frozen=True)
class IfStmt:
    node: NodeInfo
    then: Tuple["Stmt", ...]
    orelse: Tuple["Stmt", ...]


@dataclass(frozen=True)
class WhileStmt:
    node: NodeInfo
    body: Tuple["Stmt", ...]


@dataclass(frozen=True)
class ForStmt:
    init: Optional[NodeInfo]
    node: NodeInfo
    update: Optional[NodeInfo]
    body: Tuple["Stmt", ...]


Stmt = Union[SimpleStmt, IfStmt, WhileStmt, ForStmt]


@dataclass(frozen=True)
class FunctionIR:
    name: str
    file: str
    params: Tuple[str, ...]
    entry: NodeInfo
    param_nodes: Tuple[NodeInfo, ...]
    body: Tuple["Stmt", ...]
    start_line: int
    end_line: int


class _FileParser:
    def __init__(self, file: str, text: str):
        self.file = file
        self.text = text
        self.tokens = tokenize(file, text)
        self.pos = 0

    # token helpers -------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        # ``advance`` never moves ``pos`` past the final ``eof`` token.
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind == "eof":
            raise ParseError(f"expected {value!r}, found end of input",
                             self.file, tok.line, tok.col)
        if tok.value != value:
            raise ParseError(f"expected {value!r}, found {tok.value!r}",
                             self.file, tok.line, tok.col)
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.value in TYPE_KEYWORDS or tok.value in CONTROL_KEYWORDS:
            raise ParseError(f"expected identifier, found {tok.value or 'end of input'!r}",
                             self.file, tok.line, tok.col)
        return self.advance()

    def at_type(self) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value in TYPE_KEYWORDS

    def excerpt(self, start_tok: Token, end_tok: Token) -> str:
        raw = self.text[start_tok.start : end_tok.end]
        return " ".join(part.strip() for part in raw.splitlines() if part.strip())

    def unsupported(self, construct: str, tok: Token):
        raise UnsupportedConstructError(construct, self.file, tok.line, tok.col)

    # grammar -------------------------------------------------------------

    def parse_file(self) -> List[FunctionIR]:
        functions: List[FunctionIR] = []
        while self.peek().kind != "eof":
            functions.extend(self.parse_top_level())
        return functions

    def parse_top_level(self) -> List[FunctionIR]:
        tok = self.peek()
        if not self.at_type():
            raise ParseError(f"expected a declaration, found {tok.value!r}",
                             self.file, tok.line, tok.col)
        start_tok = tok
        self.parse_type()
        name_tok = self.expect_ident()
        if self.peek().value == "(":
            return [self.parse_function(start_tok, name_tok)]
        # Global declaration: accepted for completeness but contributes no
        # nodes; globals behave as function-local names downstream.
        while self.peek().value != ";":
            nxt = self.peek()
            if nxt.kind == "eof":
                raise ParseError("expected ';', found end of input",
                                 self.file, nxt.line, nxt.col)
            if nxt.value == "{":
                self.unsupported("brace initializer", nxt)
            self.advance()
        self.expect(";")
        return []

    def parse_type(self) -> None:
        if not self.at_type():
            tok = self.peek()
            raise ParseError(f"expected a type, found {tok.value!r}",
                             self.file, tok.line, tok.col)
        while self.at_type():
            self.advance()
        while self.peek().value == "*":
            self.advance()

    def parse_function(self, start_tok: Token, name_tok: Token) -> FunctionIR:
        self.expect("(")
        params: List[Tuple[str, Token, Token]] = []  # (name, first tok, name tok)
        if self.peek().value != ")":
            if self.peek().value == "void" and self.peek(1).value == ")":
                self.advance()
            else:
                while True:
                    p_start = self.peek()
                    self.parse_type()
                    p_name = self.expect_ident()
                    while self.peek().value == "[":
                        self.advance()
                        if self.peek().value != "]":
                            self.advance()
                        self.expect("]")
                    params.append((p_name.value, p_start, p_name))
                    if self.peek().value == ",":
                        self.advance()
                        continue
                    break
        close = self.expect(")")
        signature = self.excerpt(start_tok, close)
        entry = NodeInfo(
            kind="entry",
            line=name_tok.line,
            col=name_tok.col,
            text=signature,
            defs=frozenset(),
            uses=frozenset(),
        )
        param_nodes = tuple(
            NodeInfo(
                kind="param-def",
                line=p_name.line,
                col=p_name.col,
                text=self.excerpt(p_start, p_name),
                defs=frozenset([name]),
                uses=frozenset(),
            )
            for name, p_start, p_name in params
        )
        self.expect("{")
        body = self.parse_block()
        end_tok = self.expect("}")
        return FunctionIR(
            name=name_tok.value,
            file=self.file,
            params=tuple(name for name, _, _ in params),
            entry=entry,
            param_nodes=param_nodes,
            body=tuple(body),
            start_line=start_tok.line,
            end_line=end_tok.line,
        )

    def parse_block(self) -> List:
        stmts: List = []
        while self.peek().value != "}":
            if self.peek().kind == "eof":
                tok = self.peek()
                raise ParseError("expected '}', found end of input",
                                 self.file, tok.line, tok.col)
            stmts.extend(self.parse_stmt())
        return stmts

    def parse_stmt(self) -> List:
        tok = self.peek()
        if tok.value == ";":
            self.advance()
            return []
        if tok.value == "{":
            self.advance()
            stmts = self.parse_block()
            self.expect("}")
            return stmts
        if tok.value == "if":
            return [self.parse_if()]
        if tok.value == "while":
            return [self.parse_while()]
        if tok.value == "for":
            return [self.parse_for()]
        if tok.value == "return":
            return [self.parse_return()]
        if tok.value == "else":
            raise ParseError("'else' without matching 'if'", self.file, tok.line, tok.col)
        if self.at_type():
            return [SimpleStmt(node) for node in self.parse_declaration()]
        node = self.parse_simple()
        self.expect(";")
        return [SimpleStmt(node)]

    def parse_if(self) -> IfStmt:
        start = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        close = self.expect(")")
        node = NodeInfo(
            kind="branch",
            line=start.line,
            col=start.col,
            text=self.excerpt(start, close),
            defs=frozenset(),
            uses=expr_uses(cond),
            calls=tuple(expr_calls(cond)),
        )
        then = self.parse_stmt()
        orelse: List = []
        if self.peek().value == "else":
            self.advance()
            orelse = self.parse_stmt()
        return IfStmt(node=node, then=tuple(then), orelse=tuple(orelse))

    def parse_while(self) -> WhileStmt:
        start = self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        close = self.expect(")")
        node = NodeInfo(
            kind="loop-header",
            line=start.line,
            col=start.col,
            text=self.excerpt(start, close),
            defs=frozenset(),
            uses=expr_uses(cond),
            calls=tuple(expr_calls(cond)),
        )
        body = self.parse_stmt()
        return WhileStmt(node=node, body=tuple(body))

    def parse_for(self) -> ForStmt:
        start = self.expect("for")
        self.expect("(")
        init: Optional[NodeInfo] = None
        if self.peek().value != ";":
            if self.at_type():
                decls = self.parse_declaration(consume_semicolon=False)
                if len(decls) != 1:
                    self.unsupported("multiple declarators in for-init", start)
                init = decls[0]
            else:
                init = self.parse_simple()
        self.expect(";")
        uses = frozenset()
        calls: Tuple = ()
        if self.peek().value != ";":
            cond = self.parse_expr()
            uses = expr_uses(cond)
            calls = tuple(expr_calls(cond))
        self.expect(";")
        update: Optional[NodeInfo] = None
        if self.peek().value != ")":
            update = self.parse_simple()
        close = self.expect(")")
        node = NodeInfo(
            kind="loop-header",
            line=start.line,
            col=start.col,
            text=self.excerpt(start, close),
            defs=frozenset(),
            uses=uses,
            calls=calls,
        )
        body = self.parse_stmt()
        return ForStmt(init=init, node=node, update=update, body=tuple(body))

    def parse_return(self) -> SimpleStmt:
        start = self.expect("return")
        uses = frozenset()
        calls: Tuple = ()
        last = start
        if self.peek().value != ";":
            expr = self.parse_expr()
            uses = expr_uses(expr)
            calls = tuple(expr_calls(expr))
            last = self.tokens[self.pos - 1]
        semi = self.expect(";")
        node = NodeInfo(
            kind="return",
            line=start.line,
            col=start.col,
            text=self.excerpt(start, semi),
            defs=frozenset(),
            uses=uses,
            calls=calls,
            is_return=True,
        )
        return SimpleStmt(node)

    def parse_declaration(self, consume_semicolon: bool = True) -> List[NodeInfo]:
        start = self.peek()
        self.parse_type()
        nodes: List[NodeInfo] = []
        while True:
            name_tok = self.expect_ident()
            while self.peek().value == "[":
                self.advance()
                if self.peek().value != "]":
                    self.parse_expr()
                self.expect("]")
            uses = frozenset()
            calls: Tuple = ()
            if self.peek().value == "=":
                self.advance()
                if self.peek().value == "{":
                    self.unsupported("brace initializer", self.peek())
                init = self.parse_expr()
                uses = expr_uses(init)
                calls = tuple(expr_calls(init))
            nodes.append(
                NodeInfo(
                    kind="decl",
                    line=name_tok.line,
                    col=name_tok.col,
                    text="",  # patched below once the full extent is known
                    defs=frozenset([name_tok.value]),
                    uses=uses,
                    calls=calls,
                )
            )
            if self.peek().value == ",":
                self.advance()
                continue
            break
        if consume_semicolon:
            last = self.expect(";")
        else:
            last = self.tokens[self.pos - 1]
        text = self.excerpt(start, last)
        return [
            NodeInfo(kind=n.kind, line=n.line, col=n.col, text=text,
                     defs=n.defs, uses=n.uses, calls=n.calls)
            for n in nodes
        ]

    def parse_simple(self) -> NodeInfo:
        """One assignment, call, or increment/decrement, without its ';'."""
        start = self.peek()
        if start.value in ("++", "--"):
            self.advance()
            name_tok = self.expect_ident()
            return NodeInfo(
                kind="assign", line=start.line, col=start.col,
                text=self.excerpt(start, name_tok),
                defs=frozenset([name_tok.value]),
                uses=frozenset([name_tok.value]),
            )
        expr = self.parse_unary()
        nxt = self.peek()
        if nxt.value in ("++", "--"):
            self.advance()
            if not isinstance(expr, Name):
                self.unsupported("increment of a non-variable", start)
            return NodeInfo(
                kind="assign", line=start.line, col=start.col,
                text=self.excerpt(start, nxt),
                defs=frozenset([expr.ident]),
                uses=frozenset([expr.ident]),
            )
        if nxt.value in _ASSIGN_OPS:
            op = self.advance()
            target, lvalue_uses = self._lvalue(expr, start)
            rhs = self.parse_expr()
            last = self.tokens[self.pos - 1]
            uses = lvalue_uses | expr_uses(rhs)
            if op.value != "=":
                uses |= frozenset([target])
            return NodeInfo(
                kind="assign", line=start.line, col=start.col,
                text=self.excerpt(start, last),
                defs=frozenset([target]),
                uses=uses,
                calls=tuple(expr_calls(rhs)),
            )
        if isinstance(expr, Call):
            last = self.tokens[self.pos - 1]
            return NodeInfo(
                kind="call", line=start.line, col=start.col,
                text=self.excerpt(start, last),
                defs=frozenset(),
                uses=expr_uses(expr),
                calls=tuple(expr_calls(expr)),
            )
        self.unsupported("expression statement", start)

    def _lvalue(self, expr: Expr, tok: Token) -> Tuple[str, FrozenSet[str]]:
        """Defined variable and the extra uses an lvalue implies.

        Writes through pointers and into array cells are weak updates of
        the root variable, so the root also counts as used.
        """
        if isinstance(expr, Name):
            return expr.ident, frozenset()
        if isinstance(expr, (Index, Unary)):
            root = expr
            while True:
                if isinstance(root, Index):
                    root = root.base
                elif isinstance(root, Unary) and root.op == "*":
                    root = root.operand
                else:
                    break
            if isinstance(root, Name):
                return root.ident, expr_uses(expr)
        self.unsupported("assignment target", tok)

    # expressions ----------------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> Expr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.value in ("?",):
                self.unsupported("ternary operator", tok)
            if tok.value in _ASSIGN_OPS and tok.value == "=":
                self.unsupported("nested assignment", tok)
            prec = _BINARY_PRECEDENCE.get(tok.value)
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self.parse_expr(prec + 1)
            left = Binary(tok.value, left, right)

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.value in ("!", "-", "+", "~", "*", "&"):
            self.advance()
            return Unary(tok.value, self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.value == "(":
                if not isinstance(expr, Name):
                    self.unsupported("function-pointer call", tok)
                self.advance()
                args: List[Expr] = []
                if self.peek().value != ")":
                    while True:
                        args.append(self.parse_expr())
                        if self.peek().value == ",":
                            self.advance()
                            continue
                        break
                self.expect(")")
                expr = Call(expr.ident, tuple(args))
            elif tok.value == "[":
                self.advance()
                index = self.parse_expr()
                self.expect("]")
                expr = Index(expr, index)
            elif tok.value in (".", "->"):
                self.unsupported("member access", tok)
            else:
                return expr

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Literal(tok.value)
        if tok.kind in ("string", "char"):
            self.advance()
            return Literal(tok.value)
        if tok.value == "sizeof":
            self.advance()
            self.expect("(")
            idents = set()
            depth = 1
            while depth > 0:
                inner = self.advance()
                if inner.kind == "eof":
                    raise ParseError("expected ')', found end of input",
                                     self.file, inner.line, inner.col)
                if inner.value == "(":
                    depth += 1
                elif inner.value == ")":
                    depth -= 1
                elif inner.kind == "ident" and inner.value not in TYPE_KEYWORDS:
                    idents.add(inner.value)
            return SizeOf(frozenset(idents))
        if tok.value == "(":
            if self.peek(1).kind == "ident" and self.peek(1).value in TYPE_KEYWORDS:
                self.advance()
                self.parse_type()
                self.expect(")")
                return Unary("cast", self.parse_unary())
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.kind == "ident" and tok.value not in TYPE_KEYWORDS and tok.value not in CONTROL_KEYWORDS:
            self.advance()
            return Name(tok.value)
        raise ParseError(
            f"expected an expression, found {tok.value or 'end of input'!r}",
            self.file, tok.line, tok.col,
        )


# ── public entry points ─────────────────────────────────────────────────

def parse_ir(sources: Sequence[Tuple[str, str]]) -> List[FunctionIR]:
    functions: List[FunctionIR] = []
    for path, text in sources:
        functions.extend(_FileParser(path, text).parse_file())
    counts = Counter(fn.name for fn in functions)
    for fn in functions:
        if counts[fn.name] > 1:
            raise ParseError(f"duplicate function name: {fn.name}",
                             fn.file, fn.start_line, 1)
    return functions


def iter_nodes(fn: FunctionIR) -> List[NodeInfo]:
    """All nodes of a function in source order: entry, params, body."""
    out: List[NodeInfo] = [fn.entry]
    out.extend(fn.param_nodes)

    def walk(stmts):
        for stmt in stmts:
            if isinstance(stmt, SimpleStmt):
                out.append(stmt.node)
            elif isinstance(stmt, IfStmt):
                out.append(stmt.node)
                walk(stmt.then)
                walk(stmt.orelse)
            elif isinstance(stmt, WhileStmt):
                out.append(stmt.node)
                walk(stmt.body)
            elif isinstance(stmt, ForStmt):
                if stmt.init is not None:
                    out.append(stmt.init)
                out.append(stmt.node)
                if stmt.update is not None:
                    out.append(stmt.update)
                walk(stmt.body)

    walk(fn.body)
    return out


def parse_program(
    sources: Sequence[Tuple[str, str]],
    entry: Optional[str] = None,
) -> Program:
    """Parse mini-C sources into a :class:`Program`.

    ``entry`` overrides entry-point inference; the inferred default is
    ``main`` when present, else the unique function nobody calls.
    """
    functions_ir = parse_ir(sources)
    defs: List[FunctionDef] = []
    for fn in functions_ir:
        node_ids: List[str] = []
        callsites: List[Tuple[str, str]] = []
        for node in iter_nodes(fn):
            node_id = node_id_for(fn.file, node.line, node.col)
            node_ids.append(node_id)
            callsites.extend((callee, node_id) for callee, _ in node.calls)
        defs.append(
            FunctionDef(
                name=fn.name,
                file=fn.file,
                params=fn.params,
                statements=tuple(node_ids),
                callsites=tuple(callsites),
                start_line=fn.start_line,
                end_line=fn.end_line,
            )
        )
    if entry is not None:
        if entry not in {fn.name for fn in functions_ir}:
            raise ParseError(f"entry function not defined: {entry}", "<entry>", 1, 1)
        entry_name = entry
    else:
        entry_name = infer_entry_function(defs)
    program = Program(
        files=tuple(sources),
        functions=tuple(defs),
        entry_function=entry_name,
    )
    object.__setattr__(program, "_ir", tuple(functions_ir))
    return program


def program_ir(program: Program) -> Tuple[FunctionIR, ...]:
    """The parse IR for ``program``, reparsing when it was not kept."""
    ir = getattr(program, "_ir", None)
    if ir is None:
        ir = tuple(parse_ir(program.files))
        object.__setattr__(program, "_ir", ir)
    return ir
