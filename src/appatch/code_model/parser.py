"""Recursive-descent frontend for the supported C subset.

The subset covers what desk-scale vulnerable samples need: functions,
scalar/pointer/array declarations, assignments, calls, if/else, while/for,
return, string literals.  No preprocessor, no structs, no typedefs.
Anything richer has to come in through the graph-interchange importer.

There is no syntax tree.  Expressions parse straight to their statement's
flow facts, and each statement, as it is parsed, becomes a graph node wired
into its function's control-flow graph; each function comes out as one
:class:`FunctionDef` that holds its nodes, CFG and branch scopes.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from operator import attrgetter
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from .model import (
    CallFact,
    FunctionDef,
    ParseError,
    Program,
    StatementNode,
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

_UNARY_OPS = {"!", "-", "+", "~", "*", "&"}


class Token(NamedTuple):
    kind: str        # ident | num | string | char | punct | eof
    value: str
    line: int
    col: int
    start: int       # offsets into the source text, for excerpting
    end: int


# A run of blanks, then one alternation in lexing order; ``lastgroup``
# names the token kind and its group's span is the token.  Branches start
# with disjoint characters except ``/``, where the comments come first, and
# ``_PUNCT`` is already ordered longest match first.
_BLANKS = r"[ \t\r\f\v]*"
STRING_LITERAL = r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'
CHAR_LITERAL = r"'[^'\\\n]*(?:\\.[^'\\\n]*)*'"
_TOKEN_RE = re.compile(_BLANKS + "(?:" + "|".join([
    r"(?P<newline>\n)",
    r"(?P<skip>//[^\n]*)",
    r"(?P<comment>/\*)",
    r"(?P<ident>[A-Za-z_]\w*)",
    r"(?P<num>\d[\w.]*)",
    # A start outside ASCII that \d does not take: str.isalpha and
    # str.isdigit decide below (``²1`` is a number, ``½`` starts nothing).
    r"(?P<word>[^\W\d][\w.]*)",
    f"(?P<string>{STRING_LITERAL})",
    f"(?P<char>{CHAR_LITERAL})",
    "(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")",
]) + ")")
_BLANKS_RE = re.compile(_BLANKS)


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
    new = tuple.__new__     # no Python-level __new__ per token
    append = tokens.append
    while pos < n:
        m = match(text, pos)
        if m is None:
            # Only blanks left, or no token after them.
            pos = _BLANKS_RE.match(text, pos).end()
            if pos == n:
                break
            raise _lex_error(file, text[pos], line, pos - line_start + 1)
        kind = m.lastgroup
        start, end = m.span(kind)
        if kind == "newline":
            line += 1
            line_start = end
        elif kind == "comment":
            close = text.find("*/", end)
            if close < 0:
                raise ParseError("unterminated comment", file, line, start - line_start + 1)
            nl = text.rfind("\n", start, close)
            if nl >= 0:
                line += text.count("\n", start, close)
                line_start = nl + 1
            end = close + 2
        elif kind != "skip":
            if kind == "word":
                ch = text[start]
                if ch.isalpha():
                    kind = "ident"
                    dot = text.find(".", start, end)
                    if dot >= 0:
                        end = dot
                elif ch.isdigit():
                    kind = "num"
                else:
                    raise _lex_error(file, ch, line, start - line_start + 1)
            append(new(Token, (kind, text[start:end], line, start - line_start + 1, start, end)))
        pos = end

    tokens.append(Token("eof", "", line, max(1, n - line_start + 1), n, n))
    return tokens


_EMPTY: FrozenSet[str] = frozenset()
_START = attrgetter("start")

# Expressions are parsed straight into their statement's flow facts: every
# variable read goes into ``_FileParser.uses`` and every call into
# ``_FileParser.calls``, in pre-order (a call takes its slot before its
# arguments).  An expression returns only its shape, which is all that its
# statement checks: ``("name", ident)`` is a bare variable, not yet counted
# as a use because it may still turn out to be a callee; ``("lvalue",
# root)`` is a chain of ``[]`` and unary ``*`` over a variable, already
# counted; the two constants below are everything else.
Shape = Tuple[str, str]
_CALL: Shape = ("call", "")
_OTHER: Shape = ("other", "")


class _FileParser:
    def __init__(self, file: str, text: str):
        self.file = file
        self.text = text
        self.tokens = tokenize(file, text)
        self.pos = 0
        self.function = ""   # name of the function being parsed
        # That function's nodes and control flow, wired as it is parsed;
        # see ``FunctionDef`` for the shape of ``preds`` and ``scopes``.
        self.nodes: List[StatementNode] = []        # source order
        self.preds: List[Tuple[int, ...]] = []
        self.scopes: List[Tuple[int, int, int]] = []
        # Flow facts of the statement being parsed (see ``Shape`` above).
        self.uses: Set[str] = set()
        self.calls: List[Optional[CallFact]] = []

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
        """Source from one token to another; a gap between two of its tokens
        that holds a line break, comments included, becomes one space."""
        text = self.text
        start, end = start_tok.start, end_tok.end
        if text.find("\n", start, end) < 0:
            return text[start:end]
        tokens = self.tokens
        i = bisect_left(tokens, start, key=_START)
        runs = []   # the verbatim runs between line-breaking gaps
        run = start
        prev = start_tok.end
        while prev < end:
            i += 1
            tok = tokens[i]
            if text.find("\n", prev, tok.start) >= 0:
                runs.append(text[run:prev])
                run = tok.start
            prev = tok.end
        runs.append(text[run:end])
        return " ".join(runs)

    def unsupported(self, construct: str, tok: Token):
        raise UnsupportedConstructError(construct, self.file, tok.line, tok.col)

    # grammar -------------------------------------------------------------

    def parse_file(self) -> List[FunctionDef]:
        functions: List[FunctionDef] = []
        while self.peek().kind != "eof":
            functions.extend(self.parse_top_level())
        return functions

    def parse_top_level(self) -> List[FunctionDef]:
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

    def parse_function(self, start_tok: Token, name_tok: Token) -> FunctionDef:
        self.expect("(")
        params = []   # (first token, name token, array-size uses, array-size calls)
        if self.peek().value != ")":
            if self.peek().value == "void" and self.peek(1).value == ")":
                self.advance()
            else:
                while True:
                    p_start = self.peek()
                    self.parse_type()
                    p_name = self.expect_ident()
                    params.append((p_start, p_name, *self.parse_array_sizes()))
                    if self.peek().value == ",":
                        self.advance()
                        continue
                    break
        close = self.expect(")")
        self.function = name = name_tok.value
        self.nodes, self.preds, self.scopes = [], [], []
        # entry -> param defs -> body
        preds = (self.add(self.node("entry", name_tok, self.excerpt(start_tok, close)), ()),)
        for p_start, p_name, uses, calls in params:
            preds = (self.add(self.node("param-def", p_name, self.excerpt(p_start, p_name),
                                        frozenset([p_name.value]), uses, calls), preds),)
        self.expect("{")
        self.parse_block(preds)
        end_tok = self.expect("}")
        nodes = self.nodes
        return FunctionDef(
            name=name,
            file=self.file,
            nodes=tuple(nodes),
            callsites=tuple((callee, node.id) for node in nodes for callee, _ in node.calls),
            start_line=start_tok.line,
            end_line=end_tok.line,
            cfg_preds=tuple(self.preds),
            control_scopes=tuple(self.scopes),
        )

    def node(
        self,
        kind: str,
        at: Token,
        text: str,
        defs: FrozenSet[str] = _EMPTY,
        uses: FrozenSet[str] = _EMPTY,
        calls: Tuple[CallFact, ...] = (),
    ) -> StatementNode:
        """The graph node at token ``at``; its ``file:line:col`` id is made here, once."""
        return StatementNode(node_id_for(self.file, at.line, at.col), self.file,
                             self.function, at.line, text, kind, defs, uses, calls)

    # control flow ----------------------------------------------------------
    #
    # Each statement parser takes ``preds``, the positions in ``nodes``
    # control reaches it from, and returns the positions control leaves it
    # by (none after a ``return``).  Nodes are added in source order, so
    # the nodes a branch or loop header governs are the run of ``nodes``
    # that its body added.

    def add(self, node: StatementNode, preds: Tuple[int, ...]) -> int:
        """Add ``node`` to the function, reached from ``preds``; its position."""
        self.nodes.append(node)
        self.preds.append(preds)
        return len(self.preds) - 1

    def link(self, preds: Tuple[int, ...], target: int) -> None:
        self.preds[target] += preds

    def parse_block(self, preds: Tuple[int, ...]) -> Tuple[int, ...]:
        while self.peek().value != "}":
            if self.peek().kind == "eof":
                tok = self.peek()
                raise ParseError("expected '}', found end of input",
                                 self.file, tok.line, tok.col)
            preds = self.parse_stmt(preds)
        return preds

    def parse_stmt(self, preds: Tuple[int, ...]) -> Tuple[int, ...]:
        tok = self.peek()
        if tok.value == ";":
            self.advance()
            return preds
        if tok.value == "{":
            self.advance()
            preds = self.parse_block(preds)
            self.expect("}")
            return preds
        if tok.value == "if":
            return self.parse_if(preds)
        if tok.value == "while":
            return self.parse_while(preds)
        if tok.value == "for":
            return self.parse_for(preds)
        if tok.value == "return":
            return self.parse_return(preds)
        if tok.value == "else":
            raise ParseError("'else' without matching 'if'", self.file, tok.line, tok.col)
        if self.at_type():
            for node in self.parse_declaration():
                preds = (self.add(node, preds),)
            return preds
        node = self.parse_simple()
        self.expect(";")
        return (self.add(node, preds),)

    def parse_if(self, preds: Tuple[int, ...]) -> Tuple[int, ...]:
        start = self.expect("if")
        self.expect("(")
        uses, calls = self.parse_value()
        close = self.expect(")")
        at = self.add(self.node("branch", start, self.excerpt(start, close), _EMPTY, uses, calls),
                      preds)
        leave = self.parse_stmt((at,))
        if self.peek().value == "else":
            self.advance()
            leave += self.parse_stmt((at,))
        else:
            leave += (at,)
        self.scopes.append((at, at + 1, len(self.nodes)))
        return leave

    def parse_while(self, preds: Tuple[int, ...]) -> Tuple[int, ...]:
        start = self.expect("while")
        self.expect("(")
        uses, calls = self.parse_value()
        close = self.expect(")")
        at = self.add(self.node("loop-header", start, self.excerpt(start, close),
                                _EMPTY, uses, calls), preds)
        self.link(self.parse_stmt((at,)), at)
        self.scopes.append((at, at + 1, len(self.nodes)))
        return (at,)

    def parse_for(self, preds: Tuple[int, ...]) -> Tuple[int, ...]:
        start = self.expect("for")
        self.expect("(")
        if self.peek().value != ";":
            if self.at_type():
                decls = self.parse_declaration(consume_semicolon=False)
                if len(decls) != 1:
                    self.unsupported("multiple declarators in for-init", start)
                init = decls[0]
            else:
                init = self.parse_simple()
            preds = (self.add(init, preds),)
        self.expect(";")
        uses: FrozenSet[str] = _EMPTY
        calls: Tuple[CallFact, ...] = ()
        if self.peek().value != ";":
            uses, calls = self.parse_value()
        self.expect(";")
        update: Optional[StatementNode] = None
        if self.peek().value != ")":
            update = self.parse_simple()
        close = self.expect(")")
        # The header's text ends after the update, but the header comes first,
        # then the update, which the header governs with the body.
        at = self.add(self.node("loop-header", start, self.excerpt(start, close),
                                _EMPTY, uses, calls), preds)
        back = at   # where the body loops back to
        if update is not None:
            back = self.add(update, ())
            self.link((back,), at)
        self.link(self.parse_stmt((at,)), back)
        self.scopes.append((at, at + 1, len(self.nodes)))
        return (at,)

    def parse_return(self, preds: Tuple[int, ...]) -> Tuple[int, ...]:
        start = self.expect("return")
        uses: FrozenSet[str] = _EMPTY
        calls: Tuple[CallFact, ...] = ()
        if self.peek().value != ";":
            uses, calls = self.parse_value()
        semi = self.expect(";")
        self.add(self.node("return", start, self.excerpt(start, semi), _EMPTY, uses, calls),
                 preds)
        return ()

    def parse_declaration(self, consume_semicolon: bool = True) -> List[StatementNode]:
        start = self.peek()
        self.parse_type()
        declarators = []   # (name token, uses, calls)
        while True:
            name_tok = self.expect_ident()
            # Array sizes, then the initializer, in source order.
            uses, calls = self.parse_array_sizes()
            if self.peek().value == "=":
                self.advance()
                if self.peek().value == "{":
                    self.unsupported("brace initializer", self.peek())
                init_uses, init_calls = self.parse_value()
                uses |= init_uses
                calls += init_calls
            declarators.append((name_tok, uses, calls))
            if self.peek().value == ",":
                self.advance()
                continue
            break
        if consume_semicolon:
            last = self.expect(";")
        else:
            last = self.tokens[self.pos - 1]
        text = self.excerpt(start, last)
        return [self.node("decl", name_tok, text, frozenset([name_tok.value]), uses, calls)
                for name_tok, uses, calls in declarators]

    def parse_array_sizes(self) -> Tuple[FrozenSet[str], Tuple[CallFact, ...]]:
        """The ``[size]`` suffixes after a declared name: their uses and calls."""
        uses: FrozenSet[str] = _EMPTY
        calls: Tuple[CallFact, ...] = ()
        while self.peek().value == "[":
            self.advance()
            if self.peek().value != "]":
                size_uses, size_calls = self.parse_value()
                uses |= size_uses
                calls += size_calls
            self.expect("]")
        return uses, calls

    def parse_simple(self) -> StatementNode:
        """One assignment, call, or increment/decrement, without its ';'."""
        start = self.peek()
        if start.value in ("++", "--"):
            self.advance()
            name_tok = self.expect_ident()
            var = frozenset([name_tok.value])
            return self.node("assign", start, self.excerpt(start, name_tok), var, var)
        self.uses = uses = set()
        self.calls = calls = []
        kind, name = self.parse_unary()
        nxt = self.peek()
        if nxt.value in ("++", "--"):
            self.advance()
            if kind != "name":
                self.unsupported("increment of a non-variable", start)
            var = frozenset([name])
            return self.node("assign", start, self.excerpt(start, nxt), var, var)
        if nxt.value in _ASSIGN_OPS:
            # Writes through pointers and into array cells are weak updates
            # of the root variable, so an lvalue's root is already a use.
            if kind != "name" and kind != "lvalue":
                self.unsupported("assignment target", start)
            self.advance()
            rhs = self.parse_expr()
            if rhs[0] == "name":
                uses.add(rhs[1])
            if nxt.value != "=":
                uses.add(name)
            return self.node("assign", start, self.excerpt(start, self.tokens[self.pos - 1]),
                             frozenset([name]), frozenset(uses), tuple(calls))
        if kind == "call":
            return self.node("call", start, self.excerpt(start, self.tokens[self.pos - 1]),
                             _EMPTY, frozenset(uses), tuple(calls))
        self.unsupported("expression statement", start)

    # expressions ----------------------------------------------------------

    def parse_value(self) -> Tuple[FrozenSet[str], Tuple[CallFact, ...]]:
        """Parse one expression that is read whole: its uses and its calls."""
        self.uses = uses = set()
        self.calls = calls = []
        kind, name = self.parse_expr()
        if kind == "name":
            uses.add(name)
        return frozenset(uses), tuple(calls)

    def parse_expr(self, min_prec: int = 1) -> Shape:
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.value == "?":
                self.unsupported("ternary operator", tok)
            if tok.value == "=":
                self.unsupported("nested assignment", tok)
            prec = _BINARY_PRECEDENCE.get(tok.value)
            if prec is None or prec < min_prec:
                return left
            self.pos += 1
            if left[0] == "name":
                self.uses.add(left[1])
            right = self.parse_expr(prec + 1)
            if right[0] == "name":
                self.uses.add(right[1])
            left = _OTHER

    def parse_unary(self) -> Shape:
        op = self.tokens[self.pos].value
        if op not in _UNARY_OPS:
            return self.parse_postfix()
        self.pos += 1
        kind, name = operand = self.parse_unary()
        if kind == "name":
            self.uses.add(name)
            return ("lvalue", name) if op == "*" else _OTHER
        return operand if op == "*" and kind == "lvalue" else _OTHER

    def parse_postfix(self) -> Shape:
        shape = self.parse_primary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.value == "(":
                if shape[0] != "name":
                    self.unsupported("function-pointer call", tok)
                self.pos += 1
                calls = self.calls
                slot = len(calls)
                calls.append(None)
                args: List[FrozenSet[str]] = []
                if tokens[self.pos].value != ")":
                    outer = self.uses
                    while True:
                        self.uses = used = set()
                        kind, name = self.parse_expr()
                        if kind == "name":
                            used.add(name)
                        args.append(frozenset(used))
                        outer |= used
                        if tokens[self.pos].value != ",":
                            break
                        self.pos += 1
                    self.uses = outer
                self.expect(")")
                calls[slot] = (shape[1], tuple(args))
                shape = _CALL
            elif tok.value == "[":
                self.pos += 1
                kind, name = shape
                if kind == "name":
                    self.uses.add(name)
                    shape = ("lvalue", name)
                elif kind != "lvalue":
                    shape = _OTHER
                kind, name = self.parse_expr()
                if kind == "name":
                    self.uses.add(name)
                self.expect("]")
            elif tok.value in (".", "->"):
                self.unsupported("member access", tok)
            else:
                return shape

    def parse_primary(self) -> Shape:
        tok = self.peek()
        if tok.kind in ("num", "string", "char"):
            self.advance()
            return _OTHER
        if tok.value == "sizeof":
            self.advance()
            self.expect("(")
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
                elif (inner.kind == "ident" and inner.value not in TYPE_KEYWORDS
                      and self.tokens[self.pos].value != "("):   # a callee is no use
                    self.uses.add(inner.value)
            return _OTHER
        if tok.value == "(":
            if self.peek(1).kind == "ident" and self.peek(1).value in TYPE_KEYWORDS:
                self.advance()
                self.parse_type()
                self.expect(")")
                kind, name = self.parse_unary()   # a cast
                if kind == "name":
                    self.uses.add(name)
                return _OTHER
            self.advance()
            shape = self.parse_expr()
            self.expect(")")
            return shape
        if tok.kind == "ident" and tok.value not in TYPE_KEYWORDS and tok.value not in CONTROL_KEYWORDS:
            self.advance()
            return ("name", tok.value)
        raise ParseError(
            f"expected an expression, found {tok.value or 'end of input'!r}",
            self.file, tok.line, tok.col,
        )


# ── public entry point ──────────────────────────────────────────────────

def parse_program(
    sources: Sequence[Tuple[str, str]],
    entry: Optional[str] = None,
) -> Program:
    """Parse mini-C sources into a :class:`Program`, each function's CFG included.

    ``entry`` overrides entry-point inference; the inferred default is
    ``main`` when present, else the unique function nobody calls.
    """
    parsed: List[FunctionDef] = []
    seen: Set[str] = set()
    for path, text in sources:
        # Node ids are ``path:line:col``, so one path parsed twice would
        # give two nodes one id.
        if path in seen:
            raise ParseError(f"duplicate source path: {path}", path, 1, 1)
        seen.add(path)
        parsed.extend(_FileParser(path, text).parse_file())
    counts = Counter(fn.name for fn in parsed)
    for fn in parsed:
        if counts[fn.name] > 1:
            raise ParseError(f"duplicate function name: {fn.name}",
                             fn.file, fn.start_line, 1)
    if entry is not None:
        if entry not in counts:
            raise ParseError(f"entry function not defined: {entry}", "<entry>", 1, 1)
        entry_name = entry
    else:
        entry_name = infer_entry_function(parsed)
    return Program(
        files=tuple(sources),
        functions=tuple(parsed),
        entry_function=entry_name,
    )
