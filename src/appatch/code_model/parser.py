"""Recursive-descent frontend for the supported C subset.

The subset covers what desk-scale vulnerable samples need: functions,
scalar/pointer/array declarations, assignments, calls, if/else, while/for,
return, string literals.  No preprocessor, no structs, no typedefs.
Anything richer has to come in through the graph-interchange importer.

The lexer is one regular-expression scan into two flat lists, each
token's text and its start offset, with no record per token.  The parser
walks them by token index and works out a line and column, from a table of
line starts, only where a node id, a function's line range or an error
needs one.

There is no syntax tree.  Expressions parse straight to their statement's
flow facts, and each statement, as it is parsed, becomes a graph node wired
into its function's control-flow graph; each function comes out as one
:class:`FunctionDef` that holds its nodes, CFG and branch scopes.

The SDG builder's control edges are exact only while ``return`` is the
subset's one jump, so ``break``, ``continue``, ``goto``, labels,
``do``-``while`` and ``switch`` are each refused as an unsupported
construct that names it.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .model import (
    CallFact,
    FunctionDef,
    Names,
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

# The jumps besides ``return``, each refused by name (see the module docstring).
_REFUSED_JUMPS = {
    "break": "break statement", "continue": "continue statement",
    "goto": "goto statement", "do": "do-while loop", "switch": "switch statement",
}

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


# One match per token: a gap of blanks, line breaks and closed comments,
# then one alternation in lexing order.  Group 2 is a token (``_PUNCT`` is
# already ordered longest match first); the other groups are the rare paths
# ``_scan`` handles itself.  Every position matches, a lone character or the
# end of text at worst, so a scan skips no text and never backtracks into
# the gap.
STRING_LITERAL = r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'
CHAR_LITERAL = r"'[^'\\\n]*(?:\\.[^'\\\n]*)*'"
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\f\v\n]+|//[^\n]*|/\*(?s:.*?)\*/)*(?:"
    r"(/\*)"                                         # 1: a comment never closed
    "|(" + "|".join([                                # 2: a token
        r"[A-Za-z_]\w*",
        r"\d[\w.]*",
        STRING_LITERAL,
        CHAR_LITERAL,
        *map(re.escape, _PUNCT),
    ]) + ")"
    # 3: a start outside ASCII that \d does not take: str.isalpha and
    # str.isdigit decide (``²1`` is a number, ``½`` starts nothing).
    r"|([^\W\d][\w.]*)"
    r"|(?s:(.))"                                      # 4: any other character
    r"|\Z)"
)
_NEWLINE_RE = re.compile("\n")


def _line_starts(text: str) -> List[int]:
    """The offset of each line's first character."""
    return [0, *(m.end() for m in _NEWLINE_RE.finditer(text))]


def _position(line_starts: Sequence[int], offset: int) -> Tuple[int, int]:
    """Line and column of ``offset``, both from 1."""
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def _lex_error(file: str, text: str, offset: int) -> ParseError:
    """The error for the text at ``offset``, which starts no token."""
    ch = text[offset]
    line, col = _position(_line_starts(text), offset)
    if text.startswith("/*", offset):
        return ParseError("unterminated comment", file, line, col)
    if ch == "#":
        return UnsupportedConstructError("preprocessor directive", file, line, col)
    if ch in "\"'":
        return ParseError("unterminated literal", file, line, col)
    return ParseError(f"unexpected character {ch!r}", file, line, col)


def _scan(file: str, text: str) -> Tuple[List[str], List[int]]:
    """Each token's text and start offset, in order, then ``""`` at
    ``len(text)`` for the end of input."""
    values: List[str] = []
    starts: List[int] = []
    append, mark = values.append, starts.append
    resume: Optional[int] = 0
    while resume is not None:
        matches = _TOKEN_RE.finditer(text, resume)
        resume = None
        for m in matches:
            value = m.group(2)
            if value is not None:
                append(value)
                mark(m.start(2))
                continue
            branch = m.lastindex
            if branch is None:      # the end of text
                break
            start = m.start(branch)
            value = m.group(branch)
            if branch != 3 or not (value[0].isalpha() or value[0].isdigit()):
                raise _lex_error(file, text, start)
            if value[0].isalpha():
                dot = value.find(".")
                if dot >= 0:        # an identifier ends at a dot: lex on from there
                    value = value[:dot]
                    resume = start + dot
            append(value)
            mark(start)
            if resume is not None:
                break
    append("")
    mark(len(text))
    return values, starts


def _is_ident(value: str) -> bool:
    ch = value[:1]
    return ch.isalpha() or ch == "_"


# A node is built as a plain tuple of its fields: the namedtuple's own
# ``__new__`` is a Python-level frame per node.
_new = tuple.__new__

# Expressions are parsed straight into their statement's flow facts: every
# variable read goes into ``_FileParser.uses``, a dict used as an ordered
# set, so the facts come out as tuples in first-read order; every call goes
# into ``_FileParser.calls``, in pre-order (a call takes its slot before its
# arguments).  An expression returns only its shape, which is all that its
# statement checks: ``("name", ident)`` is a bare variable, not yet counted
# as a use because it may still turn out to be a callee; ``("lvalue",
# root)`` is a chain of ``[]`` and unary ``*`` over a variable, already
# counted; the two constants below are everything else.
Shape = Tuple[str, str]
_CALL: Shape = ("call", "")
_OTHER: Shape = ("other", "")


class _FileParser:
    """Parses one file by token index: token ``i`` is ``values[i]``, which
    starts at offset ``starts[i]``; the last token, ``""``, is the end of
    input."""

    def __init__(self, file: str, text: str):
        self.file = file
        self.text = text
        self.values, self.starts = _scan(file, text)
        self.line_starts = _line_starts(text)
        self.pos = 0
        self.function = ""   # name of the function being parsed
        # That function's nodes and control flow, wired as it is parsed;
        # see ``FunctionDef`` for the shape of ``preds`` and ``scopes``.
        self.nodes: List[StatementNode] = []        # source order
        self.preds: List[Tuple[int, ...]] = []
        self.scopes: List[Tuple[int, int, int]] = []
        # Flow facts of the statement being parsed (see ``Shape`` above).
        self.uses: Dict[str, None] = {}
        self.calls: List[Optional[CallFact]] = []

    # token helpers -------------------------------------------------------

    def peek(self, offset: int = 0) -> str:
        # ``advance`` never moves ``pos`` past the end of input.
        if offset:
            return self.values[min(self.pos + offset, len(self.values) - 1)]
        return self.values[self.pos]

    def advance(self) -> int:
        """Step past the current token, unless it is the end of input; its index."""
        pos = self.pos
        if self.values[pos]:
            self.pos = pos + 1
        return pos

    def expect(self, value: str) -> int:
        found = self.values[self.pos]
        if found != value:
            if not found:
                raise self.error(f"expected {value!r}, found end of input", self.pos)
            raise self.error(f"expected {value!r}, found {found!r}", self.pos)
        self.pos += 1
        return self.pos - 1

    def expect_ident(self) -> int:
        value = self.values[self.pos]
        if not _is_ident(value) or value in TYPE_KEYWORDS or value in CONTROL_KEYWORDS:
            raise self.error(f"expected identifier, found {value or 'end of input'!r}",
                             self.pos)
        self.pos += 1
        return self.pos - 1

    def where(self, at: int) -> Tuple[int, int]:
        """Line and column of token ``at``."""
        return _position(self.line_starts, self.starts[at])

    def error(self, message: str, at: int) -> ParseError:
        return ParseError(message, self.file, *self.where(at))

    def excerpt(self, first: int, last: int) -> str:
        """Source from token ``first`` to token ``last``; a gap between two of
        its tokens that holds a line break, comments included, becomes one
        space."""
        text, values, starts = self.text, self.values, self.starts
        start, end = starts[first], starts[last] + len(values[last])
        if text.find("\n", start, end) < 0:
            return text[start:end]
        runs = []   # the verbatim runs between line-breaking gaps
        run = start
        for i in range(first, last):
            prev, nxt = starts[i] + len(values[i]), starts[i + 1]
            if text.find("\n", prev, nxt) >= 0:
                runs.append(text[run:prev])
                run = nxt
        runs.append(text[run:end])
        return " ".join(runs)

    def unsupported(self, construct: str, at: int):
        raise UnsupportedConstructError(construct, self.file, *self.where(at))

    # grammar -------------------------------------------------------------

    def parse_file(self) -> List[FunctionDef]:
        functions: List[FunctionDef] = []
        while self.peek():
            functions.extend(self.parse_top_level())
        return functions

    def parse_top_level(self) -> List[FunctionDef]:
        if self.peek() not in TYPE_KEYWORDS:
            raise self.error(f"expected a declaration, found {self.peek()!r}", self.pos)
        first = self.pos
        self.parse_type()
        name_at = self.expect_ident()
        if self.peek() == "(":
            return [self.parse_function(first, name_at)]
        # Global declaration: accepted for completeness but contributes no
        # nodes; globals behave as function-local names downstream.
        while self.peek() != ";":
            if not self.peek():
                raise self.error("expected ';', found end of input", self.pos)
            if self.peek() == "{":
                self.unsupported("brace initializer", self.pos)
            self.advance()
        self.expect(";")
        return []

    def parse_type(self) -> None:
        if self.peek() not in TYPE_KEYWORDS:
            raise self.error(f"expected a type, found {self.peek()!r}", self.pos)
        while self.peek() in TYPE_KEYWORDS:
            self.advance()
        while self.peek() == "*":
            self.advance()

    def parse_function(self, first: int, name_at: int) -> FunctionDef:
        self.expect("(")
        params = []   # (first token, name token, array-size uses, array-size calls)
        if self.peek() != ")":
            if self.peek() == "void" and self.peek(1) == ")":
                self.advance()
            else:
                while True:
                    p_first = self.pos
                    self.parse_type()
                    p_name = self.expect_ident()
                    self.uses = uses = {}
                    self.calls = calls = []
                    self.parse_array_sizes()
                    params.append((p_first, p_name, tuple(uses), tuple(calls)))
                    if self.peek() == ",":
                        self.advance()
                        continue
                    break
        close = self.expect(")")
        self.function = name = self.values[name_at]
        self.nodes, self.preds, self.scopes = [], [], []
        # entry -> param defs -> body
        preds = (self.add(self.node("entry", name_at, self.excerpt(first, close)), ()),)
        for p_first, p_name, uses, calls in params:
            preds = (self.add(self.node("param-def", p_name, self.excerpt(p_first, p_name),
                                        (self.values[p_name],), uses, calls),
                              preds),)
        self.expect("{")
        self.parse_block(preds)
        last = self.expect("}")
        nodes = self.nodes
        return FunctionDef(
            name=name,
            file=self.file,
            nodes=tuple(nodes),
            callsites=tuple((callee, node.id) for node in nodes for callee, _ in node.calls),
            start_line=self.where(first)[0],
            end_line=self.where(last)[0],
            cfg_preds=tuple(self.preds),
            control_scopes=tuple(self.scopes),
        )

    def node(
        self,
        kind: str,
        at: int,
        text: str,
        defs: Names = (),
        uses: Names = (),
        calls: Tuple[CallFact, ...] = (),
    ) -> StatementNode:
        """The graph node at token ``at``; its ``file:line:col`` id is made here, once."""
        line_starts, file = self.line_starts, self.file
        start = self.starts[at]
        line = bisect_right(line_starts, start)   # as ``where`` does, without its frames
        return _new(StatementNode, (
            node_id_for(file, line, start - line_starts[line - 1] + 1), file,
            self.function, line, text, kind, defs, uses, calls,
        ))

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
        values = self.values
        while (value := values[self.pos]) != "}":
            if not value:
                raise self.error("expected '}', found end of input", self.pos)
            preds = self.parse_stmt(preds)
        return preds

    def parse_stmt(self, preds: Tuple[int, ...]) -> Tuple[int, ...]:
        value = self.values[self.pos]
        if value == ";":
            self.advance()
            return preds
        if value == "{":
            self.advance()
            preds = self.parse_block(preds)
            self.expect("}")
            return preds
        if value == "if":
            return self.parse_if(preds)
        if value == "while":
            return self.parse_while(preds)
        if value == "for":
            return self.parse_for(preds)
        if value == "return":
            return self.parse_return(preds)
        if value == "else":
            raise self.error("'else' without matching 'if'", self.pos)
        if value in TYPE_KEYWORDS:
            for node in self.parse_declaration():
                preds = (self.add(node, preds),)
            return preds
        if value in _REFUSED_JUMPS:
            self.unsupported(_REFUSED_JUMPS[value], self.pos)
        node = self.parse_simple()
        self.expect(";")
        return (self.add(node, preds),)

    def parse_if(self, preds: Tuple[int, ...]) -> Tuple[int, ...]:
        first = self.expect("if")
        self.expect("(")
        uses, calls = self.parse_value()
        close = self.expect(")")
        at = self.add(self.node("branch", first, self.excerpt(first, close), (), uses, calls),
                      preds)
        leave = self.parse_stmt((at,))
        if self.peek() == "else":
            self.advance()
            leave += self.parse_stmt((at,))
        else:
            leave += (at,)
        self.scopes.append((at, at + 1, len(self.nodes)))
        return leave

    def parse_while(self, preds: Tuple[int, ...]) -> Tuple[int, ...]:
        first = self.expect("while")
        self.expect("(")
        uses, calls = self.parse_value()
        close = self.expect(")")
        at = self.add(self.node("loop-header", first, self.excerpt(first, close),
                                (), uses, calls), preds)
        self.link(self.parse_stmt((at,)), at)
        self.scopes.append((at, at + 1, len(self.nodes)))
        return (at,)

    def parse_for(self, preds: Tuple[int, ...]) -> Tuple[int, ...]:
        first = self.expect("for")
        self.expect("(")
        if self.peek() != ";":
            if self.peek() in TYPE_KEYWORDS:
                decls = self.parse_declaration(consume_semicolon=False)
                if len(decls) != 1:
                    self.unsupported("multiple declarators in for-init", first)
                init = decls[0]
            else:
                init = self.parse_simple()
            preds = (self.add(init, preds),)
        self.expect(";")
        uses: Names = ()
        calls: Tuple[CallFact, ...] = ()
        if self.peek() != ";":
            uses, calls = self.parse_value()
        self.expect(";")
        update: Optional[StatementNode] = None
        if self.peek() != ")":
            update = self.parse_simple()
        close = self.expect(")")
        # The header's text ends after the update, but the header comes first,
        # then the update, which the header governs with the body.
        at = self.add(self.node("loop-header", first, self.excerpt(first, close),
                                (), uses, calls), preds)
        back = at   # where the body loops back to
        if update is not None:
            back = self.add(update, ())
            self.link((back,), at)
        self.link(self.parse_stmt((at,)), back)
        self.scopes.append((at, at + 1, len(self.nodes)))
        return (at,)

    def parse_return(self, preds: Tuple[int, ...]) -> Tuple[int, ...]:
        first = self.expect("return")
        uses: Names = ()
        calls: Tuple[CallFact, ...] = ()
        if self.peek() != ";":
            uses, calls = self.parse_value()
        semi = self.expect(";")
        self.add(self.node("return", first, self.excerpt(first, semi), (), uses, calls),
                 preds)
        return ()

    def parse_declaration(self, consume_semicolon: bool = True) -> List[StatementNode]:
        first = self.pos
        self.parse_type()
        declarators = []   # (name token, uses, calls)
        while True:
            name_at = self.expect_ident()
            # Array sizes, then the initializer, in source order.
            self.uses = uses = {}
            self.calls = calls = []
            self.parse_array_sizes()
            if self.peek() == "=":
                self.advance()
                if self.peek() == "{":
                    self.unsupported("brace initializer", self.pos)
                self.parse_read()
            declarators.append((name_at, tuple(uses), tuple(calls)))
            if self.peek() == ",":
                self.advance()
                continue
            break
        last = self.expect(";") if consume_semicolon else self.pos - 1
        text = self.excerpt(first, last)
        return [self.node("decl", name_at, text, (self.values[name_at],), uses, calls)
                for name_at, uses, calls in declarators]

    def parse_array_sizes(self) -> None:
        """The ``[size]`` suffixes after a declared name, into the facts."""
        while self.peek() == "[":
            self.advance()
            if self.peek() != "]":
                self.parse_read()
            self.expect("]")

    def parse_simple(self) -> StatementNode:
        """One assignment, call, or increment/decrement, without its ';'."""
        first = self.pos
        if self.values[first] in ("++", "--"):
            self.advance()
            name_at = self.expect_ident()
            var = (self.values[name_at],)
            return self.node("assign", first, self.excerpt(first, name_at), var, var)
        self.uses = uses = {}
        self.calls = calls = []
        kind, name = self.parse_unary()
        op = self.values[self.pos]
        if op in ("++", "--"):
            last = self.advance()
            if kind != "name":
                self.unsupported("increment of a non-variable", first)
            var = (name,)
            return self.node("assign", first, self.excerpt(first, last), var, var)
        if op in _ASSIGN_OPS:
            # Writes through pointers and into array cells are weak updates
            # of the root variable, so an lvalue's root is already a use.
            if kind != "name" and kind != "lvalue":
                self.unsupported("assignment target", first)
            if op != "=":
                uses[name] = None   # read before the right-hand side
            self.advance()
            self.parse_read()
            return self.node("assign", first, self.excerpt(first, self.pos - 1),
                             (name,), tuple(uses), tuple(calls))
        if kind == "call":
            return self.node("call", first, self.excerpt(first, self.pos - 1),
                             (), tuple(uses), tuple(calls))
        if kind == "name" and op == ":":
            self.unsupported("label", first)
        self.unsupported("expression statement", first)

    # expressions ----------------------------------------------------------

    def parse_read(self) -> None:
        """Parse one expression that is read whole, into the facts being gathered."""
        kind, name = self.parse_expr()
        if kind == "name":
            self.uses[name] = None

    def parse_value(self) -> Tuple[Names, Tuple[CallFact, ...]]:
        """Parse one expression that is read whole: its uses and its calls."""
        self.uses = uses = {}
        self.calls = calls = []
        self.parse_read()
        return tuple(uses), tuple(calls)

    def parse_expr(self, min_prec: int = 1) -> Shape:
        left = self.parse_unary()
        values = self.values
        while True:
            op = values[self.pos]
            if op == "?":
                self.unsupported("ternary operator", self.pos)
            if op == "=":
                self.unsupported("nested assignment", self.pos)
            prec = _BINARY_PRECEDENCE.get(op)
            if prec is None or prec < min_prec:
                return left
            self.pos += 1
            if left[0] == "name":
                self.uses[left[1]] = None
            right = self.parse_expr(prec + 1)
            if right[0] == "name":
                self.uses[right[1]] = None
            left = _OTHER

    def parse_unary(self) -> Shape:
        op = self.values[self.pos]
        if op not in _UNARY_OPS:
            return self.parse_postfix()
        self.pos += 1
        kind, name = operand = self.parse_unary()
        if kind == "name":
            self.uses[name] = None
            return ("lvalue", name) if op == "*" else _OTHER
        return operand if op == "*" and kind == "lvalue" else _OTHER

    def parse_postfix(self) -> Shape:
        shape = self.parse_primary()
        values = self.values
        while True:
            op = values[self.pos]
            if op == "(":
                if shape[0] != "name":
                    self.unsupported("function-pointer call", self.pos)
                self.pos += 1
                calls = self.calls
                slot = len(calls)
                calls.append(None)
                args: List[Names] = []
                if values[self.pos] != ")":
                    outer = self.uses
                    while True:
                        self.uses = used = {}
                        self.parse_read()
                        args.append(tuple(used))
                        outer.update(used)
                        if values[self.pos] != ",":
                            break
                        self.pos += 1
                    self.uses = outer
                self.expect(")")
                calls[slot] = (shape[1], tuple(args))
                shape = _CALL
            elif op == "[":
                self.pos += 1
                kind, name = shape
                if kind == "name":
                    self.uses[name] = None
                    shape = ("lvalue", name)
                elif kind != "lvalue":
                    shape = _OTHER
                self.parse_read()
                self.expect("]")
            elif op == "." or op == "->":
                self.unsupported("member access", self.pos)
            else:
                return shape

    def parse_primary(self) -> Shape:
        value = self.values[self.pos]
        ch = value[:1]
        if ch.isalpha() or ch == "_":
            if value not in TYPE_KEYWORDS and value not in CONTROL_KEYWORDS:
                self.pos += 1
                return ("name", value)
        elif ch.isdigit() or ch == '"' or ch == "'":
            self.pos += 1
            return _OTHER
        if value == "sizeof":
            self.advance()
            self.expect("(")
            depth = 1
            while depth > 0:
                inner = self.values[self.advance()]
                if not inner:
                    raise self.error("expected ')', found end of input", self.pos)
                if inner == "(":
                    depth += 1
                elif inner == ")":
                    depth -= 1
                elif (_is_ident(inner) and inner not in TYPE_KEYWORDS
                      and self.values[self.pos] != "("):   # a callee is no use
                    self.uses[inner] = None
            return _OTHER
        if value == "(":
            if self.peek(1) in TYPE_KEYWORDS:
                self.advance()
                self.parse_type()
                self.expect(")")
                kind, name = self.parse_unary()   # a cast
                if kind == "name":
                    self.uses[name] = None
                return _OTHER
            self.advance()
            shape = self.parse_expr()
            self.expect(")")
            return shape
        raise self.error(f"expected an expression, found {value or 'end of input'!r}", self.pos)


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
