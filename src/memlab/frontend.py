"""Lexer and recursive-descent parser for the analyzable C subset.

The subset covers exactly what the fixture corpus needs: ``typedef struct``
definitions, global and local declarations with initializers, pointer types,
assignments, ``if``/``else``/``while``/``return``, calls (allocation
builtins, ``printf`` and user functions), ``sizeof``, ``.``/``->`` field
access, address-of, dereference, pointer casts and comparisons against
``NULL``/``0``.  Anything else is rejected with a located error instead of
a crash.

The lexer matches one regular expression at each offset, one alternative
per token shape, and counts lines as it scans, so a token's line and column
cost no lookup.  Source text is ASCII: outside a comment or a string
literal, any other character is an illegal character.  The parser reads
the tokens followed by end-of-input tokens, so no rule asks whether a token
is there, and a name it reads must be an identifier.  It reads
binary operators by precedence climbing over one table of levels
(``BINARY_LEVELS``) and the ``else if`` arms of a chain in a loop.  It
records on each ``FunctionDef`` the functions its body calls, the
variables it takes the address of and the names it declares, so the
analyzer needs no second walk of the tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

# The subset's keywords and NULL, then the rest of C11's keywords, so none
# of them is read as a name.
KEYWORDS = {
    "int", "void", "char", "struct", "typedef", "if", "else", "while",
    "return", "sizeof", "NULL",
    "auto", "break", "case", "const", "continue", "default", "do", "double",
    "enum", "extern", "float", "for", "goto", "inline", "long", "register",
    "restrict", "short", "signed", "static", "switch", "union", "unsigned",
    "volatile", "_Alignas", "_Alignof", "_Atomic", "_Bool", "_Complex",
    "_Generic", "_Imaginary", "_Noreturn", "_Static_assert", "_Thread_local",
}

# Statements, blocks, parentheses, call arguments, sizeof operands, casts and
# prefix operators nest at most this deep.  The parser recurses at most seven
# frames per level (a parenthesis on the right of a comparison, a `+` and a
# `*`: `nested`, `parse_expr` three times, `parse_unary`, `parse_postfix`,
# `parse_primary`), so this stays inside Python's default limit of 1000.
MAX_NESTING = 100

# Binary operators by binding level, loosest first; every level is
# left-associative.
BINARY_LEVELS = {
    "==": 1, "!=": 1, "<": 1, ">": 1, "<=": 1, ">=": 1,
    "+": 2, "-": 2,
    "*": 3, "/": 3,
}
_TIGHTEST_LEVEL = max(BINARY_LEVELS.values())

# One alternative per token shape, tried in order at each offset.  Two-
# character punctuators come before their one-character prefixes, and `/`
# is no punctuator in front of `*`, so an unclosed `/*` matches nothing and
# is reported as an unterminated comment.  ASCII only: `\d` and `\w` match no other digit
# or letter, so any other character outside a comment or string literal is
# an illegal character.
_TOKEN = re.compile(r"""
    (?P<SKIP> [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )
  | (?P<PREPROC> \#[^\n]* )
  | (?P<STRING> "(?:[^"\\]|\\.)*" )
  | (?P<INT> \d+ )
  | (?P<IDENT> [A-Za-z_]\w* )
  | (?P<PUNCT> -> | [=!<>]= | [-(){};,*&=<>+!.] | /(?!\*) )
""", re.VERBOSE | re.DOTALL | re.ASCII)


class InputError(ValueError):
    """Input memlab cannot use: C source it cannot lex or parse, a file not
    in UTF-8, a malformed report, manifest or command line, a bad checker
    set, a reversed date interval.  The CLI reports one as a single line
    and exits 2."""


class ParseError(InputError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class LexError(ParseError):
    """Text that is no token of the subset."""


class UnsupportedConstruct(ParseError):
    """A real C construct that lies outside the analyzable subset."""


def read_text(path) -> str:
    """A file's text; a file that is not UTF-8 is an InputError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


class SourceUnit(NamedTuple):
    """A source file: its path, as findings name it, and its text."""

    path: str
    text: str

    @classmethod
    def from_text(cls, path: str, text: str) -> "SourceUnit":
        return cls(path=path, text=text)

    @classmethod
    def from_file(cls, path) -> "SourceUnit":
        return cls.from_text(str(path), read_text(path))


class Token(NamedTuple):
    kind: str  # KW | IDENT | INT | STRING | PREPROC | PUNCT, or the parser's EOF
    lexeme: str
    line: int
    column: int
    offset: int


def tokenize(unit: SourceUnit) -> list[Token]:
    """Split a source unit into tokens; whitespace and comments are dropped.

    Concatenating the token lexemes together with the discarded
    whitespace/comments reconstructs the input exactly.
    """
    text = unit.text
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    end = len(text)
    pos = 0
    # Only whitespace, comments and string literals can hold a newline.
    line, line_start = 1, 0
    while pos < end:
        m = match(text, pos)
        if m is None:
            col = pos - line_start + 1
            if text.startswith("/*", pos):
                raise LexError("unterminated block comment", line, col)
            if text[pos] == '"':
                raise LexError("unterminated string literal", line, col)
            raise LexError(f"illegal character {text[pos]!r}", line, col)
        kind = m.lastgroup
        nxt = m.end()
        if kind != "SKIP":
            lexeme = m.group()
            if kind == "IDENT" and lexeme in KEYWORDS:
                kind = "KW"
            append(Token(kind, lexeme, line, pos - line_start + 1, pos))
        if kind == "SKIP" or kind == "STRING":
            newlines = text.count("\n", pos, nxt)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, nxt) + 1
        pos = nxt
    return tokens


# ---------------------------------------------------------------------------
# Types and AST
# ---------------------------------------------------------------------------


class CType(NamedTuple):
    """Int, Void, Char, Struct(name) or Pointer(inner)."""

    base: str  # "int" | "void" | "char" | "struct" | "unknown"
    struct_name: str | None = None
    pointer_depth: int = 0

    def pointer_to(self) -> "CType":
        return CType(self.base, self.struct_name, self.pointer_depth + 1)

    @property
    def is_pointer(self) -> bool:
        return self.pointer_depth > 0

    def __str__(self) -> str:
        name = self.struct_name if self.base == "struct" else self.base
        return f"{name}{'*' * self.pointer_depth}"


class Loc(NamedTuple):
    line: int
    column: int


@dataclass
class Node:
    loc: Loc


# Expressions


@dataclass
class Ident(Node):
    name: str


@dataclass
class IntLit(Node):
    value: int


@dataclass
class StrLit(Node):
    value: str


@dataclass
class NullLit(Node):
    pass


@dataclass
class Deref(Node):
    expr: "Expr"


@dataclass
class AddressOf(Node):
    expr: "Expr"


@dataclass
class FieldAccess(Node):
    expr: "Expr"
    fieldname: str
    via_pointer: bool


@dataclass
class Call(Node):
    name: str
    args: list


@dataclass
class SizeofType(Node):
    ctype: CType


@dataclass
class SizeofExpr(Node):
    expr: "Expr"
    # True for the exact shape `sizeof(*identifier)`, which some tools
    # historically failed to size correctly.
    star_of_ident: bool = False


@dataclass
class BinOp(Node):
    op: str
    left: "Expr"
    right: "Expr"


@dataclass
class UnaryNot(Node):
    expr: "Expr"


@dataclass
class Cast(Node):
    ctype: CType
    expr: "Expr"


Expr = Ident | IntLit | StrLit | NullLit | Deref | AddressOf | FieldAccess | Call \
    | SizeofType | SizeofExpr | BinOp | UnaryNot | Cast


# Statements


@dataclass
class VarDecl(Node):
    name: str
    ctype: CType
    init: Expr | None


@dataclass
class Assign(Node):
    target: Expr  # Ident, Deref or FieldAccess
    value: Expr


@dataclass
class ExprStmt(Node):
    expr: Expr  # a call used for effect


@dataclass
class If(Node):
    cond: Expr
    then: list
    els: list | None


@dataclass
class While(Node):
    cond: Expr
    body: list


@dataclass
class Return(Node):
    expr: Expr | None


Stmt = VarDecl | Assign | ExprStmt | If | While | Return


@dataclass
class FunctionDef(Node):
    name: str
    params: list[tuple[str, CType]]
    return_type: CType
    body: list
    calls: frozenset  # names of the functions the body calls
    addr_taken: frozenset  # variables the body applies `&` to
    declared: frozenset  # its parameters and local declarations


@dataclass
class StructDef(Node):
    name: str
    fields: list[tuple[str, CType]]


@dataclass
class TranslationUnit:
    unit: SourceUnit
    structs: list[StructDef]
    functions: list[FunctionDef]
    globals: list[VarDecl]

    def function(self, name: str) -> FunctionDef:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], unit: SourceUnit):
        # Preprocessor lines are recognized by the lexer and skipped here.
        self.tokens = [t for t in tokens if t.kind != "PREPROC"]
        # Three end-of-input tokens at the last token's place: the parser
        # looks at most two tokens ahead, so no look-ahead runs off the
        # list, and no rule consumes the first one, `self.end`.
        line, column = (self.tokens[-1].line, self.tokens[-1].column) \
            if self.tokens else (1, 1)
        self.end = len(self.tokens)
        self.tokens += [Token("EOF", "end of input", line, column, len(unit.text))] * 3
        self.unit = unit
        self.pos = 0
        self.struct_names: set[str] = set()
        self.depth = 0
        # What the function being parsed calls, takes the address of and
        # declares.
        self.calls: set[str] = set()
        self.addr_taken: set[str] = set()
        self.declared: set[str] = set()

    # -- token helpers --

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def at_end(self) -> bool:
        return self.pos == self.end

    def advance(self) -> Token:
        if self.pos == self.end:
            raise self.error("unexpected end of input")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def check(self, lexeme: str, ahead: int = 0) -> bool:
        return self.tokens[self.pos + ahead].lexeme == lexeme

    def accept(self, lexeme: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.lexeme == lexeme:
            self.pos += 1
            return tok
        return None

    def expect(self, lexeme: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.lexeme != lexeme:
            raise self.error(f"expected {lexeme!r}, got {tok.lexeme!r}")
        self.pos += 1
        return tok

    def name(self) -> str:
        """The identifier a declaration or field access names."""
        tok = self.tokens[self.pos]
        if tok.kind != "IDENT":
            raise self.error(f"expected a name, got {tok.lexeme!r}")
        self.pos += 1
        return tok.lexeme

    def error(self, message: str, unsupported: bool = False) -> ParseError:
        tok = self.tokens[self.pos]
        cls = UnsupportedConstruct if unsupported else ParseError
        return cls(message, tok.line, tok.column)

    def nested(self, parse):
        """parse() one nesting level deeper; past MAX_NESTING, an error."""
        if self.depth >= MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels",
                             unsupported=True)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def loc(self, tok: Token) -> Loc:
        return Loc(tok.line, tok.column)

    # -- type recognition --

    def at_type(self, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        if tok.lexeme in ("int", "void", "char", "struct"):
            return True
        return tok.kind == "IDENT" and tok.lexeme in self.struct_names

    def parse_type(self) -> CType:
        tok = self.advance()
        if tok.lexeme in ("int", "void", "char"):
            ctype = CType(tok.lexeme)
        elif tok.lexeme == "struct":
            ctype = CType("struct", self.name())
        elif tok.kind == "IDENT" and tok.lexeme in self.struct_names:
            ctype = CType("struct", tok.lexeme)
        else:
            raise ParseError(f"expected a type, got {tok.lexeme!r}", tok.line, tok.column)
        while self.accept("*"):
            ctype = ctype.pointer_to()
        return ctype

    # -- top level --

    def parse_translation_unit(self) -> TranslationUnit:
        structs: list[StructDef] = []
        functions: list[FunctionDef] = []
        globals_: list[VarDecl] = []
        while not self.at_end():
            if self.check("typedef"):
                structs.append(self.parse_typedef_struct())
                continue
            if self.check("struct") and self.check("{", 2):
                structs.append(self.parse_plain_struct())
                continue
            if not self.at_type():
                raise self.error(f"unsupported top-level construct {self.peek().lexeme!r}",
                                 unsupported=True)
            start = self.peek()
            ctype = self.parse_type()
            name = self.name()
            if self.check("("):
                functions.append(self.parse_function_rest(ctype, name, start))
            else:
                globals_.append(self.parse_decl_rest(ctype, name, start))
        tu = TranslationUnit(self.unit, structs, functions, globals_)
        self._check_unique(tu)
        return tu

    def _check_unique(self, tu: TranslationUnit) -> None:
        seen: set[str] = set()
        for fn in tu.functions:
            if fn.name in seen:
                raise ParseError(f"duplicate function {fn.name!r}", fn.loc.line, fn.loc.column)
            seen.add(fn.name)
        seen = set()
        for st in tu.structs:
            if st.name in seen:
                raise ParseError(f"duplicate struct {st.name!r}", st.loc.line, st.loc.column)
            seen.add(st.name)

    def parse_typedef_struct(self) -> StructDef:
        start = self.expect("typedef")
        self.expect("struct")
        if self.peek().kind == "IDENT":
            self.struct_names.add(self.name())
        fields = self.parse_struct_fields()
        alias = self.name()
        self.expect(";")
        self.struct_names.add(alias)
        return StructDef(self.loc(start), alias, fields)

    def parse_plain_struct(self) -> StructDef:
        start = self.expect("struct")
        name = self.name()
        self.struct_names.add(name)
        fields = self.parse_struct_fields()
        self.expect(";")
        return StructDef(self.loc(start), name, fields)

    def parse_struct_fields(self) -> list[tuple[str, CType]]:
        self.expect("{")
        fields: list[tuple[str, CType]] = []
        while not self.check("}"):
            ctype = self.parse_type()
            fields.append((self.name(), ctype))
            self.expect(";")
        self.expect("}")
        return fields

    def parse_function_rest(self, ret: CType, name: str, start: Token) -> FunctionDef:
        self.calls, self.addr_taken = set(), set()
        self.expect("(")
        params: list[tuple[str, CType]] = []
        if not self.check(")"):
            if self.check("void") and self.check(")", 1):
                self.advance()
            else:
                while True:
                    ptype = self.parse_type()
                    params.append((self.name(), ptype))
                    if not self.accept(","):
                        break
        self.expect(")")
        self.declared = {pname for pname, _ in params}
        body = self.parse_block()
        return FunctionDef(self.loc(start), name, params, ret, body,
                           frozenset(self.calls), frozenset(self.addr_taken),
                           frozenset(self.declared))

    def parse_decl_rest(self, ctype: CType, name: str, start: Token) -> VarDecl:
        init = None
        if self.accept("="):
            init = self.parse_expr()
        self.expect(";")
        return VarDecl(self.loc(start), name, ctype, init)

    # -- statements --

    def parse_block(self) -> list:
        self.expect("{")
        stmts: list = []
        while not self.check("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return stmts

    def parse_stmt_or_block(self) -> list:
        if self.check("{"):
            return self.nested(self.parse_block)
        return [self.nested(self.parse_stmt)]

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.lexeme in ("for", "switch", "do", "goto", "break", "continue"):
            raise self.error(f"{tok.lexeme!r} statements are outside the subset",
                             unsupported=True)
        if tok.lexeme == "if":
            return self.parse_if()
        if tok.lexeme == "while":
            return self.parse_while()
        if tok.lexeme == "return":
            self.advance()
            expr = None if self.check(";") else self.parse_expr()
            self.expect(";")
            return Return(self.loc(tok), expr)
        if self.at_type() and not self._looks_like_expression_start():
            ctype = self.parse_type()
            name = self.name()
            self.declared.add(name)
            return self.parse_decl_rest(ctype, name, tok)
        expr = self.parse_expr()
        if self.accept("="):
            if not isinstance(expr, (Ident, Deref, FieldAccess)):
                raise ParseError("invalid assignment target", tok.line, tok.column)
            value = self.parse_expr()
            self.expect(";")
            return Assign(self.loc(tok), expr, value)
        self.expect(";")
        if not isinstance(expr, Call):
            raise ParseError("expression statement must be a call", tok.line, tok.column)
        return ExprStmt(self.loc(tok), expr)

    def _looks_like_expression_start(self) -> bool:
        # A struct-typedef name followed by '(' or an operator is an
        # expression (e.g. a call), not the start of a declaration.
        tok, nxt = self.peek(), self.peek(1)
        return tok.kind == "IDENT" and tok.lexeme in self.struct_names \
            and nxt.kind not in ("IDENT", "EOF") and nxt.lexeme != "*"

    def parse_if(self) -> If:
        # The `else if` arms of a chain are read in this loop, so an arm is
        # no nesting level; each `else` holding the next arm's `If` is built
        # afterwards, last arm first.
        arms = []
        els = None
        while True:
            start = self.expect("if")
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            arms.append((start, cond, self.parse_stmt_or_block()))
            if not self.accept("else"):
                break
            if not self.check("if"):
                els = self.parse_stmt_or_block()
                break
        for start, cond, then in reversed(arms):
            node = If(self.loc(start), cond, then, els)
            els = [node]
        return node

    def parse_while(self) -> While:
        start = self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_stmt_or_block()
        return While(self.loc(start), cond, body)

    # -- expressions (precedence climbing) --

    def parse_expr(self, min_level: int = 1) -> Expr:
        """An expression whose binary operators bind at least `min_level`
        tightly (see `BINARY_LEVELS`), each level left-associative."""
        left = self.parse_unary()
        while True:
            op = self.peek()
            level = BINARY_LEVELS.get(op.lexeme)
            if level is None or level < min_level:
                return left
            self.pos += 1
            right = (self.parse_unary() if level == _TIGHTEST_LEVEL
                     else self.parse_expr(level + 1))
            left = BinOp(Loc(op.line, op.column), op.lexeme, left, right)

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.lexeme == "*":
            self.advance()
            return Deref(self.loc(tok), self.nested(self.parse_unary))
        if tok.lexeme == "&":
            self.advance()
            operand = self.nested(self.parse_unary)
            if isinstance(operand, Ident):
                self.addr_taken.add(operand.name)
            return AddressOf(self.loc(tok), operand)
        if tok.lexeme == "!":
            self.advance()
            return UnaryNot(self.loc(tok), self.nested(self.parse_unary))
        if tok.lexeme == "-":
            self.advance()
            operand = self.nested(self.parse_unary)
            if isinstance(operand, IntLit):
                return IntLit(self.loc(tok), -operand.value)
            return BinOp(self.loc(tok), "-", IntLit(self.loc(tok), 0), operand)
        if tok.lexeme == "sizeof":
            return self.parse_sizeof()
        if tok.lexeme == "(" and self._at_cast():
            self.advance()
            ctype = self.parse_type()
            if not ctype.is_pointer:
                raise self.error("only pointer casts are in the subset", unsupported=True)
            self.expect(")")
            return Cast(self.loc(tok), ctype, self.nested(self.parse_unary))
        return self.parse_postfix()

    def _at_cast(self) -> bool:
        # '(' <type> '*'... ')' starting a cast; called with peek() == '('.
        # A struct alias starts one only when a '*' follows it.
        return self.at_type(1) and (self.peek(1).kind == "KW" or self.check("*", 2))

    def parse_sizeof(self) -> Expr:
        start = self.expect("sizeof")
        self.expect("(")
        if self.at_type():
            ctype = self.parse_type()
            self.expect(")")
            return SizeofType(self.loc(start), ctype)
        inner = self.nested(self.parse_expr)
        self.expect(")")
        star_of_ident = isinstance(inner, Deref) and isinstance(inner.expr, Ident)
        return SizeofExpr(self.loc(start), inner, star_of_ident)

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.lexeme == "(" and isinstance(expr, Ident):
                self.advance()
                args: list = []
                if not self.check(")"):
                    while True:
                        args.append(self.nested(self.parse_expr))
                        if not self.accept(","):
                            break
                self.expect(")")
                expr = Call(expr.loc, expr.name, args)
                self.calls.add(expr.name)
                continue
            if tok.lexeme in (".", "->"):
                self.advance()
                expr = FieldAccess(self.loc(tok), expr, self.name(), tok.lexeme == "->")
                continue
            return expr

    def parse_primary(self) -> Expr:
        tok = self.advance()
        if tok.kind == "INT":
            return IntLit(self.loc(tok), int(tok.lexeme))
        if tok.kind == "STRING":
            return StrLit(self.loc(tok), tok.lexeme)
        if tok.lexeme == "NULL":
            return NullLit(self.loc(tok))
        if tok.kind == "IDENT":
            return Ident(self.loc(tok), tok.lexeme)
        if tok.lexeme == "(":
            expr = self.nested(self.parse_expr)
            self.expect(")")
            return expr
        raise ParseError(f"unexpected token {tok.lexeme!r}", tok.line, tok.column)


def parse(tokens: list[Token], unit: SourceUnit) -> TranslationUnit:
    return _Parser(tokens, unit).parse_translation_unit()


def parse_source(path: str, text: str) -> TranslationUnit:
    unit = SourceUnit.from_text(path, text)
    return parse(tokenize(unit), unit)


def parse_file(path) -> TranslationUnit:
    """Parse a file; a lex or parse error reads "path:line:col: message"."""
    unit = SourceUnit.from_file(path)
    try:
        return parse(tokenize(unit), unit)
    except ParseError as exc:
        exc.args = (f"{path}:{exc}",)
        raise
