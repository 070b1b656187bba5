"""Lexer and recursive-descent parser for the analyzable C subset.

The subset covers exactly what the fixture corpus needs: ``typedef struct``
definitions, global and local declarations with initializers, pointer types,
assignments, ``if``/``else``/``while``/``return``, calls (allocation
builtins, ``printf`` and user functions), ``sizeof``, ``.``/``->`` field
access, address-of, dereference, pointer casts and comparisons against
``NULL``/``0``.  Anything else is rejected with a located error instead of
a crash.

The lexer is one ``finditer`` pass of one regular expression in which each
match is one token, comment or run of newlines, with the blanks in front of
it folded in; a last one-character alternative marks every place where no
token starts, the one place an error is raised.  It counts lines as it
scans, so a token's line and column cost no lookup.  Source text is ASCII:
outside a comment or a string literal, any other character is an illegal
character.  The parser reads the tokens followed by end-of-input tokens, so
no rule asks whether a token is there, and a name it reads must be an
identifier.  It reads binary operators by precedence climbing over one
table of levels (``BINARY_LEVELS``) and the ``else if`` arms of a chain in a
loop; an operand that no prefix operator starts goes straight to the
postfix step, which builds identifier and integer leaves itself.

The parser resolves every variable name as it reads it, with the block
scopes of C (C11 6.2.1): the globals, then the parameters and the body of a
function, then one scope per ``{ }`` and per unbraced ``if`` or ``while``
body.  A use binds to the innermost declaration in scope; one that binds to
nothing is an error, and so is a second declaration of a name in one scope.
Each variable of a function is a slot, a dense index: the globals first,
the same in every function that sees them, then the parameters, then the
locals in declaration order.  Each ``Ident`` and ``VarDecl`` holds its slot,
and ``FunctionDef.names`` its spelling, so the analyzer never compares
names.  Call, field and struct names are no variables.  The parser also
records on each ``FunctionDef`` the functions its body calls and the slots
it takes the address of, so the analyzer needs no second walk of the tree.
The AST nodes are plain classes, so importing the module generates no
code.
"""

from __future__ import annotations

import re
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
_KEYWORD_KIND = dict.fromkeys(KEYWORDS, "KW")

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
# The tokens that can start a prefix operator, `sizeof` or a cast.
_UNARY_STARTS = frozenset({"*", "&", "!", "-", "sizeof", "("})
_TYPE_KEYWORDS = frozenset({"int", "void", "char", "struct"})

# Each match is one token, a comment or a run of newlines, with the blanks
# in front of it folded in (possessively, so text that ends in blanks
# matches nothing more).  `COMMENT` comes before `PUNCT`, so `//` is no pair
# of slashes.  Two-character punctuators come before their one-character
# prefixes, and `/` is no punctuator in front of `*`, so an unclosed `/*`
# falls through to `ERROR`, the one-character catch-all that marks every
# place no token starts.  ASCII only: `\d` and `\w` match no other digit
# or letter, so any other character outside a comment or string literal is
# an illegal character.
_TOKEN = re.compile(r"""
    [ \t\r]*+
    (?: (?P<NEWLINE> \n (?: [ \t\r]*+ \n )* )
      | (?P<COMMENT> //[^\n]* | /\*.*?\*/ )
      | (?P<PREPROC> \#[^\n]* )
      | (?P<STRING> "(?:[^"\\]|\\.)*" )
      | (?P<INT> \d+ )
      | (?P<IDENT> [A-Za-z_]\w* )
      | (?P<PUNCT> -> | [=!<>]= | [-(){};,*&=<>+!.] | /(?!\*) )
      | (?P<ERROR> . )
    )
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


# A named tuple built without the frame of its Python `__new__`.
_tuple_new = tuple.__new__


def tokenize(unit: SourceUnit) -> list[Token]:
    """Split a source unit into tokens; whitespace and comments are dropped.

    Concatenating the token lexemes together with the discarded
    whitespace/comments reconstructs the input exactly.
    """
    text = unit.text
    tokens: list[Token] = []
    append = tokens.append
    new = _tuple_new
    keyword = _KEYWORD_KIND.get
    # Only newline runs, comments and string literals can hold a newline.
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        lexeme = m[kind]
        if kind == "NEWLINE":
            line += lexeme.count("\n")
            line_start = m.end()
            continue
        start = m.start(kind)
        if kind == "IDENT":
            kind = keyword(lexeme, kind)
        elif kind == "COMMENT" or kind == "STRING" or kind == "ERROR":
            col = start - line_start + 1
            if kind == "ERROR":
                if text.startswith("/*", start):
                    raise LexError("unterminated block comment", line, col)
                if lexeme == '"':
                    raise LexError("unterminated string literal", line, col)
                raise LexError(f"illegal character {lexeme!r}", line, col)
            if kind == "STRING":
                append(new(Token, (kind, lexeme, line, col, start)))
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = start + lexeme.rindex("\n") + 1
            continue
        append(new(Token, (kind, lexeme, line, start - line_start + 1, start)))
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


class Node:
    """An AST node.  `_fields` names its fields in order: a node's repr and
    equality go by them, and a node is unhashable, as a dataclass's would
    be.  A node keeps its `__dict__`, so a walker can read its fields with
    `vars(node)`."""

    _fields: tuple[str, ...] = ("loc",)
    __hash__ = None

    def __init__(self, loc: Loc):
        self.loc = loc

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, name) for name in self._fields] \
            == [getattr(other, name) for name in self._fields]


# Expressions


class Ident(Node):
    _fields = ("loc", "name", "slot")

    def __init__(self, loc: Loc, name: str, slot: int):
        self.loc = loc
        self.name = name
        self.slot = slot  # of the declaration it binds to


class IntLit(Node):
    _fields = ("loc", "value")

    def __init__(self, loc: Loc, value: int):
        self.loc = loc
        self.value = value


class StrLit(Node):
    _fields = ("loc", "value")

    def __init__(self, loc: Loc, value: str):
        self.loc = loc
        self.value = value


class NullLit(Node):
    pass


class Deref(Node):
    _fields = ("loc", "expr")

    def __init__(self, loc: Loc, expr: Expr):
        self.loc = loc
        self.expr = expr


class AddressOf(Node):
    _fields = ("loc", "expr")

    def __init__(self, loc: Loc, expr: Expr):
        self.loc = loc
        self.expr = expr


class FieldAccess(Node):
    _fields = ("loc", "expr", "fieldname", "via_pointer")

    def __init__(self, loc: Loc, expr: Expr, fieldname: str, via_pointer: bool):
        self.loc = loc
        self.expr = expr
        self.fieldname = fieldname
        self.via_pointer = via_pointer


class Call(Node):
    _fields = ("loc", "name", "args")

    def __init__(self, loc: Loc, name: str, args: list):
        self.loc = loc
        self.name = name
        self.args = args


class SizeofType(Node):
    _fields = ("loc", "ctype")

    def __init__(self, loc: Loc, ctype: CType):
        self.loc = loc
        self.ctype = ctype


class SizeofExpr(Node):
    _fields = ("loc", "expr", "star_of_ident")

    def __init__(self, loc: Loc, expr: Expr, star_of_ident: bool = False):
        self.loc = loc
        self.expr = expr
        # True for the exact shape `sizeof(*identifier)`, which some tools
        # historically failed to size correctly.
        self.star_of_ident = star_of_ident


class BinOp(Node):
    _fields = ("loc", "op", "left", "right")

    def __init__(self, loc: Loc, op: str, left: Expr, right: Expr):
        self.loc = loc
        self.op = op
        self.left = left
        self.right = right


class UnaryNot(Node):
    _fields = ("loc", "expr")

    def __init__(self, loc: Loc, expr: Expr):
        self.loc = loc
        self.expr = expr


class Cast(Node):
    _fields = ("loc", "ctype", "expr")

    def __init__(self, loc: Loc, ctype: CType, expr: Expr):
        self.loc = loc
        self.ctype = ctype
        self.expr = expr


Expr = Ident | IntLit | StrLit | NullLit | Deref | AddressOf | FieldAccess | Call \
    | SizeofType | SizeofExpr | BinOp | UnaryNot | Cast


# Statements


class VarDecl(Node):
    _fields = ("loc", "name", "slot", "ctype", "init")

    def __init__(self, loc: Loc, name: str, slot: int, ctype: CType,
                 init: Expr | None):
        self.loc = loc
        self.name = name
        self.slot = slot
        self.ctype = ctype
        self.init = init


class Assign(Node):
    _fields = ("loc", "target", "value")

    def __init__(self, loc: Loc, target: Expr, value: Expr):
        self.loc = loc
        self.target = target  # Ident, Deref or FieldAccess
        self.value = value


class ExprStmt(Node):
    _fields = ("loc", "expr")

    def __init__(self, loc: Loc, expr: Expr):
        self.loc = loc
        self.expr = expr  # a call used for effect


class If(Node):
    _fields = ("loc", "cond", "then", "els")

    def __init__(self, loc: Loc, cond: Expr, then: list, els: list | None):
        self.loc = loc
        self.cond = cond
        self.then = then
        self.els = els


class While(Node):
    _fields = ("loc", "cond", "body")

    def __init__(self, loc: Loc, cond: Expr, body: list):
        self.loc = loc
        self.cond = cond
        self.body = body


class Return(Node):
    _fields = ("loc", "expr")

    def __init__(self, loc: Loc, expr: Expr | None):
        self.loc = loc
        self.expr = expr


Stmt = VarDecl | Assign | ExprStmt | If | While | Return


class FunctionDef(Node):
    _fields = ("loc", "name", "params", "return_type", "body", "end_line",
               "calls", "addr_taken", "names", "global_count")

    def __init__(self, loc: Loc, name: str, params: list[tuple[str, CType]],
                 return_type: CType, body: list, end_line: int,
                 calls: frozenset, addr_taken: frozenset, names: list[str],
                 global_count: int):
        self.loc = loc
        self.name = name
        self.params = params
        self.return_type = return_type
        self.body = body
        self.end_line = end_line  # the line of the body's closing brace
        self.calls = calls  # names of the functions the body calls
        self.addr_taken = addr_taken  # slots the body applies `&` to
        # slot -> spelling: the first `global_count` are the globals that
        # precede the function, the next its parameters, the rest its
        # locals in declaration order
        self.names = names
        self.global_count = global_count


class StructDef(Node):
    _fields = ("loc", "name", "fields")

    def __init__(self, loc: Loc, name: str, fields: list[tuple[str, CType]]):
        self.loc = loc
        self.name = name
        self.fields = fields


class TranslationUnit:
    _fields = ("unit", "structs", "functions", "globals")
    __repr__ = Node.__repr__
    __eq__ = Node.__eq__
    __hash__ = None

    def __init__(self, unit: SourceUnit, structs: list[StructDef],
                 functions: list[FunctionDef], globals: list[VarDecl]):
        self.unit = unit
        self.structs = structs
        self.functions = functions
        self.globals = globals

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
        # What the function being parsed calls and takes the address of.
        self.calls: set[str] = set()
        self.addr_taken: set[int] = set()
        # slot -> spelling: the globals, then, inside a function, its
        # parameters and locals.
        self.names: list[str] = []
        # name -> slot of the innermost declaration in scope, and per open
        # scope, innermost last, name -> the slot it shadows, or None.
        self.bound: dict[str, int] = {}
        self.scopes: list[dict] = [{}]

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

    def declare(self, tok: Token) -> int:
        """Bind the name `tok` declares to a new slot in the innermost
        scope; the slot."""
        name = tok.lexeme
        scope = self.scopes[-1]
        if name in scope:
            raise ParseError(f"redefinition of {name!r}", tok.line, tok.column)
        scope[name] = self.bound.get(name)
        slot = self.bound[name] = len(self.names)
        self.names.append(name)
        return slot

    def close_scope(self) -> None:
        """Drop the innermost scope's names: each outer one it shadowed is
        in scope again."""
        bound = self.bound
        for name, shadowed in self.scopes.pop().items():
            if shadowed is None:
                del bound[name]
            else:
                bound[name] = shadowed

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
        return _tuple_new(Loc, (tok.line, tok.column))

    # -- type recognition --

    def at_type(self, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        if tok.lexeme in _TYPE_KEYWORDS:
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
            name_tok = self.peek()
            name = self.name()
            if self.check("("):
                functions.append(self.parse_function_rest(ctype, name, start))
            else:
                # A global named twice is one variable.
                slot = self.bound.get(name)
                if slot is None:
                    slot = self.declare(name_tok)
                globals_.append(self.parse_decl_rest(ctype, name, slot, start))
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
        global_names = self.names
        self.names = global_names.copy()
        # The parameters and the outermost block of the body are one scope.
        self.scopes.append({})
        self.expect("(")
        params: list[tuple[str, CType]] = []
        if not self.check(")"):
            if self.check("void") and self.check(")", 1):
                self.advance()
            else:
                while True:
                    ptype = self.parse_type()
                    pname = self.peek()
                    params.append((self.name(), ptype))
                    self.declare(pname)
                    if not self.accept(","):
                        break
        self.expect(")")
        body = self.parse_block()
        end_line = self.tokens[self.pos - 1].line  # the closing brace
        self.close_scope()
        names, self.names = self.names, global_names
        return FunctionDef(self.loc(start), name, params, ret, body, end_line,
                           frozenset(self.calls), frozenset(self.addr_taken),
                           names, len(global_names))

    def parse_decl_rest(self, ctype: CType, name: str, slot: int,
                        start: Token) -> VarDecl:
        # The name is in scope in its own initializer, as in
        # `int *p = malloc(sizeof(*p));`.
        init = None
        if self.accept("="):
            init = self.parse_expr()
        self.expect(";")
        return VarDecl(self.loc(start), name, slot, ctype, init)

    # -- statements --

    def parse_block(self) -> list:
        self.expect("{")
        stmts: list = []
        tokens = self.tokens
        while tokens[self.pos].lexeme != "}":
            stmts.append(self.parse_stmt())
        self.pos += 1
        return stmts

    def parse_stmt_or_block(self) -> list:
        """The body of an `if`, `else` or `while`: a scope of its own, with
        braces or without (C11 6.8.4, 6.8.5)."""
        self.scopes.append({})
        if self.tokens[self.pos].lexeme == "{":
            body = self.nested(self.parse_block)
        else:
            body = [self.nested(self.parse_stmt)]
        self.close_scope()
        return body

    def parse_stmt(self) -> Stmt:
        tokens = self.tokens
        tok = tokens[self.pos]
        lexeme = tok.lexeme
        if lexeme in ("for", "switch", "do", "goto", "break", "continue"):
            raise self.error(f"{lexeme!r} statements are outside the subset",
                             unsupported=True)
        if lexeme == "if":
            return self.parse_if()
        if lexeme == "while":
            return self.parse_while()
        # A struct-typedef name followed by '(' or an operator starts an
        # expression (e.g. a call), not a declaration.
        nxt = tokens[self.pos + 1]
        if lexeme in _TYPE_KEYWORDS or lexeme in self.struct_names and (
                nxt.kind == "IDENT" or nxt.kind == "EOF" or nxt.lexeme == "*"):
            ctype = self.parse_type()
            name_tok = tokens[self.pos]
            name = self.name()
            return self.parse_decl_rest(ctype, name, self.declare(name_tok),
                                        tok)
        loc = _tuple_new(Loc, (tok.line, tok.column))
        if lexeme == "return":
            self.pos += 1
            expr = None if tokens[self.pos].lexeme == ";" else self.parse_expr()
            self.expect(";")
            return Return(loc, expr)
        expr = self.parse_expr()
        if tokens[self.pos].lexeme == "=":
            self.pos += 1
            if not isinstance(expr, (Ident, Deref, FieldAccess)):
                raise ParseError("invalid assignment target", tok.line, tok.column)
            value = self.parse_expr()
            self.expect(";")
            return Assign(loc, expr, value)
        self.expect(";")
        if not isinstance(expr, Call):
            raise ParseError("expression statement must be a call", tok.line, tok.column)
        return ExprStmt(loc, expr)

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
        tightly (see `BINARY_LEVELS`), each level left-associative.  An
        operand that no prefix operator, `sizeof` or cast starts goes
        straight to `parse_postfix`."""
        tokens = self.tokens
        left = (self.parse_unary() if tokens[self.pos].lexeme in _UNARY_STARTS
                else self.parse_postfix())
        while True:
            op = tokens[self.pos]
            level = BINARY_LEVELS.get(op.lexeme)
            if level is None or level < min_level:
                return left
            self.pos += 1
            if level == _TIGHTEST_LEVEL:
                right = (self.parse_unary() if tokens[self.pos].lexeme in _UNARY_STARTS
                         else self.parse_postfix())
            else:
                right = self.parse_expr(level + 1)
            left = BinOp(_tuple_new(Loc, (op.line, op.column)), op.lexeme, left, right)

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.lexeme == "*":
            self.advance()
            return Deref(self.loc(tok), self.nested(self.parse_unary))
        if tok.lexeme == "&":
            self.advance()
            operand = self.nested(self.parse_unary)
            if isinstance(operand, Ident):
                self.addr_taken.add(operand.slot)
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
        """An identifier, a call, an integer or a `parse_primary` operand,
        then any `.` and `->` accesses.  An identifier that no `(` follows
        is a variable, bound to the innermost declaration of its name."""
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok.kind == "IDENT":
            self.pos += 1
            name = tok.lexeme
            loc = _tuple_new(Loc, (tok.line, tok.column))
            if tokens[self.pos].lexeme == "(":
                self.pos += 1
                args: list = []
                if tokens[self.pos].lexeme != ")":
                    while True:
                        args.append(self.nested(self.parse_expr))
                        if not self.accept(","):
                            break
                self.expect(")")
                expr = Call(loc, name, args)
                self.calls.add(name)
            else:
                slot = self.bound.get(name)
                if slot is None:
                    raise ParseError(f"undeclared name {name!r}", tok.line, tok.column)
                expr = Ident(loc, name, slot)
        elif tok.kind == "INT":
            self.pos += 1
            expr = IntLit(_tuple_new(Loc, (tok.line, tok.column)), int(tok.lexeme))
        else:
            expr = self.parse_primary()
        while True:
            tok = tokens[self.pos]
            if tok.lexeme == "." or tok.lexeme == "->":
                self.pos += 1
                expr = FieldAccess(self.loc(tok), expr, self.name(), tok.lexeme == "->")
                continue
            return expr

    def parse_primary(self) -> Expr:
        """A string, `NULL` or parenthesized operand of `parse_postfix`."""
        tok = self.advance()
        if tok.kind == "STRING":
            return StrLit(self.loc(tok), tok.lexeme)
        if tok.lexeme == "NULL":
            return NullLit(self.loc(tok))
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
