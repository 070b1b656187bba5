"""Lexer and parser tests for the supported C subset."""

import glob
import random
import re
import sys

import pytest

from memlab import frontend
from memlab.frontend import (
    KEYWORDS,
    MAX_NESTING,
    BinOp,
    Call,
    Deref,
    FieldAccess,
    Ident,
    IntLit,
    LexError,
    NullLit,
    ParseError,
    SizeofExpr,
    SizeofType,
    SourceUnit,
    Token,
    UnsupportedConstruct,
    VarDecl,
    _Parser,
    parse_source,
    tokenize,
)

CORPUS = "corpus"


def _tokens(text):
    return tokenize(SourceUnit.from_text("<t>", text))


def _reference_token_count(text):
    """Independent token counter: strips comments, then scans with a
    single regex per token shape.  A preprocessor line is one token."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r"//[^\n]*", " ", text)
    pattern = re.compile(
        r"#[^\n]*"                      # preprocessor line
        r"|\"(?:[^\"\\]|\\.)*\""        # string literal
        r"|[A-Za-z_][A-Za-z0-9_]*"      # identifier / keyword
        r"|\d+"                         # integer
        r"|->|==|!=|<=|>=|[-+*/<>=!&.;,(){}\[\]]")
    return len(pattern.findall(text))


# ---------------------------------------------------------------------------
# The character-stepping lexer the regex lexer replaced, kept as a test oracle
# ---------------------------------------------------------------------------

REFERENCE_PUNCTUATION = [
    "->", "==", "!=", "<=", ">=",
    "(", ")", "{", "}", ";", ",", "*", "&", "=", "<", ">",
    "+", "-", "/", "!", ".",
]


def reference_tokenize(unit):
    """The tokens of `unit`, one character step at a time."""
    text = unit.text
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                line, col = unit.line_col(i)
                raise LexError("unterminated block comment", line, col)
            i = j + 2
            continue
        line, col = unit.line_col(i)
        if ch == "#":
            j = text.find("\n", i)
            j = n if j < 0 else j
            tokens.append(Token("PREPROC", text[i:j], line, col, i))
            i = j
            continue
        if ch == '"':
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                j += 1
            if j >= n:
                raise LexError("unterminated string literal", line, col)
            tokens.append(Token("STRING", text[i:j + 1], line, col, i))
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            lexeme = text[i:j]
            kind = "KW" if lexeme in KEYWORDS else "IDENT"
            tokens.append(Token(kind, lexeme, line, col, i))
            i = j
            continue
        for punct in REFERENCE_PUNCTUATION:
            if text.startswith(punct, i):
                tokens.append(Token("PUNCT", punct, line, col, i))
                i += len(punct)
                break
        else:
            raise LexError(f"illegal character {ch!r}", line, col)
    return tokens


def _lex_outcome(lex, text):
    """The tokens, or the error as (text, line, column)."""
    unit = SourceUnit.from_text("<t>", text)
    try:
        return lex(unit)
    except LexError as exc:
        return (str(exc), exc.line, exc.column)


# Pieces that start, end or break every token shape, plus one character
# that is none of them.
LEX_ALPHABET = (REFERENCE_PUNCTUATION + list("abxz_019 \t\r\n\"\\#@")
                + ["//", "/*", "*/", "int", "if", "NULL"])


def _random_text(rng):
    return "".join(rng.choice(LEX_ALPHABET)
                   for _ in range(rng.randint(0, 40)))


# ---------------------------------------------------------------------------
# The three-method expression parser that `parse_expr` replaced, kept as a
# test oracle
# ---------------------------------------------------------------------------


class ReferenceExprParser(_Parser):
    """`_Parser` with one method per binary precedence level."""

    def parse_expr(self):
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_additive()
        while self.peek() is not None and self.peek().lexeme in (
                "==", "!=", "<", ">", "<=", ">="):
            op = self.advance()
            right = self.parse_additive()
            left = BinOp(self.loc(op), op.lexeme, left, right)
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while self.peek() is not None and self.peek().lexeme in ("+", "-"):
            op = self.advance()
            right = self.parse_multiplicative()
            left = BinOp(self.loc(op), op.lexeme, left, right)
        return left

    def parse_multiplicative(self):
        left = self.parse_unary()
        while self.peek() is not None and self.peek().lexeme in ("*", "/"):
            op = self.advance()
            right = self.parse_unary()
            left = BinOp(self.loc(op), op.lexeme, left, right)
        return left


def reference_parse_expr(text):
    return _expr_outcome(ReferenceExprParser, text)


def _expr_outcome(parser_cls, text):
    """The expression parsed from the start of `text`, with how far the
    parser got and what it recorded, or the error."""
    unit = SourceUnit.from_text("<e>", text)
    parser = parser_cls(tokenize(unit), unit)
    parser.struct_names.add("st")
    try:
        expr = parser.parse_expr()
    except ParseError as exc:
        return (type(exc).__name__, str(exc))
    return (repr(expr), parser.pos, sorted(parser.calls),
            sorted(parser.addr_taken))


BINARY_OPS = ["==", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/"]
CAST_TYPES = ["int *", "char **", "void *", "st *", "struct st *"]


def _random_expr(rng, depth=0):
    def sub():
        return _random_expr(rng, depth + 1)

    if depth >= 4 or rng.random() < 0.25:
        return rng.choice(["a", "b", "p", "0", "7", "NULL", '"s"'])
    shape = rng.randrange(9)
    if shape < 3:  # a chain of one to four binary operators
        text = sub()
        for _ in range(rng.randint(1, 4)):
            text += f" {rng.choice(BINARY_OPS)} {sub()}"
        return text
    if shape == 3:
        return rng.choice("*&!-") + " " + sub()
    if shape == 4:
        return f"({rng.choice(CAST_TYPES)}) {sub()}"
    if shape == 5:
        return rng.choice([f"sizeof({rng.choice(CAST_TYPES)})",
                           "sizeof(int)", "sizeof(st)", f"sizeof({sub()})"])
    if shape == 6:
        args = ", ".join(sub() for _ in range(rng.randint(0, 3)))
        return f"{rng.choice(['f', 'g'])}({args})"
    if shape == 7:
        base = rng.choice(["a", "p", f"({sub()})", "f(a)"])
        return f"{base}{rng.choice(['.', '->'])}fld"
    return f"({sub()})"


class TestTokenize:
    def test_dead_store_fixture_token_count(self):
        text = open(f"{CORPUS}/dead_store_tp.c", encoding="utf-8").read()
        toks = tokenize(SourceUnit.from_file(f"{CORPUS}/dead_store_tp.c"))
        assert len(toks) == _reference_token_count(text)
        assert len(toks) == 40

    def test_token_kinds_and_positions(self):
        toks = _tokens("int x = 5;")
        assert [(t.kind, t.lexeme) for t in toks] == [
            ("KW", "int"), ("IDENT", "x"), ("PUNCT", "="),
            ("INT", "5"), ("PUNCT", ";")]
        assert toks[0].line == 1 and toks[0].column == 1
        assert toks[3].column == 9

    def test_comments_and_preproc_are_isolated(self):
        toks = _tokens("#include <x.h>\n// line\n/* block\n */ int y;")
        kinds = [t.kind for t in toks]
        assert kinds == ["PREPROC", "KW", "IDENT", "PUNCT"]

    def test_unterminated_comment_rejected(self):
        with pytest.raises(LexError, match="^2:3: unterminated block comment$"):
            _tokens("int x; /* closed */\n  /* never * / closed")
        with pytest.raises(LexError, match="^1:1: unterminated block comment$"):
            _tokens("/*/")

    def test_unterminated_string_rejected(self):
        with pytest.raises(LexError, match="^2:11: unterminated string literal$"):
            _tokens('int x;\nchar *s = "ab\\"c;\n')

    def test_illegal_character_rejected(self):
        with pytest.raises(LexError, match="^1:9: illegal character '@'$"):
            _tokens("int x = @;")

    @pytest.mark.parametrize("text,where,char", [
        ("int x = \u00b2;", "1:9", "\u00b2"),
        ("int caf\u00e9 = 1;", "1:8", "\u00e9"),
        ("int x =\u00a01;", "1:8", "\u00a0"),
        ("int x = \u0661;", "1:9", "\u0661"),
    ], ids=["superscript-digit", "letter", "nbsp", "arabic-digit"])
    def test_non_ascii_outside_comments_and_strings_is_illegal(
            self, text, where, char):
        with pytest.raises(LexError) as err:
            _tokens(text)
        assert str(err.value) == f"{where}: illegal character {char!r}"

    def test_non_ascii_inside_comments_and_strings_is_kept(self):
        toks = _tokens('// caf\u00e9\n/* \u00b2 */ printf("\u00b2");')
        assert [t.lexeme for t in toks] == [
            "printf", "(", '"\u00b2"', ")", ";"]

    def test_corpus_lexes_as_the_reference_does(self):
        paths = sorted(glob.glob(f"{CORPUS}/*.c"))
        assert paths
        for path in paths:
            text = open(path, encoding="utf-8").read()
            assert _lex_outcome(tokenize, text) \
                == _lex_outcome(reference_tokenize, text), path

    def test_random_text_lexes_as_the_reference_does(self):
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(20000):
            text = _random_text(rng)
            want = _lex_outcome(reference_tokenize, text)
            assert _lex_outcome(tokenize, text) == want, repr(text)
            outcomes.add(re.sub(r"^\d+:\d+: | '.*'$", "", want[0])
                         if isinstance(want, tuple) else "tokens")
        assert outcomes == {"tokens", "unterminated block comment",
                            "unterminated string literal",
                            "illegal character"}

    def test_line_col_round_trip(self):
        unit = SourceUnit.from_text("<t>", "ab\ncd\n")
        assert unit.line_col(0) == (1, 1)
        assert unit.line_col(3) == (2, 1)
        assert unit.line_col(4) == (2, 2)


class TestParser:
    def test_function_and_struct_shapes(self):
        tu = parse_source("<t>", """
            typedef struct st { int value; } st;
            st * create(int value) {
                st *new = malloc(sizeof(st));
                return new;
            }
        """)
        assert [s.name for s in tu.structs] == ["st"]
        fn = tu.function("create")
        assert fn.return_type.pointer_depth == 1
        assert [name for name, _ in fn.params] == ["value"]
        decl = fn.body[0]
        assert isinstance(decl, VarDecl)
        assert isinstance(decl.init, Call)
        assert isinstance(decl.init.args[0], SizeofType)

    def test_sizeof_star_ident_is_flagged(self):
        tu = parse_source("<t>", """
            int main() {
                int *p = malloc(sizeof(*p));
                int *q = malloc(sizeof(p));
                return 0;
            }
        """)
        star, plain = (tu.function("main").body[i].init.args[0]
                       for i in (0, 1))
        assert isinstance(star, SizeofExpr) and star.star_of_ident
        assert isinstance(plain, SizeofExpr) and not plain.star_of_ident

    def test_precedence(self):
        tu = parse_source("<t>", "int main() { int x = 1 + 2 * 3; return x; }")
        init = tu.function("main").body[0].init
        assert isinstance(init, BinOp) and init.op == "+"
        assert isinstance(init.right, BinOp) and init.right.op == "*"
        tu = parse_source("<t>", "int f(int a) { return a - a - a * a / a; }")
        expr = tu.function("f").body[0].expr  # each level left-associative
        assert expr.op == "-" and expr.left.op == "-"
        assert expr.right.op == "/" and expr.right.left.op == "*"

    def test_unary_minus_folds_literal(self):
        tu = parse_source("<t>", "int main() { return -1; }")
        expr = tu.function("main").body[0].expr
        assert isinstance(expr, IntLit) and expr.value == -1

    def test_field_access_and_deref(self):
        tu = parse_source("<t>", """
            typedef struct st { int value; } st;
            int main() {
                st *p = NULL;
                p -> value = 1;
                *p = *p;
                return 0;
            }
        """)
        body = tu.function("main").body
        assert isinstance(body[0].init, NullLit)
        target = body[1].target
        assert isinstance(target, FieldAccess) and target.via_pointer
        assert isinstance(body[2].target, Deref)
        assert isinstance(body[2].target.expr, Ident)

    def test_braceless_if_bodies(self):
        tu = parse_source("<t>", """
            int *f(int *p) {
                if (p == NULL) return NULL;
                return p;
            }
        """)
        fn = tu.function("f")
        assert len(fn.body) == 2

    def test_unsupported_statements_rejected(self):
        for snippet in ("for (;;) { }", "switch (x) { }", "break;",
                        "goto out;"):
            with pytest.raises(UnsupportedConstruct):
                parse_source("<t>", "int main() { %s return 0; }" % snippet)

    def test_non_pointer_cast_rejected(self):
        with pytest.raises(UnsupportedConstruct):
            parse_source("<t>", "int main() { int x = (int) 0; return x; }")

    def test_duplicate_function_rejected(self):
        with pytest.raises(ParseError):
            parse_source("<t>", "int f() { return 0; } int f() { return 1; }")

    def test_expression_statement_must_be_call(self):
        with pytest.raises(ParseError):
            parse_source("<t>", "int main() { 1 + 2; return 0; }")

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_source("<t>", "int main() {\n    int x = ;\n}")
        assert err.value.line == 2

    @pytest.mark.parametrize("nest", [
        lambda n: "int x = " + "(" * n + "1" + ")" * n + "; return x;",
        lambda n: "int x = " + "!" * n + "c; return x;",
        lambda n: "int x = " + "g(" * n + "1" + ")" * n + "; return x;",
        lambda n: "if (c) {" * n + " c = 1; " + "}" * n + " return c;",
        lambda n: "while (c)" * n + " c = 1; return c;",
    ], ids=["parens", "nots", "calls", "blocks", "bodies"])
    def test_nesting_guard(self, nest):
        source = "int f(int c) {\n%s\n}"
        parse_source("<t>", source % nest(MAX_NESTING))
        with pytest.raises(UnsupportedConstruct) as err:
            parse_source("<t>", source % nest(MAX_NESTING + 1))
        assert err.value.line == 2

    def test_random_expressions_parse_as_the_reference_does(self):
        rng = random.Random(8)
        outcomes = {"ast": 0, "error": 0}
        ops = set()
        for _ in range(3000):
            text = _random_expr(rng)
            ops |= {tok.lexeme for tok in _tokens(text)
                    if tok.lexeme in BINARY_OPS}
            # The whole expression, and a prefix cut at a random token,
            # which mostly ends where the parser expects more.
            cut = rng.choice(_tokens(text)).offset
            for variant in (text, text[:cut]):
                want = reference_parse_expr(variant)
                assert _expr_outcome(_Parser, variant) == want, variant
                outcomes["ast" if len(want) == 4 else "error"] += 1
        assert ops == set(BINARY_OPS)
        assert min(outcomes.values()) > 500

    @staticmethod
    def _peak_parser_frames(source):
        """The deepest the parser's own frames stack while parsing."""
        depth = peak = 0

        def profile(frame, event, arg):
            nonlocal depth, peak
            if frame.f_code.co_filename != frontend.__file__:
                return
            if event == "call":
                depth += 1
                peak = max(peak, depth)
            elif event == "return":
                depth -= 1

        sys.setprofile(profile)
        try:
            parse_source("<t>", source)
        finally:
            sys.setprofile(None)
        return peak

    @pytest.mark.parametrize("nest,frames", [
        (lambda n: "c == c + c * (" * n + "1" + ")" * n, 7),
        (lambda n: "(" * n + "1" + ")" * n, 5),
        (lambda n: "c == c + c * g(" * n + "1" + ")" * n, 6),
        (lambda n: "sizeof(" * n + "c" + ")" * n, 4),
        (lambda n: "(int *) " * n + "c", 2),
        (lambda n: "1; " + "if (c) {" * n + "c = 1;" + "}" * n + " c = 1", 5),
        (lambda n: "1; " + "while (c) " * n + "c = 1", 4),
    ], ids=["right-of-every-level", "parens", "call-args", "sizeofs",
            "casts", "blocks", "bodies"])
    def test_frames_per_nesting_level(self, nest, frames):
        # At most seven parser frames a level, so MAX_NESTING levels stay
        # inside Python's default recursion limit of 1000.
        source = "int f(int c) { int x = %s; return x; }"
        per_level = (self._peak_parser_frames(source % nest(40))
                     - self._peak_parser_frames(source % nest(20))) / 20
        assert per_level == frames

    def test_else_if_arms_are_no_nesting_level(self):
        source = "int f(int c) {\nint x = 0;\n%s\nreturn x;\n}"
        chain = " else ".join(f"if (c == {i}) {{ x = {i}; }}"
                              for i in range(2 * MAX_NESTING))
        stmt = parse_source("<t>", source % chain).function("f").body[1]
        for i in range(2 * MAX_NESTING):
            assert stmt.cond.right.value == i
            assert stmt.then[0].value.value == i
            stmt = stmt.els[0] if stmt.els else None
        assert stmt is None
        # The blocks inside an arm still count.
        deep = "if (c) {" * (MAX_NESTING - 1) + "c = 1;" + "}" * (MAX_NESTING - 1)
        parse_source("<t>", source % (chain + f" else if (c) {{ {deep} }}"))
        with pytest.raises(UnsupportedConstruct):
            parse_source("<t>", source % (chain + f" else if (c) {{ if (c) {{ {deep} }} }}"))

    def test_whole_corpus_parses(self):
        for path in sorted(glob.glob(f"{CORPUS}/*.c")):
            tu = parse_source(path, open(path, encoding="utf-8").read())
            assert tu.functions
