"""Lexer and parser tests for the supported C subset."""

import glob
import random
import re

import pytest

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

    def test_whole_corpus_parses(self):
        for path in sorted(glob.glob(f"{CORPUS}/*.c")):
            tu = parse_source(path, open(path, encoding="utf-8").read())
            assert tu.functions
