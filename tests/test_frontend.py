"""Lexer and parser tests for the supported C subset."""

import re

import pytest

from memlab.frontend import (
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
        with pytest.raises(LexError):
            _tokens("/* never closed")

    def test_illegal_character_rejected(self):
        with pytest.raises(LexError):
            _tokens("int x = @;")

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
        import glob
        for path in sorted(glob.glob(f"{CORPUS}/*.c")):
            tu = parse_source(path, open(path, encoding="utf-8").read())
            assert tu.functions
