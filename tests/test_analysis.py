"""Checker-level tests for the path-sensitive analysis engine."""

from dataclasses import replace

import pytest

from memlab.analysis import (
    CHECKER_DEAD_STORE,
    CHECKER_DEAD_STORE_NULL_INIT,
    CHECKER_INTERIOR_FREE,
    CHECKER_INVALID_FREE,
    CHECKER_MEMORY_LEAK,
    CHECKER_NULL_DEREF,
    CHECKER_REALLOC_LEAK,
    CHECKER_UNCHECKED_ALLOC,
    CHECKER_UNINIT_USE,
    CheckerConfig,
    FunctionSummary,
    PROFILES,
    PtrValue,
    ScalarValue,
    analyze_unit,
    compute_summaries,
)
from memlab.cfg import build_cfg
from memlab.frontend import CType, Loc, SourceUnit, parse_source

UNION = PROFILES["union"]


def run(src, config=None):
    result = analyze_unit(parse_source("<t>", src), config=config)
    return [(f.line, f.checker) for f in result]


def run_full(src, config=None):
    return analyze_unit(parse_source("<t>", src), config=config)


class TestNullDeref:
    def test_literal_null_deref(self):
        assert run("""int main() {
            int *p = NULL;
            *p = 5;
            return 0;
        }""") == [(3, CHECKER_NULL_DEREF)]

    def test_guard_prunes_null_path(self):
        assert run("""int f(int *p) {
            if (p != NULL) {
                *p = 1;
            }
            return 0;
        }""") == []

    def test_refined_null_on_equality_branch(self):
        assert run("""int f(int *p) {
            if (p == NULL) {
                *p = 1;
            }
            return 0;
        }""") == [(3, CHECKER_NULL_DEREF)]

    @pytest.mark.parametrize("read", ["*q", "p"])
    def test_uninitialized_pointer_read_through_its_address_refines(
            self, read):
        # Reading `p` through `*q` is a read of `p`: it leaves an unknown
        # pointer, which the null test then refines, as a direct read does.
        found = run("""int main() {
            int *p;
            int **q = &p;
            int *r = %s;
            if (p == NULL) {
                *p = 1;
            }
            return 0;
        }""" % read)
        assert (6, CHECKER_NULL_DEREF) in found
        assert (4, CHECKER_UNINIT_USE) in found

    def test_recovery_reports_once(self):
        found = run("""int main() {
            int *p = NULL;
            *p = 1;
            *p = 2;
            return 0;
        }""")
        assert found == [(3, CHECKER_NULL_DEREF)]


class TestUncheckedAlloc:
    def test_unchecked_malloc_result(self):
        found = run_full("""int main() {
            int *p = malloc(4);
            *p = 1;
            free(p);
            return 0;
        }""")
        assert [(f.line, f.checker) for f in found] == \
            [(3, CHECKER_UNCHECKED_ALLOC)]
        assert "could be null and is dereferenced" in found[0].message

    def test_null_check_suppresses(self):
        assert run("""int main() {
            int *p = malloc(4);
            if (p == NULL) {
                return -1;
            }
            *p = 1;
            free(p);
            return 0;
        }""") == []

    def test_truthiness_guard_also_suppresses(self):
        assert run("""int main() {
            int *p = malloc(4);
            if (p) {
                *p = 1;
            }
            free(p);
            return 0;
        }""") == []


class TestInvalidFree:
    def test_double_free(self):
        assert run("""int main() {
            int *p = malloc(4);
            free(p);
            free(p);
            return 0;
        }""") == [(4, CHECKER_INVALID_FREE)]

    def test_free_of_stack_address(self):
        assert run("""int main() {
            int x = 1;
            int *p = &x;
            free(p);
            return 0;
        }""") == [(4, CHECKER_INVALID_FREE)]

    def test_free_null_is_noop(self):
        assert run("""int main() {
            int *p = NULL;
            free(p);
            return 0;
        }""") == []

    def test_interior_free_two_run_differential(self):
        src = """int main() {
            int *p = malloc(8);
            p = p + 1;
            free(p);
            return 0;
        }"""
        assert run(src) == [(4, CHECKER_INTERIOR_FREE)]
        without = UNION.with_checkers(disable={CHECKER_INTERIOR_FREE})
        assert run(src, without) == []


class TestMemoryLeak:
    def test_leak_reported_at_overwrite(self):
        found = run_full("""int main() {
            int *p = malloc(4);
            if (p == NULL) {
                return -1;
            }
            p = NULL;
            return 0;
        }""", UNION.with_checkers(disable={CHECKER_DEAD_STORE,
                                           CHECKER_DEAD_STORE_NULL_INIT}))
        assert [(f.line, f.checker) for f in found] == \
            [(6, CHECKER_MEMORY_LEAK)]
        assert "allocated at line 2" in found[0].message

    def test_leak_reported_at_scope_exit(self):
        assert run("""int main() {
            int *p = malloc(4);
            if (p == NULL) {
                return -1;
            }
            return 0;
        }""") == [(6, CHECKER_MEMORY_LEAK)]

    def test_free_on_every_path_is_clean(self):
        assert run("""int main() {
            int *p = malloc(4);
            if (p == NULL) {
                return -1;
            }
            free(p);
            return 0;
        }""") == []

    def test_escape_through_global_is_not_a_leak(self):
        assert run("""int *keep;
        int main() {
            keep = malloc(4);
            return 0;
        }""") == []

    def test_struct_field_leak_flag_differential(self):
        src = """typedef struct st { int *value; } st;
        int main() {
            st *s = malloc(sizeof(st));
            if (s == NULL) {
                return -1;
            }
            s -> value = malloc(4);
            free(s);
            return 0;
        }"""
        found = run_full(src)
        assert [(f.line, f.checker) for f in found] == \
            [(8, CHECKER_MEMORY_LEAK)]
        assert "Memory leak: s.value" in found[0].message
        no_flag = replace(UNION, struct_field_leak=False)
        assert run(src, no_flag) == []

    def test_nested_struct_field_leak_flag_differential(self):
        # s->next holds t, t->next a third block; freeing s drops both.
        # Without struct-field leaks the child escapes, and so does the
        # grandchild hanging off it.
        src = """typedef struct node { struct node *next; } node;
        int main() {
            node *s = malloc(sizeof(node));
            if (s == NULL) {
                return -1;
            }
            node *t = malloc(sizeof(node));
            if (t == NULL) {
                free(s);
                return -1;
            }
            t->next = malloc(sizeof(node));
            s->next = t;
            t = NULL;
            free(s);
            return 0;
        }"""

        def leaks(config):
            return [(f.line, f.message) for f in run_full(src, config)
                    if f.checker == CHECKER_MEMORY_LEAK]

        assert leaks(UNION) == [
            (15, "Memory leak: s.next (allocated at line 7)"),
            (15, "memory dynamically allocated at line 12 is not "
                 "reachable after line 15")]
        assert leaks(PROFILES["clang-like"]) == []
        assert leaks(replace(UNION, struct_field_leak=False)) == []


class TestReallocLeak:
    SRC = """int main() {
        int *p = malloc(4);
        if (p == NULL) {
            return -1;
        }
        p = realloc(p, 8);
        free(p);
        return 0;
    }"""

    def test_overwrite_with_realloc_result(self):
        found = run_full(self.SRC)
        assert [(f.line, f.checker) for f in found] == \
            [(6, CHECKER_REALLOC_LEAK)]
        assert "Common realloc mistake" in found[0].message

    def test_temporary_variable_is_clean(self):
        assert run("""int main() {
            int *tmp;
            int *p = malloc(4);
            if (p == NULL) {
                return -1;
            }
            tmp = realloc(p, 8);
            if (tmp != NULL) {
                p = tmp;
            }
            free(p);
            return 0;
        }""") == []

    def test_call_gate_differential(self):
        src = """void note() {
            printf("x\\n");
        }
        int main() {
            int *p = malloc(4);
            if (p == NULL) {
                return -1;
            }
            note();
            p = realloc(p, 8);
            free(p);
            return 0;
        }"""
        assert run(src) == [(10, CHECKER_REALLOC_LEAK)]
        gated = replace(UNION, realloc_with_calls=False)
        assert run(src, gated) == []


class TestDeadStore:
    def test_plain_dead_store(self):
        found = run_full("""int main() {
            int b = 10;
            int *q = &b;
            int *p = &b;
            p = q;
            return *p;
        }""")
        assert [(f.line, f.checker) for f in found] == \
            [(4, CHECKER_DEAD_STORE)]
        assert found[0].message == "The value written to &p is never used"

    def test_null_init_routes_to_its_own_checker(self):
        src = """int main() {
            int b = 10;
            int *p = NULL;
            p = &b;
            return *p;
        }"""
        assert run(src) == [(3, CHECKER_DEAD_STORE_NULL_INIT)]
        clang_like = PROFILES["clang-like"]
        assert run(src, clang_like) == []

    def test_null_on_some_paths_only_is_a_plain_dead_store(self):
        # y = x stores 0 on one path and an unknown value on the other; the
        # class must not depend on which path is explored last.
        src = """int f(int c, int i) {
            int x = 0;
            int y;
            if (c) { x = i; }
            y = x;
            return 0;
        }"""
        assert run(src) == [(5, CHECKER_DEAD_STORE)]
        assert run(src, PROFILES["clang-like"]) == [(5, CHECKER_DEAD_STORE)]

    def test_store_of_an_arm_that_reaches_a_join_second_is_read(self):
        # Both arms leave x nonzero, so the paths meet at the join in one
        # state and the second is dropped; its store is still read there.
        assert run("""int f(int c) {
            int x;
            int y;
            if (c) {
                x = 1;
            } else {
                x = 2;
            }
            y = x;
            return y;
        }""") == []

    def test_address_of_a_field_reads_its_base_pointer(self):
        # `&p->v` reads p, so the malloc store is used; it does not
        # dereference p, so the unchecked result is not reported either.
        src = """typedef struct n { struct n *f; int v; } n;
        int main() {
            n *p = malloc(sizeof(n));
            int *q = &p->v;
            *q = 1;
            return 0;
        }"""
        for name, config in PROFILES.items():
            assert run(src, config) == [(6, CHECKER_MEMORY_LEAK)], name
        # Only the last `->` is not a dereference: `p->f` is read.
        assert run("""typedef struct n { struct n *f; int v; } n;
        int main() {
            n *p;
            int *q = &p->f->v;
            *q = 1;
            return 0;
        }""") == [(4, CHECKER_UNINIT_USE)]
        # `.` accesses after it, and `&s.v` on a local, read nothing.
        assert run("""typedef struct m { int v; } m;
        typedef struct n { struct n *f; m a; } n;
        int main() {
            n *p = malloc(sizeof(n));
            m s;
            int *q = &p->a.v;
            int *r = &s.v;
            *q = 1;
            *r = 1;
            return 0;
        }""") == [(10, CHECKER_MEMORY_LEAK)]

    def test_address_taken_variables_exempt(self):
        assert run("""int f(int *out) {
            int x = 1;
            *out = x;
            x = 2;
            out = &x;
            return *out;
        }""") == []

    def test_globals_exempt(self):
        assert run("""int g = 0;
        int main() {
            g = 5;
            return 0;
        }""") == []

    def test_read_on_one_path_is_enough(self):
        assert run("""int f(int a) {
            int x = 1;
            if (a > 0) {
                a = x;
            }
            return a;
        }""") == []


class TestUninit:
    def test_read_before_assignment(self):
        found = run_full("""int main() {
            int x;
            int y = x;
            return y;
        }""")
        assert [(f.line, f.checker) for f in found] == \
            [(3, CHECKER_UNINIT_USE)]

    def test_assignment_before_read_is_clean(self):
        assert run("""int main() {
            int x;
            x = 1;
            return x;
        }""") == []

    def test_sizeof_operand_is_not_a_read(self):
        assert run("""int main() {
            int *p;
            int *q = malloc(sizeof(*p));
            if (q == NULL) {
                return -1;
            }
            free(q);
            return 0;
        }""") == []

    def test_read_initialized_on_one_branch_only(self):
        assert run("""int f(int a) {
            int x;
            if (a > 0) {
                x = 1;
            }
            return x;
        }""") == [(6, CHECKER_UNINIT_USE)]


class TestInterprocedural:
    def test_callee_free_is_seen_by_caller(self):
        assert run("""void release(int *p) {
            free(p);
        }
        int main() {
            int *p = malloc(4);
            release(p);
            return 0;
        }""") == []

    def test_intraprocedural_mode_escapes_arguments(self):
        src = """int main() {
            int *p = malloc(4);
            keep(p);
            return 0;
        }"""
        assert run(src, PROFILES["cppcheck-like"]) == []
        assert run(src) == []  # unknown callee: argument escapes

    def test_recursion_terminates(self):
        assert run("""int fact(int n) {
            if (n == 0) return 1;
            return n * fact(n - 1);
        }""") == []

    def test_summaries_capture_shapes(self):
        tu = parse_source("<t>", """
            int *fresh() {
                int *p = malloc(4);
                return p;
            }
            int *always_null() {
                return NULL;
            }
            void release(int *p) {
                free(p);
            }
        """)
        cfgs = {fn.name: build_cfg(fn) for fn in tu.functions}
        summaries = compute_summaries(tu, cfgs, UNION)
        assert summaries["fresh"].returns_fresh
        assert summaries["always_null"].returns_null_always
        assert 0 in summaries["release"].frees_params


class TestBudget:
    @staticmethod
    def _wide(n):
        body = "int x = 1;\n" + "if (a > 0) { x = 0; }\n" * n + "return x;"
        return "int f(int a) {\n%s\n}" % body

    def test_budget_marks_incomplete_and_mutes_dead_store(self):
        small = replace(UNION, path_budget=8)
        result = analyze_unit(parse_source("<t>", self._wide(15)),
                              config=small)
        assert result.incomplete
        assert len(result) == 0

    def test_within_budget_is_complete(self):
        result = analyze_unit(parse_source("<t>", self._wide(4)))
        assert not result.incomplete


class TestConfig:
    def test_unknown_checker_rejected(self):
        with pytest.raises(ValueError):
            CheckerConfig("bad", frozenset({"NOT_A_CHECKER"}))

    def test_null_init_requires_dead_store(self):
        with pytest.raises(ValueError):
            CheckerConfig("bad", frozenset({CHECKER_DEAD_STORE_NULL_INIT}))

    def test_findings_are_sorted_and_deduped(self):
        result = run_full("""int main() {
            int *p = NULL;
            int *q = NULL;
            *q = 1;
            *p = 1;
            return 0;
        }""")
        lines = [f.line for f in result]
        assert lines == sorted(lines) == [4, 5]


# Each value type with two equal instances built apart and one that differs
# in a single field.
VALUES = [
    (Loc(3, 7), Loc(3, 7), Loc(3, 8)),
    (CType("struct", "node", 1), CType("struct", "node", 1),
     CType("struct", "node", 2)),
    (SourceUnit("a.c", "int x;"), SourceUnit.from_text("a.c", "int x;"),
     SourceUnit("b.c", "int x;")),
    (PtrValue("block", site=2, offset=8), PtrValue.block(2, 8),
     PtrValue.block(2, 0)),
    (ScalarValue("zero"), ScalarValue("zero"), ScalarValue("nonzero")),
    (FunctionSummary("f", frees_params=frozenset({0})),
     FunctionSummary("f", False, False, frozenset({0})),
     FunctionSummary("f")),
]


class TestValueTypes:
    @pytest.mark.parametrize("value,_,__", VALUES)
    def test_fields_are_read_only(self, value, _, __):
        for name in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))

    @pytest.mark.parametrize("value,same,other", VALUES)
    def test_equal_and_hashed_by_fields(self, value, same, other):
        assert value is not same
        assert value == same and hash(value) == hash(same)
        assert value != other
        assert len({value, same, other}) == 2

    def test_ctype(self):
        node = CType("struct", "node")
        assert (str(node), str(CType("int", pointer_depth=2))) == \
            ("node", "int**")
        assert node.pointer_to() == CType("struct", "node", 1)
        assert node.pointer_to().pointer_to().is_pointer
        assert not node.is_pointer

    def test_pointer_constructors(self):
        assert PtrValue.null("literal", 4) == PtrValue(
            "null", "literal", 4, -1, 0, "", -1)
        assert PtrValue.null("refined").line == 0
        assert PtrValue.block(5) == PtrValue("block", site=5, offset=0)
        assert PtrValue.stack("x") == PtrValue(
            "stack", "", 0, -1, 0, "x", -1)
