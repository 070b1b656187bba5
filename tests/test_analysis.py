"""Checker-level tests for the path-sensitive analysis engine."""

import copy
import pickle
import re

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
    SETTINGS,
    analyze_unit,
    compute_summaries,
)
from memlab.cfg import build_cfg
from memlab.frontend import CType, InputError, Loc, SourceUnit, parse_source

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

    def test_pointer_global_refines_as_a_parameter_does(self):
        assert run("""int *p;
        int f() {
            if (p == NULL) {
                *p = 1;
            }
            return 0;
        }""") == [(4, CHECKER_NULL_DEREF)]

    @pytest.mark.parametrize("profile", ["union", "cppcheck-like"])
    def test_user_call_may_set_a_pointer_global(self, profile):
        # Lazy initialisation: `init` sets `g`, with or without a summary.
        assert run("""int *g;
        void init() {
            g = malloc(4);
        }
        int main() {
            if (g == NULL) {
                init();
            }
            *g = 1;
            return 0;
        }""", PROFILES[profile]) == []

    def test_user_call_may_keep_the_block_of_a_pointer_global(self):
        # `swap` may store the block elsewhere before `g` is overwritten.
        assert run("""int *g;
        int main() {
            g = malloc(4);
            swap();
            g = NULL;
            return 0;
        }""") == []

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
        no_flag = UNION.replace(struct_field_leak=False)
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
        assert leaks(UNION.replace(struct_field_leak=False)) == []


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
        gated = UNION.replace(realloc_with_calls=False)
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

    def test_a_store_no_path_of_the_cfg_reads_is_dead(self):
        # x = 1 is written again on both arms before any read; p is never
        # read at all.
        src = """int f(int c) {
            int x = 1;
            int *p = NULL;
            if (c) { x = 2; } else { x = 3; }
            return x;
        }"""
        assert run(src) == [(2, CHECKER_DEAD_STORE),
                            (3, CHECKER_DEAD_STORE_NULL_INIT)]
        assert run(src, PROFILES["clang-like"]) == [(2, CHECKER_DEAD_STORE)]

    def test_a_store_read_only_in_a_loop_never_entered_is_not_dead(self):
        # x is 0, so no explored path enters the loop, but a path of the
        # CFG reads p there: liveness, as in the Clang static analyzer and
        # Infer, counts the store as read.
        src = """int f(int *r) {
            int x = 0;
            int *p = r;
            while (x) {
                x = *p;
            }
            return x;
        }"""
        for name in ("union", "clang-like", "infer-like"):
            assert run(src, PROFILES[name]) == [], name

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

    # A callee whose summary frees a parameter: the call frees the argument
    # as `free` would, so the caller reports what the callee, inlined,
    # would report at the call's line.
    REL = "void rel(int *p) {\n  free(p);\n}\n"

    @staticmethod
    def _findings(src):
        return [(f.line, f.checker, f.message) for f in run_full(src)]

    def test_a_block_freed_twice_through_a_callee_is_a_double_free(self):
        body = ("int f(int c) {\n  int *r = malloc(4);\n"
                "  if (r == NULL) {\n    return 0;\n  }\n"
                "  %s;\n  %s;\n  return 0;\n}\n")
        want = [(10, CHECKER_INVALID_FREE,
                 "double free of `r` (allocated at line 5)")]
        assert self._findings(self.REL + body % ("rel(r)", "rel(r)")) == \
            self._findings(self.REL + body % ("free(r)", "free(r)")) == want

    def test_a_stack_address_freed_through_a_callee_is_an_invalid_free(self):
        body = "int f() {\n  int x = 1;\n  %s;\n  return x;\n}\n"
        want = [(6, CHECKER_INVALID_FREE, "free of stack address `&x`")]
        assert self._findings(self.REL + body % "rel(&x)") == \
            self._findings(self.REL + body % "free(&x)") == want

    def test_a_parameter_freed_through_a_callee_is_freed_by_the_caller(self):
        src = self.REL + """void rel2(int *p) {
          rel(p);
        }
        int f() {
          int *r = malloc(4);
          if (r == NULL) {
            return 0;
          }
          %s(r);
          return 0;
        }"""
        assert self._findings(src % "rel") == self._findings(src % "rel2") \
            == []
        tu = parse_source("<t>", src % "rel2")
        cfgs = {fn.name: build_cfg(fn) for fn in tu.functions}
        assert compute_summaries(tu, cfgs, UNION)["rel2"].frees_params == \
            frozenset({0})

    def test_parameter_shadows_a_global_of_its_name(self):
        # `release` frees its argument, not the global `p`.
        assert run("""int *p;
        void release(int *p) {
            free(p);
        }
        int main() {
            int *q = malloc(4);
            release(q);
            return 0;
        }""") == []

    def test_parameter_that_shadows_a_global_is_a_local(self):
        # Neither store outlives the call: the block leaks, both are dead.
        assert run("""int *p;
        int x;
        void f(int *p) {
            p = malloc(4);
        }
        int g(int x) {
            x = 1;
            return 0;
        }""") == [(3, CHECKER_MEMORY_LEAK), (4, CHECKER_DEAD_STORE),
                  (7, CHECKER_DEAD_STORE)]

    def test_local_that_shadows_a_global_is_a_local(self):
        # The function reports what it reports without the global: the
        # global is no root for the block, and the store is not exempt.
        body = "int f() {\n  int *g = malloc(4);\n  return 0;\n}\n"
        assert run(body) == [(2, CHECKER_DEAD_STORE), (3, CHECKER_MEMORY_LEAK)]
        assert run("int *g;\n" + body) == [(3, CHECKER_DEAD_STORE),
                                            (4, CHECKER_MEMORY_LEAK)]

    def test_user_call_leaves_a_local_named_like_a_pointer_global(self):
        # h() may reassign the global g, not the local: the block stays in
        # the local, unchecked and then lost.
        assert run("""int *g;
        void h() {}
        int f() {
            int *g = malloc(4);
            h();
            *g = 1;
            return 0;
        }""") == [(6, CHECKER_UNCHECKED_ALLOC), (7, CHECKER_MEMORY_LEAK)]

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


class TestScopes:
    """Each use reads the variable of the innermost declaration in scope,
    and a declaration ends its variable's previous value."""

    def test_inner_declaration_leaves_the_global_alone(self):
        # The global still holds the block after the block that declares a
        # local of its name; only the local's store is dead.
        assert run("""int *g;
int f() {
  g = malloc(4);
  if (g) {
    int *g = NULL;
  }
  return 0;
}""") == [(5, CHECKER_DEAD_STORE_NULL_INIT)]

    def test_sibling_blocks_declare_two_variables(self):
        assert run("""int f(int c, int d) {
  if (c) {
    int x = 1;
  }
  if (d) {
    int x;
    g(x);
  }
  return 0;
}""") == [(3, CHECKER_DEAD_STORE), (7, CHECKER_UNINIT_USE)]

    def test_a_declaration_in_a_loop_ends_the_last_trip_s_store(self):
        # The next trip's `int x;` ends the value `x = 1` stores, so no
        # path reads it.
        assert run("""int f(int c, int d) {
  while (c) {
    int x;
    if (d) {
      g(x);
      x = 1;
    }
    c = c - 1;
  }
  return 0;
}""") == [(5, CHECKER_UNINIT_USE), (6, CHECKER_DEAD_STORE)]

    def test_a_shadowed_variable_is_read_after_the_inner_block(self):
        assert run("""int f(int c) {
  int *p = malloc(4);
  if (c) {
    int *p = NULL;
    *p = 1;
  }
  free(p);
  return 0;
}""") == [(5, CHECKER_NULL_DEREF)]

    def test_messages_spell_the_shadowing_variable(self):
        found = run_full("""int f(int x) {
  if (x) {
    int x = 0;
    x = 1;
  }
  return x;
}""")
        assert [(f.line, f.message) for f in found] == [
            (3, "The value written to &x is never used"),
            (4, "The value written to &x is never used")]

    def test_a_variable_reads_itself_uninitialized_in_its_initializer(self):
        assert run("""int f() {
  int x = x + 1;
  return x;
}""") == [(2, CHECKER_UNINIT_USE)]


class TestBudget:
    @staticmethod
    def _wide(n):
        body = "int x = 1;\n" + "if (a > 0) { x = 0; }\n" * n + "return x;"
        return "int f(int a) {\n%s\n}" % body

    def test_budget_marks_incomplete_and_mutes_dead_store(self):
        small = UNION.replace(path_budget=8)
        result = analyze_unit(parse_source("<t>", self._wide(15)),
                              config=small)
        assert result.incomplete
        assert len(result) == 0

    def test_within_budget_is_complete(self):
        result = analyze_unit(parse_source("<t>", self._wide(4)))
        assert not result.incomplete


# A setting that makes a config invalid, and the InputError it raises.
INVALID_SETTINGS = [
    ({"enabled": frozenset({"NOT_A_CHECKER"})},
     "unknown checker ids: ['NOT_A_CHECKER']"),
    ({"enabled": frozenset({CHECKER_DEAD_STORE_NULL_INIT})},
     "DEAD_STORE_NULL_INIT requires DEAD_STORE"),
    ({"path_budget": 0}, "path budget must be at least 1, got 0"),
    ({"unroll_bound": -1}, "unroll bound must be at least 0, got -1"),
]


def _unchecked(**settings):
    """UNION with the settings changed, built without the checks."""
    return tuple.__new__(CheckerConfig,
                         {**UNION._asdict(), **settings}.values())


# Every way to build a config from settings.
CONFIG_BUILDERS = {
    "constructor": lambda s: CheckerConfig(
        **{**UNION._asdict(), "profile": "p", **s}),
    "replace": lambda s: UNION.replace(**s),
    "_replace": lambda s: UNION._replace(**s),
    "_make": lambda s: CheckerConfig._make({**UNION._asdict(), **s}.values()),
    "unpickle": lambda s: pickle.loads(pickle.dumps(_unchecked(**s))),
    "copy": lambda s: copy.copy(_unchecked(**s)),
}


class TestConfig:
    @pytest.mark.parametrize("build", CONFIG_BUILDERS)
    @pytest.mark.parametrize("settings,message", INVALID_SETTINGS,
                             ids=["checker-id", "null-init", "budget",
                                  "unroll"])
    def test_every_way_to_build_a_config_checks_it(self, build, settings,
                                                   message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            CONFIG_BUILDERS[build](settings)

    @pytest.mark.parametrize("enable,disable,message", [
        ({"NOT_A_CHECKER"}, (), "unknown checker ids: ['NOT_A_CHECKER']"),
        ((), {CHECKER_DEAD_STORE}, "DEAD_STORE_NULL_INIT requires DEAD_STORE"),
    ], ids=["checker-id", "null-init"])
    def test_with_checkers_checks_the_config(self, enable, disable, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            UNION.with_checkers(enable=enable, disable=disable)

    def test_replace_changes_only_the_named_settings(self):
        small = UNION.replace(path_budget=8, struct_field_leak=False)
        assert type(small) is CheckerConfig
        assert small._asdict() == {**UNION._asdict(), "path_budget": 8,
                                   "struct_field_leak": False}
        assert UNION.replace() == UNION
        with pytest.raises(TypeError):
            UNION.replace(no_such_setting=1)

    def test_settings_are_the_fields_with_a_default(self):
        assert SETTINGS == {
            "interprocedural": "bool", "sizeof_star_tracking": "bool",
            "realloc_with_calls": "bool", "struct_field_leak": "bool",
            "unroll_bound": "int", "path_budget": "int"}
        assert list(SETTINGS) == list(CheckerConfig._fields[2:])

    def test_unknown_checker_rejected(self):
        with pytest.raises(ValueError):
            CheckerConfig("bad", frozenset({"NOT_A_CHECKER"}))

    def test_null_init_requires_dead_store(self):
        with pytest.raises(ValueError):
            CheckerConfig("bad", frozenset({CHECKER_DEAD_STORE_NULL_INIT}))

    @pytest.mark.parametrize("bound,message", [
        ({"path_budget": 0}, "path budget must be at least 1, got 0"),
        ({"path_budget": -5}, "path budget must be at least 1, got -5"),
        ({"unroll_bound": -7}, "unroll bound must be at least 0, got -7"),
    ], ids=["budget-zero", "budget-negative", "unroll-negative"])
    def test_bounds_are_checked_where_the_config_is_built(self, bound,
                                                         message):
        with pytest.raises(InputError, match=f"^{message}$"):
            UNION.replace(**bound)

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
    (FunctionSummary("f", frees_params=frozenset({0})),
     FunctionSummary("f", False, False, frozenset({0})),
     FunctionSummary("f")),
    (CheckerConfig("p", frozenset({CHECKER_NULL_DEREF}), path_budget=8),
     CheckerConfig("p", frozenset({CHECKER_NULL_DEREF}), True, True, True,
                   True, 2, 8),
     CheckerConfig("p", frozenset({CHECKER_NULL_DEREF}))),
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
            "null", "literal", 4, -1, 0, -1, -1)
        assert PtrValue.null("refined").line == 0
        assert PtrValue.block(5) == PtrValue("block", site=5, offset=0)
        assert PtrValue.stack(3) == PtrValue(
            "stack", "", 0, -1, 0, 3, -1)
