"""The single callee-first pass against the two-pass analysis it replaced.

``two_pass_reference`` keeps the old schedule: a report-free exploration of
every function, callees first, to build the summaries, then a second
exploration of every function against the full summary table for its
findings.  The single pass must give the same findings, the same
``incomplete`` flag and the same summaries on randomized multi-function
programs with branches, loops, allocation, call chains and recursion.

``scan_body_reference`` keeps the tree walk that found what each function
calls and takes the address of; the calls and address-taken sets the
parser records must equal it, and so must the slots it gives variables:
the globals that precede the function, its parameters, then its local
declarations in source order, with each use the slot of its spelling.
"""

import glob
import random
from dataclasses import replace

import pytest

from memlab import analysis
from memlab.analysis import (
    BUILTIN_FUNCTIONS,
    FunctionSummary,
    PROFILES,
    PtrValue,
    _FunctionAnalysis,
    analyze_unit,
)
from memlab.cfg import build_cfg
from memlab.frontend import (
    AddressOf,
    Call,
    Ident,
    Node,
    VarDecl,
    parse_source,
)


# ---------------------------------------------------------------------------
# The tree walk and the two-pass schedule, kept as test oracles
# ---------------------------------------------------------------------------


def scan_body_reference(fn) -> tuple[set, set, list, list]:
    """The names a function calls, the slots whose address it takes, its
    local declarations in source order and the variables it uses."""
    calls: set[str] = set()
    addr_taken: set[int] = set()
    decls, uses = [], []
    work = list(fn.body)
    while work:
        node = work.pop()
        if isinstance(node, Call):
            calls.add(node.name)
        elif isinstance(node, AddressOf) and isinstance(node.expr, Ident):
            addr_taken.add(node.expr.slot)
        elif isinstance(node, VarDecl):
            decls.append(node)
        elif isinstance(node, Ident):
            uses.append(node)
        for value in vars(node).values():
            if isinstance(value, Node):
                work.append(value)
            elif isinstance(value, list):
                work.extend(v for v in value if isinstance(v, Node))
    return calls, addr_taken, sorted(decls, key=lambda d: d.loc), uses


def _summarize(tu, fn, cfg, config, summaries) -> FunctionSummary:
    fa = _FunctionAnalysis(tu, fn, cfg, config, summaries)
    fa.emit = lambda *args: None  # the summary pass reported nothing
    fa.run()
    pointer_returns = [(v, fresh) for v, fresh in fa.returns if v is not None]
    nulls = [v for v, _ in pointer_returns
             if isinstance(v, PtrValue) and v.kind == "null"]
    return FunctionSummary(
        name=fn.name,
        returns_fresh=any(fresh for _, fresh in pointer_returns),
        returns_null_always=bool(pointer_returns)
        and len(nulls) == len(pointer_returns),
        frees_params=frozenset(fa.frees_params),
    )


def two_pass_reference(tu, config):
    """(sorted findings, incomplete, summaries) from the two-pass schedule."""
    cfgs = {fn.name: build_cfg(fn) for fn in tu.functions}
    summaries = {}
    in_progress = set()
    by_name = {fn.name: fn for fn in tu.functions}

    def visit(name):
        if name in summaries or name in in_progress or name not in by_name:
            return
        in_progress.add(name)
        callees = scan_body_reference(by_name[name])[0]
        for callee in sorted(callees):
            if callee not in BUILTIN_FUNCTIONS:
                visit(callee)
        summaries[name] = _summarize(tu, by_name[name], cfgs[name], config,
                                     summaries)
        in_progress.discard(name)

    for fn in tu.functions:
        visit(fn.name)
    findings = set()
    incomplete = False
    for fn in tu.functions:
        fa = _FunctionAnalysis(tu, fn, cfgs[fn.name], config, summaries)
        fa.run()
        findings |= fa.findings
        incomplete = incomplete or fa.incomplete
    ordered = sorted(findings, key=lambda f: (
        f.file, f.line, f.kind, f.checker, f.message, f.function))
    return ordered, incomplete, summaries


# ---------------------------------------------------------------------------
# Random multi-function programs
# ---------------------------------------------------------------------------

PTRS = ("p", "a", "b")
SIMPLE = ("alloc", "alloc", "free", "store", "load", "copy", "null", "addr",
          "realloc", "scalar", "scalar", "call", "call", "return")
COMPOUND = ("if", "if", "while")


def _callees(shape, names, idx):
    if shape == "chain":
        return names[idx + 1:idx + 2]
    if shape == "self":
        return [names[idx]] + names[idx + 1:idx + 2]
    if shape == "mutual":
        return [names[(idx + 1) % len(names)]]
    return list(names)


def _cond(rng):
    v = rng.choice(PTRS)
    return rng.choice((v, f"{v} == NULL", f"!{v}", f"{v} != NULL",
                       "c", "x", "c > 0"))


def _stmts(rng, depth, callees, count):
    out = []
    for _ in range(count):
        kinds = SIMPLE + (COMPOUND if depth < 2 else ())
        kind = rng.choice(kinds)
        a, b = rng.choice(PTRS), rng.choice(PTRS)
        if kind == "alloc":
            out.append(f"{a} = malloc(4);")
        elif kind == "free":
            out.append(f"free({a});")
        elif kind == "store":
            out.append(f"*{a} = c;")
        elif kind == "load":
            out.append(f"x = *{a};")
        elif kind == "copy":
            out.append(f"{a} = {b};")
        elif kind == "null":
            out.append(f"{a} = NULL;")
        elif kind == "addr":
            out.append(f"{a} = &x;")
        elif kind == "realloc":
            out.append(f"{a} = realloc({a}, 8);")
        elif kind == "scalar":
            out.append(rng.choice(("x = c;", "x = 0;", "c = c - 1;")))
        elif kind == "call" and callees:
            callee = rng.choice(callees)
            out.append(rng.choice((f"{a} = {callee}({b}, c);",
                                   f"{callee}({b}, x);")))
        elif kind == "return":
            out.append(rng.choice((f"return {a};", "return NULL;")))
        elif kind == "if":
            out.append(f"if ({_cond(rng)}) {{")
            out += _stmts(rng, depth + 1, callees, rng.randint(1, 2))
            if rng.random() < 0.4:
                out.append("} else {")
                out += _stmts(rng, depth + 1, callees, rng.randint(1, 2))
            out.append("}")
        elif kind == "while":
            out.append(f"while ({rng.choice(('c > 0', 'x', 'a'))}) {{")
            out += _stmts(rng, depth + 1, callees, rng.randint(1, 2))
            out.append("c = c - 1;")
            out.append("}")
    return out


def random_program(rng):
    """2-4 functions ``int *fN(int *p, int c)`` calling each other as a
    chain, with self-recursion, round a mutual-recursion cycle, or freely."""
    names = [f"f{i}" for i in range(rng.randint(2, 4))]
    shape = rng.choice(("chain", "self", "mutual", "any"))
    lines = []
    for idx, name in enumerate(names):
        lines.append(f"int *{name}(int *p, int c) {{")
        lines.append(rng.choice(("int *a = NULL;", "int *a;")))
        lines.append(rng.choice(("int *b = NULL;", "int *b = malloc(4);")))
        lines.append(rng.choice(("int x = 0;", "int x;")))
        lines += _stmts(rng, 0, _callees(shape, names, idx),
                        rng.randint(2, 5))
        lines.append(f"return {rng.choice(PTRS)};")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _cases():
    # (seed, profile, path budget or None for the profile's own budget)
    profiles = sorted(PROFILES)
    cases = [(seed, profiles[seed % len(profiles)], None)
             for seed in range(250)]
    cases += [(seed, profiles[seed % len(profiles)], 1 + seed % 6)
              for seed in range(1000, 1100)]
    return cases


@pytest.mark.parametrize("seed,profile,budget", [
    pytest.param(*case, id=f"s{case[0]}-{case[1]}-b{case[2]}")
    for case in _cases()])
def test_single_pass_matches_two_pass(seed, profile, budget):
    source = random_program(random.Random(seed))
    tu = parse_source(f"r{seed}.c", source)
    config = PROFILES[profile]
    if budget is not None:
        config = replace(config, path_budget=budget)
    want, want_incomplete, want_summaries = two_pass_reference(tu, config)
    cfgs = {fn.name: build_cfg(fn) for fn in tu.functions}
    summaries, findings, incomplete = analysis._explore(tu, cfgs, config)
    assert (sorted(findings), incomplete) == (want, want_incomplete), source
    assert summaries == want_summaries, source


def test_random_programs_cover_the_interesting_cases():
    """The generator reaches truncation, muted dead stores and every
    analyzer finding kind, so the differential test compares them."""
    kinds = set()
    truncated_with_stores = 0
    for seed, profile, budget in _cases():
        tu = parse_source("r.c", random_program(random.Random(seed)))
        config = PROFILES["union"]
        if budget is not None:
            config = replace(config, path_budget=budget)
        result = analyze_unit(tu, config=config)
        kinds |= {f.kind for f in result}
        if result.incomplete:
            full = analyze_unit(tu, config=PROFILES["union"])
            truncated_with_stores += any(
                f.kind == "DEAD_STORE" for f in full)
    assert kinds == analysis.ANALYZER_KINDS
    assert truncated_with_stores >= 10


# ---------------------------------------------------------------------------
# What the parser records against the tree walk
# ---------------------------------------------------------------------------


def _assert_records_match_walk(tu):
    for fn in tu.functions:
        calls, addr_taken, decls, uses = scan_body_reference(fn)
        # A global named twice is one slot, at its first declaration.
        seen = list(dict.fromkeys(g.name for g in tu.globals
                                  if g.loc < fn.loc))
        params = [name for name, _ in fn.params]
        first_local = len(seen) + len(params)
        assert (fn.calls, fn.addr_taken, fn.global_count) \
            == (calls, addr_taken, len(seen)), fn.name
        assert fn.names == seen + params + [d.name for d in decls], fn.name
        assert [d.slot for d in decls] \
            == list(range(first_local, len(fn.names))), fn.name
        assert all(fn.names[use.slot] == use.name for use in uses), fn.name


def test_parser_records_match_walk_on_random_programs():
    for seed, _, _ in _cases():
        tu = parse_source("r.c", random_program(random.Random(seed)))
        _assert_records_match_walk(tu)


def test_parser_records_match_walk_on_corpus():
    paths = sorted(glob.glob("corpus/*.c"))
    assert paths
    for path in paths:
        _assert_records_match_walk(
            parse_source(path, open(path, encoding="utf-8").read()))


def test_parser_records_calls_inside_sizeof_and_address_of_parens():
    tu = parse_source("<t>", """
        int f(int x) { return x; }
        int g(int y) {
            int *p = malloc(sizeof(f(y)));
            int *q = &(y);
            free(p);
            return *q;
        }
    """)
    _assert_records_match_walk(tu)
    g = tu.function("g")
    assert (g.calls, g.addr_taken) == ({"malloc", "f", "free"}, {0})
    assert g.names[0] == "y"


def test_global_initializer_after_a_function_is_in_no_function():
    tu = parse_source("<t>", """
        int *g = malloc(4);
        int f(int x) { int *p = &x; return *p; }
        int *h = malloc(4);
        int *k = &h;
        int main() { return f(1); }
    """)
    _assert_records_match_walk(tu)
    # x is f's slot 1, after the global g.
    assert (tu.function("f").calls, tu.function("f").addr_taken) \
        == (frozenset(), {1})
    assert (tu.function("main").calls, tu.function("main").addr_taken) \
        == ({"f"}, frozenset())
    # A function's slots start with the globals that precede it.
    assert tu.function("f").names == ["g", "x", "p"]
    assert tu.function("main").names == ["g", "h", "k"]


# ---------------------------------------------------------------------------
# Exploration counts
# ---------------------------------------------------------------------------


@pytest.fixture
def explored(monkeypatch):
    """Names of the functions explored, one entry per exploration."""
    names = []
    run = _FunctionAnalysis.run

    def counting_run(self):
        names.append(self.fn.name)
        run(self)

    monkeypatch.setattr(_FunctionAnalysis, "run", counting_run)
    return names


def _chain(n):
    fns = [f"int *g{i}(int *p) {{ int *q = g{i + 1}(p); return q; }}"
           for i in range(n - 1)]
    fns.append(f"int *g{n - 1}(int *p) {{ free(p); return malloc(4); }}")
    return "\n".join(fns)


class TestExplorationCount:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_call_chain_explores_each_function_once(self, explored, n):
        analyze_unit(parse_source("<t>", _chain(n)))
        assert sorted(explored) == sorted(f"g{i}" for i in range(n))

    def test_chain_defined_callee_last_is_still_explored_once(self, explored):
        src = "\n".join(reversed(_chain(4).splitlines()))
        analyze_unit(parse_source("<t>", src))
        assert sorted(explored) == ["g0", "g1", "g2", "g3"]

    def test_self_recursion_takes_one_extra_exploration(self, explored):
        analyze_unit(parse_source("<t>", """
            int fact(int n) {
                if (n == 0) return 1;
                return n * fact(n - 1);
            }
            int main() { return fact(5); }
        """))
        assert sorted(explored) == ["fact", "fact", "main"]

    def test_mutual_recursion_explores_the_back_caller_again(self, explored):
        # The walk enters the cycle at `even`; `odd` is explored while
        # `even` has no summary yet, so only `odd` needs a second run.
        # `even` runs after `odd` has its final summary.
        analyze_unit(parse_source("<t>", """
            int even(int n) { if (n == 0) return 1; return odd(n - 1); }
            int odd(int n) { if (n == 0) return 0; return even(n - 1); }
            int main() { return even(4); }
            int leaf() { return 0; }
        """))
        assert sorted(explored) == ["even", "leaf", "main", "odd", "odd"]

    def test_three_cycle_explores_one_member_again(self, explored):
        analyze_unit(parse_source("<t>", """
            int *a(int *p) { return b(p); }
            int *b(int *p) { return c(p); }
            int *c(int *p) { free(p); return a(NULL); }
        """))
        assert explored == ["c", "b", "a", "c"]

    def test_function_named_like_a_builtin_is_not_waited_for(self, explored):
        # `eval_call` models `free` itself and never reads its summary, so
        # `g` is final at its first exploration.
        result = analyze_unit(parse_source("<t>", """
            int g() { int *p = malloc(4); free(p); return 0; }
            void free(int *p) { }
        """))
        assert explored == ["g", "free"]
        assert list(result) == []
