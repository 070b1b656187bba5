"""Control-flow graph construction tests."""

import glob
import random

import pytest

from memlab.cfg import (
    Cfg,
    FALLTHROUGH,
    FALSE_BRANCH,
    LOOP_BACK,
    TRUE_BRANCH,
    _Builder,
    build_cfg,
)
from memlab.frontend import If, parse_source
from test_exploration import random_program


def enumerate_paths(cfg: Cfg, max_paths: int = 100000) -> list[list[int]]:
    """Brute-force enumeration of entry->exit block paths.

    Loop-back edges are followed at most once per path, so this terminates.
    """
    paths: list[list[int]] = []

    def walk(block_id: int, path: list[int], used_back: frozenset) -> None:
        if len(paths) >= max_paths:
            return
        path = path + [block_id]
        if block_id == cfg.exit:
            paths.append(path)
            return
        for dst, kind in cfg.successors(block_id):
            if kind == LOOP_BACK:
                key = (block_id, dst)
                if key in used_back:
                    continue
                walk(dst, path, used_back | {key})
            else:
                walk(dst, path, used_back)

    walk(cfg.entry, [], frozenset())
    return paths


class ReferenceBuilder(_Builder):
    """`_Builder` lowering every `if` by recursion, as it did before
    else-if chains were lowered in a loop."""

    def lower_stmt(self, stmt, current, exit_blk):
        if not isinstance(stmt, If):
            return super().lower_stmt(stmt, current, exit_blk)
        current.statements.append(stmt)
        current.terminator = "branch"
        current.branch_cond = stmt.cond
        then_blk = self.new_block()
        self.edge(current.id, then_blk.id, TRUE_BRANCH)
        then_end = self.lower_stmts(stmt.then, then_blk, exit_blk)
        else_end = None
        if stmt.els is not None:
            else_blk = self.new_block()
            self.edge(current.id, else_blk.id, FALSE_BRANCH)
            else_end = self.lower_stmts(stmt.els, else_blk, exit_blk)
        if then_end is None and stmt.els is not None and else_end is None:
            return None
        join = self.new_block()
        if then_end is not None:
            self.edge(then_end.id, join.id, FALLTHROUGH)
        if stmt.els is None:
            self.edge(current.id, join.id, FALSE_BRANCH)
        elif else_end is not None:
            self.edge(else_end.id, join.id, FALLTHROUGH)
        return join


def _shape(cfg):
    """Everything lowering decides: edges in insertion order and each
    block's statements, terminator and condition, by block number."""
    blocks = [(b.id, [id(stmt) for stmt in b.statements], b.terminator,
               id(b.branch_cond)) for b in cfg.blocks]
    return (cfg.dump_edges(), blocks, cfg.entry, cfg.exit, cfg.has_dead_code)


def assert_lowered_as_the_reference_does(tu):
    for fn in tu.functions:
        want = ReferenceBuilder(fn.name).build(fn)
        assert _shape(build_cfg(fn)) == _shape(want), fn.name


def _arm_body(rng, depth):
    choices = ["x = %d;", "return %d;", "", "x = %d; return x;"]
    if depth < 2:
        choices += ["chain", "while"]
    pick = rng.choice(choices)
    k = rng.randrange(100)
    if pick == "chain":
        return _else_if_chain(rng, depth + 1)
    if pick == "while":
        return "while (c > %d) { c = c - 1; %s }" % (k, _arm_body(rng, depth + 1))
    return pick % k if "%" in pick else pick


def _else_if_chain(rng, depth=0):
    """An if with 0-6 else-if arms: braced or bare, returning or not,
    with or without a final else, arms holding chains and loops."""
    arms = []
    for i in range(rng.randint(1, 7)):
        body = _arm_body(rng, depth)
        if body and rng.random() < 0.3 and body.count(";") == 1 \
                and not body.startswith(("if", "while")):
            arm = body  # a bare statement
        else:
            arm = "{ %s }" % body
        arms.append("if (c == %d) %s" % (i, arm))
    text = " else ".join(arms)
    if rng.random() < 0.5:
        text += " else { %s }" % _arm_body(rng, depth)
    if rng.random() < 0.2:
        text = "if (c) { x = 1; } else { %s }" % text
    return text


def else_if_program(rng):
    chains = " ".join(_else_if_chain(rng) for _ in range(rng.randint(1, 3)))
    return "int f(int c) { int x = 0; %s return x; }" % chains


class TestElseIfChains:
    def test_corpus_is_lowered_as_the_reference_does(self):
        for path in sorted(glob.glob("corpus/*.c")):
            assert_lowered_as_the_reference_does(
                parse_source(path, open(path, encoding="utf-8").read()))

    def test_random_programs_are_lowered_as_the_reference_does(self):
        for seed in range(200):
            assert_lowered_as_the_reference_does(
                parse_source("r.c", random_program(random.Random(seed))))

    def test_random_chains_are_lowered_as_the_reference_does(self):
        rng = random.Random(11)
        for _ in range(500):
            source = else_if_program(rng)
            assert_lowered_as_the_reference_does(parse_source("e.c", source))

    @pytest.mark.parametrize("arms", [1, 2, 50])
    @pytest.mark.parametrize("last", ["", " else { x = 9; }",
                                      " else { return 9; }"])
    @pytest.mark.parametrize("arm", ["{ x = %d; }", "return %d;"])
    def test_long_chains_are_lowered_as_the_reference_does(self, arms, last,
                                                           arm):
        chain = " else ".join(f"if (c == {i}) {arm % i}"
                              for i in range(arms))
        assert_lowered_as_the_reference_does(parse_source(
            "e.c", "int f(int c) { int x = 0; %s%s return x; }"
            % (chain, last)))

    def test_chain_of_two_thousand_arms(self):
        chain = " else ".join(f"if (c == {i}) {{ x = {i}; }}"
                              for i in range(2000))
        tu = parse_source("e.c", "int f(int c) { int x = 0; %s return x; }"
                          % chain)
        cfg = build_cfg(tu.function("f"))
        # Entry, exit and first block, then per arm a then block, a join
        # and, but for the last arm, an else block.
        assert len(cfg.blocks) == 3 + 3 * 2000 - 1
        # Per arm its two branch edges, its then block into its join and,
        # but for the first arm, its join into the join of the arm above.
        assert len(cfg.edges) == 1 + 4 * 2000 - 1 + 1
        assert cfg.edges[-1] == (cfg.blocks[-1].id, cfg.exit, FALLTHROUGH)


def _cfg(body, name="main"):
    tu = parse_source("<t>", "int %s() { %s }" % (name, body))
    return build_cfg(tu.function(name))


class TestShapes:
    def test_straight_line(self):
        cfg = _cfg("int x = 1; return x;")
        assert cfg.dump_edges() == "0 -> 2 [fallthrough]\n2 -> 1 [fallthrough]\n"
        assert not cfg.has_dead_code

    def test_if_without_else_has_false_edge_to_join(self):
        cfg = _cfg("int x = 1; if (x) { x = 2; } return x;")
        kinds = sorted(kind for _, _, kind in cfg.edges)
        assert kinds.count(TRUE_BRANCH) == 1
        assert kinds.count(FALSE_BRANCH) == 1
        assert LOOP_BACK not in kinds

    def test_if_else_both_returning_leaves_no_join(self):
        cfg = _cfg("int x = 1; if (x) { return 1; } else { return 2; }")
        assert len(enumerate_paths(cfg)) == 2

    def test_while_has_loop_back(self):
        cfg = _cfg("int x = 3; while (x) { x = x - 1; } return x;")
        assert sum(1 for _, _, k in cfg.edges if k == LOOP_BACK) == 1

    def test_dead_code_after_return_is_flagged_not_reached(self):
        cfg = _cfg("return 0; int x = 1; return x;")
        assert cfg.has_dead_code
        # No enumerated path visits the unreachable block.
        dead = {b.id for b in cfg.blocks} - {
            bid for path in enumerate_paths(cfg) for bid in path}
        assert dead

    def test_every_edge_kind_is_known(self):
        cfg = _cfg("int x = 1; if (x) { while (x) { x = 0; } } return x;")
        for _, _, kind in cfg.edges:
            assert kind in (FALLTHROUGH, TRUE_BRANCH, FALSE_BRANCH, LOOP_BACK)

    def test_successors_keep_edge_insertion_order(self):
        cfg = _cfg("int x = 1; if (x) { while (x) { x = 0; } } "
                   "else { if (x) { return 1; } } return x;")
        for blk in cfg.blocks:
            assert cfg.successors(blk.id) == [
                (dst, kind) for src, dst, kind in cfg.edges if src == blk.id]


class TestPaths:
    def test_sequential_ifs_double_paths(self):
        body = "int x = 1; " + "if (x) { x = 0; } " * 4 + "return x;"
        assert len(enumerate_paths(_cfg(body))) == 2 ** 4

    def test_loop_contributes_two_paths(self):
        cfg = _cfg("int x = 3; while (x) { x = x - 1; } return x;")
        # Skip the loop entirely, or take the body once then exit.
        assert len(enumerate_paths(cfg)) == 2

    def test_corpus_functions_bounded_by_branch_count(self):
        for path in sorted(glob.glob("corpus/*.c")):
            tu = parse_source(path, open(path, encoding="utf-8").read())
            for fn in tu.functions:
                cfg = build_cfg(fn)
                branches = sum(1 for b in cfg.blocks if b.terminator == "branch")
                paths = enumerate_paths(cfg)
                assert 1 <= len(paths) <= 2 ** max(branches, 1)
                for p in paths:
                    assert p[0] == cfg.entry and p[-1] == cfg.exit
