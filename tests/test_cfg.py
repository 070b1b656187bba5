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
from memlab.frontend import If, Return, While, parse_source
from test_exploration import random_program


def enumerate_paths(cfg: Cfg, max_paths: int = 100000) -> list[list[int]]:
    """Brute-force enumeration of block paths from the entry to a block
    with no successor, where a path ends.

    Loop-back edges are followed at most once per path, so this terminates.
    """
    paths: list[list[int]] = []

    def walk(block_id: int, path: list[int], used_back: frozenset) -> None:
        if len(paths) >= max_paths:
            return
        path = path + [block_id]
        if not cfg.successors(block_id):
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

    def lower_stmt(self, stmt, current):
        if not isinstance(stmt, If):
            return super().lower_stmt(stmt, current)
        current.branch_cond = stmt.cond
        then_blk = self.new_block()
        self.edge(current.id, then_blk.id, TRUE_BRANCH)
        then_end = self.lower_stmts(stmt.then, then_blk)
        else_end = None
        if stmt.els is not None:
            else_blk = self.new_block()
            self.edge(current.id, else_blk.id, FALSE_BRANCH)
            else_end = self.lower_stmts(stmt.els, else_blk)
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
    block's statements and condition, by block number."""
    blocks = [(b.id, [id(stmt) for stmt in b.statements], id(b.branch_cond))
              for b in cfg.blocks]
    return (cfg.edges, blocks, cfg.entry)


def body_end(fn):
    """The id of the block the body of `fn` ends in, as `build_cfg` numbers
    it, or None when every path returns before the end."""
    builder = _Builder()
    end = builder.lower_stmts(fn.body, builder.new_block())
    return None if end is None else end.id


def ends_a_path(cfg, fn, block_id):
    """Whether the block may end a path: it ends in a `return`, or it is
    the block the body ends in."""
    statements = cfg.blocks[block_id].statements
    return (bool(statements) and isinstance(statements[-1], Return)) \
        or block_id == body_end(fn)


def reachable(cfg):
    seen, work = {cfg.entry}, [cfg.entry]
    while work:
        for dst, _ in cfg.successors(work.pop()):
            if dst not in seen:
                seen.add(dst)
                work.append(dst)
    return seen


def assert_lowered_as_the_reference_does(tu):
    """Lowered as the reference does, and in the shape the engine relies
    on: a block with a condition leaves by its true edge then its false
    edge, any other block by at most one edge, and every reachable block
    without one ends a path; no edge enters the entry, and the statements
    hold no `if` or `while`."""
    for fn in tu.functions:
        cfg = build_cfg(fn)
        assert _shape(cfg) == _shape(ReferenceBuilder().build(fn)), fn.name
        for blk in cfg.blocks:
            kinds = [kind for _, kind in cfg.successors(blk.id)]
            if blk.branch_cond is not None:
                assert kinds == [TRUE_BRANCH, FALSE_BRANCH], fn.name
            else:
                assert len(kinds) <= 1, fn.name
            assert not any(isinstance(stmt, (If, While))
                           for stmt in blk.statements), fn.name
        for bid in reachable(cfg):
            assert cfg.successors(bid) or ends_a_path(cfg, fn, bid), fn.name
        assert all(dst != cfg.entry for _, dst, _ in cfg.edges), fn.name


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
        # The entry, then per arm a then block, a join and, but for the
        # last arm, an else block.
        assert len(cfg.blocks) == 1 + 3 * 2000 - 1
        # Per arm its two branch edges, its then block into its join and,
        # but for the first arm, its join into the join of the arm above.
        assert len(cfg.edges) == 4 * 2000 - 1
        # The first arm's join, made last, holds the `return` and leaves
        # by no edge.
        last = cfg.blocks[-1]
        assert cfg.edges[-1][1] == last.id
        assert isinstance(last.statements[-1], Return)
        assert cfg.successors(last.id) == []


def _cfg(body, name="main"):
    tu = parse_source("<t>", "int %s() { %s }" % (name, body))
    return build_cfg(tu.function(name))


class TestShapes:
    def test_straight_line(self):
        cfg = _cfg("int x = 1; return x;")
        assert len(cfg.blocks) == 1 and cfg.edges == []

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

    def test_dead_code_after_return_is_kept_not_reached(self):
        cfg = _cfg("return 0; int x = 1; return x;")
        # No enumerated path visits the unreachable block.
        dead = {b.id for b in cfg.blocks} - {
            bid for path in enumerate_paths(cfg) for bid in path}
        assert dead

    def test_a_path_ends_at_a_return_or_where_the_body_ends(self):
        cfg = _cfg("int x = 1; if (x) { return 1; } "
                   "while (x) { x = x - 1; }")
        # The `if`'s then block, and the empty block after the loop.
        then_blk, after = [blk for blk in cfg.blocks
                           if not cfg.successors(blk.id)]
        assert [type(stmt) for stmt in then_blk.statements] == [Return]
        assert after.statements == []
        assert then_blk.id not in cfg.merges and after.id not in cfg.merges
        assert len(enumerate_paths(cfg)) == 3

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
                branches = sum(1 for b in cfg.blocks
                               if b.branch_cond is not None)
                paths = enumerate_paths(cfg)
                assert 1 <= len(paths) <= 2 ** max(branches, 1)
                for p in paths:
                    assert p[0] == cfg.entry and ends_a_path(cfg, fn, p[-1])


def _function_cfg(source):
    """(function, CFG) of the last function of `source`."""
    fn = parse_source("<t>", source).functions[-1]
    return fn, build_cfg(fn)


def _loops(cfg):
    """(head, trip slot) of each loop that goes round, in lowering order:
    an inner loop before the loop round it."""
    return [(dst, cfg.blocks[src].trip) for src, dst, kind in cfg.edges
            if kind == LOOP_BACK]


def _exit_of(cfg, head):
    """The block a loop's head leaves to when its condition is false."""
    return next(dst for dst, kind in cfg.successors(head)
                if kind == FALSE_BRANCH)


class TestSlots:
    def test_trip_slots_follow_the_variables(self):
        fn, cfg = _function_cfg(
            "int f(int c) {\n  int i = 0;\n  while (i < c) {\n"
            "    int j = 0;\n    while (j < c) { j = j + 1; }\n"
            "    i = i + 1;\n  }\n  while (c) { return 1; }\n  return i;\n}\n")
        # The third loop returns from its body: it never goes round.
        assert [slot for _, slot in _loops(cfg)] == \
            [len(fn.names), len(fn.names) + 1]
        assert cfg.slots == len(fn.names) + 2
        assert [blk.trip for blk in cfg.blocks
                if blk.trip is not None] == [len(fn.names), len(fn.names) + 1]

    def test_an_inner_trip_count_lives_until_its_outer_loop_ends(self):
        _, cfg = _function_cfg(
            "int f(int c) {\n  int i = 0;\n  while (i < c) {\n"
            "    int j = 0;\n    while (j < c) { j = j + 1; }\n"
            "    i = i + 1;\n  }\n  if (c) { i = 1; }\n  return i;\n}\n")
        (inner_head, inner), (outer_head, outer) = _loops(cfg)
        # Nothing resets the inner count when the outer body enters the
        # inner loop again, so it is read on the outer loop's next trip.
        outer_body = cfg.successors(outer_head)[0][0]
        for block in (outer_head, outer_body, inner_head):
            assert {inner, outer} <= cfg.live(block)
            assert inner not in cfg.dead(block)
        after = _exit_of(cfg, outer_head)
        join = max(cfg.merges)
        for block in (after, join):
            assert inner not in cfg.live(block)
            assert {inner, outer} <= set(cfg.dead(block))

    def test_a_loop_trip_count_is_dead_at_the_next_loop(self):
        _, cfg = _function_cfg(
            "int f(int c, int m) {\n  int x = 0;\n"
            "  while (x < m) { x = x + 1; }\n"
            "  while (x < c) { x = x + 1; }\n  return x;\n}\n")
        (first_head, first), (second_head, second) = _loops(cfg)
        assert first_head in cfg.merges and second_head in cfg.merges
        assert first not in cfg.dead(first_head)
        assert first in cfg.dead(second_head)
        assert second not in cfg.dead(second_head)
        assert {first, second} <= set(cfg.dead(_exit_of(cfg, second_head)))

    def test_globals_and_address_taken_slots_are_never_dead(self):
        fn, cfg = _function_cfg(
            "int g;\nint f(int c) {\n  int x = 0;\n  int *p = &x;\n"
            "  int y = 0;\n  g = 1;\n  x = 2;\n  y = 3;\n"
            "  if (c) { y = 4; }\n  return 0;\n}\n")
        g, x, y = (fn.names.index(name) for name in ("g", "x", "y"))
        assert g < fn.global_count and x in fn.addr_taken
        assert cfg.never_dead == {g, x}
        for blk in cfg.blocks:
            assert not cfg.never_dead & set(cfg.dead(blk.id))
        # y is dead at the join, where nothing reads it again.
        assert y in cfg.dead(max(cfg.merges))
        stores = cfg.live_stores()
        assert {(g, 6), (x, 3), (x, 7)} <= stores
        assert not {(y, 5), (y, 8), (y, 9)} & stores
