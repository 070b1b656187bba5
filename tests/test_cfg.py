"""Control-flow graph construction tests."""

import glob

from memlab.cfg import (
    Cfg,
    FALLTHROUGH,
    FALSE_BRANCH,
    LOOP_BACK,
    TRUE_BRANCH,
    build_cfg,
)
from memlab.frontend import parse_source


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
