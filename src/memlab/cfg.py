"""Per-function control-flow graph construction.

Each function body becomes a directed graph of basic blocks.  Straight-line
statements stay inside one block; ``if``/``while`` introduce branch blocks,
which leave by a true edge then a false edge, and ``while`` adds a back
edge.  A block that ends in a ``return``, and the block the body ends in,
have no successor: a path ends there.  Code after a ``return`` is kept in
an unreachable block that is never explored.

Slots are the variables, as the parser numbers them, then one trip count
per loop that can go round, ``len(fn.names) + i`` in lowering order: only
the loop's back edge reads and writes it, where it leaves its block.  Each
graph also answers, per block, which slots a path from its entry may still
read (``Cfg.live``), and so which the engine blanks in the states it
compares where paths meet (``Cfg.dead``); and which stores some path may
read (``Cfg.live_stores``): the dead-store checker reports the others that
a path executed.  A global, or a variable whose address is taken, may be
read through a pointer or after the function returns: it is never dead and
its stores are all read.  A declaration ends its variable's value, as the
engine makes it uninitialized there: with an initializer, it is a store;
without, no path reads the value it ends.
"""

from __future__ import annotations

from .frontend import (AddressOf, Assign, BinOp, Call, Cast, Deref,
                       FieldAccess, FunctionDef, Ident, If, Return, Stmt,
                       UnaryNot, VarDecl, While)


class BasicBlock:
    def __init__(self, id: int):
        self.id = id
        self.statements: list = []
        # The condition of an `if` or `while`: the block ends in it, and its
        # successors are [then, else or after].  Any other block has at
        # most one successor.
        self.branch_cond = None
        # The trip slot of the loop whose back edge the block leaves by, if
        # it does; such a block never branches.
        self.trip: int | None = None


class Cfg:
    def __init__(self, blocks: list[BasicBlock], entry: int,
                 edges: list[tuple[int, int]], slots: int,
                 never_dead: frozenset):
        self.blocks = blocks
        self.entry = entry
        self.edges = edges
        # The environment's length: the variables' slots, then the trip
        # slots.
        self.slots = slots
        # The slots that are never dead: the globals the function sees and
        # the variables whose address is taken.
        self.never_dead = never_dead
        # The successors of each block, in edge insertion order; built once
        # because the engine asks for a block's successors on every step of
        # every path.
        succs = self._succs = [[] for _ in blocks]
        # Blocks with two or more incoming edges, joins and loop heads:
        # where paths meet, and so where the engine looks for a state it
        # has already explored.
        merges = self.merges = set()
        entered = set()
        for src, dst in edges:
            succs[src].append(dst)
            if dst in entered:
                merges.add(dst)
            else:
                entered.add(dst)
        # Per block, a frozenset of the slots some path from its entry may
        # read before writing them.  Only the engine asks, at merges and
        # for dead stores, so the fixpoint runs on first use; ``dead``
        # caches likewise.
        self._live = None
        self._dead = {}

    def successors(self, block_id: int) -> list[int]:
        return self._succs[block_id]

    def live(self, block_id: int) -> frozenset:
        """The slots some path from the block's entry may read before
        writing them."""
        if self._live is None:
            self._live = self._liveness()
        return self._live[block_id]

    def dead(self, block_id: int) -> list:
        """The slots no path from the block's entry can read, in order:
        those neither live there nor never dead."""
        if block_id not in self._dead:
            kept = self.live(block_id) | self.never_dead
            self._dead[block_id] = [slot for slot in range(self.slots)
                                    if slot not in kept]
        return self._dead[block_id]

    def _liveness(self) -> list:
        # A block's entry reads what the block reads before writing it,
        # plus what its successors' entries read that it does not write:
        # one backward fixpoint over the successors.
        live, writes = [], []
        for blk in self.blocks:
            read: set = set()
            # The condition is read after the statements.
            if blk.branch_cond is not None:
                _expr_reads(blk.branch_cond, read)
            for stmt in reversed(blk.statements):
                _read_before(stmt, read)
            if blk.trip is not None:  # read where the back edge leaves
                read.add(blk.trip)
            live.append(read)
            writes.append({slot for slot in map(_written, blk.statements)
                           if slot is not None})
        preds: list = [[] for _ in self.blocks]
        for src, dst in self.edges:
            preds[dst].append(src)
        succs = self._succs
        # Highest ids first: blocks are numbered roughly in source order.
        work = list(range(len(self.blocks)))
        queued = [True] * len(work)
        while work:
            bid = work.pop()
            queued[bid] = False
            entry = live[bid]
            size = len(entry)
            written = writes[bid]
            for dst in succs[bid]:
                entry.update(live[dst] - written if written else live[dst])
            if len(entry) != size:
                for src in preds[bid]:
                    if not queued[src]:
                        queued[src] = True
                        work.append(src)
        return [frozenset(entry) for entry in live]

    def live_stores(self) -> set:
        """The stores (slot, line) that some path from them may read: one
        statement on the line writes the variable, and the variable is
        never dead or some path from there reads it before writing it
        again."""
        stores = set()
        for blk in self.blocks:
            # What the rest of the block reads before writing it, and what
            # it writes; only a variable in neither asks the successors.
            read: set = set()
            written: set = set()
            _expr_reads(blk.branch_cond, read)
            for stmt in reversed(blk.statements):
                slot = _written(stmt)
                if slot is not None:
                    # `int x;` ends x's value but stores none.
                    stored = type(stmt) is Assign or stmt.init is not None
                    if stored and (slot in read or slot in self.never_dead
                                   or (slot not in written and any(
                                       slot in self.live(dst)
                                       for dst in self._succs[blk.id]))):
                        stores.add((slot, stmt.loc.line))
                    written.add(slot)
                _read_before(stmt, read)
        return stores


def _written(stmt) -> int | None:
    """The slot the statement ends the value of: an assignment to a
    variable, or a declaration."""
    cls = type(stmt)
    if cls is Assign:
        return stmt.target.slot if type(stmt.target) is Ident else None
    return stmt.slot if cls is VarDecl else None


def _read_before(stmt, live: set) -> None:
    """Turn `live`, what a path may read after the statement before writing
    it, into what it may read before the statement."""
    cls = type(stmt)
    if cls is Assign:
        if type(stmt.target) is Ident:
            live.discard(stmt.target.slot)
        else:  # `*p = v` and `p->f = v` read `p`
            _expr_reads(stmt.target, live)
        _expr_reads(stmt.value, live)
    elif cls is VarDecl:
        # The variable is uninitialized before its initializer runs.
        _expr_reads(stmt.init, live)
        live.discard(stmt.slot)
    else:  # a call or a return, whose expression may be None
        _expr_reads(stmt.expr, live)


_UNARY = (Deref, AddressOf, FieldAccess, UnaryNot, Cast)


def _expr_reads(expr, out: set) -> None:
    """Add the slots of the variables that evaluating `expr` reads to `out`.
    The operand of `sizeof` is not evaluated, and None reads nothing."""
    work = [expr]
    while work:
        expr = work.pop()
        kind = type(expr)
        if kind is Ident:
            out.add(expr.slot)
        elif kind is BinOp:
            work += (expr.left, expr.right)
        elif kind is Call:
            work += expr.args
        elif kind in _UNARY:
            work.append(expr.expr)


class _Builder:
    def __init__(self):
        self.blocks: list[BasicBlock] = []
        self.edges: list[tuple[int, int]] = []
        self.slots = 0  # the next trip slot, once build() sets it

    def new_block(self) -> BasicBlock:
        blk = BasicBlock(len(self.blocks))
        self.blocks.append(blk)
        return blk

    def build(self, fn: FunctionDef) -> Cfg:
        # No edge enters the first block, since every loop head is a block
        # of its own, so the first block is the entry.
        self.slots = len(fn.names)
        entry = self.new_block()
        self.lower_stmts(fn.body, entry)
        never_dead = frozenset(range(fn.global_count)) | fn.addr_taken
        return Cfg(self.blocks, entry.id, self.edges, self.slots, never_dead)

    def lower_stmts(self, stmts: list,
                    current: BasicBlock) -> BasicBlock | None:
        """Lower statements into `current`; return the open trailing block,
        or None if every path has already returned."""
        for stmt in stmts:
            if current is None:
                # Dead code after a return: park it in an unreachable block.
                current = self.new_block()
            current = self.lower_stmt(stmt, current)
        return current

    def lower_stmt(self, stmt: Stmt, current: BasicBlock) -> BasicBlock | None:
        if isinstance(stmt, Return):
            current.statements.append(stmt)
            return None
        if isinstance(stmt, If):
            # An `else` that is exactly one `If` goes round this loop instead
            # of recursing, so an else-if chain costs no stack; the joins are
            # then made last arm first, as recursion would make them.
            arms = []  # (branch block, end of the then arm, has an else)
            end = None  # where the last arm's else ends
            while True:
                current.branch_cond = stmt.cond
                then_blk = self.new_block()
                self.edges.append((current.id, then_blk.id))
                then_end = self.lower_stmts(stmt.then, then_blk)
                arms.append((current, then_end, stmt.els is not None))
                if stmt.els is None:
                    break
                else_blk = self.new_block()
                self.edges.append((current.id, else_blk.id))
                if len(stmt.els) == 1 and isinstance(stmt.els[0], If):
                    stmt, current = stmt.els[0], else_blk
                    continue
                end = self.lower_stmts(stmt.els, else_blk)
                break
            for branch, then_end, has_else in reversed(arms):
                if then_end is None and has_else and end is None:
                    continue
                join = self.new_block()
                if then_end is not None:
                    self.edges.append((then_end.id, join.id))
                if not has_else:
                    self.edges.append((branch.id, join.id))
                elif end is not None:
                    self.edges.append((end.id, join.id))
                end = join
            return end
        if isinstance(stmt, While):
            cond_blk = self.new_block()
            self.edges.append((current.id, cond_blk.id))
            cond_blk.branch_cond = stmt.cond
            body_blk = self.new_block()
            self.edges.append((cond_blk.id, body_blk.id))
            body_end = self.lower_stmts(stmt.body, body_blk)
            if body_end is not None:
                body_end.trip = self.slots
                self.slots += 1
                self.edges.append((body_end.id, cond_blk.id))
            after = self.new_block()
            self.edges.append((cond_blk.id, after.id))
            return after
        current.statements.append(stmt)
        return current


def build_cfg(fn: FunctionDef) -> Cfg:
    return _Builder().build(fn)

