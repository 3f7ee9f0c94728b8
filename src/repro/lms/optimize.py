"""The optimizing middle-end: a pass manager between staging and
scheduling.

LMS earns its keep through staging-time specialization, but a staged
graph still carries whatever redundancy the kernel author wrote:
re-materialized broadcast constants inside loops, index arithmetic that
folds to nothing, values stored and immediately reloaded.  Every such
node is paid on *every* simulated step closure and inflated into every
generated C body.  This module runs a classic middle-end over the SSA
graph before ``schedule_block``/``cgen`` see it:

* **simplify** — the algebraic rules of
  :class:`repro.lms.rewrites.SimplifyTransformer` (float-safe, trap-safe).
* **fold** (level 2) — constant folding of pure scalar ops, converts,
  selects and scalar-returning intrinsics, evaluated through the *same*
  :func:`repro.simd.machine.scalar_binop` / semantics handlers the
  simulator executes, so folded results are bit-identical by
  construction.  Folds that raise, or produce non-finite floats (whose C
  literal rendering is not exact), are declined.
* **cse** — global value numbering by re-mirroring (structural CSE
  across the whole function) plus loop-invariant code motion: pure,
  non-trapping, block-free statements whose operands are defined outside
  a loop body are hoisted in front of the loop.
* **forward** (level 2) — same-address load/store forwarding and
  redundant-load elimination within effect regions: scalar array
  reads/writes, the unmasked vector load/store intrinsics, and mutable
  staged variables.  Any array write invalidates *all* array mappings
  (arrays passed twice may alias at run time; variable boxes never
  alias), control-flow bodies start with an empty map, and a control
  node invalidates by its effect summary.
* **dce** — dead-code elimination via :func:`repro.lms.schedule.schedule_block`
  (the effects system decides liveness: effectful statements always
  survive).

The pipeline iterates to a fixpoint (bounded), gated by ``REPRO_OPT``:
``0`` bypasses the middle-end entirely, ``1`` (the default) runs
simplify+cse+dce, ``2`` adds folding and forwarding.

Error-path preservation: value-discarding rewrites only drop operands
whose defining subgraph cannot trap (:func:`repro.lms.rewrites.may_trap`
taint), may-trap nodes are never CSE-merged or hoisted, and declined
folds leave trapping nodes in place — so a graph optimized at any level
raises exactly when, and what, the unoptimized graph raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import repro.obs as obs
from repro.core.env import env_int
from repro.lms import effects as fx
from repro.lms.defs import (
    ArrayApply,
    ArrayUpdate,
    BinaryOp,
    Block,
    Convert,
    Def,
    ForLoop,
    IfThenElse,
    Select,
    Stm,
    UnaryOp,
    VarAssign,
    VarDecl,
    VarRead,
    WhileLoop,
)
from repro.lms.effects import Effects
from repro.lms.expr import Const, Exp, Sym
from repro.lms.graph import current_builder
from repro.lms.rewrites import SafeTransformer, SimplifyTransformer, may_trap
from repro.lms.schedule import count_statements, schedule_block
from repro.lms.staging import StagedFunction
from repro.lms.transform import remirror_function
from repro.lms.types import ScalarType

DEFAULT_LEVEL = 1
MAX_LEVEL = 2
MAX_ITERATIONS = 4

PASS_NAMES = ("simplify", "fold", "cse", "forward", "dce")


def effective_level(level: int | None = None) -> int:
    """Resolve the middle-end level: an explicit argument wins, then
    ``REPRO_OPT`` (a malformed value warns), then the default (1).
    Clamped to ``0..2``."""
    if level is None:
        level = env_int("REPRO_OPT", DEFAULT_LEVEL)
    return max(0, min(MAX_LEVEL, int(level)))


@dataclass
class OptStats:
    """What the middle-end did to one staged function."""

    level: int
    iterations: int = 0
    stms_before: int = 0
    stms_after: int = 0
    # statements eliminated, per pass (count delta across the pass).
    eliminated: dict = field(default_factory=dict)
    rewrites: int = 0
    folds: int = 0
    forwarded_loads: int = 0
    forwarded_reads: int = 0
    hoisted: int = 0

    @property
    def total_eliminated(self) -> int:
        return max(0, self.stms_before - self.stms_after)

    def summary_lines(self) -> list[str]:
        lines = [
            f"level={self.level} iterations={self.iterations} "
            f"statements {self.stms_before} -> {self.stms_after} "
            f"(-{self.total_eliminated})"]
        for name in PASS_NAMES:
            if name in self.eliminated:
                lines.append(
                    f"  {name:9s} eliminated={self.eliminated[name]}")
        lines.append(
            f"  rewrites={self.rewrites} folds={self.folds} "
            f"hoisted={self.hoisted} forwarded_loads="
            f"{self.forwarded_loads} forwarded_reads="
            f"{self.forwarded_reads}")
        return lines


# ---------------------------------------------------------------------------
# Constant folding (level 2).
# ---------------------------------------------------------------------------


def _runtime_const(c: Const):
    """A Const's runtime value, exactly as both engines evaluate it."""
    from repro.simd.exec import _as_scalar
    if not isinstance(c.tp, ScalarType):
        raise TypeError(f"not a scalar constant: {c!r}")
    return _as_scalar(c.tp, c.value)


def _const_from(value, tp) -> Const | None:
    """Build a Const carrying ``value`` losslessly, or decline.

    Non-finite floats are declined: a folded NaN cannot be guaranteed
    payload-identical to the natively computed one, and inf has no exact
    decimal C literal through ``_const_c``.
    """
    if not isinstance(tp, ScalarType):
        return None
    if tp.name == "Boolean":
        return Const(bool(value), tp)
    if tp.is_float:
        fv = float(value)
        if not math.isfinite(fv):
            return None
        return Const(fv, tp)
    return Const(int(value), tp)


class FoldTransformer(SafeTransformer):
    """Folds pure nodes with all-constant operands through the machine
    semantics.  Any exception during evaluation declines the fold and
    leaves the (possibly trapping) node in place."""

    def __init__(self) -> None:
        super().__init__()
        self.folds = 0
        self._machine = None

    def _scratch_machine(self):
        if self._machine is None:
            from repro.simd.machine import SimdMachine
            self._machine = SimdMachine(seed=0)
        return self._machine

    def _rewrite(self, rhs: Def, stm: Stm) -> Exp | None:
        if stm.effects.effectful:
            return None
        folded = self._fold_node(rhs)
        if folded is not None:
            self.folds += 1
        return folded

    def _fold_node(self, rhs: Def) -> Const | None:
        from repro.simd.exec import _as_scalar
        f = self
        try:
            if isinstance(rhs, BinaryOp):
                a, b = f(rhs.lhs), f(rhs.rhs)
                if isinstance(a, Const) and isinstance(b, Const) and \
                        isinstance(a.tp, ScalarType) and \
                        isinstance(b.tp, ScalarType):
                    from repro.simd.machine import scalar_binop
                    node = BinaryOp(rhs.op, a, b, rhs.tp)
                    out = scalar_binop(node, _runtime_const(a),
                                       _runtime_const(b))
                    return _const_from(out, rhs.tp)
                return None
            if isinstance(rhs, UnaryOp):
                v = f(rhs.operand)
                if not isinstance(v, Const) or \
                        not isinstance(v.tp, ScalarType):
                    return None
                import numpy as np
                rv = _runtime_const(v)
                if rhs.op == "neg":
                    with np.errstate(over="ignore"):
                        out = -rv
                elif rhs.op == "not":
                    out = ~rv
                else:
                    return None
                tp = rhs.tp
                if isinstance(tp, ScalarType) and tp.name != "Boolean":
                    out = _as_scalar(tp, out)
                return _const_from(out, tp)
            if isinstance(rhs, Convert):
                v = f(rhs.operand)
                if not isinstance(v, Const) or \
                        not isinstance(v.tp, ScalarType):
                    return None
                out = _as_scalar(rhs.tp, _runtime_const(v))
                return _const_from(out, rhs.tp)
            if isinstance(rhs, Select):
                cond, a, b = (f(x) for x in rhs.exp_args)
                if not isinstance(cond, Const):
                    return None
                picked, other = (a, b) if bool(cond.value) else (b, a)
                if isinstance(picked, Const) and \
                        isinstance(picked.tp, ScalarType):
                    out = _runtime_const(picked)
                    tp = rhs.tp
                    if isinstance(tp, ScalarType) and \
                            tp.name != "Boolean":
                        out = _as_scalar(tp, out)
                    return _const_from(out, tp)
                # Partial fold: constant condition selects one arm; the
                # discarded arm must be trap-free (both arms of a staged
                # select are evaluated, like C's ?: after hoisting).
                if isinstance(picked, Exp) and picked.tp == rhs.tp and \
                        self.discardable(other):
                    self.folds += 1
                    return picked
                return None
            name = getattr(rhs, "intrinsic_name", None)
            if name is not None and isinstance(rhs.tp, ScalarType):
                vals = []
                for arg in rhs.args:
                    if isinstance(arg, Exp):
                        arg = f(arg)
                        if not isinstance(arg, Const) or \
                                not isinstance(arg.tp, ScalarType):
                            return None
                        vals.append(_runtime_const(arg))
                    else:
                        vals.append(arg)
                from repro.simd.semantics import lookup
                out = lookup(name)(self._scratch_machine(), *vals)
                return _const_from(out, rhs.tp)
        except Exception:  # noqa: BLE001 - any failure declines the fold
            return None
        return None


# ---------------------------------------------------------------------------
# Loop-invariant code motion (part of the cse/GVN pass).
# ---------------------------------------------------------------------------


def _lift_block(block: Block, extra_bound: set[int]) -> list[Stm]:
    """Remove and return the hoistable statements of a loop block.

    A statement is hoistable when it is pure, has no nested blocks,
    cannot trap (hoisting executes it even when the loop runs zero
    times), and every operand is defined outside the block.  Iterates so
    chains of invariant statements move together, preserving their
    relative order (dependencies stay in front)."""
    defined = {stm.sym.id for stm in block.stms}
    defined.update(s.id for s in block.bound)
    defined |= extra_bound
    moved: list[Stm] = []
    changed = True
    while changed:
        changed = False
        keep: list[Stm] = []
        for stm in block.stms:
            rhs = stm.rhs
            ok = (stm.effects.pure and not rhs.blocks
                  and not may_trap(rhs)
                  and all(not (isinstance(a, Sym) and a.id in defined)
                          for a in rhs.exp_args))
            if ok:
                moved.append(stm)
                defined.discard(stm.sym.id)
                changed = True
            else:
                keep.append(stm)
        block.stms[:] = keep
    return moved


def hoist_loop_invariants(staged: StagedFunction) -> int:
    """Hoist loop-invariant pure statements out of for/while bodies, in
    place.  Returns the number of statements moved."""
    hoisted = 0

    def walk(block: Block) -> None:
        nonlocal hoisted
        for stm in block.stms:
            for inner in stm.rhs.blocks:
                walk(inner)
        new_stms: list[Stm] = []
        for stm in block.stms:
            rhs = stm.rhs
            moved: list[Stm] = []
            if isinstance(rhs, ForLoop):
                moved = _lift_block(rhs.body, set())
            elif isinstance(rhs, WhileLoop):
                moved = _lift_block(rhs.cond_block, set())
                # The body may reference condition-block symbols (the
                # engines keep a flat environment), which must not be
                # hoisted above the loop.
                cond_defs = set(rhs.cond_block.symbols())
                moved += _lift_block(rhs.body, cond_defs)
            new_stms.extend(moved)
            hoisted += len(moved)
            new_stms.append(stm)
        block.stms[:] = new_stms

    walk(staged.body)
    if hoisted:
        staged._scheduled_body = None
        staged._graph_hash = None
        staged._exec_program = None
    return hoisted


# ---------------------------------------------------------------------------
# Load/store forwarding (level 2).
# ---------------------------------------------------------------------------


def _addr_key(e: Exp):
    """A value-identity key for an index/offset expression within one
    linear mirroring pass (SSA symbols are single-assignment, constants
    compare structurally); ``None`` when no stable key exists."""
    if isinstance(e, Sym):
        return ("s", e.id)
    if isinstance(e, Const):
        return ("c", e.tp.name, repr(e.value))
    return None


class _FwdScope:
    """Available-value maps for one effect region."""

    __slots__ = ("scalar", "vec", "vars")

    def __init__(self) -> None:
        # container sym id -> {index key -> value exp}
        self.scalar: dict[int, dict] = {}
        # container sym id -> {(offset key, vector type name) -> value exp}
        self.vec: dict[int, dict] = {}
        # variable sym id -> last known value exp
        self.vars: dict[int, Exp] = {}

    def copy(self) -> "_FwdScope":
        s = _FwdScope()
        s.scalar = {k: dict(v) for k, v in self.scalar.items()}
        s.vec = {k: dict(v) for k, v in self.vec.items()}
        s.vars = dict(self.vars)
        return s

    def clear(self) -> None:
        self.scalar.clear()
        self.vec.clear()
        self.vars.clear()

    def wipe_arrays(self) -> None:
        # Distinct array parameters may alias at run time (the same
        # numpy array passed twice), so a write to *any* array container
        # invalidates every array mapping.  Variable boxes are engine
        # internals and can never alias an array or each other.
        self.scalar.clear()
        self.vec.clear()


class ForwardTransformer(SafeTransformer):
    """Same-address load/store forwarding within effect regions."""

    def __init__(self) -> None:
        super().__init__()
        self.forwarded_loads = 0
        self.forwarded_reads = 0
        self._scopes: list[_FwdScope] = [_FwdScope()]
        self._var_ids: set[int] = set()

    @property
    def _cur(self) -> _FwdScope:
        return self._scopes[-1]

    # -- rewrite hook -------------------------------------------------------

    def _rewrite(self, rhs: Def, stm: Stm) -> Exp | None:
        if isinstance(rhs, (ForLoop, WhileLoop, IfThenElse)):
            return self._mirror_control(rhs)
        if isinstance(rhs, ArrayApply):
            return self._scalar_load(rhs)
        if isinstance(rhs, ArrayUpdate):
            return self._scalar_store(rhs)
        if isinstance(rhs, VarDecl):
            return self._var_decl(rhs)
        if isinstance(rhs, VarRead):
            return self._var_read(rhs)
        if isinstance(rhs, VarAssign):
            return self._var_assign(rhs)
        name = getattr(rhs, "intrinsic_name", None)
        if name is not None:
            from repro.simd.semantics.memory import _LOADS, _STORES
            if name in _LOADS and len(rhs.args) == 2:
                return self._vector_load(rhs)
            if name in _STORES and len(rhs.args) == 3:
                return self._vector_store(rhs)
            if stm.effects.effectful:
                out = self._mirror_safe(rhs, stm)
                if stm.effects.is_global:
                    self._cur.clear()
                elif stm.effects.writes:
                    # Intrinsic memory writes target arrays only.
                    self._cur.wipe_arrays()
                return out
        return None

    # -- scalar arrays ------------------------------------------------------

    def _scalar_load(self, rhs: ArrayApply) -> Exp:
        from repro.lms.ops import array_apply
        f = self
        arr, idx = f(rhs.array), f(rhs.index)
        key = _addr_key(idx)
        if key is not None and isinstance(arr, Sym):
            hit = self._cur.scalar.get(arr.id, {}).get(key)
            if hit is not None and hit.tp == rhs.tp:
                self.forwarded_loads += 1
                return hit
        out = array_apply(arr, idx)
        if key is not None and isinstance(arr, Sym):
            self._cur.scalar.setdefault(arr.id, {})[key] = out
        return out

    def _scalar_store(self, rhs: ArrayUpdate) -> Exp:
        from repro.lms.ops import array_update
        f = self
        arr, idx, val = f(rhs.array), f(rhs.index), f(rhs.value)
        out = array_update(arr, idx, val)
        self._cur.wipe_arrays()
        key = _addr_key(idx)
        if key is not None and isinstance(arr, Sym) and \
                isinstance(val.tp, ScalarType) and val.tp == arr.tp.elem:
            self._cur.scalar.setdefault(arr.id, {})[key] = val
        return out

    # -- vector loads/stores ------------------------------------------------

    def _vector_load(self, rhs: Def) -> Exp:
        f = self
        arr, off = f(rhs.args[0]), f(rhs.args[1])
        key = _addr_key(off)
        if key is not None and isinstance(arr, Sym):
            hit = self._cur.vec.get(arr.id, {}).get((key, rhs.tp.name))
            if hit is not None and hit.tp == rhs.tp:
                self.forwarded_loads += 1
                return hit
        out = rhs.remirror(f)
        if key is not None and isinstance(arr, Sym) and isinstance(out, Exp):
            self._cur.vec.setdefault(arr.id, {})[(key, rhs.tp.name)] = out
        return out

    def _vector_store(self, rhs: Def) -> Exp:
        f = self
        arr, val, off = f(rhs.args[0]), f(rhs.args[1]), f(rhs.args[2])
        out = rhs.remirror(f)
        self._cur.wipe_arrays()
        key = _addr_key(off)
        if key is not None and isinstance(arr, Sym) and isinstance(val, Exp):
            self._cur.vec.setdefault(arr.id, {})[(key, val.tp.name)] = val
        return out

    # -- mutable variables --------------------------------------------------

    def _var_decl(self, rhs: VarDecl) -> Exp:
        init = self(rhs.init)
        out = current_builder().reflect_var_decl(VarDecl(init, rhs.tp))
        self._var_ids.add(out.id)
        if init.tp == rhs.tp:
            self._cur.vars[out.id] = init
        return out

    def _var_read(self, rhs: VarRead) -> Exp:
        var = self(rhs.var)
        hit = self._cur.vars.get(var.id)
        if hit is not None and hit.tp == rhs.tp:
            self.forwarded_reads += 1
            return hit
        out = current_builder().reflect_effect(
            VarRead(var, rhs.tp), fx.read(var.id))
        self._cur.vars[var.id] = out
        return out

    def _var_assign(self, rhs: VarAssign) -> Exp:
        var, val = self(rhs.var), self(rhs.value)
        out = current_builder().reflect_effect(
            VarAssign(var, val, rhs.tp), fx.write(var.id))
        self._cur.vars[var.id] = val
        return out

    # -- control flow -------------------------------------------------------

    def _mirror_control(self, rhs: Def) -> Exp:
        builder = current_builder()
        f = self
        if isinstance(rhs, ForLoop):
            idx = builder.fresh(rhs.index.tp)
            self.register(rhs.index, idx)
            # Loop bodies run many times: nothing recorded outside is
            # known to survive an earlier iteration's writes, and body
            # mappings must not leak out.
            self._scopes.append(_FwdScope())
            try:
                with builder.block(bound=(idx,)) as frame:
                    self.transform_statements(rhs.body)
                    body, summary = builder.close_block(
                        frame, self(rhs.body.result))
            finally:
                self._scopes.pop()
            node = ForLoop(f(rhs.start), f(rhs.end), f(rhs.step), idx,
                           body, rhs.tp)
            out = builder.reflect_effect(node, summary)
            self._invalidate_summary(summary)
            return out
        if isinstance(rhs, IfThenElse):
            blocks = []
            effs = []
            for blk in (rhs.then_block, rhs.else_block):
                # A branch runs at most once, dominated by the outer
                # region: it inherits the outer mappings (by copy — its
                # own additions must not leak out).
                self._scopes.append(self._cur.copy())
                try:
                    with builder.block() as frame:
                        self.transform_statements(blk)
                        newb, eff = builder.close_block(frame, self(blk.result))
                finally:
                    self._scopes.pop()
                blocks.append(newb)
                effs.append(eff)
            node = IfThenElse(f(rhs.cond), blocks[0], blocks[1], rhs.tp)
            merged = effs[0].merge(effs[1])
            out = builder.reflect_effect(node, merged)
            self._invalidate_summary(merged)
            return out
        if isinstance(rhs, WhileLoop):
            self._scopes.append(_FwdScope())
            try:
                with builder.block() as frame:
                    self.transform_statements(rhs.cond_block)
                    condb, ceff = builder.close_block(
                        frame, self(rhs.cond_block.result))
            finally:
                self._scopes.pop()
            self._scopes.append(_FwdScope())
            try:
                with builder.block() as frame:
                    self.transform_statements(rhs.body)
                    bodyb, beff = builder.close_block(
                        frame, self(rhs.body.result))
            finally:
                self._scopes.pop()
            node = WhileLoop(condb, bodyb, rhs.tp)
            merged = ceff.merge(beff)
            out = builder.reflect_effect(node, merged)
            self._invalidate_summary(merged)
            return out
        raise NotImplementedError(type(rhs).__name__)

    def _invalidate_summary(self, effects: Effects) -> None:
        if effects.is_global:
            self._cur.clear()
            return
        if not effects.writes:
            return
        wipe_arrays = False
        for w in effects.writes:
            if w in self._var_ids:
                self._cur.vars.pop(w, None)
            else:
                wipe_arrays = True
        if wipe_arrays:
            self._cur.wipe_arrays()


# ---------------------------------------------------------------------------
# The pass manager.
# ---------------------------------------------------------------------------


class _SimplifyPass:
    name = "simplify"

    def run(self, staged: StagedFunction, stats: OptStats):
        t = SimplifyTransformer()
        out = remirror_function(staged, t)
        stats.rewrites += t.rewrites
        return out, t.rewrites


class _FoldPass:
    name = "fold"

    def run(self, staged: StagedFunction, stats: OptStats):
        t = FoldTransformer()
        out = remirror_function(staged, t)
        stats.folds += t.folds
        return out, t.folds


class _GvnPass:
    """Global value numbering by re-mirroring (the builder's structural
    CSE sees the whole function), plus loop-invariant code motion."""

    name = "cse"

    def run(self, staged: StagedFunction, stats: OptStats):
        t = SafeTransformer()
        out = remirror_function(staged, t)
        hoisted = hoist_loop_invariants(out)
        stats.hoisted += hoisted
        return out, hoisted


class _ForwardPass:
    name = "forward"

    def run(self, staged: StagedFunction, stats: OptStats):
        t = ForwardTransformer()
        out = remirror_function(staged, t)
        stats.forwarded_loads += t.forwarded_loads
        stats.forwarded_reads += t.forwarded_reads
        return out, t.forwarded_loads + t.forwarded_reads


class _DcePass:
    """Dead-code elimination; runs last so every pass's garbage is swept
    in the same iteration.  ``schedule_block`` is the single source of
    liveness truth (shared with the unoptimized path), and its output is
    memoized onto the function so downstream ``scheduled()`` is free."""

    name = "dce"

    def run(self, staged: StagedFunction, stats: OptStats):
        scheduled = schedule_block(staged.body)
        staged.body = scheduled
        staged._scheduled_body = scheduled
        staged._graph_hash = None
        staged._exec_program = None
        return staged, 0


class PassManager:
    """Runs the level's pass list to a (bounded) fixpoint."""

    def __init__(self, level: int, max_iterations: int = MAX_ITERATIONS):
        self.level = level
        self.max_iterations = max_iterations
        self.passes: list = []
        if level >= 1:
            self.passes.append(_SimplifyPass())
        if level >= 2:
            self.passes.append(_FoldPass())
        if level >= 1:
            self.passes.append(_GvnPass())
        if level >= 2:
            self.passes.append(_ForwardPass())
        if level >= 1:
            self.passes.append(_DcePass())

    def run(self, staged: StagedFunction
            ) -> tuple[StagedFunction, OptStats]:
        stats = OptStats(level=self.level,
                         stms_before=count_statements(staged.body))
        current = staged
        for it in range(self.max_iterations):
            stats.iterations = it + 1
            changed = 0
            for p in self.passes:
                before = count_statements(current.body)
                current, activity = p.run(current, stats)
                after = count_statements(current.body)
                delta = max(0, before - after)
                stats.eliminated[p.name] = \
                    stats.eliminated.get(p.name, 0) + delta
                changed += activity + delta
            if changed == 0:
                break
        stats.stms_after = count_statements(current.body)
        current.opt_level = self.level
        return current, stats


def optimize_staged(staged: StagedFunction, level: int | None = None
                    ) -> tuple[StagedFunction, OptStats]:
    """Optimize ``staged`` at ``level`` (default: :func:`effective_level`).

    Returns ``(optimized function, stats)``.  The input function is
    never mutated — level 0 returns it unchanged; higher levels return a
    fresh mirror with ``opt_level`` stamped for cache keying.
    """
    lvl = effective_level(level)
    if lvl <= 0:
        n = count_statements(staged.body)
        return staged, OptStats(level=0, stms_before=n, stms_after=n)
    out, stats = PassManager(lvl).run(staged)
    obs.counter("opt.runs")
    for name, n in stats.eliminated.items():
        if n:
            obs.counter("opt.eliminated", n, **{"pass": name})
    if stats.folds:
        obs.counter("opt.folds", stats.folds)
    if stats.hoisted:
        obs.counter("opt.hoisted", stats.hoisted)
    if stats.forwarded_loads:
        obs.counter("opt.forwarded_loads", stats.forwarded_loads)
    if stats.forwarded_reads:
        obs.counter("opt.forwarded_reads", stats.forwarded_reads)
    return out, stats
