"""A Csmith-like random generator of valid, self-contained C programs.

The paper uses Csmith [42] to produce seed programs because (1) it is the de
facto generator for C compiler testing, (2) its programs exercise rich
pointer/array/integer behaviour, and (3) they are closed (no inputs).  This
module reproduces those properties for the C subset:

* every generated program type-checks, terminates and — in the default
  ``safe_math`` mode — is free of undefined behaviour;
* programs contain global scalars/arrays/pointers, a struct array, helper
  functions, loops, branches, heap buffers, pointer stores and a final
  checksum ``printf``, giving the UB generator abundant code constructs for
  every UB type of Table 1;
* with ``safe_math=False`` the arithmetic safe-wrappers are dropped — this
  is the *Csmith-NoSafe* baseline of Table 4, whose programs may contain
  arithmetic UB but never memory-safety UB.

Generation is deterministic in (config.seed, program index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.parser import parse_program
from repro.cdsl.printer import print_program
from repro.cdsl.sema import SemanticInfo, analyze
from repro.cdsl.source import UNKNOWN_LOCATION
from repro.seedgen.config import GeneratorConfig
from repro.telemetry import runtime as telemetry
from repro.utils.errors import GenerationError
from repro.utils.rng import RandomSource, derive_seed
from repro.vm.interpreter import run_program


#: A parsed unit and the semantic information of its analysis.
AnalyzedUnit = Tuple[ast.TranslationUnit, SemanticInfo]

#: The step budget of a seed's validation run.
VALIDATION_MAX_STEPS = 100_000


class _FrontendError(Exception):
    """An attempt's text failed to parse or analyze; the message is the
    frontend's."""


class Attempt:
    """One generated attempt, as a seed check judges it.

    ``unit`` is the builder's tree, which the check may take over and
    change in place: nothing else reads it.  ``source`` is its printed
    text, and :attr:`analyzed` the analyzed parse of that text, built only
    when a check first reads it.
    """

    __slots__ = ("unit", "source", "_analyzed")

    def __init__(self, unit: ast.TranslationUnit, source: str) -> None:
        self.unit = unit
        self.source = source
        self._analyzed: Optional[AnalyzedUnit] = None

    @property
    def analyzed(self) -> AnalyzedUnit:
        """The ``(unit, sema)`` pair of a fresh parse of :attr:`source`,
        built on first read.  A parse or analysis failure rejects the
        attempt as ``frontend: ...``, whatever check read it."""
        if self._analyzed is None:
            try:
                parsed = parse_program(self.source)
                self._analyzed = (parsed, analyze(parsed))
            except Exception as exc:
                raise _FrontendError(str(exc)) from exc
        return self._analyzed


def runs_to_completion(attempt: Attempt) -> str:
    """The default seed check: ``""`` when the attempt's analyzed parse
    runs to completion (status ``ok``) within :data:`VALIDATION_MAX_STEPS`
    steps, otherwise the reason it is not a valid seed."""
    result = run_program(*attempt.analyzed, max_steps=VALIDATION_MAX_STEPS)
    if result.status != "ok":
        return f"execution: {result.status} {result.error or ''}"
    return ""


@dataclass
class SeedProgram:
    """One generated seed: its source text plus generation metadata.

    ``analyzed`` is the ``(unit, sema)`` pair of the parse the accepting
    check read (:attr:`Attempt.analyzed`): the default check's validation
    run reads it, so the seed's consumers —
    :class:`~repro.core.ubgen.UBGenerator`, or
    :meth:`~repro.markers.MarkerPlanter.plant` given that unit — need not
    parse it again.  It is ``None`` when the seed was generated without
    validation or accepted by a check that read no parse, as the marker
    engine's does.  It is shared read-only: consumers work on a
    :func:`~repro.cdsl.visitor.fast_clone`.  It takes no part in equality
    or ``repr`` and is never persisted; whatever outlives the seed should
    keep its text, not this pair.
    """

    source: str
    index: int
    generator: str = "csmith"
    metadata: dict = field(default_factory=dict)
    analyzed: Optional[AnalyzedUnit] = field(default=None, compare=False,
                                             repr=False)


@dataclass
class _Var:
    name: str
    ctype: ct.CType
    kind: str                 # "global", "local", "param"
    length: int = 0           # for arrays
    is_heap: bool = False


class CsmithGenerator:
    """The Csmith-like generator of valid, UB-free seed programs.

    Deterministic: ``generate(index)`` is a pure function of
    ``(config.seed, index)``, so campaigns can shard seed generation across
    processes and still reproduce a serial run bit-for-bit.

    Example::

        seed = CsmithGenerator(GeneratorConfig(seed=42)).generate(0)
        print(seed.source)
    """

    def __init__(self, config: Optional[GeneratorConfig] = None) -> None:
        self.config = config or GeneratorConfig()

    # -- public API -------------------------------------------------------------

    def generate(self, index: int = 0, validate: bool = True,
                 accept: Optional[Callable[[Attempt], str]] = None
                 ) -> SeedProgram:
        """Generate the *index*-th seed program for this configuration.

        With *validate*, each attempt must pass a check on the
        :class:`Attempt` itself: *accept* when given,
        :func:`runs_to_completion` otherwise.  A check returns ``""`` to
        accept the attempt or the reason it rejects it.  It reads what it
        needs: the builder's tree, which it may take over, the printed
        text, or the analyzed parse, which is built only when first read;
        a parse or analysis failure rejects the attempt as
        ``frontend: ...``.  A consumer that runs the seed anyway passes
        its own run as *accept*, so the seed is not executed twice; its
        check must accept exactly the attempts the default check accepts.
        The returned seed carries the parse its check read, if any
        (:attr:`SeedProgram.analyzed`).  A rejected attempt adds to the
        ``seedgen.invalid_attempts`` counter and an index whose every
        attempt fails to ``seedgen.dropped_seeds`` before
        :class:`~repro.utils.errors.GenerationError` is raised.
        """
        check = accept if accept is not None else runs_to_completion
        for number in range(4):
            # The salt folds the retry number into the index (numbers < 4,
            # spacing 31 keeps the salts collision-free).
            rng = RandomSource(derive_seed(self.config.seed, index * 31 + number))
            builder = _ProgramBuilder(self.config, rng)
            unit = builder.build()
            source = print_program(unit)
            if not validate:
                return SeedProgram(source, index, metadata={"attempt": number})
            attempt = Attempt(unit, source)
            try:
                last_error = check(attempt)
            except _FrontendError as exc:
                last_error = f"frontend: {exc}"
            if not last_error:
                return SeedProgram(source, index, metadata={"attempt": number},
                                   analyzed=attempt._analyzed)
            telemetry.inc("seedgen.invalid_attempts")
        telemetry.inc("seedgen.dropped_seeds")
        raise GenerationError(f"could not generate a valid seed for index "
                              f"{index}: {last_error}")

    def generate_many(self, count: int, start_index: int = 0,
                      validate: bool = True) -> List[SeedProgram]:
        return [self.generate(start_index + i, validate=validate)
                for i in range(count)]


class CsmithNoSafeGenerator(CsmithGenerator):
    """The Csmith-NoSafe baseline: identical generator, wrappers disabled."""

    def __init__(self, config: Optional[GeneratorConfig] = None) -> None:
        seed = config.seed if config is not None else 0
        super().__init__(GeneratorConfig(seed=seed, safe_math=False))

    def generate(self, index: int = 0, validate: bool = True,
                 accept: Optional[Callable[[Attempt], str]] = None
                 ) -> SeedProgram:
        # NoSafe programs may contain arithmetic UB; they must still parse
        # and terminate, so validation keeps running but ignores UB.
        seed = super().generate(index, validate=validate, accept=accept)
        seed.generator = "csmith-nosafe"
        return seed


# ---------------------------------------------------------------------------
# Program builder
# ---------------------------------------------------------------------------

_SCALAR_TYPES = (ct.INT, ct.UINT, ct.SHORT, ct.LONG, ct.UCHAR)

# Program shape: each ``(low, high)`` pair is an inclusive range drawn per
# program.  Every program also gets a struct array and a heap buffer.
NUM_GLOBAL_SCALARS = (3, 6)
NUM_GLOBAL_ARRAYS = (1, 3)
NUM_GLOBAL_POINTERS = (1, 2)
NUM_HELPER_FUNCTIONS = (1, 2)

# Statement / expression limits.
MAIN_STATEMENTS = (6, 14)
FUNCTION_STATEMENTS = (3, 7)
MAX_EXPR_DEPTH = 3
MAX_BLOCK_DEPTH = 2
LOOP_BOUND_RANGE = (2, 6)
ARRAY_LENGTH_RANGE = (4, 10)

#: Statement kind weights; the generator draws the kinds in this order.
STMT_WEIGHTS = {
    "assign": 5,
    "array_store": 4,
    "pointer_store": 3,
    "if": 3,
    "for": 3,
    "compound_assign": 2,
    "call": 2,
    "block_local": 2,
}


def _lit(value: int) -> ast.IntLiteral:
    return ast.IntLiteral(value, loc=UNKNOWN_LOCATION)


def _ident(name: str) -> ast.Identifier:
    return ast.Identifier(name)


class _ProgramBuilder:
    def __init__(self, config: GeneratorConfig, rng: RandomSource) -> None:
        self.config = config
        self.rng = rng
        self.globals: List[_Var] = []
        self.arrays: List[_Var] = []
        self.pointers: List[_Var] = []
        self.struct_array: Optional[_Var] = None
        self.struct_type: Optional[ct.StructType] = None
        self.heap_var: Optional[_Var] = None
        self.functions: List[ast.FunctionDecl] = []
        self.helper_signatures: List[tuple] = []
        self._name_counter = 0
        self._loop_counter = 0

    # -- naming -----------------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._name_counter += 1
        return f"{prefix}_{self._name_counter}"

    # -- top level ---------------------------------------------------------------

    def build(self) -> ast.TranslationUnit:
        decls: List[ast.Node] = []
        decls.extend(self._build_struct())
        decls.extend(self._build_global_scalars())
        decls.extend(self._build_global_arrays())
        decls.extend(self._build_global_pointers())
        decls.extend(self._build_helper_functions())
        decls.append(self._build_main())
        return ast.TranslationUnit(decls)

    def _build_struct(self) -> List[ast.Node]:
        tag = "s0"
        fields = [("f0", ct.INT), ("f1", ct.INT)]
        self.struct_type = ct.StructType.create(tag, fields)
        length = self.rng.randint(2, 4)
        var = _Var(self._fresh("g_st"), ct.ArrayType(self.struct_type, length),
                   "global", length=length)
        self.struct_array = var
        return [ast.StructDef(self.struct_type),
                ast.DeclStmt([ast.VarDecl(var.name, var.ctype, None,
                                          is_global=True)])]

    def _build_global_scalars(self) -> List[ast.Node]:
        count = self.rng.randint(*NUM_GLOBAL_SCALARS)
        out: List[ast.Node] = []
        for _ in range(count):
            ctype = self.rng.choice(_SCALAR_TYPES)
            name = self._fresh("g")
            init = _lit(self.rng.randint(0, 60))
            var = _Var(name, ctype, "global")
            self.globals.append(var)
            out.append(ast.DeclStmt([ast.VarDecl(name, ctype, init,
                                                 is_global=True)]))
        return out

    def _build_global_arrays(self) -> List[ast.Node]:
        count = self.rng.randint(*NUM_GLOBAL_ARRAYS)
        out: List[ast.Node] = []
        for _ in range(count):
            elem = self.rng.choice((ct.INT, ct.INT, ct.SHORT, ct.UINT))
            length = self.rng.randint(*ARRAY_LENGTH_RANGE)
            name = self._fresh("g_arr")
            items = [_lit(self.rng.randint(0, 9)) for _ in range(length)]
            var = _Var(name, ct.ArrayType(elem, length), "global", length=length)
            self.arrays.append(var)
            out.append(ast.DeclStmt([ast.VarDecl(name, var.ctype,
                                                 ast.InitList(items),
                                                 is_global=True)]))
        return out

    def _build_global_pointers(self) -> List[ast.Node]:
        count = self.rng.randint(*NUM_GLOBAL_POINTERS)
        out: List[ast.Node] = []
        int_scalars = [v for v in self.globals if v.ctype == ct.INT]
        int_arrays = [v for v in self.arrays
                      if isinstance(v.ctype, ct.ArrayType) and v.ctype.element == ct.INT]
        for _ in range(count):
            name = self._fresh("g_p")
            if int_arrays and self.rng.flip(0.5):
                target = self.rng.choice(int_arrays)
                init: ast.Expr = _ident(target.name)
            elif int_scalars:
                target = self.rng.choice(int_scalars)
                init = ast.AddressOf(_ident(target.name))
            elif int_arrays:
                target = self.rng.choice(int_arrays)
                init = _ident(target.name)
            else:
                continue
            var = _Var(name, ct.PointerType(ct.INT), "global")
            self.pointers.append(var)
            out.append(ast.DeclStmt([ast.VarDecl(name, var.ctype, init,
                                                 is_global=True)]))
        # Optionally a pointer to the struct array, enabling p->field code.
        if self.struct_array is not None and self.rng.flip(0.7):
            name = self._fresh("g_sp")
            var = _Var(name, ct.PointerType(self.struct_type), "global")
            self.pointers.append(var)
            out.append(ast.DeclStmt([ast.VarDecl(
                name, var.ctype, _ident(self.struct_array.name), is_global=True)]))
        return out

    # -- helper functions --------------------------------------------------------

    def _build_helper_functions(self) -> List[ast.Node]:
        count = self.rng.randint(*NUM_HELPER_FUNCTIONS)
        out: List[ast.Node] = []
        for _ in range(count):
            name = self._fresh("func")
            params = [ast.ParamDecl("p0", ct.INT), ast.ParamDecl("p1", ct.UINT)]
            param_vars = [_Var("p0", ct.INT, "param"), _Var("p1", ct.UINT, "param")]
            scope = _Scope(self, param_vars)
            body_stmts: List[ast.Stmt] = []
            local_count = self.rng.randint(1, 2)
            for _ in range(local_count):
                body_stmts.append(scope.declare_local())
            stmt_count = self.rng.randint(*FUNCTION_STATEMENTS)
            for _ in range(stmt_count):
                body_stmts.append(scope.statement(depth=0))
            body_stmts.append(ast.ReturnStmt(scope.int_expr(1)))
            fn = ast.FunctionDecl(name, ct.INT, params,
                                  ast.CompoundStmt(body_stmts))
            self.functions.append(fn)
            self.helper_signatures.append((name, 2))
            out.append(fn)
        return out

    # -- main --------------------------------------------------------------------

    def _build_main(self) -> ast.FunctionDecl:
        scope = _Scope(self, [])
        stmts: List[ast.Stmt] = []
        for _ in range(self.rng.randint(2, 4)):
            stmts.append(scope.declare_local())
        stmts.append(scope.declare_crc())
        stmts.extend(scope.declare_heap_buffer())
        count = self.rng.randint(*MAIN_STATEMENTS)
        for _ in range(count):
            stmts.append(scope.statement(depth=0))
        stmts.extend(scope.checksum_statements())
        if self.heap_var is not None:
            stmts.append(ast.ExprStmt(ast.Call("free", [_ident(self.heap_var.name)])))
        stmts.append(ast.ReturnStmt(_lit(0)))
        return ast.FunctionDecl("main", ct.INT, [], ast.CompoundStmt(stmts))


class _Scope:
    """Expression/statement generation within one function."""

    def __init__(self, builder: _ProgramBuilder, initial_vars: List[_Var]) -> None:
        self.b = builder
        self.rng = builder.rng
        self.config = builder.config
        self.locals: List[_Var] = list(initial_vars)
        self.crc_var: Optional[_Var] = None

    # -- declarations -------------------------------------------------------------

    def declare_local(self) -> ast.Stmt:
        ctype = self.rng.choice((ct.INT, ct.INT, ct.UINT, ct.LONG, ct.SHORT))
        name = self.b._fresh("l")
        init = _lit(self.rng.randint(0, 50))
        self.locals.append(_Var(name, ctype, "local"))
        return ast.DeclStmt([ast.VarDecl(name, ctype, init)])

    def declare_crc(self) -> ast.Stmt:
        name = self.b._fresh("crc")
        self.crc_var = _Var(name, ct.UINT, "local")
        self.locals.append(self.crc_var)
        return ast.DeclStmt([ast.VarDecl(name, ct.UINT, _lit(0))])

    def declare_heap_buffer(self) -> List[ast.Stmt]:
        name = self.b._fresh("hp")
        length = self.rng.randint(4, 8)
        var = _Var(name, ct.PointerType(ct.INT), "local", length=length,
                   is_heap=True)
        self.b.heap_var = var
        self.locals.append(var)
        decl = ast.DeclStmt([ast.VarDecl(
            name, var.ctype,
            ast.Call("malloc", [_lit(length * 4)]))])
        loop_var = self.b._fresh("i")
        fill = ast.ForStmt(
            ast.DeclStmt([ast.VarDecl(loop_var, ct.INT, _lit(0))]),
            ast.BinaryOp("<", _ident(loop_var), _lit(length)),
            ast.IncDec("++", _ident(loop_var), is_prefix=False),
            ast.CompoundStmt([
                ast.ExprStmt(ast.Assignment(
                    "=",
                    ast.ArraySubscript(_ident(name), _ident(loop_var)),
                    ast.BinaryOp("+", _ident(loop_var), _lit(self.rng.randint(1, 9))))),
            ]))
        return [decl, fill]

    # -- variable pools -------------------------------------------------------------

    def _int_scalars(self) -> List[_Var]:
        pool = [v for v in self.locals if isinstance(v.ctype, ct.IntType)]
        pool.extend(v for v in self.b.globals if isinstance(v.ctype, ct.IntType))
        return pool

    def _writable_scalars(self) -> List[_Var]:
        return [v for v in self._int_scalars() if v.kind != "param"]

    def _arrays(self) -> List[_Var]:
        pool = list(self.b.arrays)
        if self.b.heap_var is not None:
            pool.append(self.b.heap_var)
        return pool

    def _int_pointers(self) -> List[_Var]:
        return [v for v in self.b.pointers
                if isinstance(v.ctype, ct.PointerType) and v.ctype.pointee == ct.INT]

    # -- expressions -----------------------------------------------------------------

    def safe_index(self, length: int) -> ast.Expr:
        """An index expression guaranteed to be within [0, length)."""
        choice = self.rng.randint(0, 2)
        if choice == 0 or not self._int_scalars():
            return _lit(self.rng.randint(0, max(0, length - 1)))
        var = self.rng.choice(self._int_scalars())
        # ((unsigned int)v) % length is always in range.
        modded = ast.BinaryOp("%", ast.Cast(ct.UINT, _ident(var.name)), _lit(length))
        return modded

    def int_expr(self, depth: int) -> ast.Expr:
        if depth >= MAX_EXPR_DEPTH or self.rng.flip(0.35):
            return self._leaf_expr()
        return self._node_expr(depth)

    def _leaf_expr(self) -> ast.Expr:
        choices = ["literal", "scalar", "array", "pointer", "struct"]
        weights = [2, 4, 2, 2, 1]
        kind = self.rng.weighted_choice(choices, weights)
        if kind == "scalar" and self._int_scalars():
            return _ident(self.rng.choice(self._int_scalars()).name)
        if kind == "array" and self._arrays():
            arr = self.rng.choice(self._arrays())
            return ast.ArraySubscript(_ident(arr.name), self.safe_index(arr.length))
        if kind == "pointer" and self._int_pointers():
            ptr = self.rng.choice(self._int_pointers())
            return ast.Deref(_ident(ptr.name))
        if kind == "struct" and self.b.struct_array is not None:
            arr = self.b.struct_array
            sub = ast.ArraySubscript(_ident(arr.name), self.safe_index(arr.length))
            field = self.rng.choice(["f0", "f1"])
            return ast.MemberAccess(sub, field, arrow=False)
        high = 100_000 if not self.config.safe_math else 100
        return _lit(self.rng.randint(0, high))

    def _node_expr(self, depth: int) -> ast.Expr:
        kind = self.rng.weighted_choice(
            ["arith", "bitwise", "shift", "div", "compare", "call", "cast"],
            [5, 3, 2, 2, 2, 1, 1])
        lhs = self.int_expr(depth + 1)
        rhs = self.int_expr(depth + 1)
        if kind == "arith":
            op = self.rng.choice(["+", "-", "*"])
            return self._safe_arith(op, lhs, rhs)
        if kind == "bitwise":
            op = self.rng.choice(["&", "|", "^"])
            return ast.BinaryOp(op, lhs, rhs)
        if kind == "shift":
            op = self.rng.choice(["<<", ">>"])
            return self._safe_shift(op, lhs, rhs)
        if kind == "div":
            op = self.rng.choice(["/", "%"])
            return self._safe_div(op, lhs, rhs)
        if kind == "compare":
            op = self.rng.choice(["<", ">", "<=", ">=", "==", "!="])
            return ast.BinaryOp(op, lhs, rhs)
        if kind == "call" and self.b.helper_signatures:
            name, _arity = self.rng.choice(self.b.helper_signatures)
            return ast.Call(name, [lhs, ast.Cast(ct.UINT, rhs)])
        target = self.rng.choice((ct.INT, ct.UINT, ct.SHORT, ct.LONG))
        return ast.Cast(target, lhs)

    # -- safe wrappers (Csmith's safe math) ---------------------------------------------

    def _safe_arith(self, op: str, lhs: ast.Expr, rhs: ast.Expr) -> ast.Expr:
        if not self.config.safe_math:
            return ast.BinaryOp(op, lhs, rhs)
        # Widen to long so the operation cannot overflow, then truncate;
        # the truncation is implementation-defined, not undefined.
        wide = ast.BinaryOp(op, ast.Cast(ct.LONG, lhs), ast.Cast(ct.LONG, rhs))
        return ast.Cast(ct.INT, wide)

    def _safe_shift(self, op: str, lhs: ast.Expr, rhs: ast.Expr) -> ast.Expr:
        if not self.config.safe_math:
            return ast.BinaryOp(op, lhs, rhs)
        masked = ast.BinaryOp("&", rhs, _lit(31))
        return ast.BinaryOp(op, ast.Cast(ct.UINT, lhs), masked)

    def _safe_div(self, op: str, lhs: ast.Expr, rhs: ast.Expr) -> ast.Expr:
        if not self.config.safe_math:
            return ast.BinaryOp(op, lhs, rhs)
        # Csmith's wrapper: (y == 0 ? 1 : x / y).  Note the division itself
        # is still present in the live code region, which is what lets the
        # UB generator later force its divisor to zero (paper Table 1).
        # The guard gets its own copy of the divisor so the AST stays a tree
        # (sharing nodes would confuse identity-based mutation later).
        from repro.cdsl.visitor import clone_fresh
        guard = ast.BinaryOp("==", clone_fresh(rhs), _lit(0))
        division = ast.BinaryOp(op, lhs, ast.Cast(ct.INT, rhs))
        return ast.Conditional(guard, _lit(1), division)

    def condition(self) -> ast.Expr:
        if self.rng.flip(0.3) and self._int_scalars():
            # A bare scalar condition: the code construct MSan-targeted UB
            # programs are built from (Table 1, "if (x)").
            return _ident(self.rng.choice(self._int_scalars()).name)
        op = self.rng.choice(["<", ">", "<=", ">=", "==", "!="])
        return ast.BinaryOp(op, self.int_expr(2), self.int_expr(2))

    # -- statements ---------------------------------------------------------------------

    def statement(self, depth: int) -> ast.Stmt:
        weights = STMT_WEIGHTS
        kinds = list(weights)
        if depth >= MAX_BLOCK_DEPTH:
            kinds = [k for k in kinds if k not in ("if", "for", "block_local")]
        kind = self.rng.weighted_choice(kinds, [weights[k] for k in kinds])
        if kind == "assign":
            return self._assign_stmt()
        if kind == "array_store":
            return self._array_store_stmt()
        if kind == "pointer_store":
            return self._pointer_store_stmt()
        if kind == "compound_assign":
            return self._compound_assign_stmt()
        if kind == "call":
            return self._call_stmt()
        if kind == "if":
            return self._if_stmt(depth)
        if kind == "for":
            return self._for_stmt(depth)
        if kind == "block_local":
            return self._block_local_stmt(depth)
        return self._assign_stmt()

    def _assign_stmt(self) -> ast.Stmt:
        pool = self._writable_scalars()
        if not pool:
            return ast.EmptyStmt()
        var = self.rng.choice(pool)
        return ast.ExprStmt(ast.Assignment("=", _ident(var.name), self.int_expr(0)))

    def _array_store_stmt(self) -> ast.Stmt:
        arrays = self._arrays()
        if self.b.struct_array is not None and self.rng.flip(0.25):
            arr = self.b.struct_array
            target = ast.MemberAccess(
                ast.ArraySubscript(_ident(arr.name), self.safe_index(arr.length)),
                self.rng.choice(["f0", "f1"]), arrow=False)
            return ast.ExprStmt(ast.Assignment("=", target, self.int_expr(1)))
        if not arrays:
            return self._assign_stmt()
        arr = self.rng.choice(arrays)
        target = ast.ArraySubscript(_ident(arr.name), self.safe_index(arr.length))
        return ast.ExprStmt(ast.Assignment("=", target, self.int_expr(1)))

    def _pointer_store_stmt(self) -> ast.Stmt:
        pointers = self._int_pointers()
        if not pointers:
            return self._assign_stmt()
        ptr = self.rng.choice(pointers)
        target = ast.Deref(_ident(ptr.name))
        return ast.ExprStmt(ast.Assignment("=", target, self.int_expr(1)))

    def _compound_assign_stmt(self) -> ast.Stmt:
        pool = self._writable_scalars()
        if not pool:
            return ast.EmptyStmt()
        var = self.rng.choice(pool)
        safe_ops = ["^=", "|=", "&="]
        unsafe_ops = safe_ops + ["+=", "-=", "*="]
        op = self.rng.choice(safe_ops if self.config.safe_math else unsafe_ops)
        return ast.ExprStmt(ast.Assignment(op, _ident(var.name), self.int_expr(1)))

    def _call_stmt(self) -> ast.Stmt:
        if not self.b.helper_signatures:
            return self._assign_stmt()
        name, _arity = self.rng.choice(self.b.helper_signatures)
        call = ast.Call(name, [self.int_expr(1), ast.Cast(ct.UINT, self.int_expr(1))])
        pool = self._writable_scalars()
        if pool and self.rng.flip(0.8):
            var = self.rng.choice(pool)
            return ast.ExprStmt(ast.Assignment("=", _ident(var.name), call))
        return ast.ExprStmt(call)

    def _if_stmt(self, depth: int) -> ast.Stmt:
        then_stmts = [self.statement(depth + 1)
                      for _ in range(self.rng.randint(1, 2))]
        otherwise = None
        if self.rng.flip(0.5):
            otherwise = ast.CompoundStmt([self.statement(depth + 1)])
        return ast.IfStmt(self.condition(), ast.CompoundStmt(then_stmts), otherwise)

    def _for_stmt(self, depth: int) -> ast.Stmt:
        loop_var = self.b._fresh("i")
        bound = self.rng.randint(*LOOP_BOUND_RANGE)
        body_stmts = [self.statement(depth + 1)
                      for _ in range(self.rng.randint(1, 2))]
        # Accumulate something into the crc so the loop is never dead code.
        if self.crc_var is not None:
            body_stmts.append(ast.ExprStmt(ast.Assignment(
                "^=", _ident(self.crc_var.name),
                ast.Cast(ct.UINT, _ident(loop_var)))))
        return ast.ForStmt(
            ast.DeclStmt([ast.VarDecl(loop_var, ct.INT, _lit(0))]),
            ast.BinaryOp("<", _ident(loop_var), _lit(bound)),
            ast.IncDec("++", _ident(loop_var), is_prefix=False),
            ast.CompoundStmt(body_stmts))

    def _block_local_stmt(self, depth: int) -> ast.Stmt:
        """A nested block declaring a short-lived local (use-after-scope fodder)."""
        name = self.b._fresh("t")
        inner_decl = ast.DeclStmt([ast.VarDecl(name, ct.INT, self.int_expr(1))])
        self.locals.append(_Var(name, ct.INT, "local"))
        use = self._use_of(name)
        block = ast.CompoundStmt([inner_decl, use])
        self.locals.pop()
        return block

    def _use_of(self, name: str) -> ast.Stmt:
        pool = self._writable_scalars()
        if not pool:
            return ast.ExprStmt(ast.Assignment("=", _ident(name), _lit(1)))
        var = self.rng.choice(pool)
        return ast.ExprStmt(ast.Assignment(
            "=", _ident(var.name),
            ast.BinaryOp("^", _ident(name), self.int_expr(2))))

    # -- checksum -----------------------------------------------------------------------

    def checksum_statements(self) -> List[ast.Stmt]:
        stmts: List[ast.Stmt] = []
        crc = self.crc_var
        if crc is None:
            return stmts
        for var in self.b.globals:
            stmts.append(ast.ExprStmt(ast.Assignment(
                "^=", _ident(crc.name), ast.Cast(ct.UINT, _ident(var.name)))))
        for arr in self.b.arrays:
            stmts.append(ast.ExprStmt(ast.Assignment(
                "^=", _ident(crc.name),
                ast.Cast(ct.UINT, ast.ArraySubscript(_ident(arr.name), _lit(0))))))
        for var in self.locals:
            if isinstance(var.ctype, ct.IntType) and var is not crc:
                stmts.append(ast.ExprStmt(ast.Assignment(
                    "^=", _ident(crc.name), ast.Cast(ct.UINT, _ident(var.name)))))
        stmts.append(ast.ExprStmt(ast.Call(
            "printf", [ast.StringLiteral("checksum = %u\\n"), _ident(crc.name)])))
        return stmts
