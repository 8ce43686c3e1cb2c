"""Boolean functions over named variables, stored as explicit truth tables.

A function's scope is a `VariableSet`, a tuple of distinct variable names;
its truth table is a boolean numpy array of shape ``(2,) * len(scope)``
whose axis ``i`` carries variable ``scope[i]`` (index 0 = False, index 1 =
True).  Valuations enumerate lexicographically with False before True, which
equals C-order iteration of the table.

Binary operations align scopes by cylindrical extension to the ordered union
of both scopes, so functions over different variable sets combine freely.
Equality is semantic over identical scopes; use :meth:`BoolFunc.equivalent`
to compare functions whose scopes differ.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "MAX_TABLE_CELLS",
    "TableTooLargeError",
    "check_table_size",
    "VariableSet",
    "Valuation",
    "BoolFunc",
    "check_name",
    "all_valuations",
    "valuation_ranks",
    "valuation_bits",
    "conjoin",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

MAX_TABLE_CELLS = 1 << 30
"""Largest truth table, in cells of one byte each, that any operation builds."""


class TableTooLargeError(ValueError):
    """A truth table would exceed `MAX_TABLE_CELLS`; raised before allocating."""

    def __init__(self, variables: int):
        self.variables = variables
        cells = f"2^{variables}" + (f" = {1 << variables}" if variables < 64 else "")
        super().__init__(
            f"a truth table over {variables} variables needs {cells} cells, "
            f"above the limit of {MAX_TABLE_CELLS} cells"
        )


def check_table_size(variables: int) -> None:
    """Raise `TableTooLargeError` unless a table over `variables` variables fits."""
    if variables >= MAX_TABLE_CELLS.bit_length():
        raise TableTooLargeError(variables)


def check_name(name: str) -> str:
    """Return `name` if it is an identifier other than the constants true and false."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(f"invalid variable name: {name!r}")
    if name in ("true", "false"):
        raise ValueError(f"invalid variable name: {name!r} is the constant {name} in expressions")
    return name


class VariableSet(tuple):
    """A scope: a tuple of distinct variable names.

    The order is canonical: it fixes the axis order of truth tables and the
    enumeration order of valuations.  Being a tuple, a scope equals and
    hashes like the plain tuple of its names, and `in` and `index` scan it.
    """

    __slots__ = ()

    def __new__(cls, names: Iterable[str] = ()) -> "VariableSet":
        names = tuple(names)
        for n in names:
            check_name(n)
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate variable names: {', '.join(dupes)}")
        return tuple.__new__(cls, names)

    @classmethod
    def _derived(cls, names: tuple[str, ...]) -> "VariableSet":
        """A scope over `names`, distinct names already checked (a subset or
        a union of checked scopes), built without checking them again."""
        return tuple.__new__(cls, names)

    def index(self, name: str) -> int:  # type: ignore[override]
        try:
            return tuple.index(self, name)
        except ValueError:
            raise ValueError(f"{name!r} is not in scope {tuple(self)}") from None

    def union(self, other: Iterable[str]) -> "VariableSet":
        """Self's variables followed by the new ones of `other`, in order."""
        extra = tuple(n for n in other if n not in self)
        if isinstance(other, VariableSet):
            return VariableSet._derived(self + extra)
        return VariableSet(self + extra)

    def without(self, names: Iterable[str]) -> "VariableSet":
        drop = set(names)
        return VariableSet._derived(tuple(n for n in self if n not in drop))

    def restricted_to(self, names: Iterable[str]) -> "VariableSet":
        """Subset of self (preserving self's order) that also occurs in `names`."""
        keep = set(names)
        return VariableSet._derived(tuple(n for n in self if n in keep))

    def __repr__(self) -> str:
        return f"VariableSet({list(self)!r})"


@dataclass(frozen=True)
class Valuation:
    """One boolean value per variable of a scope, in scope order."""

    scope: VariableSet
    bits: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != len(self.scope):
            raise ValueError(
                f"valuation has {len(self.bits)} bits for {len(self.scope)} variables"
            )
        object.__setattr__(self, "bits", tuple(bool(b) for b in self.bits))

    @classmethod
    def from_index(cls, scope: VariableSet, index: int) -> "Valuation":
        return cls(scope, tuple(valuation_bits(index, len(scope)).tolist()))

    def index(self) -> int:
        """Lexicographic rank of this valuation (False < True)."""
        return int(valuation_ranks(self.bits))

    def __getitem__(self, name: str) -> bool:
        return self.bits[self.scope.index(name)]

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(self.scope, self.bits))

    def __str__(self) -> str:
        if not self.bits:
            return "()"
        return ", ".join(f"{n}={'T' if b else 'F'}" for n, b in zip(self.scope, self.bits))


def all_valuations(scope: VariableSet) -> Iterator[Valuation]:
    """All valuations of `scope` in canonical (lexicographic) order."""
    for index in range(1 << len(scope)):
        yield Valuation.from_index(scope, index)


def valuation_ranks(bits: Iterable) -> np.ndarray:
    """Lexicographic rank of each valuation, from one 0/1 array per variable
    in scope order (the first variable is the most significant bit); the
    arrays broadcast against each other.  No arrays give rank 0."""
    rank = np.int64(0)
    for b in bits:
        rank = np.bitwise_or(rank << 1, b, dtype=np.int64)
    return rank


def valuation_bits(ranks, n: int) -> np.ndarray:
    """Inverse of `valuation_ranks`: bool array of shape ``(n, *ranks.shape)``
    whose row ``i`` holds bit ``i`` of each rank, most significant first."""
    ranks = np.asarray(ranks, dtype=np.int64)
    bits = np.empty((n,) + ranks.shape, dtype=bool)
    for i in range(n):
        bits[i] = (ranks >> (n - 1 - i)) & 1
    return bits


def _as_scope(scope: Iterable[str] | VariableSet) -> VariableSet:
    return scope if isinstance(scope, VariableSet) else VariableSet(scope)


def _aligned_table(f: "BoolFunc", scope: VariableSet) -> np.ndarray:
    """View of f's table on the axes of `scope` (a superset of f.scope), with
    a size-1 axis for each variable f does not read, so that it broadcasts
    against any table over `scope`."""
    if f.scope == scope:
        return f.table
    check_table_size(len(scope))
    k, n = len(f.scope), len(scope)
    if scope[:k] == f.scope:  # f's variables lead, in order: a free reshape
        return f.table.reshape(f.table.shape + (1,) * (n - k))
    if scope[n - k:] == f.scope:  # or trail
        return f.table.reshape((1,) * (n - k) + f.table.shape)
    pos = [scope.index(v) for v in f.scope]
    t = f.table.transpose(sorted(range(len(pos)), key=pos.__getitem__))
    shape = [1] * n
    for p in pos:
        shape[p] = 2
    return t.reshape(shape)


def _combined(op, scope: VariableSet, f: "BoolFunc", g: "BoolFunc") -> "BoolFunc":
    """``op(f, g)`` over `scope`, a superset of both scopes in any order: one
    ufunc call on their aligned tables, which numpy broadcasts onto the
    result's axes."""
    return BoolFunc._wrap(scope, op(_aligned_table(f, scope), _aligned_table(g, scope),
                                    out=np.empty((2,) * len(scope), dtype=bool)))


# Unsigned integer per width in bytes: contiguous bool cells read as one word.
_WORDS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _any_over(table: np.ndarray, drop: Sequence[bool]) -> np.ndarray:
    """OR a C-contiguous table over the axes flagged in `drop`.

    Adjacent axes of one kind merge into one run by a free reshape.  A
    trailing dropped run is ORed away up to eight cells at a time by testing
    machine words of its contiguous bytes against zero.  The trailing kept
    run is then read as words too, so the one reduction over the remaining
    dropped runs ORs whole words, not single cells.  Returns the kept cells
    in scope order, shaped by their runs.
    """
    sizes: list[int] = []
    dropped: list[bool] = []
    for d in drop:
        if dropped and dropped[-1] == d:
            sizes[-1] *= 2
        else:
            sizes.append(2)
            dropped.append(d)
    t = table.reshape(sizes)
    while dropped and dropped[-1]:
        width = min(sizes[-1], 8)
        t = t.view(_WORDS[width]).astype(bool)
        sizes[-1] //= width
        if sizes[-1] == 1:
            sizes.pop()
            dropped.pop()
            t = t.reshape(sizes)
    axes = tuple(i for i, d in enumerate(dropped) if d)
    if not axes:
        return t
    word = _WORDS[min(sizes[-1], 8)]
    return np.bitwise_or.reduce(t.view(word), axis=axes).view(bool)


class BoolFunc:
    """Immutable boolean function: an ordered scope plus a full truth table."""

    __slots__ = ("scope", "table")

    scope: VariableSet
    table: np.ndarray

    def __init__(self, scope: Iterable[str] | VariableSet, table) -> None:
        scope = _as_scope(scope)
        arr = np.asarray(table, dtype=bool)
        want = (2,) * len(scope)
        if arr.shape != want:
            if arr.size == 1 << len(scope):
                arr = arr.reshape(want)
            else:
                raise ValueError(
                    f"table of size {arr.size} does not fit scope of {len(scope)} variables"
                )
        arr = arr.copy()
        arr.setflags(write=False)
        _set_scope(self, scope)
        _set_table(self, arr)

    @classmethod
    def _wrap(cls, scope: VariableSet, table: np.ndarray) -> "BoolFunc":
        """Adopt a table no caller can write to, such as an operator's fresh
        result or another function's table, without copying it."""
        arr = np.ascontiguousarray(table, dtype=bool)
        if arr.ndim != len(scope):
            arr = arr.reshape((2,) * len(scope))
        arr.setflags(write=False)
        f = object.__new__(cls)
        _set_scope(f, scope)
        _set_table(f, arr)
        return f

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("BoolFunc is immutable")

    def __reduce__(self):
        """Pickle and copy through the constructor: the default restores
        the slots through `__setattr__`, which refuses."""
        return BoolFunc, (self.scope, self.table)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, scope: Iterable[str] | VariableSet, value: bool) -> "BoolFunc":
        scope = _as_scope(scope)
        check_table_size(len(scope))
        fill = np.ones if value else np.zeros
        return cls._wrap(scope, fill((2,) * len(scope), dtype=bool))

    @classmethod
    def var(cls, name: str) -> "BoolFunc":
        """The positive literal `name` over the single-variable scope {name}."""
        return cls._wrap(VariableSet([name]), np.array([False, True]))

    @classmethod
    def exactly(cls, valuation: Valuation) -> "BoolFunc":
        """The minterm satisfied only by `valuation`."""
        return cls.cube(valuation.scope, valuation.as_dict())

    @classmethod
    def cube(cls, scope: Iterable[str] | VariableSet, literals: Mapping[str, bool]) -> "BoolFunc":
        """The conjunction of the literals (variable -> required value), over
        `scope`: one slice assignment, free in the variables not fixed."""
        scope = _as_scope(scope)
        stray = [v for v in literals if v not in scope]
        if stray:
            raise ValueError(f"literals mention variables outside the scope: {stray}")
        check_table_size(len(scope))
        table = np.zeros((2,) * len(scope), dtype=bool)
        table[tuple(int(literals[v]) if v in literals else slice(None) for v in scope)] = True
        return cls._wrap(scope, table)

    # -- basic queries -----------------------------------------------------

    @property
    def is_true(self) -> bool:
        return bool(self.table.all())

    @property
    def is_false(self) -> bool:
        return not bool(self.table.any())

    def count_satisfying(self) -> int:
        return int(np.count_nonzero(self.table))

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate at an assignment covering (at least) the scope."""
        idx = tuple(int(bool(assignment[v])) for v in self.scope)
        return bool(self.table[idx])

    def evaluate_many(self, assignments: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorized evaluation; each scope variable maps to a 0/1 array."""
        if not self.scope:
            probe = next(iter(assignments.values()), None)
            shape = () if probe is None else np.shape(probe)
            return np.broadcast_to(self.table, shape).copy()
        return self.table.reshape(-1)[valuation_ranks(assignments[v] for v in self.scope)]

    def satisfying_valuations(self) -> list[Valuation]:
        """The satisfying set, in canonical (lexicographic) order."""
        hits = np.argwhere(self.table)
        return [Valuation(self.scope, tuple(bool(b) for b in row)) for row in hits]

    # -- operations --------------------------------------------------------

    def _binary(self, other: "BoolFunc", op) -> "BoolFunc":
        if not isinstance(other, BoolFunc):
            return NotImplemented
        return _combined(op, self.scope.union(other.scope), self, other)

    def __invert__(self) -> "BoolFunc":
        return BoolFunc._wrap(self.scope, np.logical_not(self.table))

    def __and__(self, other: "BoolFunc") -> "BoolFunc":
        return self._binary(other, np.logical_and)

    def __or__(self, other: "BoolFunc") -> "BoolFunc":
        return self._binary(other, np.logical_or)

    def __xor__(self, other: "BoolFunc") -> "BoolFunc":
        return self._binary(other, np.logical_xor)

    def implies(self, other: "BoolFunc") -> "BoolFunc":
        return ~self | other

    def iff(self, other: "BoolFunc") -> "BoolFunc":
        return ~(self ^ other)

    def extend(self, scope: Iterable[str] | VariableSet) -> "BoolFunc":
        """Cylindrical extension to a superset scope; `self` when the scope
        is its own."""
        scope = _as_scope(scope)
        if scope == self.scope:
            return self
        missing = [v for v in self.scope if v not in scope]
        if missing:
            raise ValueError(f"extension scope is missing {missing}")
        return BoolFunc._wrap(scope, np.broadcast_to(_aligned_table(self, scope), (2,) * len(scope)))

    def project(self, keep: Iterable[str] | VariableSet) -> "BoolFunc":
        """Existential projection onto `keep` (a subset of the scope)."""
        keep = _as_scope(keep)
        stray = [v for v in keep if v not in self.scope]
        if stray:
            raise ValueError(f"cannot project onto variables outside scope: {stray}")
        kept = set(keep)
        t = _any_over(self.table, [v not in kept for v in self.scope]).reshape((2,) * len(keep))
        kept_order = [v for v in self.scope if v in kept]
        perm = tuple(kept_order.index(v) for v in keep)
        return BoolFunc._wrap(keep, t.transpose(perm))

    def substitute(self, mapping: Mapping[str, "BoolFunc"]) -> "BoolFunc":
        """Replace scope variables by boolean functions of other variables.

        Computed as ``exists vs: self /\\ AND_v (v <-> mapping[v])``; no
        replacement function may itself mention a replaced variable.
        """
        keys = [v for v in self.scope if v in mapping]
        if not keys:
            return self
        for v in keys:
            inner = [k for k in keys if k in mapping[v].scope]
            if inner:
                raise ValueError(f"replacement for {v!r} mentions replaced variables {inner}")
        acc = self
        for v in keys:
            acc = acc & BoolFunc.var(v).iff(mapping[v])
        return acc.project(acc.scope.without(keys))

    def support(self) -> VariableSet:
        """The variables the function actually depends on, in scope order."""
        return VariableSet._derived(tuple(self.scope[i] for i in self._support_axes()))

    def _support_axes(self) -> list[int]:
        """The axes of the support variables, in scope order."""
        t = self.table
        return [i for i in range(t.ndim) if (np.take(t, 0, axis=i) != np.take(t, 1, axis=i)).any()]

    # -- comparisons -------------------------------------------------------

    def equivalent(self, other: "BoolFunc") -> bool:
        """Semantic equality after aligning both functions on a common scope."""
        return (self ^ other).is_false

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BoolFunc):
            return self.scope == other.scope and np.array_equal(self.table, other.table)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.scope, self.table.tobytes()))

    # -- formatting --------------------------------------------------------

    def to_expr(self) -> str:
        """Canonical expression that parses back to the same function.

        Minterm disjunction over the support variables only, so functions
        that ignore parts of their scope print compactly.
        """
        if self.is_true:
            return "true"
        if self.is_false:
            return "false"
        axes = self._support_axes()
        core = self.table[tuple(slice(None) if i in axes else 0 for i in range(len(self.scope)))]
        lits = [(f"!{self.scope[i]}", self.scope[i]) for i in axes]
        return " | ".join(" & ".join(lit[b] for lit, b in zip(lits, row))
                          for row in np.argwhere(core).tolist())

    def __repr__(self) -> str:
        if len(self.scope) <= 4:
            return f"BoolFunc({self.to_expr()!r} over {list(self.scope)})"
        return (
            f"BoolFunc(<{self.count_satisfying()}/{self.table.size} satisfying>"
            f" over {list(self.scope)})"
        )


# The slots' own setters, which the immutable `__setattr__` does not reach.
_set_scope, _set_table = BoolFunc.scope.__set__, BoolFunc.table.__set__


def conjoin(funcs: Iterable[BoolFunc]) -> BoolFunc:
    """AND a sequence of functions; the empty-scope True if none."""
    funcs = list(funcs)
    return reduce(lambda a, b: a & b, funcs) if funcs else BoolFunc.const(VariableSet(), True)
