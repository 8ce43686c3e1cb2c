"""Boolean functions over named variables, stored as packed truth tables.

A function's scope is a `VariableSet`, a tuple of distinct variable names.
Its truth table is one Python int, `BoolFunc.bits`, whose bit i is the
function's value at the valuation of rank i.  Valuations are ranked
lexicographically with False before True and the first variable most
significant, so bit i is cell i of the table in C order.  The EPS compile
bit-slices its tables in this layout and Close-by-One reads its lines from
it.

Every operation is int arithmetic.  Binary operations align both tables on
the ordered union of the scopes and make one AND, OR or XOR; the complement
is an XOR with the all-true table.  A change of scope moves blocks of cells
by shifts under variable patterns, the cells whose rank has one bit set,
cached per (variables, position) for small tables: `extend` inserts each new
variable, `project` ORs and splits halves, and a reordering swaps two
variables at a time; an extension's plan is cached by where the scope's
variables sit in the target, not by their names.  One reader lists a
table's set cells in ascending rank (`_set_cells`), for formatting,
valuations and the oracles, and the closed-loop walk of `network` muxes
packed tables too.  Arrays appear only
where data comes in or goes out: the constructor packs one,
`BoolFunc.table` unpacks one for tests and `DistributionGraph.adjacency`,
`evaluate_many` gathers cells at arrays of valuations, and
`valuation_ranks` and `valuation_bits` convert between them and ranks.
These five edges import numpy when they are called, so the module needs
only the standard library.

Equality is semantic over identical scopes; use :meth:`BoolFunc.equivalent`
to compare functions whose scopes differ.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import repeat
from operator import and_, or_, xor

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
"""Largest truth table, in cells, that any operation builds: 2^30 cells are
128 MiB as a packed int, or 1 GiB as one byte per cell, as in an array
given to `BoolFunc` and in `BoolFunc.table`."""


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
        drop = names if isinstance(names, (set, frozenset, dict)) else set(names)
        return VariableSet._derived(tuple(n for n in self if n not in drop))

    def restricted_to(self, names: Iterable[str]) -> "VariableSet":
        """Subset of self (preserving self's order) that also occurs in `names`."""
        keep = names if isinstance(names, (set, frozenset, dict)) else set(names)
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
        return cls(scope, tuple(index >> k & 1 for k in reversed(range(len(scope)))))

    def index(self) -> int:
        """Lexicographic rank of this valuation (False < True)."""
        return reduce(lambda rank, b: rank << 1 | b, self.bits, 0)

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
    import numpy as np
    rank = np.int64(0)
    for b in bits:
        rank = np.bitwise_or(rank << 1, b, dtype=np.int64)
    return rank


def valuation_bits(ranks, n: int) -> np.ndarray:
    """Inverse of `valuation_ranks`: bool array of shape ``(n, *ranks.shape)``
    whose row ``i`` holds bit ``i`` of each rank, most significant first."""
    import numpy as np
    ranks = np.asarray(ranks, dtype=np.int64)
    bits = np.empty((n,) + ranks.shape, dtype=bool)
    for i in range(n):
        bits[i] = (ranks >> (n - 1 - i)) & 1
    return bits


def _as_scope(scope: Iterable[str] | VariableSet) -> VariableSet:
    return scope if isinstance(scope, VariableSet) else VariableSet(scope)


# -- packed tables ------------------------------------------------------------
# A table over n variables is an int of 2^n bits, cell i at bit i.  The
# variable at position n - 1 - k of the scope is rank bit k: its cells come in
# blocks of 2^k that alternate between clear and set, so moving a variable
# moves blocks of 2^k cells by shifts under masks (Knuth, TAOCP 4A, 7.1.3).

_CACHED_VARIABLES = 16
"""Variable patterns over up to this many variables (8 KiB each) are cached."""

_BLOCK_VARIABLES = 10
"""An insertion into a table above `_CACHED_VARIABLES` whose copied blocks
have at least 2^10 cells cuts the table into blocks instead of moving cells
under patterns (`_embedding`)."""


def _full(n: int) -> int:
    """The all-true table over `n` variables."""
    return (1 << (1 << n)) - 1


def _set_cells(bits: int) -> Iterator[int]:
    """The ranks of the set cells of the packed table `bits`, ascending: the
    one way the library lists a table's cells."""
    digits = bin(bits)[:1:-1]  # cell 0 first
    rank = digits.find("1")
    while rank >= 0:
        yield rank
        rank = digits.find("1", rank + 1)


def _build_pattern(n: int, k: int) -> int:
    block = 1 << k
    bits, width = ((1 << block) - 1) << block, block << 1  # one period
    while width < 1 << n:
        bits |= bits << width
        width <<= 1
    return bits


_cached_pattern = lru_cache(maxsize=None)(_build_pattern)


def _variable_pattern(n: int, k: int) -> int:
    """The cells of a table over `n` variables whose rank has bit `k` set:
    the variable at position ``n - 1 - k`` as a table over the scope.  Cached
    per (variables, position) up to `_CACHED_VARIABLES` variables, and built
    by doubling one period above that."""
    return _cached_pattern(n, k) if n <= _CACHED_VARIABLES else _build_pattern(n, k)


@lru_cache(maxsize=4096)
def _embedding(positions: tuple[int, ...], n: int) -> tuple:
    """How `_extended` puts a table over a scope on a target scope of `n`
    variables, a superset in any order, where `positions` holds the position
    in the target of each variable of the scope: the delta swaps that put
    the scope in target order, then one insertion per run of consecutive new
    variables, lowest rank bits first, so that the table is small while most
    of it moves.  A plan depends on the positions alone, not on the names,
    so it is cached by them, most recent first: a network whose subsystems
    name their variables apart shares the plans of its few scope shapes.

    A swap, ``(m, a, b)`` for a table over m variables, exchanges the rank
    bits ``a < b`` of a variable out of place and of the one that belongs
    there: each cell with bit a set and bit b clear trades places with the
    cell ``2^b - 2^a`` above it.

    An insertion of g variables at rank bit t, ``(present, t, g)`` for a
    table over `present` variables, spaces out the table's blocks of 2^t
    cells and copies each into the cells where the new variables are set.
    Where the result has at most `_CACHED_VARIABLES` variables it moves the
    cells whose rank has bit r set, for each variable above t from the most
    significant down, by ``2^(r+g) - 2^r`` under the cached variable
    pattern: every variable moved before lands above r, so bit r of a
    cell's position still holds its value.  The copies are then shifts of
    ``2^t`` to ``2^(t+g-1)`` (Knuth, TAOCP 4A, 7.1.3).  A larger result
    needs a pattern built per move and g passes of copies over the whole
    table, so where the copied blocks of ``2^(t+g)`` cells are large too
    (`_BLOCK_VARIABLES`) the table is cut into its cofactors on the
    variables above t, each block is copied while it is small, and the
    blocks are joined at the new stride: 5 times faster for the cone
    functions of the flattened four-generator EPS chain, put on its 27
    inputs.  Blocks of a few cells stay with the moves, since cutting costs
    a Python step per block.

    Where the target has at most `_CACHED_VARIABLES` variables the swaps and
    insertions are resolved instead into steps ``(kind, mask, shift)`` with
    the cached patterns in place, so that extending a small table costs
    only its int operations: kind 0 is a delta swap of the cells under
    `mask` with those `shift` above, 1 moves the cells under `mask` up by
    `shift`, and 2 copies the table onto itself `shift` cells up.  Larger
    targets get None for the steps.
    """
    have = set(positions)
    m, at, swaps = len(positions), list(positions), []
    for i, p in enumerate(sorted(positions)):
        j = at.index(p, i)
        if j != i:
            swaps.append((m, m - 1 - j, m - 1 - i))
            at[i], at[j] = at[j], at[i]
    t, present, insertions = 0, m, []
    while t < n:
        g = 0
        while t + g < n and n - 1 - t - g not in have:
            g += 1
        if g:
            insertions.append((present, t, g))
            present += g
        t += g + 1
    if n > _CACHED_VARIABLES:
        return swaps, insertions, None
    steps = [(0, _cached_pattern(m, a) & ~_cached_pattern(m, b), (1 << b) - (1 << a)) for m, a, b in swaps]
    for present, t, g in insertions:
        steps += [(1, _cached_pattern(present + g, r), (1 << (r + g)) - (1 << r))
                  for r in range(present - 1, t - 1, -1)]
        steps += [(2, 0, 1 << k) for k in range(t, t + g)]
    return (), (), tuple(steps)


def _halves(tables: list[int], width: int) -> list[int]:
    """Each table of `width` cells as its two halves, low first: the
    cofactors of its first variable."""
    half = width >> 1
    low = (1 << half) - 1
    return [t for table in tables for t in (table & low, table >> half)]


def _cofactors(bits: int, n: int, k: int) -> list[int]:
    """The cofactors of a table over `n` variables on its first `k`, in rank
    order of their valuations: the table cut into 2^k tables over the other
    n - k variables."""
    tables, width = [bits], 1 << n
    for _ in range(k):
        tables = _halves(tables, width)
        width >>= 1
    return tables


def _joined(tables: list[int], width: int) -> int:
    """Tables of `width` cells each, a power of two of them, as one table
    that holds them in order: the inverse of repeated `_halves`."""
    while len(tables) > 1:
        tables = [lo | hi << width for lo, hi in zip(tables[::2], tables[1::2])]
        width <<= 1
    return tables[0]


def _projected(bits: int, scope: tuple[str, ...], keep) -> int:
    """The table over `scope` quantified existentially over the variables
    not in the set `keep`, as a table over the kept ones in scope order.

    The variables are read from the first: a dropped one ORs the two halves
    of every piece, a kept one splits every piece into its halves, so the
    pieces are the cofactors over the kept variables read so far.  Once only
    dropped variables remain a piece is one cell, set when the piece is not
    zero; once only kept ones remain the pieces are joined as they are.  A
    run of leading dropped variables costs one pass over the table.
    """
    flags = [v in keep for v in scope]
    if all(flags):
        return bits
    last_dropped = len(flags) - 1 - flags[::-1].index(False)
    last_kept = len(flags) - 1 - flags[::-1].index(True) if True in flags else -1
    pieces, width = [bits], 1 << len(scope)
    for kept in flags[:min(last_dropped, last_kept) + 1]:
        if kept:
            pieces = _halves(pieces, width)
        else:
            low = (1 << (width >> 1)) - 1
            pieces = [piece & low | piece >> (width >> 1) for piece in pieces]
        width >>= 1
    if last_kept > last_dropped:
        return _joined(pieces, width)
    return _joined([1 if piece else 0 for piece in pieces], 1)


def _extended(f: "BoolFunc", scope: VariableSet) -> int:
    """f's table over `scope`, a superset of f.scope in any order, by its
    `_embedding` in `scope`: its resolved steps where `scope` is small."""
    if f.scope == scope:
        return f.bits
    bits = f.bits
    positions = tuple(map(tuple.index, repeat(scope, len(f.scope)), f.scope))
    swaps, insertions, steps = _embedding(positions, len(scope))
    if steps is not None:
        for kind, mask, shift in steps:
            if kind == 2:
                bits |= bits << shift
            else:
                moved = (bits ^ bits >> shift) & mask if kind == 0 else bits & mask
                bits ^= moved ^ moved << shift
        return bits
    check_table_size(len(scope))
    for m, a, b in swaps:
        distance = (1 << b) - (1 << a)
        diff = (bits ^ bits >> distance) & _variable_pattern(m, a)
        diff ^= diff & _variable_pattern(m, b)
        bits ^= diff ^ diff << distance
    for present, t, g in insertions:
        if present + g <= _CACHED_VARIABLES or t + g < _BLOCK_VARIABLES:
            for r in range(present - 1, t - 1, -1):
                moved = bits & _variable_pattern(present + g, r)
                bits ^= moved ^ moved << ((1 << (r + g)) - (1 << r))
            for k in range(t, t + g):
                bits |= bits << (1 << k)
        else:
            blocks = _cofactors(bits, present, present - t)
            for k in range(t, t + g):
                blocks = [block | block << (1 << k) for block in blocks]
            bits = _joined(blocks, 1 << (t + g))
    return bits


def _combined(op, scope: VariableSet, f: "BoolFunc", g: "BoolFunc") -> "BoolFunc":
    """``op(f, g)`` over `scope`, a superset of both scopes in any order, for
    `op` one of `operator.and_`, `or_` and `xor`: one int operation on both
    tables extended to `scope`."""
    return BoolFunc._wrap(scope, op(_extended(f, scope), _extended(g, scope)))


def _composed(f: "BoolFunc", muxes: Sequence[int], domain: VariableSet) -> int:
    """f over `domain` with each of its first ``len(muxes)`` variables
    replaced by the table at the same index, a table over `domain`, which
    holds f's other variables: Bryant's compose (IEEE Trans. Computers,
    1986), the one composition behind the local game G(f(u, e)) and the
    closed-loop walk.  A Shannon expansion from f's first variable muxes
    each pair of branches by the variable's table: a constant cofactor ends
    its branch, equal branches need no mux, and a cofactor past the last
    replaced variable is put on `domain`.  Only a cofactor whose branches
    are both non-constant is kept (by table and depth), so a parity of k
    variables costs O(k) muxes, and a cube's chain of cofactors with a
    constant branch holds no table over `domain` per variable (220 MB for
    central synthesis of the four-generator EPS chain)."""
    check_table_size(len(domain))
    full, last, tail = _full(len(domain)), len(muxes), None
    memo: dict[tuple[int, int], int] = {}

    def expand(bits: int, i: int, width: int) -> int:
        nonlocal tail
        if not bits:
            return 0
        if bits == (1 << width) - 1:
            return full
        if i == last:
            tail = tail or VariableSet._derived(f.scope[last:])
            return _extended(BoolFunc._wrap(tail, bits), domain)
        composed = memo.get((bits, i))
        if composed is None:
            width >>= 1
            lo, hi = expand(bits & ((1 << width) - 1), i + 1, width), expand(bits >> width, i + 1, width)
            if lo == hi:
                return lo
            composed = lo ^ ((lo ^ hi) & muxes[i])
            if lo not in (0, full) and hi not in (0, full):
                memo[bits, i] = composed
        return composed

    return expand(f.bits, 0, 1 << len(f.scope))


class BoolFunc:
    """Immutable boolean function: an ordered scope plus a packed truth table,
    `bits`, whose bit i is the value at the valuation of rank i."""

    __slots__ = ("scope", "bits")

    scope: VariableSet
    bits: int

    def __init__(self, scope: Iterable[str] | VariableSet, table) -> None:
        """The function whose table is `table`, any array-like of
        ``2^len(scope)`` cells in canonical order, such as the C-ordered
        array of shape ``(2,) * len(scope)``; it is packed, not kept."""
        import numpy as np
        scope = _as_scope(scope)
        arr = np.asarray(table, dtype=bool)
        if arr.size != 1 << len(scope):
            raise ValueError(f"table of size {arr.size} does not fit scope of {len(scope)} variables")
        packed = np.packbits(arr.reshape(-1), bitorder="little")
        _set_scope(self, scope)
        _set_bits(self, int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def _wrap(cls, scope: VariableSet, bits: int) -> "BoolFunc":
        """Adopt `bits`, a packed table below ``2^(2^len(scope))``, unchecked."""
        f = object.__new__(cls)
        _set_scope(f, scope)
        _set_bits(f, bits)
        return f

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("BoolFunc is immutable")

    def __reduce__(self):
        """Pickle and copy as the scope and the int: the default restores
        the slots through `__setattr__`, which refuses."""
        return BoolFunc._wrap, (self.scope, self.bits)

    @property
    def table(self) -> np.ndarray:
        """The truth table unpacked to one bool per cell: a fresh read-only,
        C-contiguous array of shape ``(2,) * len(scope)`` whose axis i
        carries ``scope[i]`` (index 0 = False), so its C order is canonical
        valuation order.  Computed on each access, for tests and
        `DistributionGraph.adjacency`: the library reads cells packed
        (`_set_cells`, `evaluate_many`)."""
        import numpy as np
        cells = 1 << len(self.scope)
        packed = np.frombuffer(self.bits.to_bytes((cells + 7) >> 3, "little"), np.uint8)
        table = np.unpackbits(packed, count=cells, bitorder="little").view(bool)
        table = table.reshape((2,) * len(self.scope))
        table.setflags(write=False)
        return table

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, scope: Iterable[str] | VariableSet, value: bool) -> "BoolFunc":
        scope = _as_scope(scope)
        check_table_size(len(scope))
        return cls._wrap(scope, _full(len(scope)) if value else 0)

    @classmethod
    def var(cls, name: str) -> "BoolFunc":
        """The positive literal `name` over the single-variable scope {name}."""
        return cls._wrap(VariableSet([name]), 0b10)

    @classmethod
    def exactly(cls, valuation: Valuation) -> "BoolFunc":
        """The minterm satisfied only by `valuation`."""
        return cls.cube(valuation.scope, valuation.as_dict())

    @classmethod
    def cube(cls, scope: Iterable[str] | VariableSet, literals: Mapping[str, bool]) -> "BoolFunc":
        """The conjunction of the literals (variable -> required value), over
        `scope`: each free variable, from the last up, doubles the set cells
        by a shift of its block width, and one shift moves them up by the
        rank that the true literals add."""
        scope = _as_scope(scope)
        stray = [v for v in literals if v not in scope]
        if stray:
            raise ValueError(f"literals mention variables outside the scope: {stray}")
        check_table_size(len(scope))
        bits, offset, width = 1, 0, 1
        for v in reversed(scope):
            if v not in literals:
                bits |= bits << width
            elif literals[v]:
                offset |= width
            width <<= 1
        return cls._wrap(scope, bits << offset)

    # -- basic queries -----------------------------------------------------

    @property
    def is_true(self) -> bool:
        return self.bits == _full(len(self.scope))

    @property
    def is_false(self) -> bool:
        return not self.bits

    def count_satisfying(self) -> int:
        return self.bits.bit_count()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate at an assignment covering (at least) the scope."""
        rank = 0
        for v in self.scope:
            rank = rank << 1 | bool(assignment[v])
        return bool(self.bits >> rank & 1)

    def evaluate_many(self, assignments: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorized evaluation; each scope variable maps to a 0/1 array.
        The table is read packed: the cell of rank r is bit ``r & 7`` of
        byte ``r >> 3`` of its bytes, not unpacked."""
        import numpy as np
        if not self.scope:
            probe = next(iter(assignments.values()), None)
            return np.full(() if probe is None else np.shape(probe), bool(self.bits))
        cells = np.frombuffer(self.bits.to_bytes(((1 << len(self.scope)) + 7) >> 3, "little"), np.uint8)
        ranks = valuation_ranks(assignments[v] for v in self.scope)
        return (cells[ranks >> 3] >> (ranks & 7) & 1).astype(bool)

    def satisfying_valuations(self) -> list[Valuation]:
        """The satisfying set, in canonical (lexicographic) order."""
        return [Valuation.from_index(self.scope, rank) for rank in _set_cells(self.bits)]

    # -- operations --------------------------------------------------------

    def _binary(self, other: "BoolFunc", op) -> "BoolFunc":
        if not isinstance(other, BoolFunc):
            return NotImplemented
        return _combined(op, self.scope.union(other.scope), self, other)

    def __invert__(self) -> "BoolFunc":
        return BoolFunc._wrap(self.scope, _full(len(self.scope)) ^ self.bits)

    def __and__(self, other: "BoolFunc") -> "BoolFunc":
        return self._binary(other, and_)

    def __or__(self, other: "BoolFunc") -> "BoolFunc":
        return self._binary(other, or_)

    def __xor__(self, other: "BoolFunc") -> "BoolFunc":
        return self._binary(other, xor)

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
        return BoolFunc._wrap(scope, _extended(self, scope))

    def project(self, keep: Iterable[str] | VariableSet) -> "BoolFunc":
        """Existential projection onto `keep` (a subset of the scope)."""
        keep = _as_scope(keep)
        stray = [v for v in keep if v not in self.scope]
        if stray:
            raise ValueError(f"cannot project onto variables outside scope: {stray}")
        kept = set(keep)
        order = VariableSet._derived(tuple(v for v in self.scope if v in kept))
        return BoolFunc._wrap(order, _projected(self.bits, self.scope, kept)).extend(keep)

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
        """The variables the function actually depends on, in scope order:
        those whose two cofactors differ somewhere."""
        n, bits = len(self.scope), self.bits
        full = _full(n)
        return VariableSet._derived(tuple(
            v for i, v in enumerate(self.scope)
            if (bits ^ bits >> (1 << (n - 1 - i))) & (full ^ _variable_pattern(n, n - 1 - i))))

    # -- comparisons -------------------------------------------------------

    def equivalent(self, other: "BoolFunc") -> bool:
        """Semantic equality after aligning both functions on a common scope."""
        return (self ^ other).is_false

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BoolFunc):
            return self.scope == other.scope and self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.scope, self.bits))

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
        support = self.support()
        core = _projected(self.bits, self.scope, set(support))
        n = len(support)
        lits = [(f"!{v}", v) for v in support]
        return " | ".join(" & ".join(lit[rank >> (n - 1 - k) & 1] for k, lit in enumerate(lits))
                          for rank in _set_cells(core))

    def __repr__(self) -> str:
        if len(self.scope) <= 4:
            return f"BoolFunc({self.to_expr()!r} over {list(self.scope)})"
        return (
            f"BoolFunc(<{self.count_satisfying()}/{1 << len(self.scope)} satisfying>"
            f" over {list(self.scope)})"
        )


# The slots' own setters, which the immutable `__setattr__` does not reach.
_set_scope, _set_bits = BoolFunc.scope.__set__, BoolFunc.bits.__set__


def conjoin(funcs: Iterable[BoolFunc]) -> BoolFunc:
    """AND a sequence of functions; the empty-scope True if none."""
    funcs = list(funcs)
    return reduce(lambda a, b: a & b, funcs) if funcs else BoolFunc.const(VariableSet(), True)
