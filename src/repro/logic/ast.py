"""Abstract syntax for linear temporal logic (LTL), hash-consed.

The grammar follows Section IV-A of the paper:

    phi ::= p | !phi | phi || phi | X phi | F phi | G phi | phi U phi

with the derived operators ``&&``, ``->``, ``<->``, ``R`` (Release) and
``W`` (Weak until).

Formula nodes are **interned** (hash-consed): the constructors return the
one canonical node per structural shape, so

* structural equality *is* pointer identity (``==`` and ``is`` coincide),
* ``hash()`` is a cached O(1) lookup instead of an O(size) recursion, and
* every node carries a stable small-integer id (:attr:`Formula.uid`) that
  hot paths can pack into ``frozenset``\\ s of ints.

This is what keeps the tableau construction in :mod:`repro.automata.gpvw`
fast on the deep ``X``-chains produced by the discrete-time encoding of
Section IV-E, and what lets the realizability/repair/localization loops
recognise a formula they have already translated.  The structural hash is
computed from CRC32s of atom names rather than ``hash(str)``, so it is
stable across processes regardless of ``PYTHONHASHSEED`` — set and dict
iteration over formulas is therefore reproducible run to run.

Intern pools are per-class :class:`weakref.WeakValueDictionary` instances:
a node lives exactly as long as something outside the pool references it,
so long-running (server) usage does not accumulate garbage formulas.
Lookups are lock-free; the construction (miss) path takes a module lock
and re-checks the pool, because equality-is-identity makes a lost
interning race *not* benign — two live structurally-equal nodes would
compare unequal everywhere.
"""

from __future__ import annotations

import threading
import zlib
from itertools import count
from typing import FrozenSet, Iterable, Iterator, Tuple
from weakref import WeakValueDictionary

# Stable creation-order ids; ``next()`` on itertools.count is atomic.
_uids = count()

# Serialises pool insertions (misses only — hits never take it).  A single
# lock for all pools: contention is negligible because each structural
# shape is constructed exactly once per lifetime.
_intern_lock = threading.Lock()

# Lazily populated per-node cache slots.  ``_sort_key`` holds the canonical
# printer string (deterministic ordering for the tableau), the rest memoise
# the bottom-up analyses that used to be module-level ``lru_cache``s keeping
# formulas alive forever: caches stored on the node die with the node.
_CACHE_SLOTS = ("_sort_key", "_nnf_pos", "_nnf_neg", "_simplified",
                "_next_depth", "_atoms")


class Formula:
    """Base class of all LTL formula nodes (interned, immutable)."""

    __slots__ = ("_hash", "_uid", "__weakref__") + _CACHE_SLOTS

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._pool = WeakValueDictionary()
        # Deterministic per-class tag folded into structural hashes.
        cls._tag = zlib.crc32(cls.__name__.encode())

    # -- interning machinery ----------------------------------------------
    @property
    def uid(self) -> int:
        """Stable integer id, unique among live formulas."""
        return self._uid

    def __hash__(self) -> int:
        return self._hash

    # Interning makes structural equality pointer identity; object.__eq__
    # (identity) is exactly right, so no __eq__ override is needed.

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"{type(self).__name__} nodes are immutable (interned)"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"{type(self).__name__} nodes are immutable (interned)"
        )

    def __copy__(self) -> "Formula":
        return self

    def __deepcopy__(self, memo) -> "Formula":
        return self

    def __reduce__(self):
        # Re-enter the interning constructor on unpickling so the
        # equality-is-identity invariant survives a pickle round-trip.
        return (type(self), self._args())

    def _args(self) -> Tuple:  # pragma: no cover - overridden
        raise NotImplementedError

    def sort_key(self) -> str:
        """The printer's string (``str(formula)``), cached per node: the
        canonical key for deterministic ordering."""
        key = self._sort_key
        if key is None:
            from .printer import to_str

            key = to_str(self)
            object.__setattr__(self, "_sort_key", key)
        return key

    # -- convenient operator overloading -----------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        """``a >> b`` builds the implication ``a -> b``."""
        return Implies(self, other)

    def children(self) -> Tuple["Formula", ...]:
        return ()

    def __str__(self) -> str:
        return self.sort_key()

    def __repr__(self) -> str:
        return f"Formula({self.sort_key()!r})"


def _new_node(cls, structural_hash: int, fields: Tuple[str, ...], values: Tuple) -> Formula:
    """Allocate and initialise one interned node (pool insertion is the
    caller's job, keyed however the class likes)."""
    node = object.__new__(cls)
    assign = object.__setattr__
    for field, value in zip(fields, values):
        assign(node, field, value)
    assign(node, "_hash", structural_hash)
    assign(node, "_uid", next(_uids))
    for slot in _CACHE_SLOTS:
        assign(node, slot, None)
    return node


class Bool(Formula):
    """Propositional constant ``true`` or ``false``."""

    __slots__ = ("value",)

    def __new__(cls, value: bool) -> "Bool":
        value = bool(value)
        node = cls._pool.get(value)
        if node is None:
            with _intern_lock:
                node = cls._pool.get(value)
                if node is None:
                    node = _new_node(
                        cls, hash((cls._tag, value)), ("value",), (value,)
                    )
                    cls._pool[value] = node
        return node

    def _args(self) -> Tuple:
        return (self.value,)


TRUE = Bool(True)
FALSE = Bool(False)


class Atom(Formula):
    """An atomic proposition such as ``inflate_cuff``."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Atom":
        node = cls._pool.get(name)
        if node is None:
            if not name:
                raise ValueError("atomic proposition must have a non-empty name")
            with _intern_lock:
                node = cls._pool.get(name)
                if node is None:
                    structural_hash = hash((cls._tag, zlib.crc32(name.encode())))
                    node = _new_node(cls, structural_hash, ("name",), (name,))
                    cls._pool[name] = node
        return node

    def _args(self) -> Tuple:
        return (self.name,)


class _Unary(Formula):
    __slots__ = ("operand",)

    # Pools are keyed by child *uids*, not child nodes: a strong key
    # reference to the operand would pin child and parent forever once a
    # per-node cache on the child points back at the parent (e.g.
    # ``a._nnf_neg is Not(a)``) — the pair would be reachable from the
    # class itself and never collected.  With int keys the only strong
    # child references are the node's own slots, so orphaned formula
    # clusters are ordinary reference cycles the GC reclaims.  Uids are
    # never reused, so a dead child's key cannot collide with a new node.
    def __new__(cls, operand: Formula) -> "_Unary":
        if not isinstance(operand, Formula):
            raise TypeError(f"operand must be a Formula, got {operand!r}")
        key = operand._uid
        node = cls._pool.get(key)
        if node is None:
            with _intern_lock:
                node = cls._pool.get(key)
                if node is None:
                    structural_hash = hash((cls._tag, operand._hash))
                    node = _new_node(
                        cls, structural_hash, ("operand",), (operand,)
                    )
                    cls._pool[key] = node
        return node

    def _args(self) -> Tuple:
        return (self.operand,)

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> "_Binary":
        if not isinstance(left, Formula) or not isinstance(right, Formula):
            raise TypeError(
                f"operands must be Formulas, got {left!r} and {right!r}"
            )
        key = (left._uid, right._uid)  # see _Unary.__new__ for why uids
        node = cls._pool.get(key)
        if node is None:
            with _intern_lock:
                node = cls._pool.get(key)
                if node is None:
                    structural_hash = hash((cls._tag, left._hash, right._hash))
                    node = _new_node(
                        cls, structural_hash, ("left", "right"), (left, right)
                    )
                    cls._pool[key] = node
        return node

    def _args(self) -> Tuple:
        return (self.left, self.right)

    def children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)


class Not(_Unary):
    """Negation ``!phi``."""

    __slots__ = ()


class Next(_Unary):
    """Next-time operator ``X phi``."""

    __slots__ = ()


class Finally(_Unary):
    """Eventually operator ``F phi`` (the paper's lozenge)."""

    __slots__ = ()


class Globally(_Unary):
    """Always operator ``G phi`` (the paper's box)."""

    __slots__ = ()


class And(_Binary):
    """Conjunction ``phi && psi``."""

    __slots__ = ()


class Or(_Binary):
    """Disjunction ``phi || psi``."""

    __slots__ = ()


class Implies(_Binary):
    """Implication ``phi -> psi``."""

    __slots__ = ()


class Iff(_Binary):
    """Equivalence ``phi <-> psi``."""

    __slots__ = ()


class Until(_Binary):
    """Strong until ``phi U psi``."""

    __slots__ = ()


class Release(_Binary):
    """Release ``phi R psi``, the dual of until."""

    __slots__ = ()


class WeakUntil(_Binary):
    """Weak until ``phi W psi`` = ``(phi U psi) || G phi``."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Convenience constructors


def conj(formulas: Iterable[Formula]) -> Formula:
    """Right-associated conjunction of *formulas*; ``true`` when empty."""
    items = list(formulas)
    if not items:
        return TRUE
    result = items[-1]
    for item in reversed(items[:-1]):
        result = And(item, result)
    return result


def disj(formulas: Iterable[Formula]) -> Formula:
    """Right-associated disjunction of *formulas*; ``false`` when empty."""
    items = list(formulas)
    if not items:
        return FALSE
    result = items[-1]
    for item in reversed(items[:-1]):
        result = Or(item, result)
    return result


def next_chain(formula: Formula, steps: int) -> Formula:
    """Prefix *formula* with *steps* ``X`` operators (the paper's discrete
    time encoding, Section IV-E)."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    for _ in range(steps):
        formula = Next(formula)
    return formula


def atoms(formula: Formula) -> FrozenSet[str]:
    """The set of atomic proposition names occurring in *formula*.

    Cached per node; interning makes the cache hit whenever any previously
    analysed formula shares the subtree.
    """
    cached = formula._atoms
    if cached is not None:
        return cached
    # Iterative post-order so depth-180 X-chains cannot hit the recursion
    # limit; every visited node gets its cache filled.
    stack = [formula]
    while stack:
        node = stack[-1]
        if node._atoms is not None:
            stack.pop()
            continue
        pending = [c for c in node.children() if c._atoms is None]
        if pending:
            stack.extend(pending)
            continue
        if isinstance(node, Atom):
            result: FrozenSet[str] = frozenset((node.name,))
        else:
            children = node.children()
            if not children:
                result = frozenset()
            elif len(children) == 1:
                result = children[0]._atoms
            else:
                result = frozenset().union(*(c._atoms for c in children))
        object.__setattr__(node, "_atoms", result)
        stack.pop()
    return formula._atoms


def walk(formula: Formula) -> Iterator[Formula]:
    """Yield every subformula of *formula* (pre-order, duplicates allowed)."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def subformulas(formula: Formula) -> FrozenSet[Formula]:
    """The set of distinct subformulas of *formula*."""
    return frozenset(walk(formula))


def size(formula: Formula) -> int:
    """Number of AST nodes in *formula*."""
    return sum(1 for _ in walk(formula))


def next_depth(formula: Formula) -> int:
    """Length of the longest chain of nested ``X`` operators.

    This is the quantity reduced by the time-abstraction technique of
    Section IV-E: a requirement "in t seconds" contributes a chain of t
    ``X`` operators.  Memoised on the nodes themselves (the old
    ``lru_cache`` pinned formulas in memory forever).
    """
    cached = formula._next_depth
    if cached is not None:
        return cached
    stack = [formula]
    while stack:
        node = stack[-1]
        if node._next_depth is not None:
            stack.pop()
            continue
        pending = [c for c in node.children() if c._next_depth is None]
        if pending:
            stack.extend(pending)
            continue
        children = node.children()
        if isinstance(node, Next):
            depth = 1 + node.operand._next_depth
        elif not children:
            depth = 0
        else:
            depth = max(c._next_depth for c in children)
        object.__setattr__(node, "_next_depth", depth)
        stack.pop()
    return formula._next_depth


def interned_count() -> int:
    """Number of live interned nodes (diagnostics / leak tests)."""
    return sum(len(cls._pool) for cls in _all_concrete_classes())


def _all_concrete_classes() -> Tuple[type, ...]:
    return (
        Bool, Atom, Not, Next, Finally, Globally,
        And, Or, Implies, Iff, Until, Release, WeakUntil,
    )
