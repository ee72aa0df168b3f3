"""Fixed-width unsigned bit-vector terms and bit-blasting to CNF.

Section IV-E of the paper reduces the time-abstraction optimisation to an
integer constraint system solved "via bit-blasting" with Yices 2.  This
module provides the equivalent substrate: bit-vector variables and
constants, ripple-carry addition, multiplication by shift-and-add,
unsigned comparisons, and equality — all encoded into the CDCL solver's
CNF.  Widths are chosen by callers to cover the value ranges of Eq. (1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..sat.cnf import CNF, Lit


@dataclass(frozen=True)
class BitVec:
    """A little-endian vector of CNF literals (bits[0] is the LSB)."""

    bits: tuple

    @property
    def width(self) -> int:
        return len(self.bits)


class BitVecBuilder:
    """Builds bit-vector constraints on top of a :class:`CNF` instance."""

    def __init__(self, cnf: Optional[CNF] = None) -> None:
        self.cnf = cnf if cnf is not None else CNF()
        self._true: Optional[Lit] = None
        self._names: Dict[str, BitVec] = {}

    # ----------------------------------------------------------- constants
    def true_lit(self) -> Lit:
        if self._true is None:
            self._true = self.cnf.new_var("__bv_true__")
            self.cnf.add([self._true])
        return self._true

    def false_lit(self) -> Lit:
        return -self.true_lit()

    def constant(self, value: int, width: int) -> BitVec:
        if value < 0:
            raise ValueError("bit-vectors are unsigned; negative constant")
        if value >= (1 << width):
            raise ValueError(f"constant {value} does not fit in {width} bits")
        bits = []
        for position in range(width):
            bit = (value >> position) & 1
            bits.append(self.true_lit() if bit else self.false_lit())
        return BitVec(tuple(bits))

    def variable(self, name: str, width: int) -> BitVec:
        existing = self._names.get(name)
        if existing is not None:
            if existing.width != width:
                raise ValueError(f"width mismatch for {name}")
            return existing
        bits = tuple(self.cnf.new_var(f"{name}[{i}]") for i in range(width))
        vector = BitVec(bits)
        self._names[name] = vector
        return vector

    # ---------------------------------------------------------- structure
    def extend(self, vector: BitVec, width: int) -> BitVec:
        """Zero-extend *vector* to *width* bits."""
        if width < vector.width:
            raise ValueError("cannot shrink a bit-vector with extend()")
        padding = tuple(self.false_lit() for _ in range(width - vector.width))
        return BitVec(vector.bits + padding)

    def _align(self, left: BitVec, right: BitVec) -> tuple:
        width = max(left.width, right.width)
        return self.extend(left, width), self.extend(right, width)

    # --------------------------------------------------------------- gates
    def _and(self, a: Lit, b: Lit) -> Lit:
        out = self.cnf.new_var()
        self.cnf.add_iff_and(out, [a, b])
        return out

    def _or(self, a: Lit, b: Lit) -> Lit:
        out = self.cnf.new_var()
        self.cnf.add_iff_or(out, [a, b])
        return out

    def _xor(self, a: Lit, b: Lit) -> Lit:
        out = self.cnf.new_var()
        self.cnf.add([-out, a, b])
        self.cnf.add([-out, -a, -b])
        self.cnf.add([out, -a, b])
        self.cnf.add([out, a, -b])
        return out

    # ---------------------------------------------------------- arithmetic
    def add(self, left: BitVec, right: BitVec, *, modular: bool = False) -> BitVec:
        """Sum of two vectors; one extra output bit unless *modular*."""
        left, right = self._align(left, right)
        carry = self.false_lit()
        bits: List[Lit] = []
        for a, b in zip(left.bits, right.bits):
            partial = self._xor(a, b)
            bits.append(self._xor(partial, carry))
            carry = self._or(self._and(a, b), self._and(partial, carry))
        if not modular:
            bits.append(carry)
        return BitVec(tuple(bits))

    def sum_all(self, vectors: Sequence[BitVec]) -> BitVec:
        if not vectors:
            return self.constant(0, 1)
        total = vectors[0]
        for vector in vectors[1:]:
            total = self.add(total, vector)
        return total

    def multiply(self, left: BitVec, right: BitVec) -> BitVec:
        """Shift-and-add product with full output width."""
        width = left.width + right.width
        accumulator = self.constant(0, width)
        for shift, select in enumerate(right.bits):
            row_bits = [self.false_lit()] * shift
            for bit in left.bits:
                row_bits.append(self._and(bit, select))
            row = self.extend(BitVec(tuple(row_bits)), width)
            accumulator = self.extend(
                self.add(accumulator, row, modular=True), width
            )
        return accumulator

    # --------------------------------------------------------- comparisons
    def equal(self, left: BitVec, right: BitVec) -> Lit:
        left, right = self._align(left, right)
        bit_eqs = []
        for a, b in zip(left.bits, right.bits):
            bit_eqs.append(-self._xor(a, b))
        out = self.cnf.new_var()
        self.cnf.add_iff_and(out, bit_eqs)
        return out

    def less_than(self, left: BitVec, right: BitVec) -> Lit:
        """Unsigned ``left < right``."""
        left, right = self._align(left, right)
        result = self.false_lit()
        for a, b in zip(left.bits, right.bits):  # LSB to MSB
            a_lt_b = self._and(-a, b)
            a_eq_b = -self._xor(a, b)
            result = self._or(a_lt_b, self._and(a_eq_b, result))
        return result

    def less_equal(self, left: BitVec, right: BitVec) -> Lit:
        return -self.less_than(right, left)

    # -------------------------------------------------------------- assert
    def require(self, lit: Lit) -> None:
        self.cnf.add([lit])

    # ---------------------------------------------------------------- eval
    def decode(self, vector: BitVec, model: Dict[int, bool]) -> int:
        value = 0
        for position, lit in enumerate(vector.bits):
            bit = model[abs(lit)]
            if lit < 0:
                bit = not bit
            if bit:
                value |= 1 << position
        return value
