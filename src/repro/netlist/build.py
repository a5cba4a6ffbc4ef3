"""Word-level netlist construction helpers.

:class:`NetBuilder` wraps a :class:`~repro.netlist.netlist.Netlist` with
multi-bit ("word") operations — adders, muxes, comparators, encoders — so
the gate-level pipeline models in :mod:`repro.rtl` read like structural RTL.

Every gate and flop created inside a ``with builder.component("name")``
block is labeled with that ICI component name; the labels are what the
paper's fault-isolation procedure maps failing scan bits back to.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Sequence

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist

Word = List[int]


class NetBuilder:
    """Structural-RTL-style builder over a netlist."""

    def __init__(self, netlist: Optional[Netlist] = None, name: str = "design"):
        self.nl = netlist if netlist is not None else Netlist(name)
        self._component_stack: List[str] = []

    # ------------------------------------------------------------------
    # Component labeling
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def component(self, name: str) -> Iterator[None]:
        """Label all gates/flops created in this block with ``name``.

        Nested blocks join labels with ``/`` so sub-structure is preserved
        while the outermost label remains the isolation granularity.
        """
        self._component_stack.append(name)
        try:
            yield
        finally:
            self._component_stack.pop()

    @property
    def current_component(self) -> str:
        return "/".join(self._component_stack)

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def gate(self, gtype: GateType, *inputs: int) -> int:
        """Add one gate in the current component; returns its output net."""
        return self.nl.add_gate(
            gtype, list(inputs), component=self.current_component
        )

    def input_word(self, width: int, name: str) -> Word:
        """Declare a multi-bit primary input (little-endian bit list)."""
        return [self.nl.add_input(f"{name}[{i}]") for i in range(width)]

    def const(self, bit: int) -> int:
        """A constant-0 or constant-1 driver net."""
        return self.gate(GateType.CONST1 if bit else GateType.CONST0)

    def const_word(self, value: int, width: int) -> Word:
        """A constant word, least-significant bit first."""
        return [self.const((value >> i) & 1) for i in range(width)]

    def register(self, d_word: Word, name: str) -> Word:
        """Latch a word; returns the Q word (little-endian bit order)."""
        q: Word = []
        for i, d in enumerate(d_word):
            flop = self.nl.add_flop(
                d, name=f"{name}[{i}]", component=self.current_component
            )
            q.append(flop.q_net)
        return q

    def register_bit(self, d: int, name: str) -> int:
        """Latch one bit; returns the flop's Q net."""
        return self.nl.add_flop(
            d, name=name, component=self.current_component
        ).q_net

    # ------------------------------------------------------------------
    # Bitwise word ops
    # ------------------------------------------------------------------
    def not_w(self, a: Word) -> Word:
        """Bitwise NOT of a word."""
        return [self.gate(GateType.NOT, x) for x in a]

    def or_w(self, a: Word, b: Word) -> Word:
        """Bitwise OR of two equal-width words."""
        self._same_width(a, b)
        return [self.gate(GateType.OR, x, y) for x, y in zip(a, b)]

    def xor_w(self, a: Word, b: Word) -> Word:
        """Bitwise XOR of two equal-width words."""
        self._same_width(a, b)
        return [self.gate(GateType.XOR, x, y) for x, y in zip(a, b)]

    def mask_w(self, a: Word, enable: int) -> Word:
        """AND every bit of ``a`` with the ``enable`` bit (paper's map-out
        masking of inputs arriving from faulty blocks, Section 3.3)."""
        return [self.gate(GateType.AND, x, enable) for x in a]

    def mux_w(self, sel: int, when0: Word, when1: Word) -> Word:
        """Word-wide 2:1 mux: ``when1`` if ``sel`` else ``when0``."""
        self._same_width(when0, when1)
        return [
            self.gate(GateType.MUX2, a, b, sel) for a, b in zip(when0, when1)
        ]

    def mux_many(self, selects: Sequence[int], words: Sequence[Word]) -> Word:
        """One-hot mux: OR of (word AND select) terms."""
        if len(selects) != len(words) or not words:
            raise ValueError("mux_many needs one select per word")
        acc = self.mask_w(words[0], selects[0])
        for sel, word in zip(selects[1:], words[1:]):
            acc = self.or_w(acc, self.mask_w(word, sel))
        return acc

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def and_reduce(self, bits: Sequence[int]) -> int:
        """AND of all bits (1 for an empty list)."""
        if not bits:
            return self.const(1)
        if len(bits) == 1:
            return self.gate(GateType.BUF, bits[0])
        return self.gate(GateType.AND, *bits)

    def or_reduce(self, bits: Sequence[int]) -> int:
        """OR of all bits (0 for an empty list)."""
        if not bits:
            return self.const(0)
        if len(bits) == 1:
            return self.gate(GateType.BUF, bits[0])
        return self.gate(GateType.OR, *bits)

    def eq_w(self, a: Word, b: Word) -> int:
        """Single-bit equality comparator over two words."""
        self._same_width(a, b)
        return self.and_reduce(
            [self.gate(GateType.XNOR, x, y) for x, y in zip(a, b)]
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def half_adder(self, a: int, b: int) -> tuple:
        """(sum, carry) of two bits."""
        return self.gate(GateType.XOR, a, b), self.gate(GateType.AND, a, b)

    def full_adder(self, a: int, b: int, cin: int) -> tuple:
        """(sum, carry) of two bits plus a carry-in."""
        s1, c1 = self.half_adder(a, b)
        s2, c2 = self.half_adder(s1, cin)
        return s2, self.gate(GateType.OR, c1, c2)

    def adder(self, a: Word, b: Word, cin: Optional[int] = None) -> Word:
        """Ripple-carry adder; result has the same width (carry dropped)."""
        self._same_width(a, b)
        carry = cin if cin is not None else self.const(0)
        out: Word = []
        for x, y in zip(a, b):
            s, carry = self.full_adder(x, y, carry)
            out.append(s)
        return out

    def increment(self, a: Word) -> Word:
        """a + 1, wrapping at the word width."""
        carry = self.const(1)
        out: Word = []
        for x in a:
            s, carry = self.half_adder(x, carry)
            out.append(s)
        return out

    def popcount(self, bits: Sequence[int], width: int) -> Word:
        """Sum of single bits as a ``width``-bit word (used by select logic)."""
        total = self.const_word(0, width)
        for b in bits:
            operand = [b] + [self.const(0) for _ in range(width - 1)]
            total = self.adder(total, operand)
        return total

    # ------------------------------------------------------------------
    # Encoders / selectors
    # ------------------------------------------------------------------
    def priority_select(
        self, requests: Sequence[int], count: int
    ) -> List[List[int]]:
        """Oldest-first selection of up to ``count`` requests.

        Returns ``count`` one-hot grant vectors (grant[k][i] is 1 when
        request i is the (k+1)-th granted).  This is the gate-level shape of
        the paper's selection trees, flattened for clarity.
        """
        grants: List[List[int]] = []
        # taken[i] = request i already granted by an earlier selector.
        taken = [self.const(0) for _ in requests]
        for _ in range(count):
            grant_k: List[int] = []
            free_so_far = self.const(1)
            for i, req in enumerate(requests):
                avail = self.gate(
                    GateType.AND, req, self.gate(GateType.NOT, taken[i])
                )
                g = self.gate(GateType.AND, avail, free_so_far)
                grant_k.append(g)
                free_so_far = self.gate(
                    GateType.AND, free_so_far, self.gate(GateType.NOT, g)
                )
            taken = [
                self.gate(GateType.OR, t, g) for t, g in zip(taken, grant_k)
            ]
            grants.append(grant_k)
        return grants

    def decoder(self, index: Word) -> List[int]:
        """Full decoder: 2^n one-hot bits from an n-bit index word."""
        n = len(index)
        inverted = self.not_w(index)
        outs: List[int] = []
        for value in range(1 << n):
            bits = [
                index[i] if (value >> i) & 1 else inverted[i]
                for i in range(n)
            ]
            outs.append(self.and_reduce(bits))
        return outs

    def select_word(self, index: Word, words: Sequence[Word]) -> Word:
        """Read port: pick ``words[index]`` via a decoder + one-hot mux."""
        onehot = self.decoder(index)
        if len(words) != len(onehot):
            raise ValueError(
                f"need {len(onehot)} words for a {len(index)}-bit index, "
                f"got {len(words)}"
            )
        return self.mux_many(onehot, list(words))

    def gt(self, a: Word, b: Word) -> int:
        """Unsigned a > b, MSB-first ripple comparator."""
        self._same_width(a, b)
        greater = self.const(0)
        equal = self.const(1)
        for x, y in zip(reversed(a), reversed(b)):
            this_gt = self.gate(
                GateType.AND, x, self.gate(GateType.NOT, y)
            )
            greater = self.gate(
                GateType.OR, greater, self.gate(GateType.AND, equal, this_gt)
            )
            equal = self.gate(GateType.AND, equal, self.gate(GateType.XNOR, x, y))
        return greater

    # ------------------------------------------------------------------
    # Sequential feedback
    # ------------------------------------------------------------------
    def state_word(self, width: int, name: str) -> tuple:
        """Allocate a register whose D will be driven later.

        Returns (q_word, d_placeholders); connect the placeholders with
        :meth:`drive_word` once the next-state logic exists.  Needed for
        feedback state (program counters, pointers, queue entries).
        """
        ds = [self.nl.new_net(f"{name}.d[{i}]") for i in range(width)]
        qs: Word = []
        for i, d in enumerate(ds):
            flop = self.nl.add_flop(
                d, name=f"{name}[{i}]", component=self.current_component
            )
            qs.append(flop.q_net)
        return qs, ds

    def drive_word(self, placeholders: Word, word: Word) -> None:
        """Drive previously allocated placeholder nets (via buffers)."""
        self._same_width(placeholders, word)
        for dst, src in zip(placeholders, word):
            self.nl.add_gate(
                GateType.BUF, [src], output=dst,
                component=self.current_component,
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _same_width(a: Word, b: Word) -> None:
        if len(a) != len(b):
            raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")
