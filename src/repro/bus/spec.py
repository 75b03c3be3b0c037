"""Bus specifications: N coupled lines, switching patterns, shields.

A :class:`BusSpec` describes ``n_lines`` *signal* lines plus optional
grounded *shield* lines, all running in parallel over the same length.
Lines occupy consecutive physical **slots** ``0 .. n_physical - 1``;
shields are named by slot, and the signal lines fill the remaining
slots in order (signal line ``i`` is the ``i``-th non-shield slot).
Coupling is a function of slot separation, so an inserted shield pushes
its neighbors one slot apart *and* sits between them as a grounded
return path -- both effects emerge from the MNA solution with no
special-casing.

Electrical model per slot: the PI ladder of :mod:`repro.spice.ladder`
(``n_segments`` segments, half ground-caps at both ends).  Between two
slots separated by ``s <= coupling_range`` slots:

- a coupling capacitance ``cct * cct_decay**(s - 1)`` distributed with
  the same PI weights as the ground capacitance, and
- segmentwise mutual inductances with coefficient
  ``km * km_decay**(s - 1)``.

The defaults (``coupling_range=1``) recover the classic
nearest-neighbor model; capacitive coupling decays fast with separation
(it is mostly sidewall), while on-chip inductive coupling decays slowly
(current return loops are wide), hence the separate decay knobs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ParameterError, require_nonnegative, require_positive

__all__ = [
    "LineSwitch",
    "BusSpec",
    "even_pattern",
    "odd_pattern",
    "quiet_victim_pattern",
    "solo_pattern",
]


class LineSwitch(str, enum.Enum):
    """What one signal line's driver does during the event.

    ``QUIET``/``HIGH`` hold the line at 0 / ``v_step`` through its
    driver; ``RISE``/``FALL`` fire an ideal step at ``t = 0`` (the
    paper's "fast rising signal ... approximated by a step signal").
    """

    RISE = "rise"
    FALL = "fall"
    QUIET = "quiet"
    HIGH = "high"


def _normalize_pattern(pattern, n_lines: int) -> tuple[LineSwitch, ...]:
    """Coerce a per-line pattern to ``n_lines`` :class:`LineSwitch`es."""
    if isinstance(pattern, (str, LineSwitch)):
        pattern = (pattern,) * n_lines
    try:
        switches = tuple(LineSwitch(p) for p in pattern)
    except ValueError as exc:
        known = ", ".join(s.value for s in LineSwitch)
        raise ParameterError(
            f"bad switching pattern entry ({exc}); known: {known}"
        ) from None
    if len(switches) != n_lines:
        raise ParameterError(
            f"pattern has {len(switches)} entries for {n_lines} lines"
        )
    return switches


def even_pattern(n_lines: int) -> tuple[LineSwitch, ...]:
    """All lines rise together (even mode -- loop inductance adds)."""
    return (LineSwitch.RISE,) * n_lines


def odd_pattern(n_lines: int, victim: int) -> tuple[LineSwitch, ...]:
    """The victim rises while every other line falls (odd mode).

    Worst case for Miller-doubled coupling capacitance on RC-dominated
    wires; *fastest* flight on inductance-dominated ones.
    """
    pattern = [LineSwitch.FALL] * n_lines
    pattern[_check_line(victim, n_lines)] = LineSwitch.RISE
    return tuple(pattern)


def quiet_victim_pattern(
    n_lines: int, victim: int, aggressor: LineSwitch | str = LineSwitch.RISE
) -> tuple[LineSwitch, ...]:
    """The victim holds low while every other line switches.

    The functional-noise pattern: the quiet victim's far-end excursion
    measures the coupled glitch (positive = capacitive signature,
    negative = inductive).
    """
    pattern = [LineSwitch(aggressor)] * n_lines
    pattern[_check_line(victim, n_lines)] = LineSwitch.QUIET
    return tuple(pattern)


def solo_pattern(n_lines: int, victim: int) -> tuple[LineSwitch, ...]:
    """Only the victim switches; all neighbors are quiet (the baseline)."""
    pattern = [LineSwitch.QUIET] * n_lines
    pattern[_check_line(victim, n_lines)] = LineSwitch.RISE
    return tuple(pattern)


def _check_line(index: int, n_lines: int) -> int:
    if not isinstance(index, int) or not 0 <= index < n_lines:
        raise ParameterError(
            f"line index must be an integer in [0, {n_lines}), got {index!r}"
        )
    return index


def _unwrap(value):
    """A NumPy scalar or 0-d array as its Python scalar; else ``value``."""
    if isinstance(value, (np.generic, np.ndarray)) and value.ndim == 0:
        return value.item()
    return value


def _per_line(name: str, value, n_lines: int, *, positive: bool) -> tuple[float, ...]:
    """Broadcast a scalar (or validate a length-``n_lines`` sequence)."""
    check = require_positive if positive else require_nonnegative
    value = _unwrap(value)
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        return (check(name, value),) * n_lines
    values = tuple(_unwrap(v) for v in value)
    if len(values) != n_lines:
        raise ParameterError(
            f"{name} must be a scalar or length-{n_lines} sequence, "
            f"got {len(values)} values"
        )
    return tuple(check(f"{name}[{i}]", v) for i, v in enumerate(values))


@dataclass(frozen=True)
class BusSpec:
    """An N-line coupled bus plus optional grounded shields.

    Attributes
    ----------
    n_lines:
        Number of *signal* lines (>= 1).
    rt, lt, ct:
        Per-line totals (ohm, H, F) -- self parasitics, as in
        :class:`~repro.spice.ladder.LadderSpec`.  Scalars broadcast to
        every signal line; sequences give per-line values.
    cct:
        Total line-to-line coupling capacitance (F) between *adjacent
        slots*; farther pairs decay by ``cct_decay`` per extra slot.
    km:
        Inductive coupling coefficient between adjacent slots
        (``0 <= km < 1``; on-chip neighbors run ~0.4-0.7); farther
        pairs decay by ``km_decay`` per extra slot.
    rtr:
        Driver resistance per signal line (ohm; scalar or sequence).
    cl:
        Load capacitance at each signal line's far end (F).
    n_segments:
        Lumped PI segments per line.
    coupling_range:
        Maximum slot separation that still couples (>= 1).  1 is the
        classic nearest-neighbor model.
    cct_decay, km_decay:
        Per-extra-slot geometric decay of the capacitive / inductive
        coupling (``0 <= decay <= 1``).  Only used when
        ``coupling_range > 1``.
    shields:
        Physical slot indices occupied by grounded shield lines.  The
        total track count is ``n_lines + len(shields)``; signal lines
        fill the non-shield slots in order.
    rtr_shield:
        Resistance tying each shield's near end to ground (ohm).
    shield_grounded_far:
        Also tie the shield's far end to ground through ``rtr_shield``
        (the usual both-ends-grounded shield); ``False`` leaves the far
        end floating on the shield's own capacitance.
    shield_rlc:
        Optional ``(rt, lt, ct)`` totals for the shield lines; defaults
        to the mean of the signal lines' values (same metal layer).
    """

    n_lines: int
    rt: float | Sequence[float]
    lt: float | Sequence[float]
    ct: float | Sequence[float]
    cct: float
    km: float
    rtr: float | Sequence[float]
    cl: float | Sequence[float] = 0.0
    n_segments: int = 32
    coupling_range: int = 1
    cct_decay: float = 0.3
    km_decay: float = 0.7
    shields: tuple[int, ...] = ()
    rtr_shield: float = 1.0
    shield_grounded_far: bool = True
    shield_rlc: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n_lines, int) or self.n_lines < 1:
            raise ParameterError(
                f"n_lines must be a positive integer, got {self.n_lines!r}"
            )
        if not isinstance(self.n_segments, int) or self.n_segments < 1:
            raise ParameterError(
                f"n_segments must be a positive integer, got {self.n_segments!r}"
            )
        n = self.n_lines
        object.__setattr__(self, "rt", _per_line("rt", self.rt, n, positive=False))
        object.__setattr__(self, "lt", _per_line("lt", self.lt, n, positive=True))
        object.__setattr__(self, "ct", _per_line("ct", self.ct, n, positive=True))
        object.__setattr__(self, "rtr", _per_line("rtr", self.rtr, n, positive=True))
        object.__setattr__(self, "cl", _per_line("cl", self.cl, n, positive=False))
        require_nonnegative("cct", self.cct)
        require_nonnegative("km", self.km)
        if self.km >= 1.0:
            raise ParameterError(f"km must be < 1, got {self.km}")
        if not isinstance(self.coupling_range, int) or self.coupling_range < 1:
            raise ParameterError(
                f"coupling_range must be a positive integer, "
                f"got {self.coupling_range!r}"
            )
        for name in ("cct_decay", "km_decay"):
            value = getattr(self, name)
            require_nonnegative(name, value)
            if value > 1.0:
                raise ParameterError(f"{name} must be <= 1, got {value}")
        require_positive("rtr_shield", self.rtr_shield)
        shields = tuple(self.shields)
        if len(set(shields)) != len(shields):
            raise ParameterError(f"duplicate shield slots: {shields}")
        n_physical = self.n_lines + len(shields)
        for slot in shields:
            if not isinstance(slot, int) or not 0 <= slot < n_physical:
                raise ParameterError(
                    f"shield slot must be an integer in [0, {n_physical}), "
                    f"got {slot!r}"
                )
        object.__setattr__(self, "shields", tuple(sorted(shields)))
        if self.shield_rlc is not None:
            rt_s, lt_s, ct_s = self.shield_rlc
            require_nonnegative("shield_rlc[rt]", rt_s)
            require_positive("shield_rlc[lt]", lt_s)
            require_positive("shield_rlc[ct]", ct_s)
            object.__setattr__(
                self, "shield_rlc", (float(rt_s), float(lt_s), float(ct_s))
            )

    # -- geometry ------------------------------------------------------------

    @property
    def n_physical(self) -> int:
        """Total parallel tracks: signal lines plus shields."""
        return self.n_lines + len(self.shields)

    @property
    def signal_slots(self) -> tuple[int, ...]:
        """Physical slot of each signal line, in line order."""
        shield_set = set(self.shields)
        return tuple(
            slot for slot in range(self.n_physical) if slot not in shield_set
        )

    def slot_of_line(self, line: int) -> int:
        """Physical slot occupied by signal line ``line``."""
        return self.signal_slots[_check_line(line, self.n_lines)]

    def is_shield_slot(self, slot: int) -> bool:
        """True when physical slot ``slot`` carries a grounded shield."""
        return slot in set(self.shields)

    def with_shields(self, shields: Sequence[int]) -> "BusSpec":
        """The same bus with a different set of shield slots."""
        from dataclasses import replace

        return replace(self, shields=tuple(shields))

    # -- per-slot electricals ------------------------------------------------

    def slot_rlc(self, slot: int) -> tuple[float, float, float]:
        """``(rt, lt, ct)`` totals of the line in physical slot ``slot``."""
        if self.is_shield_slot(slot):
            if self.shield_rlc is not None:
                return self.shield_rlc
            n = self.n_lines
            return (
                sum(self.rt) / n,
                sum(self.lt) / n,
                sum(self.ct) / n,
            )
        line = self.signal_slots.index(slot)
        return (self.rt[line], self.lt[line], self.ct[line])

    def coupled_pairs(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(slot_p, slot_q, separation)`` for every in-range pair.

        Pairs are ordered ``slot_p < slot_q`` with separation up to
        :attr:`coupling_range`; strengths are *not* filtered here (use
        :meth:`coupling_terms` for that).
        """
        for p in range(self.n_physical):
            for s in range(1, self.coupling_range + 1):
                q = p + s
                if q >= self.n_physical:
                    break
                yield (p, q, s)

    def cct_decay_factor(self, separation: int) -> float:
        """Geometric decay multiplier of the coupling capacitance.

        1 for adjacent slots, ``cct_decay ** (separation - 1)`` beyond.
        """
        return self.cct_decay ** (separation - 1) if separation > 1 else 1.0

    def km_at(self, separation: int) -> float:
        """Inductive coupling coefficient at a given slot separation."""
        return self.km * (
            self.km_decay ** (separation - 1) if separation > 1 else 1.0
        )

    def coupling_terms(self) -> Iterator[tuple[int, int, float, float]]:
        """Yield ``(slot_p, slot_q, cct_pq, km_pq)`` for coupled pairs.

        Pairs are ordered ``slot_p < slot_q`` with separation up to
        :attr:`coupling_range`; zero-strength terms are skipped.
        """
        for p, q, s in self.coupled_pairs():
            cct_pq = self.cct * self.cct_decay_factor(s)
            km_pq = self.km_at(s)
            if cct_pq > 0.0 or km_pq > 0.0:
                yield (p, q, cct_pq, km_pq)

    # -- node naming ---------------------------------------------------------

    def slot_prefix(self, slot: int) -> str:
        """Canonical node-name prefix for physical slot ``slot``."""
        return f"b{slot}_"

    def output_node(self, line: int) -> str:
        """Far-end node name of signal line ``line``."""
        return f"{self.slot_prefix(self.slot_of_line(line))}{self.n_segments}"

    def normalized_pattern(self, pattern) -> tuple[LineSwitch, ...]:
        """Validate/broadcast a switching pattern for this bus."""
        return _normalize_pattern(pattern, self.n_lines)
