"""Finite set systems over a dense universe [n], stored as bit-vectors.

Sets are integers whose bit i records membership of element i.  The family
is kept sorted and deduplicated so that a system's ``sets`` tuple doubles as
a canonical memoization key for the recursive dimension computations.

This module owns the element and mask rules that every entry point of the
library applies: an element of [n] is an integer (not a bool) in [0, n),
read by ``mask_of``, and a mask over [n] is an integer (not a bool) in
[0, 2^n), read by ``require_mask``; both test through the bounds of
``errors.require_int``, and anything else is an InputError.

It also owns the bit layout that reads a family's masks in bulk:
``_bit_matrix`` unpacks them into a member x element bit matrix, and
``_member_columns`` packs its transpose into one int per element.  The VC
search, ``dual``, ``halfspace_dual``, ``banseq.from_vc`` and
``thicketvc``'s step table read them, and no other module packs or unpacks
bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (InputError, check_cap, reading, require_int, require_iterable,
                     require_len, require_list)

__all__ = [
    "SetSystem",
    "project",
    "dual",
    "child",
    "generate",
    "GENERATOR_KINDS",
]

# Universe size above which ``powerset`` and ``all_subsets_of_size_at_most``
# are refused: both walk all 2^n masks (2^20 masks take about 1 s).
DEFAULT_GENERATOR_CAP = 20


@dataclass(frozen=True)
class SetSystem:
    """A family of masks over [n], kept sorted and deduplicated, and an
    optional ``name``, a string or None, that equality ignores."""
    universe_size: int
    sets: tuple[int, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        n = require_int(self.universe_size, "universe_size", 0)
        canonical = tuple(sorted({require_mask(m, n)
                                  for m in require_iterable(self.sets, "masks")}))
        if canonical != self.sets:
            object.__setattr__(self, "sets", canonical)
        if self.name is not None and not isinstance(self.name, str):
            raise InputError(f"set-system 'name' must be a string, got {self.name!r}")

    @classmethod
    def from_iterables(cls, universe_size, families, name=None):
        """Build from an iterable of element collections."""
        return cls(universe_size, tuple(mask_of(fam, universe_size)
                                        for fam in require_iterable(families, "sets")),
                   name)

    def members(self, mask):
        return [i for i in range(self.universe_size) if mask >> i & 1]

    def __len__(self):
        return len(self.sets)

    def to_json_dict(self):
        n = self.universe_size
        strings = ["".join("1" if m >> i & 1 else "0" for i in range(n)) for m in self.sets]
        out = {"universe": n, "sets": strings}
        if self.name is not None:
            out["name"] = self.name
        return out

    @classmethod
    def from_json_dict(cls, data):
        with reading("set-system object"):
            n = require_int(data["universe"], "universe")
            strings = data["sets"]
        masks = []
        for s in require_list(strings, "set-system 'sets'"):
            if not isinstance(s, str) or len(s) != n or set(s) - {"0", "1"}:
                raise InputError(f"bad set string {s!r} for universe [{n}]")
            masks.append(sum(1 << i for i, c in enumerate(s) if c == "1"))
        return cls(n, tuple(masks), data.get("name"))


def mask_of(elements, n):
    """The mask of ``elements``, each an integer in [0, n); a bool, a float,
    a string or an element out of range is an InputError, and so is an
    argument that is not a collection."""
    mask = 0
    for x in require_iterable(elements, "elements"):
        mask |= 1 << require_int(x, "element", 0, n - 1)
    return mask


def require_mask(mask, n):
    """``mask`` as an int when it is an integer in [0, 2^n); a bool, a
    float, a string or a mask out of range is an InputError."""
    return require_int(mask, "set", 0, (1 << n) - 1)


def project(system: SetSystem, targets) -> SetSystem:
    """Trace the family onto ``targets``, re-indexed to a dense universe.

    Element j of the result is the j-th smallest member of ``targets``.
    """
    ys = system.members(mask_of(targets, system.universe_size))
    return SetSystem(len(ys), tuple(traces(system.sets, ys)))


def dual(system: SetSystem) -> SetSystem:
    """Exchange elements and sets via the incidence relation.

    The new base indexes the (canonically sorted) family; element x of the
    original contributes the set of families containing x.
    """
    return SetSystem(len(system.sets),
                     tuple(_member_columns(system.sets, system.universe_size)))


def child(system: SetSystem, xs, sigma) -> SetSystem:
    """Subfamily consistent with membership pattern ``sigma`` on tuple ``xs``;
    each sigma entry is the integer 0 or 1."""
    if require_len(xs, "xs") != require_len(sigma, "sigma"):
        raise InputError("xs and sigma must have equal length")
    mask_of(xs, system.universe_size)
    sigma = [require_int(b, "sigma entry", 0, 1) for b in sigma]
    return SetSystem(system.universe_size, child_masks(system.sets, xs, sigma))


def child_masks(sets, xs, sigma):
    """Same filter as :func:`child` but on a raw mask tuple (no revalidation)."""
    want = care = 0
    for x, b in zip(xs, sigma):
        bit = 1 << x
        # A repeated element with conflicting bits can never match.
        if care & bit and bool(want & bit) != bool(b):
            return ()
        care |= bit
        if b:
            want |= bit
    return tuple(m for m in sets if m & care == want)


def _bit_matrix(masks, n):
    """The uint8 array of shape (len(masks), n) whose entry [i, x] is bit x
    of ``masks[i]``, masks of [n] in any order, repeats allowed: each mask's
    little-endian bytes, unpacked."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    return np.unpackbits(packed.reshape(len(masks), width), axis=1, count=n,
                         bitorder="little")


def _member_columns(masks, n):
    """For each element x of [n], the int whose bit i says whether
    ``masks[i]`` holds x: the rows of ``_bit_matrix``'s transpose, packed."""
    rows = np.packbits(_bit_matrix(masks, n).T, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in rows]


def traces(sets, ys):
    """Distinct traces of the masks on the tuple ``ys``: bit j of a trace
    records membership of ``ys[j]``."""
    return {sum(((m >> y) & 1) << j for j, y in enumerate(ys)) for m in sets}


def _powerset(n):
    return SetSystem(n, tuple(range(1 << n)), name=f"powerset({n})")


def _singletons_with_empty(n):
    return SetSystem(n, (0,) + tuple(1 << i for i in range(n)),
                     name=f"singletons_with_empty({n})")


def _thresholds(n):
    return SetSystem(n, tuple((1 << i) - 1 for i in range(n + 1)),
                     name=f"thresholds({n})")


def _intervals(n):
    masks = {0}
    for a in range(n):
        for b in range(a + 1, n + 1):
            masks.add(((1 << b) - 1) ^ ((1 << a) - 1))
    return SetSystem(n, tuple(masks), name=f"intervals({n})")


def _bounded_size(n, d):
    masks = [m for m in range(1 << n) if bin(m).count("1") <= d]
    return SetSystem(n, tuple(masks), name=f"all_subsets_of_size_at_most({n},{d})")


def _halfspace_masks(arrangement):
    """Per half-space, the mask of the points p with <normal, p> >= offset."""
    return [sum(1 << i for i, p in enumerate(arrangement.points)
                if sum(a * b for a, b in zip(normal, p)) >= offset)
            for normal, offset in arrangement.halfspaces]


def halfspace_incidence(arrangement) -> SetSystem:
    """Base = points; one set per half-space, containing the points it covers."""
    return SetSystem(len(arrangement.points), tuple(_halfspace_masks(arrangement)),
                     name="halfspace_incidence")


def halfspace_dual(arrangement) -> SetSystem:
    """Base = half-spaces; one set per point, the half-spaces covering it."""
    masks = _halfspace_masks(arrangement)
    return SetSystem(len(masks), tuple(_member_columns(masks, len(arrangement.points))),
                     name="halfspace_dual")


_GENERATORS = {
    "powerset": _powerset,
    "singletons_with_empty": _singletons_with_empty,
    "thresholds": _thresholds,
    "intervals": _intervals,
    "all_subsets_of_size_at_most": _bounded_size,
}
GENERATOR_KINDS = tuple(_GENERATORS)


def generate(kind, *params, cap=None) -> SetSystem:
    """Named fixture systems of non-negative integer parameters (the
    universe size n, then the size bound d); see ``GENERATOR_KINDS``.
    ``cap`` bounds the universe of the generators that walk all 2^n masks.
    The half-space systems take an arrangement: call ``halfspace_incidence``
    or ``halfspace_dual`` directly."""
    if kind not in GENERATOR_KINDS:
        raise InputError(f"unknown generator kind {kind!r}")
    arity = 2 if kind == "all_subsets_of_size_at_most" else 1
    if len(params) != arity:
        raise InputError(f"generator {kind!r} takes {arity} parameters, got {len(params)}")
    n, *rest = (require_int(p, name, 0) for p, name in zip(params, ("n", "d")))
    if kind in ("powerset", "all_subsets_of_size_at_most"):
        check_cap(n, cap, DEFAULT_GENERATOR_CAP, f"{kind} universe")
    return _GENERATORS[kind](n, *rest)

