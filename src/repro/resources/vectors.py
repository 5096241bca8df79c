"""Resource vectors (Definitions 3.1 and 3.2).

A :class:`ResourceVector` is an immutable named vector of non-negative
resource amounts. The paper's examples use memory (MB) and CPU (percent of a
benchmark machine); the implementation is generic over resource names so
applications can add bandwidth-like or device-specific resources.

Vector addition follows Definition 3.1 and ``fits_within`` follows
Definition 3.2 (component-wise ``<=``). Two vectors are only combined when
they "represent the same set of resources" — missing names are treated as
zero on the requirement side but raise on the availability side, which
catches mismatched resource models early.

Only the public constructor validates amounts (finite, non-negative).
Results of ``+``, ``-`` and ``*`` are built by a trusted constructor that
skips the check: their operands were validated already.

Key order is part of the value's arithmetic: :func:`weighted_magnitude`
sums in key order, and a three-name float sum depends on its order. So
``+`` and ``-`` never iterate a set (whose order follows string hashing
and so ``PYTHONHASHSEED``): the result holds the left operand's names in
its order, then the right operand's names the left lacks, in theirs.
:meth:`ResourceVector.sum` keeps the same first-appearance order.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Mapping, Optional, Union

MEMORY = "memory"
CPU = "cpu"

Number = Union[int, float]


class ResourceVector(Mapping[str, float]):
    """An immutable mapping from resource name to a non-negative amount.

    Supports ``+`` / ``-`` (component-wise over the union of names),
    scalar ``*``, and :meth:`fits_within` for Definition 3.2::

        R = ResourceVector(memory=64, cpu=0.4)
        RA = ResourceVector(memory=256, cpu=3.0)
        assert R.fits_within(RA)
    """

    __slots__ = ("_amounts",)

    def __init__(
        self,
        amounts: Optional[Mapping[str, Number]] = None,
        **kwargs: Number,
    ) -> None:
        merged: Dict[str, float] = {}
        for source in (amounts or {}), kwargs:
            for name, raw in source.items():
                value = float(raw)
                if not 0.0 <= value < math.inf:
                    problem = "non-negative" if value < 0 else "finite"
                    raise ValueError(
                        f"resource amounts must be {problem}, got {name}={raw}"
                    )
                merged[name] = value
        self._amounts: Dict[str, float] = merged

    @classmethod
    def _trusted(cls, amounts: Dict[str, float]) -> "ResourceVector":
        """Wrap already-valid float amounts without re-checking them."""
        vector = cls.__new__(cls)
        vector._amounts = amounts
        return vector

    # -- Mapping interface -------------------------------------------------

    def __getitem__(self, name: str) -> float:
        return self._amounts[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._amounts)

    def __len__(self) -> int:
        return len(self._amounts)

    def __contains__(self, name: object) -> bool:
        return name in self._amounts

    def get(self, name: str, default=None):
        return self._amounts.get(name, default)

    def keys(self):
        return self._amounts.keys()

    def items(self):
        return self._amounts.items()

    def values(self):
        return self._amounts.values()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return self._as_comparable() == other._as_comparable()

    def __hash__(self) -> int:
        return hash(frozenset(self._as_comparable().items()))

    def _as_comparable(self) -> Dict[str, float]:
        """Zero entries are insignificant for equality and hashing."""
        return {k: v for k, v in self._amounts.items() if v != 0.0}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._amounts.items()))
        return f"ResourceVector({inner})"

    # -- arithmetic (Definition 3.1) ----------------------------------------

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        theirs = other._amounts
        amounts = {n: v + theirs.get(n, 0.0) for n, v in self._amounts.items()}
        for n, v in theirs.items():
            if n not in amounts:
                amounts[n] = 0.0 + v
        return ResourceVector._trusted(amounts)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Component-wise difference, clamped at zero.

        Used by monitors to track remaining availability after placement;
        clamping (rather than raising) mirrors a device reporting an
        exhausted resource as "none left".
        """
        if not isinstance(other, ResourceVector):
            return NotImplemented
        theirs = other._amounts
        amounts = {
            n: max(0.0, v - theirs.get(n, 0.0)) for n, v in self._amounts.items()
        }
        for n in theirs:
            if n not in amounts:
                # max(0.0, 0.0 - v) for any v >= 0.
                amounts[n] = 0.0
        return ResourceVector._trusted(amounts)

    def __mul__(self, factor: Number) -> "ResourceVector":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        if not 0 <= factor < math.inf:
            raise ValueError(
                "cannot scale a resource vector by a negative or non-finite "
                f"factor, got {factor!r}"
            )
        return ResourceVector._trusted(
            {n: v * factor for n, v in self._amounts.items()}
        )

    __rmul__ = __mul__

    # -- comparison (Definition 3.2) -----------------------------------------

    def fits_within(self, availability: "ResourceVector") -> bool:
        """Definition 3.2: ``R <= RA`` component-wise.

        Every non-zero requirement must have a matching resource on the
        availability side with at least that amount. Resources the
        availability names but the requirement omits are treated as zero
        requirements.
        """
        available = availability._amounts
        for name, required in self._amounts.items():
            if required > 0 and required > available.get(name, 0.0):
                return False
        return True

    def dominates(self, other: "ResourceVector") -> bool:
        """True when every component of ``self`` is >= the one in ``other``."""
        return other.fits_within(self)

    # -- helpers -------------------------------------------------------------

    def scaled(self, factors: Mapping[str, float]) -> "ResourceVector":
        """Scale named components independently (missing names: factor 1).

        This is the primitive used by benchmark normalisation, where e.g.
        CPU amounts are rescaled by a device's relative speed while memory
        amounts are untouched.
        """
        return ResourceVector(
            {n: v * factors.get(n, 1.0) for n, v in self._amounts.items()}
        )

    def names(self) -> Iterable[str]:
        """Return the resource names present in the vector."""
        return self._amounts.keys()

    def is_zero(self) -> bool:
        """True when every component is zero (or the vector is empty)."""
        return all(v == 0.0 for v in self._amounts.values())

    @staticmethod
    def sum(vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Sum a collection of vectors (Definition 3.1 over the collection).

        One pass, one dict: each name's total is ``0.0 + a1 + a2 + ...``
        over the vectors that hold it, in order, and names keep their
        first-appearance order. That is bit for bit the fold
        ``ZERO + a1 + a2 + ...`` (adding the ``0.0`` a vector lacking the
        name would contribute never changes a non-negative total).
        """
        totals: Dict[str, float] = {}
        get = totals.get
        for vector in vectors:
            for n, v in vector._amounts.items():
                totals[n] = get(n, 0.0) + v
        return ResourceVector._trusted(totals) if totals else ZERO


ZERO = ResourceVector()


def weighted_magnitude(
    vector: ResourceVector, weights: Optional[Mapping[str, float]] = None
) -> float:
    """The "weighted sum of different resources" from Section 3.3.

    The distribution heuristic measures both resource availability and
    resource requirement as a scalar via this weighted sum (footnote 3 of
    the paper). With no weights given, all resources weigh equally.
    """
    amounts = vector._amounts
    if weights is None:
        return sum(amounts.values())
    return sum(weights.get(name, 0.0) * amount for name, amount in amounts.items())
