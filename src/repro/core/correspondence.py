"""Correspondence between random choices of two programs (Section 5).

A correspondence is a bijection ``f : F_Q -> F_P`` between (subsets of)
the random-choice addresses of the new program ``Q`` and the old program
``P``.  Choices in correspondence are believed to play the same role in
both programs; the translator reuses their values.

Correspondences may be given extensionally (a dict), as the identity
over a set of addresses (the common case when ``Q`` extends ``P`` — e.g.
the hidden states of the HMM experiment), or intensionally as a pair of
functions (for unboundedly many addresses, as with the loop indexing of
Section 5.4).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from .address import Address, normalize_address

__all__ = ["Correspondence"]


# The stock constructors build their forward/backward maps from these
# module-level callables rather than local closures so two
# correspondences can be compared by their pickled bytes (the
# static-vs-sampled derivation gate does exactly that).

class _IdentityOverSet:
    """``f(a) = a`` when ``a`` is in a fixed address set, else None."""

    __slots__ = ("addresses",)

    def __init__(self, addresses: frozenset):
        self.addresses = addresses

    def __call__(self, address: Address) -> Optional[Address]:
        return address if address in self.addresses else None


class _IdentityByPredicate:
    """``f(a) = a`` when ``predicate(a)``, else None.

    Picklable iff the predicate is (module-level functions are; lambdas
    are not).
    """

    __slots__ = ("predicate",)

    def __init__(self, predicate: Callable[[Address], bool]):
        self.predicate = predicate

    def __call__(self, address: Address) -> Optional[Address]:
        return address if self.predicate(address) else None


class _MappingLookup:
    """``f(a) = mapping.get(a)`` over a concrete dict."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Dict[Address, Address]):
        self.mapping = mapping

    def __call__(self, address: Address) -> Optional[Address]:
        return self.mapping.get(address)


class _EmptyMap:
    """``f(a) = None`` for every address."""

    __slots__ = ()

    def __call__(self, address: Address) -> Optional[Address]:
        return None


class Correspondence:
    """Bijection between addresses of the target and source programs.

    ``forward(q_address)`` returns the corresponding source address, or
    ``None`` when ``q_address`` is not in ``F_Q``; ``backward`` is the
    inverse.
    """

    def __init__(
        self,
        forward: Callable[[Address], Optional[Address]],
        backward: Callable[[Address], Optional[Address]],
        description: str = "custom",
    ):
        self._forward = forward
        self._backward = backward
        self.description = description

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dict(cls, mapping: Dict) -> "Correspondence":
        """Extensional correspondence from ``{q_address: p_address}``.

        Raises ``ValueError`` when the mapping is not injective, since a
        correspondence must be a bijection onto its image.
        """
        forward_map = {
            normalize_address(q): normalize_address(p) for q, p in mapping.items()
        }
        backward_map: Dict[Address, Address] = {}
        for q_address, p_address in forward_map.items():
            if p_address in backward_map:
                raise ValueError(
                    f"correspondence is not injective: {p_address!r} is the image "
                    f"of both {backward_map[p_address]!r} and {q_address!r}"
                )
            backward_map[p_address] = q_address
        return cls(
            _MappingLookup(forward_map),
            _MappingLookup(backward_map),
            description=f"dict({len(forward_map)})",
        )

    @classmethod
    def identity(cls, addresses: Iterable) -> "Correspondence":
        """Identity correspondence over an explicit set of addresses."""
        forward = _IdentityOverSet(frozenset(normalize_address(a) for a in addresses))
        return cls(forward, forward, description=f"identity({len(forward.addresses)})")

    @classmethod
    def identity_by_predicate(cls, predicate: Callable[[Address], bool]) -> "Correspondence":
        """Identity correspondence over all addresses satisfying ``predicate``.

        Useful when the shared addresses form an unbounded family, e.g.
        ``lambda a: a[0] == "hidden"`` for the HMM hidden states.
        """
        forward = _IdentityByPredicate(predicate)
        return cls(forward, forward, description="identity-by-predicate")

    @classmethod
    def empty(cls) -> "Correspondence":
        """The empty correspondence: everything is resampled from scratch."""
        return cls(_EmptyMap(), _EmptyMap(), description="empty")

    # -- queries ------------------------------------------------------------

    def forward(self, q_address) -> Optional[Address]:
        """``f(q_address)``: the source address, or None if not in ``F_Q``."""
        return self._forward(normalize_address(q_address))

    def backward(self, p_address) -> Optional[Address]:
        """``f^{-1}(p_address)``: the target address, or None if not in ``F_P``."""
        return self._backward(normalize_address(p_address))

    def inverse(self) -> "Correspondence":
        """The inverse bijection (used by the backward kernel, Eq. 7)."""
        return Correspondence(
            self._backward, self._forward, description=f"inverse({self.description})"
        )

    # -- introspection (repro.analysis) -------------------------------------

    def known_pairs(self) -> Optional[list]:
        """The explicit ``(q_address, p_address)`` pairs, when enumerable.

        Extensional correspondences (``from_dict``, ``identity``,
        ``empty``) can list every pair they relate; intensional ones
        (``identity_by_predicate``, custom callables) cannot, and return
        ``None``.  The static validator uses this to check a
        correspondence exhaustively where possible and to fall back to
        sampled address profiles where not.
        """
        forward = self._forward
        if isinstance(forward, _MappingLookup):
            return sorted(forward.mapping.items(), key=repr)
        if isinstance(forward, _IdentityOverSet):
            return sorted(((a, a) for a in forward.addresses), key=repr)
        if isinstance(forward, _EmptyMap):
            return []
        return None

    @property
    def is_intensional(self) -> bool:
        """True when the related pairs cannot be enumerated statically."""
        return self.known_pairs() is None

    def __repr__(self) -> str:
        return f"Correspondence({self.description})"
