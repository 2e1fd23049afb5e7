"""Structural alignment of two models' address spaces.

:func:`derive_correspondence` is the subsystem's entry point: it
profiles both models with
:func:`repro.analysis.correspondence.profile_model` (exhaustive trace
enumeration when the model is finite and discrete, seeded forward
simulation otherwise — observations are external constraints, so
profiles contain only *latent* choices) and aligns the two address
spaces in three stages:

1. **Exact fast path** — an address observed in both programs whose
   distribution supports are compatible is matched to itself.  Supports
   that can *never* be equal (disjoint support types, e.g. a ``flip``
   address that became a ``gauss``) block the match: reuse would be
   impossible anyway (Section 5.1), so the address is left fresh and the
   rejection recorded in the report's notes.
2. **Family rules** — indexed families like ``("hidden", i)`` whose
   observed members all matched exactly get an open identity rule, so
   the derived map keeps covering new indices when the observation
   window grows (the paper's Section 5.4 loop-indexing scheme, C3-style
   callsite/loop-index awareness).
3. **Rename alignment** — leftover addresses are grouped into families
   (head + index arity) and greedily matched across heads, requiring
   support-type compatibility and preferring supports that were observed
   equal, then closer family cardinality, then larger index overlap.
   Each source family is consumed at most once, so the result stays
   injective.  A matched indexed family contributes both per-index
   pairs and an open head-rename rule.

The result is a :class:`~repro.core.correspondence.Correspondence` (its
forward/backward callables are the module-level :class:`_DerivedMap`,
never closures, so two derivations compare equal by their pickled bytes)
plus the :class:`~repro.derive.report.DerivationReport` evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..analysis.correspondence import (
    DEFAULT_SAMPLES,
    AddressProfile,
    _supports_compatible,
    profile_model,
)
from ..core.address import Address
from ..core.correspondence import Correspondence
from ..core.model import Model
from .report import AddressMatch, DerivationReport, match_confidence, sort_key

__all__ = ["Derivation", "derive_correspondence", "derive_label_map"]


class _DerivedMap:
    """Exact pairs first, then open head-rename rules for indexed tails."""

    __slots__ = ("pairs", "heads")

    def __init__(self, pairs: Dict[Address, Address], heads: Dict[Hashable, Hashable]):
        self.pairs = pairs
        self.heads = heads

    def __call__(self, address: Address) -> Optional[Address]:
        hit = self.pairs.get(address)
        if hit is not None:
            return hit
        # Family rules only cover indexed addresses: a bare head is
        # either an exact pair or outside the correspondence.
        if len(address) > 1:
            mapped = self.heads.get(address[0])
            if mapped is not None:
                return (mapped,) + tuple(address[1:])
        return None


@dataclass
class Derivation:
    """What :func:`derive_correspondence` returns."""

    correspondence: Correspondence
    report: DerivationReport


def _family_key(address: Address) -> Tuple[Hashable, int]:
    """Group addresses by head and index arity (``("hidden", i)`` -> 1)."""
    return (address[0] if address else None, max(len(address) - 1, 0))


def _group_families(
    addresses: List[Address],
) -> Dict[Tuple[Hashable, int], List[Address]]:
    families: Dict[Tuple[Hashable, int], List[Address]] = {}
    for address in addresses:
        families.setdefault(_family_key(address), []).append(address)
    return families


def _family_supports(profile: AddressProfile, members: List[Address]) -> List[Any]:
    supports: List[Any] = []
    for address in members:
        for support in profile.supports.get(address, []):
            if support not in supports:
                supports.append(support)
    return supports


def _tails(members: List[Address]) -> set:
    return {address[1:] for address in members}


def derive_correspondence(
    old_model: Model,
    new_model: Model,
    *,
    observations: Optional[Dict[Any, Any]] = None,
    rng: Optional[np.random.Generator] = None,
    num_samples: int = DEFAULT_SAMPLES,
    profile_method: str = "auto",
) -> Derivation:
    """Derive the address correspondence from ``old_model`` to ``new_model``.

    ``old_model`` is the old program ``P``, ``new_model`` the new
    program ``Q``; the derived map is the forward bijection ``f : F_Q ->
    F_P`` a :class:`~repro.core.corr_translator.CorrespondenceTranslator`
    consumes.  ``observations`` optionally conditions the new model
    before profiling (a convenience for deriving against data that has
    not been attached yet); ``rng`` seeds the profiling simulations when
    enumeration is impossible (a fixed seed when omitted, so derivation
    is deterministic).  ``profile_method`` is forwarded to
    :func:`~repro.analysis.correspondence.profile_model`: the default
    ``"auto"`` profiles statically (deterministic, zero RNG draws)
    whenever the abstract interpreter closes both models, and the
    alignment consumes only the profiles, so a static derivation is
    byte-identical to a sampled one whenever their profiles agree.
    """
    if observations:
        new_model = new_model.condition(observations)
    rng = rng if rng is not None else np.random.default_rng(0)
    p_profile = profile_model(old_model, rng, num_samples, method=profile_method)
    q_profile = profile_model(new_model, rng, num_samples, method=profile_method)

    report = DerivationReport(
        source_name=p_profile.name,
        target_name=q_profile.name,
        source_complete=p_profile.complete,
        target_complete=q_profile.complete,
    )
    if p_profile.method or q_profile.method:
        # The codec's $derep field list is closed, so the profiling
        # strategy lands in notes rather than a new report field.
        report.notes.append(
            f"profiles: source={p_profile.method or 'unknown'} "
            f"target={q_profile.method or 'unknown'}"
        )
    pairs: Dict[Address, Address] = {}
    heads: Dict[Hashable, Hashable] = {}
    matched_p: set = set()

    q_addresses = sorted(q_profile.supports, key=sort_key)
    p_addresses = sorted(p_profile.supports, key=sort_key)

    # -- stage 1: exact-address fast path -----------------------------------
    leftover_q: List[Address] = []
    exact_by_family: Dict[Tuple[Hashable, int], int] = {}
    for q_address in q_addresses:
        if q_address not in p_profile:
            leftover_q.append(q_address)
            continue
        ever_equal, types_overlap = _supports_compatible(
            q_profile.supports[q_address], p_profile.supports[q_address]
        )
        if not ever_equal and not types_overlap:
            report.notes.append(
                f"address {q_address!r} occurs in both programs but its "
                f"supports are type-incompatible "
                f"({q_profile.supports[q_address]} vs "
                f"{p_profile.supports[q_address]}); no value could ever be "
                "reused, so it is left out of the correspondence"
            )
            leftover_q.append(q_address)
            continue
        pairs[q_address] = q_address
        matched_p.add(q_address)
        exact_by_family[_family_key(q_address)] = (
            exact_by_family.get(_family_key(q_address), 0) + 1
        )
        report.matches.append(
            AddressMatch(
                target=q_address,
                source=q_address,
                kind="exact",
                confidence=match_confidence("exact", ever_equal),
                evidence=(
                    "same address in both programs; supports "
                    + ("observed equal" if ever_equal else "overlap in type only")
                ),
            )
        )

    # -- stage 2: open identity rules for exactly-matched indexed families --
    # A family whose observed members all matched to themselves behaves
    # like a hand-written identity-by-predicate map: extend it to unseen
    # indices so the correspondence survives window growth.
    q_families_all = _group_families(list(q_profile.supports))
    for (head, arity), count in sorted(exact_by_family.items(), key=repr):
        if arity == 0 or head is None:
            continue
        members = q_families_all[(head, arity)]
        unmatched_members = [a for a in members if a not in pairs]
        cross_matched = [
            a for a in members if a in pairs and pairs[a][0] != head
        ]
        if not cross_matched and not any(
            a in p_profile and a not in matched_p for a in unmatched_members
        ):
            heads[head] = head

    # -- stage 3: rename alignment over the leftovers ------------------------
    leftover_p = [a for a in p_addresses if a not in matched_p]
    q_families = _group_families(
        [a for a in leftover_q if _family_key(a)[0] not in heads]
    )
    p_families = _group_families(leftover_p)
    consumed_p_families: set = set()
    used_p_heads = {p_head for p_head in heads.values()}

    for q_key in sorted(q_families, key=repr):
        q_head, arity = q_key
        q_members = q_families[q_key]
        q_supports = _family_supports(q_profile, q_members)
        q_tails = _tails(q_members)
        best: Optional[Tuple[Tuple, Tuple[Hashable, int], bool]] = None
        for p_key in sorted(p_families, key=repr):
            p_head, p_arity = p_key
            if p_arity != arity or p_key in consumed_p_families:
                continue
            if arity > 0 and p_head in used_p_heads:
                continue
            p_members = p_families[p_key]
            ever_equal, types_overlap = _supports_compatible(
                q_supports, _family_supports(p_profile, p_members)
            )
            if not ever_equal and not types_overlap:
                report.notes.append(
                    f"candidate rename {q_head!r} -> {p_head!r} rejected: "
                    "support types are disjoint, so corresponding values "
                    "could never be reused"
                )
                continue
            overlap = len(q_tails & _tails(p_members))
            score = (
                1 if ever_equal else 0,
                -abs(len(q_members) - len(p_members)),
                overlap,
            )
            # Candidates are visited in sorted-head order and replaced
            # only on a strictly better score, so ties resolve to the
            # smallest head deterministically.
            if best is None or score > best[0]:
                best = (score, p_key, ever_equal)
        if best is None:
            continue
        _score, p_key, ever_equal = best
        p_head = p_key[0]
        consumed_p_families.add(p_key)
        p_members = p_families[p_key]
        p_by_tail = {address[1:]: address for address in p_members}
        shared = 0
        for q_address in sorted(q_members, key=sort_key):
            p_address = p_by_tail.get(q_address[1:])
            if p_address is None:
                continue
            pair_equal, _ = _supports_compatible(
                q_profile.supports[q_address], p_profile.supports[p_address]
            )
            pairs[q_address] = p_address
            matched_p.add(p_address)
            shared += 1
            report.matches.append(
                AddressMatch(
                    target=q_address,
                    source=p_address,
                    kind="rename",
                    confidence=match_confidence("rename", pair_equal),
                    evidence=(
                        f"family {q_head!r} aligned to {p_head!r} "
                        f"(arity {arity}, {len(q_members)} vs {len(p_members)} "
                        "members); supports "
                        + ("observed equal" if pair_equal else "overlap in type only")
                    ),
                )
            )
        if arity > 0 and shared and q_head is not None and p_head is not None:
            heads[q_head] = p_head
            used_p_heads.add(p_head)

    # -- bookkeeping: the unmatched remainder --------------------------------
    forward = _DerivedMap(pairs, heads)
    for q_address in q_addresses:
        if forward(q_address) is None or (
            q_address not in pairs and forward(q_address) not in p_profile
        ):
            report.fresh.append(q_address)
    report.dropped = [a for a in p_addresses if a not in matched_p]
    report.family_rules = dict(heads)

    backward_pairs: Dict[Address, Address] = {}
    for q_address, p_address in pairs.items():
        if p_address in backward_pairs:  # pragma: no cover - aligner defect
            raise ValueError(
                f"derived correspondence is not injective at {p_address!r}"
            )
        backward_pairs[p_address] = q_address
    backward_heads = {p: q for q, p in heads.items()}

    correspondence = Correspondence(
        forward,
        _DerivedMap(backward_pairs, backward_heads),
        description=(
            f"derived({len(pairs)} pairs, {len(heads)} family rules)"
        ),
    )
    return Derivation(correspondence=correspondence, report=report)


def derive_label_map(derivation: Derivation) -> Dict[str, str]:
    """Project a lang-model derivation down to a new->old label map.

    Structured-language run-time addresses are ``(label,
    *loop_indices)``; the derived correspondence's head behaviour is
    therefore exactly a label map, which
    :func:`repro.analysis.validate_label_map` can check statically
    against the two programs' random expressions.
    """
    labels: Dict[str, str] = {}
    for q_head, p_head in derivation.report.family_rules.items():
        if isinstance(q_head, str) and isinstance(p_head, str):
            labels[q_head] = p_head
    for match in derivation.report.matches:
        q_head, p_head = match.target[0], match.source[0]
        if isinstance(q_head, str) and isinstance(p_head, str):
            labels.setdefault(q_head, p_head)
    return labels
