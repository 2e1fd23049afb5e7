"""Tests for the address-space aligner (repro.derive.align)."""

import pickle

import numpy as np
import pytest

from repro import Model
from repro.derive import derive_correspondence, derive_label_map
from repro.distributions import Categorical, Flip, Normal


def chain_model(head, length, name):
    """``length`` Normal choices addressed ``(head, i)``."""

    def fn(t):
        value = 0.0
        for i in range(length):
            value = t.sample(Normal(value, 1.0), (head, i))
        return value

    return Model(fn, name=name)


def flat_model(dists, name):
    """One choice per ``(address, distribution)`` pair, in order."""

    def fn(t):
        out = None
        for address, dist in dists:
            out = t.sample(dist, address)
        return out

    return Model(fn, name=name)


class TestExactMatch:
    def test_identical_models_match_exactly(self):
        old = chain_model("h", 3, "old")
        new = chain_model("h", 3, "new")
        d = derive_correspondence(old, new)
        assert d.correspondence.forward(("h", 1)) == ("h", 1)
        assert d.report.num_matched == 3
        assert d.report.fresh == [] and d.report.dropped == []
        assert all(m.kind == "exact" for m in d.report.matches)
        assert d.report.confidence() == 1.0

    def test_reordered_statements_still_match(self):
        old = flat_model([(("a",), Flip(0.5)), (("b",), Normal(0, 1))], "old")
        new = flat_model([(("b",), Normal(0, 1)), (("a",), Flip(0.5))], "new")
        d = derive_correspondence(old, new)
        assert d.correspondence.forward(("a",)) == ("a",)
        assert d.correspondence.forward(("b",)) == ("b",)
        assert d.report.num_matched == 2

    def test_changed_parameters_keep_the_match(self):
        # Normal's support is the real line regardless of parameters, so
        # a sigma edit keeps the exact match at full confidence.
        old = flat_model([(("x",), Normal(0, 2))], "old")
        new = flat_model([(("x",), Normal(0, 3))], "new")
        d = derive_correspondence(old, new)
        assert d.correspondence.forward(("x",)) == ("x",)
        assert d.report.matches[0].confidence == 1.0

    def test_type_overlap_only_lowers_confidence(self):
        # Same support *type* (IntegerRange) but never the same range:
        # the match survives at reduced confidence.
        old = flat_model([(("k",), Categorical((0.5, 0.3, 0.2)))], "old")
        new = flat_model([(("k",), Categorical((0.4, 0.3, 0.2, 0.1)))], "new")
        d = derive_correspondence(old, new)
        match = d.report.match_for(("k",))
        assert match is not None and match.kind == "exact"
        assert match.confidence == 0.75

    def test_support_incompatible_same_address_is_not_matched(self):
        # flip -> gauss at the same address: no value could ever be
        # reused, so the aligner must refuse the match.
        old = flat_model([(("x",), Flip(0.5))], "old")
        new = flat_model([(("x",), Normal(0, 1))], "new")
        d = derive_correspondence(old, new)
        assert d.correspondence.forward(("x",)) is None
        assert d.report.fresh == [("x",)]
        assert d.report.dropped == [("x",)]
        assert any("type-incompatible" in note for note in d.report.notes)


class TestFamilyRules:
    def test_window_growth_is_covered_by_the_open_rule(self):
        # Profiles only see indices 0..2, but the rule extends the map
        # to any index, like a hand-written predicate correspondence.
        old = chain_model("h", 3, "old")
        new = chain_model("h", 3, "new")
        d = derive_correspondence(old, new)
        assert d.report.family_rules == {"h": "h"}
        assert d.correspondence.forward(("h", 7)) == ("h", 7)
        assert d.correspondence.backward(("h", 7)) == ("h", 7)

    def test_grown_family_marks_unseen_indices_fresh(self):
        old = chain_model("h", 3, "old")
        new = chain_model("h", 5, "new")
        d = derive_correspondence(old, new)
        # Indices 3 and 4 map into the old space but were never observed
        # there, so translation samples them fresh — and the report says so.
        assert d.correspondence.forward(("h", 4)) == ("h", 4)
        assert set(d.report.fresh) == {("h", 3), ("h", 4)}
        assert d.report.dropped == []

    def test_shrunk_family_drops_the_tail(self):
        old = chain_model("h", 5, "old")
        new = chain_model("h", 3, "new")
        d = derive_correspondence(old, new)
        assert d.report.num_matched == 3
        assert set(d.report.dropped) == {("h", 3), ("h", 4)}

    def test_bare_heads_get_no_family_rule(self):
        old = flat_model([(("x",), Normal(0, 1))], "old")
        new = flat_model([(("x",), Normal(0, 1))], "new")
        d = derive_correspondence(old, new)
        assert d.report.family_rules == {}
        # The rule must not invent pairs for indexed addresses.
        assert d.correspondence.forward(("x", 0)) is None


class TestRenameAlignment:
    def test_renamed_family_aligns_with_tails_preserved(self):
        old = chain_model("hidden", 4, "old")
        new = chain_model("state", 4, "new")
        d = derive_correspondence(old, new)
        for i in range(4):
            assert d.correspondence.forward(("state", i)) == ("hidden", i)
            assert d.correspondence.backward(("hidden", i)) == ("state", i)
        assert d.report.family_rules == {"state": "hidden"}
        assert all(m.kind == "rename" for m in d.report.matches)
        # Renames never reach exact-match confidence.
        assert d.report.confidence() == 0.6

    def test_rename_extends_to_unseen_indices(self):
        old = chain_model("hidden", 3, "old")
        new = chain_model("state", 3, "new")
        d = derive_correspondence(old, new)
        assert d.correspondence.forward(("state", 9)) == ("hidden", 9)

    def test_support_incompatible_rename_is_rejected(self):
        # A flip family cannot align to a gauss family, even though the
        # shapes agree perfectly.
        old = flat_model([(("coin", i), Flip(0.5)) for i in range(3)], "old")
        new = flat_model([(("level", i), Normal(0, 1)) for i in range(3)], "new")
        d = derive_correspondence(old, new)
        assert d.report.num_matched == 0
        assert len(d.report.fresh) == 3 and len(d.report.dropped) == 3
        assert any("rejected" in note for note in d.report.notes)

    def test_duplicated_families_stay_injective(self):
        # Two same-support, same-shape families on each side: whatever
        # the tie-break picks, each old family is consumed exactly once.
        old = flat_model(
            [(("a", i), Normal(0, 1)) for i in range(2)]
            + [(("b", i), Normal(0, 1)) for i in range(2)],
            "old",
        )
        new = flat_model(
            [(("c", i), Normal(0, 1)) for i in range(2)]
            + [(("d", i), Normal(0, 1)) for i in range(2)],
            "new",
        )
        d = derive_correspondence(old, new)
        sources = [m.source for m in d.report.matches]
        assert len(sources) == len(set(sources)) == 4
        heads = {m.target[0]: m.source[0] for m in d.report.matches}
        assert set(heads) == {"c", "d"}
        assert set(heads.values()) == {"a", "b"}

    def test_nested_loop_families_align_by_arity(self):
        def nested(head, name):
            def fn(t):
                total = 0.0
                for i in range(2):
                    for j in range(2):
                        total += t.sample(Normal(0, 1), (head, i, j))
                return total

            return Model(fn, name=name)

        old = nested("w", "old")
        new = nested("v", "new")
        d = derive_correspondence(old, new)
        assert d.correspondence.forward(("v", 1, 0)) == ("w", 1, 0)
        assert d.report.family_rules == {"v": "w"}

    def test_arity_mismatch_blocks_the_rename(self):
        old = flat_model([(("x", 0, 0), Normal(0, 1))], "old")
        new = flat_model([(("y", 0), Normal(0, 1))], "new")
        d = derive_correspondence(old, new)
        assert d.report.num_matched == 0

    def test_deterministic_across_runs(self):
        old = chain_model("hidden", 4, "old")
        new = chain_model("state", 4, "new")
        first = derive_correspondence(old, new)
        second = derive_correspondence(old, new)
        assert first.report.to_dict() == second.report.to_dict()


class TestDerivedMapMechanics:
    def test_correspondence_is_picklable(self):
        d = derive_correspondence(chain_model("h", 3, "a"), chain_model("s", 3, "b"))
        clone = pickle.loads(pickle.dumps(d.correspondence))
        assert clone.forward(("s", 1)) == ("h", 1)

    def test_observations_condition_the_new_model(self):
        def fn(t):
            x = t.sample(Normal(0, 1), ("x",))
            t.sample(Normal(x, 1), ("y",))
            return x

        old = Model(fn, name="old")
        new = Model(fn, name="new")
        d = derive_correspondence(old, new, observations={("y",): 0.5})
        # The observed address is a constraint, not a latent choice, so
        # it never enters the correspondence.
        assert d.correspondence.forward(("y",)) is None
        assert d.correspondence.forward(("x",)) == ("x",)

    def test_derive_label_map_projects_string_heads(self):
        old = chain_model("hidden", 3, "old")
        new = chain_model("state", 3, "new")
        labels = derive_label_map(derive_correspondence(old, new))
        assert labels == {"state": "hidden"}


class TestValidatorCleanliness:
    @pytest.mark.parametrize(
        "old,new",
        [
            (chain_model("h", 3, "old"), chain_model("h", 3, "new")),
            (chain_model("hidden", 4, "old"), chain_model("state", 4, "new")),
        ],
    )
    def test_derived_maps_validate_without_errors(self, old, new):
        from repro.analysis import validate_correspondence

        d = derive_correspondence(old, new)
        diagnostics = validate_correspondence(
            old, new, d.correspondence, rng=np.random.default_rng(0)
        )
        assert not [x for x in diagnostics if x.severity == "error"]
