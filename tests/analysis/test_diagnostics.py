"""Tests for the shared diagnostic model (repro.analysis.diagnostics)."""

import pytest

from repro.analysis import (
    SEVERITIES,
    AnalysisResult,
    Diagnostic,
    max_severity,
    severity_rank,
)


class TestDiagnostic:
    def test_positional_compatibility(self):
        # The historical two-field form must keep working.
        d = Diagnostic("error", "boom")
        assert d.severity == "error"
        assert str(d) == "error: boom"

    def test_str_appends_code_suffix(self):
        d = Diagnostic("warning", "msg", code="corr-not-injective")
        assert str(d).startswith("warning: msg")
        assert "[corr-not-injective]" in str(d)

    def test_is_shared_with_lang_check(self):
        from repro.lang import check_program, parse_program

        (finding,) = check_program(parse_program("return y;"))
        assert type(finding) is Diagnostic

    def test_with_context_fills_only_unset(self):
        d = Diagnostic("info", "m", pass_name="edits")
        stamped = d.with_context(pass_name="other", target="t")
        assert stamped.pass_name == "edits"
        assert stamped.target == "t"

    def test_with_context_noop_returns_self(self):
        d = Diagnostic("info", "m", pass_name="p", target="t")
        assert d.with_context(pass_name="x", target="y") is d

    def test_to_dict_drops_none_fields(self):
        d = Diagnostic("error", "m", code="c")
        assert d.to_dict() == {"severity": "error", "message": "m", "code": "c"}


class TestSeverity:
    def test_total_order(self):
        ranks = [severity_rank(s) for s in SEVERITIES]
        assert ranks == sorted(ranks)
        assert severity_rank("info") < severity_rank("warning") < severity_rank("error")

    def test_unknown_severity_raises(self):
        with pytest.raises(ValueError, match="unknown severity"):
            severity_rank("fatal")

    def test_max_severity(self):
        diags = [Diagnostic("info", "a"), Diagnostic("warning", "b")]
        assert max_severity(diags) == "warning"
        assert max_severity([]) is None


class TestAnalysisResult:
    def test_extend_stamps_context(self):
        result = AnalysisResult()
        result.extend([Diagnostic("error", "m")], pass_name="p", target="t")
        assert result.diagnostics[0].pass_name == "p"
        assert result.diagnostics[0].target == "t"

    def test_counts_and_errors(self):
        result = AnalysisResult()
        result.extend(
            [Diagnostic("error", "a"), Diagnostic("info", "b"), Diagnostic("info", "c")]
        )
        assert result.counts() == {"error": 1, "warning": 0, "info": 2}
        assert result.has_errors
        assert len(result.errors) == 1

    def test_sorted_most_severe_first(self):
        result = AnalysisResult()
        result.extend(
            [Diagnostic("info", "i"), Diagnostic("error", "e"), Diagnostic("warning", "w")]
        )
        assert [d.severity for d in result.sorted()] == ["error", "warning", "info"]

    def test_to_dict_roundtrips_through_json(self):
        import json

        result = AnalysisResult()
        result.extend([Diagnostic("warning", "m", code="c")], target="t")
        report = json.loads(json.dumps(result.to_dict()))
        assert report["version"] == 1
        assert report["summary"]["warning"] == 1
        assert report["diagnostics"][0]["target"] == "t"
