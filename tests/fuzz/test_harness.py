"""Tests for the differential fuzzing campaign and its matrix integration."""

import pytest

from repro.fuzz import (
    FuzzProgram,
    fuzz_cells,
    run_fuzz,
    shrink_divergence,
)
from repro.harness.matrix import FUZZ_KIND, run_matrix


class TestCampaign:
    def test_small_campaign_is_clean(self):
        result = run_fuzz(budget=8, seed=123)
        assert result.ok
        assert len(result.specs) == 8
        assert result.cells_checked == 8 * 5
        assert result.divergences == []
        assert result.matrix.errors == []
        assert result.programs_per_second > 0
        payload = result.as_dict()
        assert payload["ok"] is True
        assert payload["cells"] == 40
        assert "fuzz:" in result.summary()

    def test_campaign_is_deterministic(self):
        first = run_fuzz(budget=5, seed=77, models=("sc",))
        second = run_fuzz(budget=5, seed=77, models=("sc",))
        assert first.specs == second.specs

    def test_parallel_matches_serial_verdicts(self):
        serial = run_fuzz(budget=6, seed=5, models=("sc", "relaxed"), jobs=1)
        # Six programs make six shards, so the pool really runs.
        parallel = run_fuzz(budget=6, seed=5, models=("sc", "relaxed"), jobs=2)
        assert serial.specs == parallel.specs
        assert [r.verdict for r in serial.matrix.results] == [
            r.verdict for r in parallel.matrix.results
        ]


class TestDegradedCampaigns:
    def test_all_inconclusive_campaign_is_not_ok(self, monkeypatch):
        # If every cell skips the comparison the campaign checked nothing;
        # that must not read as a pass (it gates CI).
        from repro.oracle import enumerator as enumerator_module
        from repro.oracle.enumerator import INCONCLUSIVE, OracleResult

        def always_inconclusive(compiled, model, **kwargs):
            from repro.memorymodel.base import get_model

            return OracleResult(
                status=INCONCLUSIVE, model=get_model(model).name,
                reason="forced by test",
            )

        monkeypatch.setattr(
            enumerator_module, "enumerate_outcomes", always_inconclusive
        )
        monkeypatch.setattr(
            "repro.oracle.differ.enumerate_outcomes", always_inconclusive
        )
        result = run_fuzz(budget=4, seed=2, models=("sc",), jobs=1)
        assert len(result.inconclusive) == result.cells_checked == 4
        assert not result.divergences
        assert not result.ok
        assert "nothing was compared" in result.summary()

    def test_sat_mining_overflow_is_inconclusive_not_an_error(self):
        from repro.fuzz import FuzzProgram
        from repro.oracle import differential_check

        report = differential_check(
            FuzzProgram.parse("x=1 r0=y | y=1 r1=x").compile(), "tso",
            max_outcomes=2,
        )
        assert report.inconclusive
        assert "overflow" in report.reason
        assert "INCONCLUSIVE" in report.describe()
        assert report.ok  # skipped, not a divergence

    def test_generator_shortfall_is_visible(self):
        from repro.fuzz import FuzzConfig

        # Only three distinct single-op single-address programs exist.
        tiny = FuzzConfig(min_threads=1, max_threads=1, min_ops=1,
                          max_ops=1, num_addresses=1)
        result = run_fuzz(budget=50, seed=1, models=("sc",), config=tiny)
        assert len(result.specs) < 50
        assert result.shortfall == 50 - len(result.specs)
        assert "short" in result.summary()
        assert result.as_dict()["shortfall"] == result.shortfall
        assert result.ok  # a small space is not an error


class TestFuzzCells:
    def test_cells_cross_programs_and_models(self):
        cells = fuzz_cells(["x=1 r0=y", "y=1 r0=x"], ["sc", "tso"])
        assert len(cells) == 4
        assert all(cell.kind == FUZZ_KIND for cell in cells)
        assert cells[0].implementation == "enumerator+sat"
        assert cells[0].test == "x=1 r0=y"

    def test_every_engine_selection_travels_in_the_implementation_column(
        self,
    ):
        cells = fuzz_cells(["x=1 r0=y"], ["sc"], engines="sat,rfcheck")
        assert [(c.kind, c.implementation) for c in cells] == [
            (FUZZ_KIND, "rfcheck+sat")
        ]
        matrix = run_matrix(cells)
        assert matrix.ok
        assert set(matrix.results[0].stats["engines"]) == {"rfcheck", "sat"}

    def test_unparseable_spec_is_a_cell_error_not_a_crash(self):
        matrix = run_matrix(fuzz_cells(["this is not a spec"], ["sc"]))
        assert not matrix.ok
        assert matrix.results[0].error
        assert "FuzzSpecError" in matrix.results[0].error

    def test_fuzz_cell_verdict_strings(self):
        matrix = run_matrix(fuzz_cells(["x=1 r0=y | y=1 r1=x"], ["sc"]))
        assert matrix.ok
        assert matrix.results[0].verdict == "agree"
        engines = matrix.results[0].stats["engines"]
        assert engines["enumerator"]["outcomes"] == 3
        assert engines["sat"]["outcomes"] == 3


class TestMutationDetection:
    """The acceptance gate: an injected encoder bug must not survive a
    fuzzing campaign."""

    # drop_same_address_axiom comes from tests/conftest.py and disables
    # both halves of axiom 1 (static + symbolic).

    def test_fuzzer_catches_dropped_axiom(self, drop_same_address_axiom):
        # jobs=1 keeps every check in-process so the monkeypatch applies.
        result = run_fuzz(budget=40, seed=1, jobs=1)
        assert not result.ok
        assert result.divergences
        for divergence in result.divergences:
            # Shrunk reproducers stay replayable and still diverge.
            assert FuzzProgram.parse(divergence.shrunk_spec)
            assert divergence.pairs
            assert all(
                pair["only_in_first"] or pair["only_in_second"]
                for pair in divergence.pairs
            )

    def test_shrinker_minimizes(self, drop_same_address_axiom):
        program = FuzzProgram.parse("y=2 x=1 x=2 f(ss) | r0=x f(ll) r1=x r2=y")
        shrunk, report = shrink_divergence(program, "relaxed")
        assert report.diverged
        before = sum(len(t) for t in program.threads)
        after = sum(len(t) for t in shrunk.threads)
        assert after < before
        # No single further removal keeps the divergence.
        for candidate in shrunk.shrink_candidates():
            from repro.oracle import differential_check

            smaller = differential_check(candidate.compile(), "relaxed")
            assert not smaller.diverged
