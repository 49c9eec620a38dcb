"""The Table I / Fig. 4 harness itself (fast profile, both backends)."""

from __future__ import annotations

import pytest

from repro.analysis.fig4 import run_fig4
from repro.analysis.table1 import PAPER_WORKER_COUNTS, render_table, run_table1


@pytest.fixture(scope="module")
def mock_rows():
    return run_table1(profile="test", backend_name="mock",
                      worker_counts=(3, 5, 7))


def test_table1_row_structure(mock_rows) -> None:
    assert len(mock_rows) == 4  # auth + three majority sizes
    assert mock_rows[0].label == "Anonymous authentication"
    assert mock_rows[1].label == "Majority (3-Worker)"


def test_table1_proof_size_constant(mock_rows) -> None:
    sizes = {row.proof_bytes for row in mock_rows}
    assert len(sizes) == 1  # succinctness: constant across circuits


def test_table1_key_and_input_sizes_grow_with_n(mock_rows) -> None:
    majority = mock_rows[1:]
    keys = [row.key_bytes for row in majority]
    inputs = [row.input_bytes for row in majority]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert inputs == sorted(inputs) and len(set(inputs)) == len(inputs)


def test_table1_constraints_grow_with_n(mock_rows) -> None:
    constraints = [row.constraints for row in mock_rows[1:]]
    assert constraints == sorted(constraints)


def test_table1_full_counts_and_render() -> None:
    rows = run_table1(profile="test", backend_name="mock")
    assert len(rows) == 1 + len(PAPER_WORKER_COUNTS)
    text = render_table(rows)
    assert "TABLE I" in text
    assert "paper:" in text
    assert "Majority (11-Worker)" in text


def test_fig4_runs_and_summarizes() -> None:
    result = run_fig4(profile="test", backend_name="mock", runs=5)
    assert result.stats.count == 5
    assert result.stats.minimum <= result.stats.median <= result.stats.maximum
    text = result.render()
    assert "FIG. 4" in text and "paper:" in text


@pytest.mark.slow
def test_fig4_groth16_single_run() -> None:
    """One real-proof sample to keep the pairing path covered."""
    result = run_fig4(profile="test", backend_name="groth16", runs=1)
    assert result.stats.count == 1
    assert result.stats.median > 0


# ----- result checks survive ``python -O`` ------------------------------------


def test_fig4_raises_when_an_attestation_does_not_verify(monkeypatch) -> None:
    from repro.anonauth.scheme import AnonymousAuthScheme
    from repro.errors import VerificationError

    monkeypatch.setattr(AnonymousAuthScheme, "verify", lambda *args: False)
    with pytest.raises(VerificationError, match="run 0"):
        run_fig4(profile="test", backend_name="mock", runs=1)


def test_trace_demo_raises_when_the_audit_fails(monkeypatch) -> None:
    from repro import observability as obs
    from repro.analysis.trace_report import run_demo_round
    from repro.core.protocol import TaskHandle
    from repro.errors import VerificationError

    was_enabled = obs.enabled()
    monkeypatch.setattr(TaskHandle, "audit_submissions", lambda self: False)
    with pytest.raises(VerificationError, match="audit"):
        run_demo_round()
    assert obs.enabled() == was_enabled
