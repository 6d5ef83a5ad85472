"""Rendering of the verification transcript."""

import pytest

from sheafatlas.atlas import CheckResult, VerificationSummary
from sheafatlas.render import verification_text


@pytest.mark.parametrize("failed, suffix", [(12, " (and 2 more)"), (10, "")],
                         ids=["dropped", "complete"])
def test_failure_list_counts_the_dropped_labels(failed, suffix):
    labels = tuple("S/R/s=%d" % i for i in range(10))
    check = CheckResult("c2-additivity", passed=3, failed=failed,
                        failures=labels)
    summary = VerificationSummary(k=5, checks=(check,), erratum_notes=())
    lines = verification_text([summary], (check,)).splitlines()
    listed = "; ".join(labels) + suffix
    assert lines[1] == "    FAIL c2-additivity: " + listed
    assert lines[4] == "    failures: " + listed
