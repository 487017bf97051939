"""The counts of every report are Python ints.

Reports are serialized by `json`, which refuses numpy scalars, and the
sweeps tally numpy arrays (`np.count_nonzero` returns a numpy integer), so
each tally must convert its count.  Every checker of `SPECS` runs here at
q=3 and q=4, exhaustive and sampled, beside the symmetry verifier, the
axiom validator, and runs that record violations: a Holds report alone
never reaches `CheckReport.record`'s count."""

from __future__ import annotations

import json

import pytest

from laguerre_lab import checks
from laguerre_lab.checks import SPECS
from laguerre_lab.errors import NotALaguerrePlane
from laguerre_lab.models import miquelian_plane, oval_plane, oval_table_power
from laguerre_lab.report import CheckMode
from laguerre_lab.symmetry import Automorphism, build_dts, sample_nontangent_pairs, verify_dts

COUNTS = ("configurations", "hypothesis_hits", "skipped", "violation_count")
MODES = {"exhaustive": CheckMode.exhaustive(), "sampled": CheckMode.sample(3000, 7)}


def assert_int_counts(report):
    counts = {name: getattr(report, name) for name in COUNTS}
    assert {name: type(v) for name, v in counts.items()} == dict.fromkeys(COUNTS, int), \
        report.check_id
    json.dumps(counts)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("check_id", SPECS)
def test_every_checker_counts_in_python_ints(check_id, q, mode):
    assert_int_counts(SPECS[check_id].run(miquelian_plane(q), MODES[mode]))


@pytest.mark.parametrize("mode", MODES)
def test_recorded_violations_count_in_python_ints(monkeypatch, mode):
    plane = miquelian_plane(3)
    one_tangent = checks._one_tangent
    monkeypatch.setattr(checks, "_one_tangent", lambda counts: ~one_tangent(counts))
    report = SPECS["C"].run(plane, MODES[mode])
    assert report.violation_count > 0
    assert_int_counts(report)


def test_verify_dts_counts_in_python_ints():
    plane = miquelian_plane(5)
    K, L = sample_nontangent_pairs(plane, 1, seed=5)[0]
    held = verify_dts(plane, build_dts(plane, K, L), K, L)
    refused = verify_dts(plane, Automorphism.identity(plane), K, L)
    assert (held.verdict, refused.verdict) == ("Holds", "Fails")
    for report in (held, refused):
        assert_int_counts(report)


def test_validator_counts_in_python_ints():
    assert_int_counts(miquelian_plane(4).validate_axioms())
    with pytest.raises(NotALaguerrePlane) as refused:
        oval_plane(7, oval_table_power(7, 3))
    assert refused.value.report.violation_count > 0
    assert_int_counts(refused.value.report)
