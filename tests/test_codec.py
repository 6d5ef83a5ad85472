"""The descriptor codec: every tag round-trips, malformed tags are refused."""

import io
import itertools
import re
from collections import Counter

import pytest

from sheafatlas.atlas import EnumerationOptions, enumerate_components
from sheafatlas.render import write_atlas
from sheafatlas.transform import (
    curve_tag,
    parse_curve,
    parse_reflexive,
    reflexive_tag,
)


def test_every_enumerated_family_round_trips():
    reflexives, curves = set(), set()
    for k, floor in itertools.product(range(3, 13), (1, 2, 3)):
        atlas = enumerate_components(EnumerationOptions(k, floor))
        kinds = Counter(
            (reflexive_tag(r.descriptor.reflexive).partition(":")[0],
             curve_tag(r.descriptor.curve).partition(":")[0])
            for r in atlas.reports
        )
        # the table's footer: the count, then one line per kind pair
        table = io.StringIO()
        write_atlas(atlas.options, atlas.reports, "table", table)
        _, count, footer = table.getvalue().partition(
            "\n%d component(s) for c2 = %d\n" % (len(atlas.reports), k))
        assert count, (k, floor)
        assert [line for line in footer.splitlines() if " over " in line] == [
            "  %s over %s: %d" % (fam, curve, n)
            for (fam, curve), n in sorted(kinds.items())], (k, floor)
        reflexives |= {r.descriptor.reflexive for r in atlas.reports}
        curves |= {r.descriptor.curve for r in atlas.reports}
    kinds_seen = {reflexive_tag(f).partition(":")[0] for f in reflexives}
    kinds_seen |= {curve_tag(c).partition(":")[0] for c in curves}
    assert kinds_seen == {"S", "V", "R", "CI"}
    for fam in reflexives:
        assert parse_reflexive(reflexive_tag(fam)) == fam
    for curve in curves:
        assert parse_curve(curve_tag(curve)) == curve


@pytest.mark.parametrize("text", ["S:1,2", "V:", "V:a", "X:1"])
def test_malformed_reflexive_tag(text):
    message = "cannot parse reflexive family %r" % text
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        parse_reflexive(text)


@pytest.mark.parametrize("text", ["R:1,2", "CI:2", "R:+3", "R: 3", "R:03",
                                  "R:1_0", "R:\u0663"])
def test_malformed_curve_tag(text):
    message = "cannot parse curve family %r" % text
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        parse_curve(text)


def test_excluded_complete_intersection_tag():
    with pytest.raises(ValueError, match="excluded"):
        parse_curve("CI:1,2")
