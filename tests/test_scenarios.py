"""The committed scenario batteries are pinned here."""

from chaoscpg.network import LegId, Morphology
from chaoscpg.scenarios import battery, search_space_size


def names(s):
    return frozenset(l.value for l in s)


def test_battery_hexapod_shape():
    rows = battery(Morphology.HEXAPOD)
    assert len(rows) == 21
    sizes = [len(r) for r in rows]
    assert sizes.count(1) == 6
    assert sizes.count(2) == 6
    assert sizes.count(3) == 9


def test_no_multi_leg_row_mirrors_another():
    rows = battery(Morphology.HEXAPOD)
    multi = [r for r in rows if len(r) > 1]
    for i, r in enumerate(multi):
        for other in multi[i + 1:]:
            assert frozenset(l.mirrored for l in r) != other, (names(r), names(other))


def test_rows_are_unique():
    rows = battery(Morphology.HEXAPOD)
    assert len(set(rows)) == 21


def test_referenced_scenarios_present():
    rows = set(battery(Morphology.HEXAPOD))
    assert frozenset({LegId.R1}) in rows
    assert frozenset({LegId.R1, LegId.R3}) in rows
    assert frozenset({LegId.R1, LegId.L2}) in rows
    assert frozenset({LegId.R1, LegId.R3, LegId.L2}) in rows


def test_full_side_failure_excluded():
    rows = set(battery(Morphology.HEXAPOD))
    assert frozenset({LegId.R1, LegId.R2, LegId.R3}) not in rows
    assert frozenset({LegId.L1, LegId.L2, LegId.L3}) not in rows


def test_three_leg_rows_cover_all_recoverable_mirror_classes():
    rows = [r for r in battery(Morphology.HEXAPOD) if len(r) == 3]
    # exactly the sets with two right legs and one left leg
    for r in rows:
        sides = sorted(l.side for l in r)
        assert sides == ["L", "R", "R"]
    assert len(set(rows)) == 9


def test_battery_quadruped():
    rows = battery(Morphology.QUADRUPED)
    assert len(rows) == 4
    assert all(len(r) == 1 for r in rows)
    assert {names(r) for r in rows} == {frozenset({n}) for n in
                                        ("R1", "R2", "L1", "L2")}


def test_search_space_sizes():
    assert search_space_size(Morphology.HEXAPOD) == 15625
    assert search_space_size(Morphology.QUADRUPED) == 625
