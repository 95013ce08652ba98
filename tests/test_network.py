"""Master/client composition, synchrony and period assignment."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscpg.core import GAIT_PERIODS, CpgOscillator, CpgParams, detect_period
from chaoscpg.network import CpgNetwork, LegId, Morphology


def test_all_synced_clients_copy_master_exactly():
    net = CpgNetwork(seed=3, master_period=5)
    for _ in range(600):
        net.step()
        m = net.state_of(LegId.R1)
        for leg in net.legs:
            if leg is not LegId.R1:
                assert net.state_of(leg).x1 == m.x1


def test_synced_x2_matches_from_second_step():
    net = CpgNetwork(seed=3, master_period=5)
    net.step()
    net.step()
    for _ in range(500):
        net.step()
        m = net.state_of(LegId.R1)
        for leg in net.legs:
            if leg is not LegId.R1:
                assert net.state_of(leg).x2 == m.x2


def test_sync_enable_at_random_step():
    rng = np.random.default_rng(17)
    net = CpgNetwork(seed=9, master_period=5)
    net.set_periods({LegId.L2: 6})
    assert net.clients[LegId.L2].alpha == 0
    for _ in range(int(rng.integers(50, 400))):
        net.step()
    net.set_sync(LegId.L2, True)
    net.step()
    assert net.state_of(LegId.L2).x1 == net.state_of(LegId.R1).x1
    net.step()
    net.step()
    assert net.state_of(LegId.L2).x2 == net.state_of(LegId.R1).x2


def test_desync_restores_own_period():
    # master locks period 5 while the desynced client locks period 6
    net = CpgNetwork(seed=5, master_period=5)
    net.set_periods({LegId.L2: 6})
    trace = net.run(2500)
    assert detect_period(trace.x1[LegId.R1]) == 5
    assert detect_period(trace.x1[LegId.L2]) == 6
    # legs still matching the master's period stayed synchronized
    assert trace.alpha[LegId.R2][-1] == 1
    assert trace.alpha[LegId.L2][-1] == 0


def test_desynced_clients_attain_their_periods_across_seeds():
    hits = 0
    for seed in range(20):
        net = CpgNetwork(seed=seed, master_period=5)
        net.set_periods({LegId.L3: 8})
        xs = []
        for _ in range(2000):
            net.step()
            xs.append(net.state_of(LegId.L3).x1)
        hits += detect_period(xs) == 8
    assert hits >= 19


def test_sync_toggle_idempotent():
    net = CpgNetwork(seed=1)
    net.set_sync(LegId.R2, False)
    net.set_sync(LegId.R2, False)
    assert net.clients[LegId.R2].alpha == 0
    net.set_sync(LegId.R2, True)
    net.set_sync(LegId.R2, True)
    assert net.clients[LegId.R2].alpha == 1


def test_desync_resets_controller():
    net = CpgNetwork(seed=2, master_period=4)
    for _ in range(300):
        net.step()
    net.set_sync(LegId.L1, False)
    osc = net.clients[LegId.L1].osc
    for _ in range(100):
        net.step()
    assert osc.locked and osc.lock_step > 300
    net.set_sync(LegId.L1, True)
    net.set_sync(LegId.L1, False)
    # the lock from before the resync is cleared, not carried over
    assert not osc.locked and osc.lock_step is None
    assert osc._loop is None and osc._loop_c1 is None and osc._phase == 0
    net.step()  # a new lock can only start from the current state
    assert osc.lock_step in (None, osc.state.t)


def test_independent_clients_match_isolated_oscillators():
    net = CpgNetwork(seed=11, master_period=4)
    inits = {leg: net.state_of(leg) for leg in net.legs}
    for leg in net.legs:
        if leg is not LegId.R1:
            net.set_sync(leg, False)
    isolated = {
        leg: CpgOscillator(CpgParams(), 4, init=(inits[leg].x1, inits[leg].x2))
        for leg in net.legs if leg is not LegId.R1
    }
    for _ in range(700):
        net.step()
        for leg, osc in isolated.items():
            osc.advance()
            assert osc.state.x1 == net.state_of(leg).x1
            assert osc.state.x2 == net.state_of(leg).x2


def test_master_unaffected_by_clients():
    a = CpgNetwork(seed=4, master_period=5)
    b = CpgNetwork(seed=4, master_period=5)
    b.set_periods({LegId.L3: 9, LegId.R2: 6})
    for _ in range(400):
        a.step()
        b.step()
        assert a.state_of(LegId.R1).x1 == b.state_of(LegId.R1).x1


def test_period_assignment_rules():
    net = CpgNetwork(seed=0, master_period=4)
    net.set_periods({LegId.R2: 5, LegId.R3: 4, LegId.L1: 5,
                     LegId.L2: 6, LegId.L3: 5})
    assert net.periods[LegId.L2] == 6
    # clients that moved off the master's period lost synchrony
    assert net.clients[LegId.R2].alpha == 0
    assert net.clients[LegId.L2].alpha == 0
    # the client kept at the master's period may stay synchronized
    assert net.clients[LegId.R3].alpha == 1
    with pytest.raises(ValueError):
        net.set_periods({LegId.L1: 7})
    with pytest.raises(ValueError):
        net.set_periods({LegId.L1: 2})
    with pytest.raises(ValueError):
        net.set_periods({LegId.L1: 3})


def test_master_period_change_desyncs_stale_clients():
    net = CpgNetwork(seed=0, master_period=4)
    net.set_periods({LegId.R1: 6})
    for leg, client in net.clients.items():
        assert client.alpha == 0, f"{leg.value} kept stale synchrony"
    assert net.periods[LegId.R2] == 4  # stored desync target unchanged


def test_network_deterministic_per_seed():
    a = CpgNetwork(seed=21, master_period=5)
    b = CpgNetwork(seed=21, master_period=5)
    a.set_periods({LegId.L1: 8})
    b.set_periods({LegId.L1: 8})
    for _ in range(500):
        a.step()
        b.step()
    for leg in a.legs:
        assert a.state_of(leg) == b.state_of(leg)


def test_quadruped_has_no_hind_row():
    net = CpgNetwork(morphology=Morphology.QUADRUPED, seed=0)
    assert [l.value for l in net.legs] == ["R1", "R2", "L1", "L2"]
    with pytest.raises(ValueError):
        net.set_periods({LegId.R3: 4})


def test_master_sync_toggle_rejected():
    net = CpgNetwork(seed=0)
    with pytest.raises(ValueError):
        net.set_sync(LegId.R1, True)


def test_all_fours_behaves_like_single_oscillator():
    net = CpgNetwork(seed=8, master_period=4,
                     master_init=(0.21, 0.55))
    single = CpgOscillator(CpgParams(), 4, init=(0.21, 0.55))
    for _ in range(900):
        net.step()
        single.advance()
        x1 = single.state.x1
        for leg in net.legs:
            assert net.state_of(leg).x1 == x1


def test_run_rejects_negative_steps():
    net = CpgNetwork(seed=0)
    with pytest.raises(ValueError):
        net.run(-1)
    before = {leg: net.state_of(leg) for leg in net.legs}
    trace = net.run(0)
    assert len(trace) == 1
    for leg in net.legs:
        assert net.state_of(leg) == before[leg]
        assert trace.x1[leg][0] == before[leg].x1
        assert trace.x2[leg][0] == before[leg].x2


def test_periods_and_leg_keys_are_validated():
    for bad in (4.0, True, "4", None):
        with pytest.raises(ValueError):
            CpgNetwork(master_period=bad)
        with pytest.raises(ValueError):
            CpgNetwork(seed=0).set_periods({LegId.L1: bad})
    for bad in ("X9", "r1", 1, None):
        with pytest.raises(ValueError):
            CpgNetwork(seed=0).set_periods({bad: 5})
    # set_sync and state_of take leg names as set_periods does
    with pytest.raises(ValueError, match="master"):
        CpgNetwork(seed=0).set_sync("R1", False)
    with pytest.raises(ValueError):
        CpgNetwork(seed=0).set_sync("X9", False)
    with pytest.raises(ValueError):
        CpgNetwork(Morphology.QUADRUPED, seed=0).set_sync(LegId.R3, False)
    with pytest.raises(ValueError):
        CpgNetwork(seed=0).state_of("X9")
    net = CpgNetwork(seed=0)
    assert net.state_of("R1") == net.state_of(LegId.R1) == net.master.state
    net = CpgNetwork(seed=0, master_period=4)
    net.set_periods({"R1": 5, "L2": 6})
    assert net.master.p == 5 and net.periods[LegId.R1] == 5
    assert net.periods[LegId.L2] == 6 and net.clients[LegId.L2].osc.p == 6
    assert all(type(leg) is LegId for leg in net.periods)


# -- run() copies whole hyper-periods once the network is locked -------------


def _reference_run(net, steps):
    """Rows of x1, x2 and alpha from plain stepping, the start included."""
    rows = []
    for k in range(steps + 1):
        if k:
            net.step()
        rows.append([(net.state_of(l).x1, net.state_of(l).x2,
                      net.clients[l].alpha if l in net.clients else None)
                     for l in net.legs])
    return rows


def _trace_rows(traces):
    """Rows of consecutive traces; each trace repeats the last row before it."""
    rows = []
    for i, trace in enumerate(traces):
        legs = trace.legs
        for k in range(1 if i else 0, len(trace)):
            rows.append([(float(trace.x1[l][k]), float(trace.x2[l][k]),
                          int(trace.alpha[l][k]) if l in trace.alpha else None)
                         for l in legs])
    return rows


def _oscillators(net):
    return [net.master] + [c.osc for c in net.clients.values()]


def _assert_same_network(net, ref):
    for a, b in zip(_oscillators(net), _oscillators(ref)):
        assert a.state == b.state
        assert type(a.state.x1) is float and type(a.state.x2) is float
        assert a._phase == b._phase
        assert a.last_c == b.last_c
        assert a.locked == b.locked and a.lock_step == b.lock_step
    assert [c.alpha for c in net.clients.values()] == \
        [c.alpha for c in ref.clients.values()]


def _run_both(net, ref, *chunks):
    """run(a), run(b), ... on net against one plain loop of a + b + ... steps."""
    got = _trace_rows([net.run(steps) for steps in chunks])
    want = _reference_run(ref, sum(chunks))
    # == on the floats is bitwise here: activities lie in (0, 1), never NaN
    assert got == want
    _assert_same_network(net, ref)


def _hyper_period(net):
    movers = [net.master] + [c.osc for c in net.clients.values()
                             if c.alpha == 0]
    return math.lcm(*(osc.p for osc in movers))


@settings(max_examples=30)
@given(st.data())
def test_run_matches_plain_stepping(data):
    morphology = data.draw(st.sampled_from(list(Morphology)))
    params = data.draw(st.sampled_from([CpgParams(), CpgParams(w22=0.8)]))
    net = CpgNetwork(morphology, params=params,
                     master_period=data.draw(st.sampled_from(GAIT_PERIODS)),
                     seed=data.draw(st.integers(0, 2 ** 16)))
    ref = copy.deepcopy(net)
    _run_both(net, ref, data.draw(st.integers(0, 300)))
    periods = data.draw(st.dictionaries(st.sampled_from(morphology.legs),
                                        st.sampled_from(GAIT_PERIODS)))
    net.set_periods(periods)
    ref.set_periods(periods)
    _run_both(net, ref, data.draw(st.integers(0, 1500)))
    # step counts around the hyper-period L, split over two runs
    hyper = _hyper_period(net)
    near = st.sampled_from([0, 1, hyper - 1, hyper, hyper + 1,
                            2 * hyper + hyper // 2]) | st.integers(0, 4 * hyper)
    _run_both(net, ref, data.draw(near), data.draw(near))
    # a client that locked on its own is pulled back into sync
    locked = [l for l, c in net.clients.items() if c.alpha == 0 and c.osc.locked]
    if locked:
        leg = data.draw(st.sampled_from(locked))
        net.set_sync(leg, True)
        ref.set_sync(leg, True)
        _run_both(net, ref, data.draw(near), data.draw(st.integers(0, 200)))


def test_run_copies_only_a_recurring_state(monkeypatch):
    # with w22 != 0 a resynced client's second neuron takes a while to
    # settle bitwise, so the first snapshots after the lock do not recur
    def build(params):
        net = CpgNetwork(Morphology.QUADRUPED, params=params, seed=0)
        net.set_periods({LegId.L2: 6})
        net.run(2000)
        assert net.master.locked and net.clients[LegId.L2].osc.locked
        net.set_sync(LegId.L2, True)
        return net

    stepped = []
    step = CpgNetwork.step
    monkeypatch.setattr(CpgNetwork, "step",
                        lambda self: stepped.append(1) or step(self))
    for params, fell_back in ((CpgParams(), False), (CpgParams(w22=0.8), True)):
        net = build(params)
        ref = copy.deepcopy(net)
        stepped.clear()
        trace = net.run(3000)
        # L = 4: the snapshot at row 0 (resynced x1) fails, the one at row 4
        # recurs at row 8 unless the second neuron is still settling
        simulated = len(stepped)
        assert simulated > 8 if fell_back else simulated == 8
        assert simulated < 3000
        assert _trace_rows([trace]) == _reference_run(ref, 3000)
        _assert_same_network(net, ref)


def test_copying_starts_one_hyper_period_after_the_row_past_the_last_lock(
        monkeypatch):
    # the row where the last mover locks has its x2 off the loop, so the
    # first snapshot is the row after it, which recurs L steps later
    net = CpgNetwork(seed=11, master_period=4)
    net.run(200)
    assert net.master.locked
    periods = {LegId.R2: 5, LegId.R3: 8, LegId.L1: 4, LegId.L2: 9, LegId.L3: 6}
    net.set_periods(periods)
    ref = copy.deepcopy(net)
    start = net.master.state.t
    stepped = []
    step = CpgNetwork.step
    monkeypatch.setattr(CpgNetwork, "step",
                        lambda self: stepped.append(1) or step(self))
    trace = net.run(8000)
    movers = [net.master] + [net.clients[l].osc for l in periods if l is not LegId.L1]
    last_lock = max(osc.lock_step for osc in movers) - start
    assert last_lock > 0
    assert len(stepped) == last_lock + 1 + _hyper_period(net) == 364
    assert _trace_rows([trace]) == _reference_run(ref, 8000)
    _assert_same_network(net, ref)
