"""Master/client composition, synchrony and period assignment."""

import numpy as np
import pytest

from chaoscpg.core import CpgOscillator, CpgParams, detect_period
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
        assert len(osc.history) <= 4  # delay line holds one period, no more
    assert osc.locked and len(osc.history) == 4
    net.set_sync(LegId.L1, True)
    net.set_sync(LegId.L1, False)
    assert not osc.locked and osc.lock_step is None
    assert len(osc.history) == 0


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


def test_network_trace_csv(tmp_path):
    net = CpgNetwork(seed=0, master_period=4)
    trace = net.run(25)
    path = tmp_path / "net.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "R1_x1" in header and "R1_alpha" not in header
    assert "L3_x1" in header and "L3_alpha" in header
    assert len(lines) == 1 + 26
