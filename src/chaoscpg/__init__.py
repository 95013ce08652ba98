"""Chaotic two-neuron oscillators, gait generation and leg-failure learning."""

__version__ = "0.1.0"

from .core import (CpgOscillator, CpgParams, CpgState, GAIT_PERIODS,
                   Trajectory, detect_period, lyapunov_estimate,
                   run_controlled, step)
from .gait import (CYCLE_EXPANSION, DUTY_FACTORS, DelayConfig, GaitClass,
                   GaitTrace, UnsupportedPeriodError, apply_delays,
                   classify_gait, gait_trace, motor_rhythm, render_gait,
                   rhythm_cycle)
from .learner import (Decision, LearnerConfig, LearningTrace, PERIOD_CHOICES,
                      SearchSpaceExhausted, TrialRecord, accept, learn,
                      plant_evaluator, propose, sweep_beta)
from .network import ClientCpg, CpgNetwork, LegId, Morphology, NetworkTrace
from .plant import (DeviationSample, PlantConfig, Scenario, all_fours,
                    load_config, mirror, save_config, simulate_window)
from .scenarios import (battery, hexapod_battery, mirror_set,
                        quadruped_battery, search_space_size)

__all__ = [name for name in dir() if not name.startswith("_")]
