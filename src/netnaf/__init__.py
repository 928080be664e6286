"""netnaf: model-free networked control with continuous Q-learning.

A dense-network controller with a quadratic advantage head is trained to
stabilize an unknown plant across two randomly delayed channels, acting on
an extended state of recent outputs and issued inputs instead of the
unobservable plant state.
"""

from .agent import (HistoryBuffer, OrnsteinUhlenbeck, OuSettings, ReplayMemory,
                    Trainer, TrainSettings, LoopSetup, batch_loss_and_grad,
                    batch_targets, extended_state_dim, noise_scale, run_episode,
                    split_extended_state, transition_reward)
from .config import ExperimentConfig, load_config, parse_config
from .delays import Actuator, DelayedChannel, DelayModel, sample_delay
from .errors import (CheckpointFormatError, ConfigError, DimensionError,
                     DivergenceError, NumericsError)
from .naf import EXP_CLAMP, assemble_scale_matrix, quadratic_head, tri_size
from .nn import (AdamState, DenseLayer, ForwardTrace, MlpNetwork, adam_step,
                 backward, forward, init_network, load_checkpoint,
                 parameter_layout, save_checkpoint, soft_update)
from .plant import (ChuaCircuit, InputSchedule, SensorMap, chua_sensor,
                    integrate, sense)
from .reward import (RewardWeights, input_history_reward, output_change_reward,
                     output_history_reward, total_reward)

__version__ = "0.1.0"
