"""evograft: evolutionary multitask learning over a growing, sparsely-activated layer DAG.

A system starts from one root model. For each active task, generations of
child models are sampled by cloning layers of a chosen parent and stepping its
hyperparameters; children train only their cloned layers against shared frozen
state, and only the best model per task is retained. Frozen layers are
immutable and content-addressed, which makes retained models immune to later
evolution and makes per-task knowledge removable and access-controllable.
"""

from .accounting import ParamReport, export_graph, param_report, variance_summary
from .errors import (AclError, ConfigError, CorruptionError, DataError, EvograftError,
                     InvariantError, StructuralError, ValidationError)
from .evolution import (EvolutionConfig, IterationReport, run_schedule, run_task_iteration,
                        sample_parent, score_model, train_child)
from .mutation import Genome, MutationSet, SearchSpace, apply_mutations, sample_mutations
from .nn.config import ArchConfig, Batch, LayerConfig, LayerKind, OptimizerConfig, PreprocConfig
from .persistence import load, manifest_hash, save
from .store import (LayerRecord, LayerStore, ModelRecord, SystemState, garbage_collect,
                    provenance_report)
from .system import build_root_state, register_task
from .tasks import (AccessMode, AccessPolicy, Dataset, TaskSpec, acl_allows,
                    load_raw_dataset, make_synthetic_glyph_task, save_raw_dataset)

__version__ = "0.1.0"
