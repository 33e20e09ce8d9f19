"""Desk-scale simulator of decentralized class-incremental learning."""

from .nncore import (
    CompositeLoss,
    ConfigError,
    CrossEntropyTerm,
    DistillTerm,
    InputError,
    NetSpec,
    ParamVector,
    ParameterError,
    ProximalTerm,
    UniformActivationTerm,
    backward,
    expand_head,
    forward_batch,
    init_params,
    sgd_step,
    softmax_t,
)
from .data import (
    Dataset,
    SessionSplit,
    SitePartition,
    make_synthetic,
    partition_dirichlet,
    partition_iid,
    split_sessions,
)
from .local_learner import (
    AnchorSet,
    LocalLossConfig,
    SiteState,
    local_update,
    select_anchors_herding,
    update_anchor_set,
)
from .distillation import (
    EnsembleWeights,
    build_shared_dataset,
    dad_refine,
    dcd_finetune,
    ensemble_logits,
    fedavg_aggregate,
)
from .orchestrator import (
    CommLedger,
    MetricsRecord,
    RunConfig,
    RunResult,
    evaluate,
    run,
    summarize,
)

__version__ = "0.1.0"
