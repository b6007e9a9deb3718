"""softdag: symbolic regression over a layered softmax selection network.

The package represents a probability distribution over compositions of
basis functions, trains it with a truncation-selection evolutionary
strategy, and extracts the most likely composition as a readable
expression.
"""

from .bases import (
    ArityError,
    BasisFunction,
    DIV_GUARD,
    builtin_registry,
    eval_basis,
    resolve_bases,
)
from .network import (
    ConfigError,
    Network,
    NetworkConfig,
    WeightsFormatError,
    build_network,
    load_network,
    parameter_count,
    save_network,
    softmax_rows,
)
from .sampler import (
    SampledDAG,
    SampledPopulation,
    log_probability,
    most_likely_dag,
    sample,
    sample_many,
)
from .plan import evaluate, evaluate_recurrent
from .scoring import fitness, select_top
from .expression import (
    Apply,
    Choices,
    Const,
    Expr,
    Input,
    Interval,
    ParseError,
    dag_to_expression,
    evaluate_tree,
    evaluate_tree_batch,
    input_indices,
    numeric_equivalent,
    parse,
    sample_domain,
    simplify,
    to_string,
)
from .trainer import (
    AdamState,
    CsvTrainLogger,
    EpochStats,
    TrainConfig,
    TrainRun,
    adam_step,
    loss_gradient,
    train,
    train_epoch,
)
from .data import (
    Dataset,
    DatasetSource,
    IdxFormatError,
    ResamplingSource,
    TargetSpec,
    classification_accuracy,
    generate,
    load_idx,
    split,
)

__version__ = "0.1.0"
